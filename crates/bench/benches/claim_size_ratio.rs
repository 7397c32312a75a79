//! E9 — §1 / §3.4.1 claim: "under the same perceived quality, 360°
//! videos have around 5x larger sizes than conventional videos" (and
//! "about 4 to 5 times larger" for live), plus §2's offset cube map
//! (Oculus), the projection that spends those pixels unevenly: one
//! version per expected gaze, dense at its focus and sparse behind it.

use sperke_bench::{cols, header, note, row};
use sperke_geo::{OffsetCubeMap, Orientation, PixelBudget, Vec3};

fn main() {
    header(
        "E9 / §1 claim",
        "panorama vs conventional video size at matched perceived quality",
    );
    cols("viewport", &["ratio", "paper"]);
    let mut headset_ratio = 0.0;
    let mut all = Vec::new();
    for &(hfov, vfov, label) in &[
        (100.0f64, 90.0f64, "headset 100x90 (paper premise)"),
        (90.0, 60.0, "narrow phone window 90x60"),
        (110.0, 100.0, "wide headset 110x100"),
    ] {
        let pb = PixelBudget {
            viewport_hfov: hfov.to_radians(),
            viewport_vfov: vfov.to_radians(),
        };
        // Ratio is resolution-independent; 1080p shown for concreteness.
        let ratio = pb.size_ratio(1920, 1080);
        if label.contains("premise") {
            headset_ratio = ratio;
        }
        all.push((hfov * vfov, ratio));
        row(label, &[ratio, 4.5]);
    }
    note("model: equirect panorama matching the perspective video's angular");
    note("resolution at the viewport centre; bytes scale with pixels.");
    note("the paper's ~4-5x holds for headset-class FoVs; narrower windows see");
    note("even larger blowups (they use less of the panorama per frame).");

    assert!(
        (3.5..5.5).contains(&headset_ratio),
        "headset viewport must land in the paper's band, got {headset_ratio:.2}"
    );
    // Narrower FoVs must blow up more.
    let mut sorted = all.clone();
    sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    assert!(
        sorted.windows(2).all(|w| w[0].1 >= w[1].1),
        "ratio must fall as the FoV widens: {sorted:?}"
    );

    header(
        "E9 / §2 offset cube map",
        "pixel density vs angle from the version's focus (plain cube map = 1)",
    );
    cols("angle from focus", &["density"]);
    let ocm = OffsetCubeMap::oculus(Vec3::X);
    let mut density = Vec::new();
    for deg in [0.0, 45.0, 90.0, 135.0, 180.0] {
        let d = ocm.density(Orientation::from_degrees(deg, 0.0, 0.0).direction());
        density.push(d);
        row(&format!("{deg:.0} deg"), &[d]);
    }
    note("offset 0.7 toward the focus (OffsetCubeMap::oculus): the version");
    note("concentrates pixels where it expects the viewer to look.");
    let (focus, side, antipode) = (density[0], density[2], density[4]);
    assert!(
        focus > 1.0 && side < focus && antipode < side && antipode < 1.0,
        "density must fall from above 1 at the focus, through 90 deg, to \
         below 1 at the antipode: {density:?}"
    );
    assert!(
        density.windows(2).all(|w| w[1] < w[0]),
        "density must fall monotonically away from the focus: {density:?}"
    );
    println!("shape check: PASS");
}
