//! The Sperke benchmark: three workloads driven through the stable
//! builder entry points, with end-to-end metrics from untraced runs and
//! a per-crate layer profile from a separate traced run.
//!
//! ```sh
//! cargo run --release --manifest-path sperkebench/Cargo.toml -- \
//!     --workload fed_flash --seed 77 --seconds 40 --trace 0
//! cargo run --release --manifest-path sperkebench/Cargo.toml -- refs > sperkebench/refs.txt
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod profile;
mod util;
mod workload;

use std::time::{Duration, Instant};
use util::{host_stamp, peak_rss_mb, timed, trimmed_mean, Metrics};
use workload::{Kind, Outcome, Setup, DEFAULT_SEED};

/// One set-up takes microseconds, so a `setup_s` sample is the mean of
/// this many consecutive set-ups. One sample is taken before every pair
/// of timed runs, so the samples see the same host phases as the runs.
const SETUP_BATCH: usize = 50;
/// Minimum timed repetitions per worker count, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Seeds `0..REF_SEEDS` get a stored reference hash, besides each
/// workload's default and held-out seed.
const REF_SEEDS: u64 = 100;

/// Reference report hashes, one `workload seed hash` line each.
const REFS: &str = include_str!("../refs.txt");

fn reference(kind: Kind, seed: u64) -> Option<u64> {
    REFS.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let mut parts = l.split_whitespace();
        let (name, s, hash) = (parts.next()?, parts.next()?, parts.next()?);
        (name == kind.name() && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(hash, 16).ok())
            .flatten()
    })
}

/// Counts checked runs and the ones that broke an identity, missed the
/// reference hash, or differed from the process's first run.
pub struct Checker {
    reference: Option<u64>,
    first: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    pub fn new(kind: Kind, seed: u64) -> Checker {
        let reference = reference(kind, seed);
        if reference.is_none() {
            eprintln!("note: no reference hash for {} seed {seed}", kind.name());
        }
        Checker {
            reference,
            first: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// Count one extra checked operation that passed if `ok`.
    pub fn expect(&mut self, label: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAIL {label}");
        }
    }

    pub fn record(&mut self, label: &str, outcome: Outcome) {
        let mut problems = outcome.problems;
        if let Some(r) = self.reference.filter(|&r| r != outcome.hash) {
            problems.push(format!("hash {:016x} != reference {r:016x}", outcome.hash));
        }
        match self.first {
            None => self.first = Some(outcome.hash),
            Some(f) if f != outcome.hash => problems.push(format!(
                "hash {:016x} differs from the first run's {f:016x}",
                outcome.hash
            )),
            Some(_) => {}
        }
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            eprintln!("FAIL {label}: {}", problems.join("; "));
        }
    }
}

struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        seed: seed.unwrap_or(DEFAULT_SEED),
        workload,
        seconds,
        trace,
    })
}

/// Seconds per set-up: the mean over `SETUP_BATCH` consecutive set-ups.
fn setup_seconds(kind: Kind, seed: u64) -> f64 {
    let (t, ()) = timed(|| {
        for _ in 0..SETUP_BATCH {
            std::hint::black_box(Setup::build(kind, seed));
        }
    });
    t / SETUP_BATCH as f64
}

/// The end-to-end run: alternate 1- and 2-worker runs (and set-up
/// samples) for `seconds` after one discarded warm-up run of each.
fn end_to_end(args: &Args) -> (Checker, Metrics) {
    let setup = Setup::build(args.workload, args.seed);
    let mut checker = Checker::new(args.workload, args.seed);
    for workers in [1, 2] {
        let report = setup.run(workers);
        checker.record(&format!("warm-up w{workers}"), setup.check(&report));
    }
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut w1, mut w2, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    while Instant::now() < deadline || w1.len() < MIN_REPS {
        setup_s.push(setup_seconds(args.workload, args.seed));
        for (workers, times) in [(1, &mut w1), (2, &mut w2)] {
            let (t, report) = timed(|| setup.run(workers));
            checker.record(
                &format!("w{workers} rep {}", times.len()),
                setup.check(&report),
            );
            times.push(t);
        }
    }
    let steps = setup.steps() as f64;
    println!("{}: {steps} steps per run", args.workload.name());
    for (label, times) in [("w1", &w1), ("w2", &w2)] {
        let ms: Vec<String> = times.iter().map(|t| format!("{:.0}", t * 1e3)).collect();
        println!("  {label} run ms: {}", ms.join(" "));
    }
    let mut m = Metrics::new();
    m.put("steps_per_s", steps / trimmed_mean(&w1), "steps/s");
    m.put("steps_per_s.w2", steps / trimmed_mean(&w2), "steps/s");
    m.put("setup_s", trimmed_mean(&setup_s), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    (checker, m)
}

/// Print reference hashes for every workload over the stored seeds.
fn write_refs() {
    let (nproc, cpu) = host_stamp();
    println!("# Report hash per workload and seed: `workload seed hash`.");
    println!("# Regenerate with `cargo run --release -- refs > refs.txt`.");
    println!("# Generated on nproc={nproc}, cpu=\"{cpu}\".");
    for kind in Kind::ALL {
        let mut seeds: Vec<u64> = (0..REF_SEEDS).collect();
        seeds.extend([DEFAULT_SEED, kind.heldout_seed()]);
        seeds.sort_unstable();
        seeds.dedup();
        let mut seen = std::collections::HashMap::new();
        for seed in seeds {
            let setup = Setup::build(kind, seed);
            let outcome = setup.check(&setup.run(2));
            assert!(
                outcome.problems.is_empty(),
                "{} seed {seed}: {:?}",
                kind.name(),
                outcome.problems
            );
            if let Some(other) = seen.insert(outcome.hash, seed) {
                panic!("{} seeds {other} and {seed} share a hash", kind.name());
            }
            println!("{} {seed} {:016x}", kind.name(), outcome.hash);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("refs") {
        write_refs();
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: sperkebench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let (nproc, cpu) = host_stamp();
    println!(
        "host: nproc={nproc} cpu=\"{cpu}\"; workload {} seed {} (default {DEFAULT_SEED}, held-out {})",
        args.workload.name(),
        args.seed,
        args.workload.heldout_seed()
    );
    let (checker, metrics) = if args.trace {
        profile::run(args.workload, args.seed, args.seconds)
    } else {
        end_to_end(&args)
    };
    for (name, value, unit) in &metrics.0 {
        println!("  {name:<28} {value:>16.6e} {unit}");
    }
    let fail_frac = checker.failed as f64 / checker.attempted.max(1) as f64;
    println!(
        "  {:<28} {fail_frac:>16.6e} ratio ({} of {} checked runs failed)",
        "fail_frac", checker.failed, checker.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checker.failed == 0,
        checker.attempted,
        checker.failed,
        metrics.to_json()
    );
}
