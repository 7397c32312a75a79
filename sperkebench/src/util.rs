//! Timing, statistics, span recording and output helpers.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// The median of `values` (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The mean of `values` after dropping the lowest and highest tenth.
/// Run times here mix a fast and a slow host phase that last seconds:
/// a median lands on one phase or the other, this mean moves smoothly
/// with the mix, and trimming still drops one-off stalls.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len() / 10;
    let kept = &v[k..v.len() - k];
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// Wall seconds `f` takes, and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Median nanoseconds per call over `rounds` timed batches, each batch
/// calling `op(i)` for every `i` in `0..batch`.
pub fn per_call_ns(rounds: usize, batch: usize, mut op: impl FnMut(usize)) -> f64 {
    if batch == 0 {
        return 0.0;
    }
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            for i in 0..batch {
                op(i);
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&samples)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host stamp every result carries: core count and CPU model.
pub fn host_stamp() -> (usize, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    (nproc, cpu)
}

/// One recorded span: a layer call timed from outside.
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder; written out once the run ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent`; close it with [`Spans::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a span and return its result.
    pub fn time<R>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Duration of span `id`, seconds.
    pub fn secs(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Seconds of every closed span named `name` whose parent is `parent`.
    pub fn durations(&self, name: &str, parent: usize) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent == Some(parent))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

/// A named metric value with its unit, in emission order.
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn new() -> Metrics {
        Metrics(Vec::new())
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }

    /// The `"metrics"` JSON object.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}
