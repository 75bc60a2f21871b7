//! Shared pieces of the harness: metrics, percentile summaries, the
//! benchmark's own span recorder and peak-RSS reads.

pub use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One named metric as printed in the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, queries, chunks).
    pub attempted: u64,
    /// Operations that errored or disagreed with their oracle.
    pub failed: u64,
    /// Descriptions of the first few failures.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra run-record fields (sample counts, percentiles, sizes).
    pub record: Vec<(String, Value)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, key: &str, value: Value) {
        self.record.push((key.to_string(), value));
    }

    /// Counts one failed operation, keeping its description.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// A timing summary: median and the tail percentile, with the sample
/// count behind both.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    /// The highest percentile of the ladder with at least
    /// [`TAIL_BEYOND`] samples beyond it.
    pub tail_pct: f64,
    pub tail: f64,
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: f64 = 10.0;

/// Candidate tail percentiles, highest first.
/// Coarse steps, so a run-to-run wobble in the sample count rarely moves
/// the chosen percentile.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of any samples (not necessarily sorted).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median plus the highest ladder percentile that still has ten samples
/// beyond it (the median itself when there are too few samples).
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let tail_pct = TAIL_LADDER
        .iter()
        .copied()
        .find(|p| n * (1.0 - p / 100.0) >= TAIL_BEYOND)
        .unwrap_or(50.0);
    let p50 = median(&v);
    Summary {
        samples: v.len(),
        p50,
        tail_pct,
        tail: if v.is_empty() || tail_pct == 50.0 {
            p50
        } else {
            percentile(&v, tail_pct)
        },
    }
}

impl Summary {
    /// The run-record entry describing this summary.
    pub fn record(&self, unit: &str) -> Value {
        json!({
            "samples": self.samples,
            "p50": self.p50,
            "tail_percentile": self.tail_pct,
            "tail": self.tail,
            "unit": unit,
        })
    }
}

/// Times `reps` repetitions of a set-up step after one untimed warm-up
/// repetition; returns the times and the value the last repetition
/// returned.
pub fn timed_reps<T>(reps: usize, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    std::hint::black_box(f());
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let out = f();
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (secs, last.expect("at least one repetition"))
}

/// The band every `m × m` window shares under an alignment-free policy,
/// made feasible the way `SubseqMatcher` makes it.
pub fn window_band(sdtw: &sdtw_suite::core::SDtw, m: usize) -> sdtw_suite::dtw::Band {
    let (band, _) = sdtw.plan_band(&[], &[], m, m);
    if band.is_feasible() {
        band
    } else {
        band.sanitize()
    }
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One span of the benchmark's own trace: a timed call into a crate's
/// public function (or a whole operation, for root spans).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub op: u64,
}

/// In-memory span recorder, single-threaded by construction: the traced
/// replays run serially so nested spans never overlap their siblings.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    /// Exact integer counters, keyed by metric name.
    pub counts: BTreeMap<String, u64>,
    /// The program's own `QueryTrace` rows, one NDJSON line each, kept
    /// beside the benchmark's spans in the dump.
    pub program_rows: Vec<String>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
            program_rows: Vec::new(),
        }
    }

    /// Times `f` as a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f();
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed();
        out
    }

    /// Opens a root span for operation `op`; close it with
    /// [`Tracer::end_op`]. Child spans are recorded with
    /// [`Tracer::span`] in between.
    pub fn begin_op(&mut self, name: &'static str, op: u64) {
        assert!(self.open.is_empty(), "operations do not nest");
        self.op = op;
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent: None,
            op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the operation opened by [`Tracer::begin_op`].
    pub fn end_op(&mut self) {
        let idx = self.open.pop().expect("an open operation");
        assert!(self.open.is_empty(), "unbalanced spans");
        self.spans[idx].end = self.epoch.elapsed();
    }

    pub fn count(&mut self, name: &str, by: u64) {
        *self.counts.entry(name.to_string()).or_default() += by;
    }

    /// Self time per span name (duration minus direct children), the
    /// root spans' self time as `unattributed`, and the summed root
    /// (operation) wall time.
    pub fn self_times(&self) -> SelfTimes {
        let mut child_sum = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_sum[p] += s.end - s.start;
            }
        }
        let mut out = SelfTimes::default();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end - s.start;
            let own = dur.saturating_sub(child_sum[i]).as_secs_f64();
            if s.parent.is_none() {
                out.wall += dur.as_secs_f64();
                out.unattributed += own;
                let e = out.ops.entry(s.name).or_default();
                e.0 += 1;
                e.1 += dur.as_secs_f64();
            } else {
                let e = out.layers.entry(s.name).or_default();
                e.0 += own;
                e.1 += 1;
            }
        }
        out
    }

    /// Writes every span, counter and program trace row as NDJSON.
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut doc = String::new();
        for s in &self.spans {
            let line = json!({
                "kind": "span",
                "name": s.name,
                "op": s.op,
                "start_ns": s.start.as_nanos() as u64,
                "end_ns": s.end.as_nanos() as u64,
                "parent": s.parent,
            });
            let _ = writeln!(doc, "{}", render(&line));
        }
        for (name, v) in &self.counts {
            let line = json!({"kind": "count", "name": name, "value": v});
            let _ = writeln!(doc, "{}", render(&line));
        }
        for row in &self.program_rows {
            let _ = writeln!(doc, "{{\"kind\":\"program\",\"trace\":{row}}}");
        }
        std::fs::write(path, doc)
    }
}

/// Aggregated self times of a traced run.
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// Per span name: (summed self seconds, number of spans).
    pub layers: BTreeMap<&'static str, (f64, u64)>,
    /// Summed self seconds of the root (operation) spans.
    pub unattributed: f64,
    /// Summed wall seconds of the root spans.
    pub wall: f64,
    /// Per operation name: (number of root spans, summed wall seconds).
    pub ops: BTreeMap<&'static str, (u64, f64)>,
}

impl SelfTimes {
    /// Summed self seconds of one layer (0 when it never ran).
    pub fn total(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |e| e.0)
    }

    /// Number of operations of one kind.
    pub fn op_count(&self, name: &str) -> u64 {
        self.ops.get(name).map_or(0, |e| e.0)
    }

    /// Summed wall seconds of the operations of one kind.
    pub fn op_wall(&self, name: &str) -> f64 {
        self.ops.get(name).map_or(0.0, |e| e.1)
    }

    /// Layers plus `unattributed` against the traced wall time, for the
    /// run record and the self-check.
    pub fn coverage(&self) -> Value {
        let layers: f64 = self.layers.values().map(|e| e.0).sum();
        let rows = self
            .layers
            .iter()
            .map(|(k, (s, n))| (k.to_string(), json!({"self_s": s, "spans": n})))
            .collect::<Vec<_>>();
        json!({
            "wall_s": self.wall,
            "layers_s": layers,
            "unattributed_s": self.unattributed,
            "layers": Value::Object(rows),
        })
    }
}

/// Compact JSON text of a value (floats keep every digit `f64` needs to
/// round-trip; non-finite ones print as `null`).
pub fn render(v: &Value) -> String {
    serde_json::to_string(v).expect("JSON rendering is total")
}

/// Reports what every traced run shares: the exact counters that are
/// per-layer metrics, the DP cell price, the `unattributed` row and the
/// coverage figures — then writes the spans out.
pub fn finish_traced(
    args: &crate::Args,
    tr: &Tracer,
    st: &SelfTimes,
    out: &mut Outcome,
) -> Result<(), String> {
    for (name, unit) in crate::PER_LAYER {
        if let Some(v) = tr.counts.get(name) {
            out.metric(name, *v as f64, unit);
        }
    }
    if let Some(&cells) = tr.counts.get("dtw.cells") {
        let per_cell = st.total("dtw.dp_fill") / cells.max(1) as f64 * 1e9;
        out.metric("dtw.dp_fill_ns_per_cell", per_cell, "ns");
    }
    let ops = st.ops.values().map(|e| e.0).sum::<u64>().max(1);
    out.metric(
        "obs.unattributed_ms",
        st.unattributed / ops as f64 * 1e3,
        "ms",
    );
    out.metric("obs.traced_wall_ms", st.wall / ops as f64 * 1e3, "ms");
    out.note("coverage", st.coverage());
    out.note("traced_ops", json!(ops));
    out.note("program_trace_rows", json!(tr.program_rows.len()));
    let path = args
        .out
        .join(format!("trace-{}-{}.ndjson", args.workload, args.seed));
    tr.dump(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.note("trace_dump", json!(path.display().to_string()));
    Ok(())
}

/// Length of the windows [`windowed_rate`] takes its median over.
pub const RATE_WINDOW_S: f64 = 1.0;

/// Throughput as the median over consecutive [`RATE_WINDOW_S`] windows
/// of the work completed per second, each operation's work spread
/// evenly over its `(start, end)` interval (seconds from the start of
/// measurement). A median of windows keeps a burst of outside load in
/// one window from moving the figure; the partial last window is
/// dropped unless it is the only one.
pub fn windowed_rate(ops: &[(f64, f64, f64)], span_s: f64) -> (f64, usize) {
    let windows = ((span_s / RATE_WINDOW_S).floor() as usize).max(1);
    let width = if span_s < RATE_WINDOW_S {
        span_s
    } else {
        RATE_WINDOW_S
    };
    let mut work = vec![0.0f64; windows];
    for &(start, end, w) in ops {
        let len = (end - start).max(f64::MIN_POSITIVE);
        let first = (start / width).floor().max(0.0) as usize;
        let last = ((end / width).floor() as usize).min(windows - 1);
        for (i, slot) in work.iter_mut().enumerate().take(last + 1).skip(first) {
            let (lo, hi) = (i as f64 * width, (i + 1) as f64 * width);
            let overlap = end.min(hi) - start.max(lo);
            if overlap > 0.0 {
                *slot += w * overlap / len;
            }
        }
    }
    let rates: Vec<f64> = work.iter().map(|w| w / width).collect();
    (median(&rates), windows)
}
