//! `monitor_feed`: one `MonitorBank` watching a long feed for four
//! 96-sample Trace-analog patterns under a Sakoe-Chiba 20% band — two at
//! k = 1, two at k = 3, all with τ = ∞. The feed arrives in 1024-sample
//! chunks and every pattern's `matches` is read after each chunk; those
//! reads are part of the workload.
//!
//! At k = 3 and τ = ∞ the bank keeps every window as a candidate, so
//! read cost grows with the stream; the k = 1 patterns in the same bank
//! show whether a change for k > 1 costs k = 1.

use crate::util::{json, median, peak_rss_mb, summarize, timed_reps, Outcome, Tracer};
use crate::Args;
use rand::Rng;
use rayon::prelude::*;
use sdtw_suite::core::{ConstraintPolicy, SDtw, SDtwConfig};
use sdtw_suite::datasets::gen::rng_for;
use sdtw_suite::datasets::UcrAnalog;
use sdtw_suite::dtw::engine::{dtw_run_options, DtwScratch};
use sdtw_suite::stream::{BankQuery, MonitorBank, StreamConfig, SubseqMatch, SubseqMatcher};
use sdtw_suite::tseries::transform::z_normalize;
use sdtw_suite::tseries::TimeSeries;
use std::time::Instant;

const PATTERN_LEN: usize = 96;
/// Per-pattern k, in bank order.
const KS: [usize; 4] = [1, 1, 3, 3];
const CHUNK: usize = 1024;
/// Feed length: 108 chunks.
const FEED_LEN: usize = 108 * CHUNK;
/// Bank constructions timed as one set-up sample: one construction
/// takes microseconds, too short to time alone.
const SETUP_BATCH: usize = 32;
/// Set-up samples taken at start-up and again before each measured
/// pass; `setup_s` is the median of all of them, per construction.
const SETUP_SAMPLES: usize = 9;
/// Chunks between two checkpoints whose reads are checked.
const CHECK_EVERY: usize = 27;
/// Feed offsets between two DP-probe windows in the traced run.
const PROBE_STRIDE: usize = 1024;

fn config() -> StreamConfig {
    StreamConfig::exact_banded(0.2)
}

/// Four patterns, one per Trace class: the most varied window of a
/// seeded member of each class in a held-out dataset (the class's
/// distinctive shape, not a flat stretch that z-normalises to noise);
/// and the feed, Trace-analog series of further seeds laid end to end.
fn inputs(seed: u64) -> (Vec<TimeSeries>, TimeSeries) {
    let mut rng = rng_for(seed, 0x30_41);
    let held_out = UcrAnalog::Trace.generate(seed ^ 0x7A11_7E57_0000_0001);
    let patterns = held_out
        .by_class()
        .into_iter()
        .take(KS.len())
        .map(|(_, members)| {
            let s = held_out.series[members[rng.gen_range(0..members.len())]].values();
            let at = (0..=s.len() - PATTERN_LEN)
                .max_by(|&a, &b| {
                    variance(&s[a..a + PATTERN_LEN]).total_cmp(&variance(&s[b..b + PATTERN_LEN]))
                })
                .expect("series longer than a pattern");
            TimeSeries::new(s[at..at + PATTERN_LEN].to_vec()).expect("valid window")
        })
        .collect();
    let mut feed = Vec::with_capacity(FEED_LEN);
    let mut part = 1u64;
    while feed.len() < FEED_LEN {
        let ds = UcrAnalog::Trace.generate(seed.wrapping_add(part.wrapping_mul(0x9E37_79B9)));
        for s in &ds.series {
            feed.extend_from_slice(s.values());
        }
        part += 1;
    }
    feed.truncate(FEED_LEN);
    (patterns, TimeSeries::new(feed).expect("finite feed"))
}

fn variance(w: &[f64]) -> f64 {
    let mean = w.iter().sum::<f64>() / w.len() as f64;
    w.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / w.len() as f64
}

fn bank(patterns: &[TimeSeries]) -> Result<MonitorBank, String> {
    let queries = patterns
        .iter()
        .zip(KS)
        .map(|(p, k)| SubseqMatcher::new(p, config()).map(|m| BankQuery::new(m, k, f64::INFINITY)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    MonitorBank::new(queries).map_err(|e| e.to_string())
}

/// Times [`SETUP_SAMPLES`] batches of [`SETUP_BATCH`] bank
/// constructions after an untimed warm-up batch; returns the time per
/// construction of each batch and the last bank built.
fn setup_samples(patterns: &[TimeSeries]) -> Result<(Vec<f64>, MonitorBank), String> {
    let (secs, mut banks) = timed_reps(SETUP_SAMPLES, || {
        (0..SETUP_BATCH).map(|_| bank(patterns)).collect::<Vec<_>>()
    });
    let last = banks.pop().expect("a non-empty batch")?;
    Ok((secs.iter().map(|s| s / SETUP_BATCH as f64).collect(), last))
}

fn key(ms: &[SubseqMatch]) -> Vec<(usize, u64)> {
    ms.iter()
        .map(|m| (m.offset, m.distance.to_bits()))
        .collect()
}

/// Every pattern's matches as read at each checkpoint of one pass:
/// `reads[checkpoint][pattern]`.
type Reads = Vec<Vec<Vec<SubseqMatch>>>;

/// Whether the reads after chunk `i` (0-based) are kept for checking:
/// every [`CHECK_EVERY`]-th chunk, the last one included.
fn is_checkpoint(i: usize) -> bool {
    (i + 1).is_multiple_of(CHECK_EVERY)
}

/// One chunk through the bank, then every pattern's matches read.
fn step(bank: &mut MonitorBank, chunk: &[f64]) -> Result<Vec<Vec<SubseqMatch>>, String> {
    bank.process(chunk).map_err(|e| e.to_string())?;
    Ok((0..KS.len()).map(|q| bank.matches(q)).collect())
}

/// One pass of the feed through a fresh bank: each chunk's `(start,
/// end, samples)` of `process` plus the four reads, in seconds since
/// `epoch`, and the reads at every checkpoint.
fn pass(
    bank: &mut MonitorBank,
    feed: &[f64],
    epoch: Instant,
    spans: &mut Vec<(f64, f64, f64)>,
) -> Result<Reads, String> {
    let mut reads = Vec::new();
    for (i, chunk) in feed.chunks(CHUNK).enumerate() {
        let from = epoch.elapsed().as_secs_f64();
        let read = step(bank, chunk)?;
        spans.push((from, epoch.elapsed().as_secs_f64(), chunk.len() as f64));
        if is_checkpoint(i) {
            reads.push(read);
        }
    }
    Ok(reads)
}

/// Checks every pass's reads at every checkpoint against batch
/// `find_under` over the feed seen so far. Returns recall at 5: the
/// share of full-grid DTW's top 5 over that prefix that the bank's
/// matcher finds in its own top 5 (same occurrence = within the
/// exclusion zone). A bank query's matches are the first k of that top
/// 5, since greedy selection picks in order.
fn check(
    patterns: &[TimeSeries],
    feed: &TimeSeries,
    passes: &[Reads],
    out: &mut Outcome,
) -> Result<f64, String> {
    let full_cfg = StreamConfig {
        sdtw: SDtwConfig {
            policy: ConstraintPolicy::FullGrid,
            ..config().sdtw
        },
        lb_radius_frac: 1.0,
        ..config()
    };
    let checkpoints = FEED_LEN / (CHECK_EVERY * CHUNK);
    let jobs: Vec<(usize, usize)> = (0..checkpoints)
        .flat_map(|c| (0..KS.len()).map(move |q| (c, q)))
        .collect();
    let answers = jobs
        .clone()
        .into_par_iter()
        .map(|(c, q)| {
            let prefix = (c + 1) * CHECK_EVERY * CHUNK;
            let seen = TimeSeries::new(feed.values()[..prefix].to_vec())?;
            let m = SubseqMatcher::new(&patterns[q], config())?;
            let expected = m.find_under(&seen, KS[q], f64::INFINITY)?;
            let top5 = m.find(&seen, 5)?;
            let full = SubseqMatcher::new(&patterns[q], full_cfg.clone())?;
            let reference = full.find(&seen, 5)?;
            Ok((
                expected.matches,
                top5.matches,
                reference.matches,
                m.exclusion(),
            ))
        })
        .collect::<Vec<Result<_, sdtw_suite::tseries::TsError>>>();
    let (mut found, mut total) = (0usize, 0usize);
    for ((c, q), answer) in jobs.into_iter().zip(answers) {
        let (expected, top5, reference, exclusion) = answer.map_err(|e| e.to_string())?;
        for (i, reads) in passes.iter().enumerate() {
            if key(&reads[c][q]) != key(&expected) {
                out.fail(format!(
                    "pass {i}, checkpoint {c}, pattern {q}: matches differ from batch find_under"
                ));
            }
        }
        found += reference
            .iter()
            .filter(|r| top5.iter().any(|s| s.offset.abs_diff(r.offset) < exclusion))
            .count();
        total += reference.len();
    }
    out.note("checkpoints", json!(checkpoints));
    Ok(found as f64 / total.max(1) as f64)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (patterns, feed) = inputs(args.seed);
    // set-up: matcher and bank construction, timed again before every
    // measured pass so the median samples more than one moment of the run
    let (mut setup_secs, mut first) = setup_samples(&patterns)?;
    let mut out = Outcome::default();
    if args.trace {
        traced(args, &patterns, &feed, first, &mut out)?;
        return Ok(out);
    }

    // one untimed pass first: the allocator and page tables reach their
    // steady state, so every measured pass sees the same conditions
    let mut spans = Vec::new();
    let mut finals = vec![pass(&mut first, feed.values(), Instant::now(), &mut spans)?];
    spans.clear();
    let t0 = Instant::now();
    while finals.len() < 2 || t0.elapsed().as_secs_f64() < args.seconds {
        let (secs, mut fresh) = setup_samples(&patterns)?;
        setup_secs.extend(secs);
        finals.push(pass(&mut fresh, feed.values(), t0, &mut spans)?);
    }
    let lat_ms: Vec<f64> = spans.iter().map(|(a, b, _)| (b - a) * 1e3).collect();
    let rss = peak_rss_mb("self").ok_or("VmHWM unreadable")?;
    out.attempted = lat_ms.len() as u64;
    let recall = check(&patterns, &feed, &finals, &mut out)?;
    let lat = summarize(&lat_ms);
    out.metric("setup_s", median(&setup_secs), "s");
    // the per-chunk cost grows along the feed, so a rate is only
    // comparable over whole passes: the median pass's samples per second
    let per_pass = FEED_LEN.div_ceil(CHUNK);
    let pass_s: Vec<f64> = spans
        .chunks(per_pass)
        .map(|p| p.iter().map(|(a, b, _)| b - a).sum())
        .collect();
    out.metric("throughput_ops_s", FEED_LEN as f64 / median(&pass_s), "1/s");
    out.metric("latency_p50_ms", lat.p50, "ms");
    out.metric("latency_tail_ms", lat.tail, "ms");
    out.metric("peak_rss_mb", rss, "MiB");
    out.metric("recall_at_5_vs_full", recall, "ratio");
    out.note("latency_ms", lat.record("ms"));
    out.note(
        "latency_is",
        json!(format!(
            "process of one {CHUNK}-sample chunk plus {} matches reads",
            KS.len()
        )),
    );
    out.note(
        "throughput_is",
        json!("samples per second of the median measured pass"),
    );
    out.note("setup_s", summarize(&setup_secs).record("s"));
    out.note("measured_passes", json!(finals.len() - 1));
    out.note("feed_samples", json!(FEED_LEN));
    Ok(out)
}

fn traced(
    args: &Args,
    patterns: &[TimeSeries],
    feed: &TimeSeries,
    mut plain: MonitorBank,
    out: &mut Outcome,
) -> Result<(), String> {
    // every chunk goes through `plain` untraced (the overhead baseline)
    // and through the traced bank, the two in alternating order so
    // neither is always the colder
    let mut b = bank(patterns)?;
    b.set_tracing(true);
    let mut tr = Tracer::new();
    let (mut reads, mut untraced_reads) = (Vec::new(), Vec::new());
    let mut untraced_s = 0.0;
    for (i, chunk) in feed.values().chunks(CHUNK).enumerate() {
        let mut untraced_step = |plain: &mut MonitorBank| -> Result<_, String> {
            let t = Instant::now();
            let read = step(plain, chunk)?;
            untraced_s += t.elapsed().as_secs_f64();
            Ok(read)
        };
        let mut plain_read = None;
        if i % 2 == 0 {
            plain_read = Some(untraced_step(&mut plain)?);
        }
        tr.begin_op("monitor.chunk", i as u64);
        let processed = tr.span("stream.monitor.process", || b.process(chunk));
        let read: Vec<Vec<SubseqMatch>> = (0..KS.len())
            .map(|q| tr.span("stream.monitor.matches", || b.matches(q)))
            .collect();
        tr.end_op();
        processed.map_err(|e| e.to_string())?;
        if i % 2 == 1 {
            plain_read = Some(untraced_step(&mut plain)?);
        }
        if is_checkpoint(i) {
            reads.push(read);
            untraced_reads.push(plain_read.expect("the untraced bank took the chunk"));
        }
        out.attempted += 1;
    }
    // at tau = inf no candidate is ever dropped, so the final count is
    // the peak
    let peak = (0..KS.len())
        .map(|q| b.candidate_count(q))
        .max()
        .unwrap_or(0);
    tr.count("stream.monitor.candidates_peak", peak as u64);
    for q in 0..KS.len() {
        tr.program_rows
            .push(b.trace(q, &format!("pattern{q}")).to_json_line());
    }
    check(patterns, feed, &[untraced_reads, reads], out)?;
    dp_probe(patterns, feed, &mut tr)?;

    let st = tr.self_times();
    let chunks = st.op_count("monitor.chunk").max(1) as f64;
    let traced_s = st.op_wall("monitor.chunk");
    out.metric(
        "stream.monitor.process_us",
        st.total("stream.monitor.process") / chunks * 1e6,
        "us",
    );
    out.metric(
        "stream.monitor.matches_us",
        st.total("stream.monitor.matches") / chunks * 1e6,
        "us",
    );
    out.metric(
        "obs.trace_overhead_pct",
        (traced_s / untraced_s - 1.0) * 100.0,
        "%",
    );
    crate::util::finish_traced(args, &tr, &st, out)
}

/// Fills the DP of the first pattern against feed windows every
/// [`PROBE_STRIDE`] samples over the planned (Sakoe) band, with no
/// cutoff, to price one DP cell.
fn dp_probe(patterns: &[TimeSeries], feed: &TimeSeries, tr: &mut Tracer) -> Result<(), String> {
    let cfg = config();
    let sdtw = SDtw::new(cfg.sdtw.clone()).map_err(|e| e.to_string())?;
    let x = z_normalize(&patterns[0]);
    let band = crate::util::window_band(&sdtw, PATTERN_LEN);
    let mut scratch = DtwScratch::new();
    for (i, at) in (0..FEED_LEN - PATTERN_LEN)
        .step_by(PROBE_STRIDE)
        .enumerate()
    {
        let w = TimeSeries::new(feed.values()[at..at + PATTERN_LEN].to_vec())
            .map_err(|e| e.to_string())?;
        let y = z_normalize(&w);
        tr.begin_op("dtw.probe", i as u64);
        let r = tr.span("dtw.dp_fill", || {
            dtw_run_options(&x, &y, &band, &cfg.sdtw.dtw, None, &mut scratch)
        });
        tr.end_op();
        tr.count("dtw.cells", r.map_or(0, |r| r.cells_filled) as u64);
    }
    Ok(())
}
