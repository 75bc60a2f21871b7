//! `serve_socket`: a real `sdtw serve --socket` daemon in its own
//! process, driven by this process as a closed-loop load generator with
//! two connections — one held open for the whole run, one opened fresh
//! per request (the way `sdtw client send` connects).
//!
//! Corpus: the Trace analog (100 × 275) of the run seed, z-normalised,
//! exact Sakoe-Chiba 20% band, loaded by the daemon from a binary v2
//! snapshot. Requests: k = 5 windows of 48, 96 or 128 samples cut from a
//! held-out seed's series; each pattern is requested four times.

use crate::util::{
    json, median, peak_rss_mb, summarize, timed_reps, windowed_rate, Outcome, Tracer,
};
use crate::Args;
use rand::Rng;
use rayon::prelude::*;
use sdtw_suite::core::{ConstraintPolicy, SDtw, SDtwConfig};
use sdtw_suite::datasets::gen::rng_for;
use sdtw_suite::datasets::UcrAnalog;
use sdtw_suite::dtw::engine::{dtw_run_options, DtwScratch};
use sdtw_suite::eval::corpus_brute_force;
use sdtw_suite::index::{IndexConfig, SdtwIndex, SnapshotCodec, SnapshotFormat};
use sdtw_suite::serve::{ServeConfig, ServeEngine, ServeHit, ServeRequest, ServeResponse};
use sdtw_suite::stream::SubseqMatcher;
use sdtw_suite::tseries::transform::z_normalize;
use sdtw_suite::tseries::TimeSeries;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hits per request.
const K: usize = 5;
/// Pattern lengths requests draw from.
const PATTERN_LENS: [usize; 3] = [48, 96, 128];
/// Fresh patterns per block of the request sequence.
const BLOCK: usize = 32;
/// Times each pattern is requested, so three in four requests are
/// repeats that the daemon's matcher cache serves. The share is not
/// taken from observed traffic: the per-run oracle sweeps every distinct
/// pattern, and fewer repeats would lengthen it past the run budget. A
/// cache hit skips only matcher preparation, so the run record reports
/// the repeat share and fresh and repeat latency apart.
const REPEATS: usize = 4;
/// Length of the generated request sequence (wraps if a run outlasts it).
const SEQUENCE_LEN: usize = 8192;
/// Daemon start-ups timed before the measured load, and again after
/// it; `setup_s` is the median of all of them.
const SETUP_REPS: usize = 16;
/// Distinct patterns whose answers are compared with full-grid DTW.
const RECALL_PATTERNS: usize = 24;
/// Responses after which the daemon's peak RSS is read, so the figure
/// covers the same work whatever the throughput.
const RSS_AFTER: usize = 256;
/// Requests the traced run replays (fixed, so its counts are exact).
const TRACED_REQUESTS: usize = 96;
/// Requests of the traced run whose best hit is re-filled by the DP probe.
const DP_PROBES: usize = 48;

/// One request's pattern: a window of a held-out series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Pattern {
    series: usize,
    offset: usize,
    len: usize,
}

struct Setup {
    corpus: Vec<TimeSeries>,
    held_out: Vec<TimeSeries>,
    sequence: Vec<Pattern>,
    snapshot: Vec<u8>,
    index: SdtwIndex,
}

impl Setup {
    fn pattern(&self, i: usize) -> Pattern {
        self.sequence[i % self.sequence.len()]
    }

    fn request(&self, i: usize) -> ServeRequest {
        let p = self.pattern(i);
        let values = self.held_out[p.series].values()[p.offset..p.offset + p.len].to_vec();
        ServeRequest::query(format!("r{i}"), values, K)
    }
}

fn index_config() -> IndexConfig {
    IndexConfig {
        z_normalize: true,
        ..IndexConfig::exact_banded(0.2)
    }
}

/// The seeded request sequence over the held-out series: blocks of
/// [`BLOCK`] fresh patterns, each pattern requested [`REPEATS`] times in
/// a seeded order within its block. Equal repeat counts keep one cheap
/// or costly pattern from dominating a run.
fn sequence(seed: u64, held_out: &[TimeSeries]) -> Vec<Pattern> {
    let mut rng = rng_for(seed, 0x5E_4E);
    let mut out = Vec::with_capacity(SEQUENCE_LEN);
    let mut fresh = 0usize;
    while out.len() < SEQUENCE_LEN {
        let mut block: Vec<Pattern> = (0..BLOCK)
            .map(|_| {
                // lengths cycle, so every run sees the same length mix
                let len = PATTERN_LENS[fresh % PATTERN_LENS.len()];
                fresh += 1;
                let series = rng.gen_range(0..held_out.len());
                let offset = rng.gen_range(0..held_out[series].len() - len + 1);
                Pattern {
                    series,
                    offset,
                    len,
                }
            })
            .collect();
        block = block
            .iter()
            .cycle()
            .take(BLOCK * REPEATS)
            .copied()
            .collect();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.gen_range(0..i + 1));
        }
        out.extend(block);
    }
    out.truncate(SEQUENCE_LEN);
    out
}

fn socket_path(args: &Args) -> PathBuf {
    args.out.join(format!("serve-{}.sock", std::process::id()))
}

/// A running `sdtw serve --socket` daemon; dropping it without
/// [`Daemon::stop`] kills it, so no error path leaves it behind.
struct Daemon {
    child: Option<Child>,
    sock: PathBuf,
}

impl Daemon {
    /// Starts the daemon and waits until its socket accepts.
    fn start(args: &Args, snap: &Path, sock: &Path) -> Result<Daemon, String> {
        let child = Command::new(&args.sdtw)
            .arg("serve")
            .arg("--index")
            .arg(snap)
            .arg("--socket")
            .arg(sock)
            .arg("--k")
            .arg(K.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("{}: {e}", args.sdtw.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            sock: sock.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        while UnixStream::connect(sock).is_err() {
            let child = daemon.child.as_mut().expect("running");
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not accept connections within 60 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(daemon)
    }

    fn pid(&self) -> String {
        self.child.as_ref().map_or(0, Child::id).to_string()
    }

    /// Asks the daemon to shut down and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("running");
        let stopped =
            sdtw_suite::serve::client_roundtrip(&self.sock, &[ServeRequest::shutdown("stop")]);
        if stopped.is_err() {
            let _ = child.kill();
        }
        child.wait().map_err(|e| e.to_string())?;
        stopped.map(|_| ()).map_err(|e| format!("shutdown: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One socket request's outcome, from the load generator's side.
struct Sent {
    idx: usize,
    /// When the request was sent, from the start of the closed loop.
    sent_at: Duration,
    latency: Duration,
    response: Result<ServeResponse, String>,
}

/// Runs the closed loop until `deadline` or until `limit` requests were
/// sent, whichever comes first. With `rss_of`, also reads that
/// process's peak RSS once [`RSS_AFTER`] responses have arrived.
fn drive(
    setup: &Setup,
    sock: &Path,
    deadline: Instant,
    limit: usize,
    rss_of: Option<&str>,
) -> (Vec<Sent>, Option<f64>) {
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let rss = std::sync::OnceLock::new();
    let start = Instant::now();
    let mut sent: Vec<Sent> = std::thread::scope(|s| {
        let workers: Vec<_> = [true, false]
            .into_iter()
            .map(|persistent| {
                let (next, done, rss) = (&next, &done, &rss);
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut held: Option<(BufReader<UnixStream>, UnixStream)> = None;
                    while Instant::now() < deadline {
                        let idx = next.fetch_add(1, Ordering::SeqCst);
                        if idx >= limit {
                            break;
                        }
                        let mut line = setup.request(idx).to_json_line();
                        line.push('\n');
                        let t0 = Instant::now();
                        let response = roundtrip(sock, &line, persistent.then_some(&mut held));
                        out.push(Sent {
                            idx,
                            sent_at: t0 - start,
                            latency: t0.elapsed(),
                            response,
                        });
                        if done.fetch_add(1, Ordering::SeqCst) + 1 == RSS_AFTER {
                            if let Some(pid) = rss_of {
                                let _ = rss.set(peak_rss_mb(pid));
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load generator thread"))
            .collect()
    });
    sent.sort_by_key(|s| s.idx);
    let rss = rss
        .into_inner()
        .flatten()
        .or_else(|| rss_of.and_then(peak_rss_mb));
    (sent, rss)
}

/// Sends one request line and reads its response line, over the held
/// connection when one is given (opening it on first use), else over a
/// fresh connection.
fn roundtrip(
    sock: &Path,
    line: &str,
    held: Option<&mut Option<(BufReader<UnixStream>, UnixStream)>>,
) -> Result<ServeResponse, String> {
    let connect = || -> Result<(BufReader<UnixStream>, UnixStream), String> {
        let stream = UnixStream::connect(sock).map_err(|e| e.to_string())?;
        Ok((
            BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
            stream,
        ))
    };
    let mut fresh;
    let conn = match held {
        Some(slot) => {
            if slot.is_none() {
                *slot = Some(connect()?);
            }
            slot.as_mut().expect("just opened")
        }
        None => {
            fresh = connect()?;
            &mut fresh
        }
    };
    conn.1
        .write_all(line.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    if conn.0.read_line(&mut reply).map_err(|e| e.to_string())? == 0 {
        return Err("daemon closed the connection".into());
    }
    ServeResponse::from_json_line(reply.trim_end())
}

fn hits_key(hits: &[ServeHit]) -> Vec<(usize, usize, u64)> {
    hits.iter()
        .map(|h| (h.entry, h.offset, h.distance.to_bits()))
        .collect()
}

/// Checks every socket answer: transport errors and `ok: false` fail,
/// and each distinct pattern's hits must equal the every-window corpus
/// oracle bit for bit. Computed after the timed phase.
fn check(setup: &Setup, engine: &ServeEngine, sent: &[Sent], out: &mut Outcome) {
    let oracle_corpus: Vec<TimeSeries> = (0..engine.index().len())
        .map(|i| engine.index().entry_series(i).clone())
        .collect();
    let oracle_engine = SDtw::new(engine.stream_config().sdtw.clone()).expect("valid config");
    let mut distinct: Vec<Pattern> = Vec::new();
    for s in sent {
        let p = setup.pattern(s.idx);
        if !distinct.contains(&p) {
            distinct.push(p);
        }
    }
    let expected: HashMap<Pattern, Vec<(usize, usize, u64)>> = distinct
        .clone()
        .into_par_iter()
        .map(|p| {
            let values = setup.held_out[p.series].values()[p.offset..p.offset + p.len].to_vec();
            let query = TimeSeries::new(values).expect("window of a valid series");
            let exclusion = engine.stream_config().exclusion_for(p.len);
            let hits = corpus_brute_force(
                &oracle_engine,
                &query,
                &oracle_corpus,
                true,
                K,
                exclusion,
                f64::INFINITY,
            )
            .expect("oracle sweep");
            let key = hits
                .iter()
                .map(|h| (h.entry, h.offset, h.distance.to_bits()))
                .collect();
            (p, key)
        })
        .collect();
    for s in sent {
        let p = setup.pattern(s.idx);
        match &s.response {
            Err(e) => out.fail(format!("request r{}: {e}", s.idx)),
            Ok(r) if !r.ok => out.fail(format!("request r{}: {}", s.idx, r.error)),
            Ok(r) if hits_key(&r.hits) != expected[&p] => out.fail(format!(
                "request r{}: hits differ from the corpus oracle",
                s.idx
            )),
            Ok(_) => {}
        }
    }
    out.note("oracle_patterns", json!(distinct.len()));
}

/// Mean share of full-grid DTW's top-5 hits (per distinct pattern, over
/// the first [`RECALL_PATTERNS`]) that the served answer also found — a
/// served hit in the same entry within the exclusion zone counts as the
/// same occurrence.
fn recall(setup: &Setup, engine: &ServeEngine, sent: &[Sent]) -> Result<f64, String> {
    let full_cfg = IndexConfig {
        sdtw: SDtwConfig {
            policy: ConstraintPolicy::FullGrid,
            ..index_config().sdtw
        },
        lb_radius_frac: 1.0,
        ..index_config()
    };
    let full = ServeEngine::new(
        SdtwIndex::build(&setup.corpus, full_cfg).map_err(|e| e.to_string())?,
        ServeConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let mut seen: Vec<Pattern> = Vec::new();
    let mut picked: Vec<(ServeRequest, Vec<ServeHit>)> = Vec::new();
    for s in sent {
        let p = setup.pattern(s.idx);
        if seen.contains(&p) || picked.len() == RECALL_PATTERNS {
            continue;
        }
        seen.push(p);
        if let Ok(r) = &s.response {
            picked.push((setup.request(s.idx), r.hits.clone()));
        }
    }
    let (found, total) = picked
        .into_par_iter()
        .map(|(req, served)| {
            let (reference, _) = full.answer(&req);
            let exclusion = engine.stream_config().exclusion_for(req.values.len());
            let found = reference
                .hits
                .iter()
                .filter(|f| {
                    served
                        .iter()
                        .any(|h| h.entry == f.entry && h.offset.abs_diff(f.offset) < exclusion)
                })
                .count();
            (found, reference.hits.len())
        })
        .collect::<Vec<_>>()
        .into_iter()
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    Ok(found as f64 / total.max(1) as f64)
}

/// One timed set-up and what it left running.
struct StartUp {
    secs: f64,
    build_ms: f64,
    index: SdtwIndex,
    snapshot: Vec<u8>,
    daemon: Daemon,
}

/// Index build, snapshot encode + write, daemon start and snapshot
/// load, until the socket accepts — timed as one set-up.
fn start_up(
    args: &Args,
    corpus: &[TimeSeries],
    snap: &Path,
    sock: &Path,
) -> Result<StartUp, String> {
    let t0 = Instant::now();
    let index = SdtwIndex::build(corpus, index_config()).map_err(|e| e.to_string())?;
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let snapshot =
        SnapshotCodec::encode(&index, SnapshotFormat::BinaryV2).map_err(|e| e.to_string())?;
    std::fs::write(snap, &snapshot).map_err(|e| e.to_string())?;
    let daemon = Daemon::start(args, snap, sock)?;
    Ok(StartUp {
        secs: t0.elapsed().as_secs_f64(),
        build_ms,
        index,
        snapshot,
        daemon,
    })
}

/// Times [`SETUP_REPS`] set-ups after one untimed warm-up, stopping
/// each daemon outside the timed sections; returns the last set-up with
/// its daemon still running.
fn start_ups(
    args: &Args,
    corpus: &[TimeSeries],
    snap: &Path,
    sock: &Path,
    secs: &mut Vec<f64>,
    build_ms: &mut Vec<f64>,
) -> Result<StartUp, String> {
    let mut last = start_up(args, corpus, snap, sock)?;
    for _ in 0..SETUP_REPS {
        last.daemon.stop()?;
        last = start_up(args, corpus, snap, sock)?;
        secs.push(last.secs);
        build_ms.push(last.build_ms);
    }
    Ok(last)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let corpus = UcrAnalog::Trace.generate(args.seed).series;
    let held_out = UcrAnalog::Trace
        .generate(args.seed ^ 0x00AB_CDEF_0123_4567)
        .series;
    let seq = sequence(args.seed, &held_out);
    let sock = socket_path(args);
    let snap = args.out.join(format!("serve-{}.bin", std::process::id()));

    let mut setup_secs = Vec::new();
    let mut build_ms = Vec::new();
    let first = start_ups(args, &corpus, &snap, &sock, &mut setup_secs, &mut build_ms)?;
    let setup = Setup {
        corpus,
        held_out,
        sequence: seq,
        snapshot: first.snapshot,
        index: first.index,
    };

    let mut out = Outcome::default();
    let result = if args.trace {
        traced(args, &setup, &sock, first.daemon, &mut out, &build_ms)
    } else {
        untraced(
            args,
            &setup,
            (&snap, &sock),
            first.daemon,
            &mut out,
            setup_secs,
        )
    };
    let _ = std::fs::remove_file(&snap);
    result?;
    Ok(out)
}

/// The measured closed loop; then, with the load gone, a second round of
/// timed set-ups, so `setup_s` samples both ends of the run.
/// Splits the client latencies into requests whose pattern the daemon
/// had not been sent before (it prepares a matcher) and repeats (its
/// matcher cache answers), in send order, and records the repeat share
/// beside both latency summaries.
fn repeat_split(setup: &Setup, sent: &[Sent], warm_ids: &[usize], out: &mut Outcome) {
    let mut seen: HashSet<Pattern> = warm_ids.iter().map(|&i| setup.pattern(i)).collect();
    let mut by_send: Vec<&Sent> = sent.iter().collect();
    by_send.sort_by_key(|s| s.sent_at);
    let (mut fresh, mut repeat) = (Vec::new(), Vec::new());
    for s in by_send {
        let ms = s.latency.as_secs_f64() * 1e3;
        if seen.insert(setup.pattern(s.idx)) {
            fresh.push(ms);
        } else {
            repeat.push(ms);
        }
    }
    out.note(
        "repeat_share",
        json!(repeat.len() as f64 / sent.len().max(1) as f64),
    );
    out.note("latency_fresh_ms", summarize(&fresh).record("ms"));
    out.note("latency_repeat_ms", summarize(&repeat).record("ms"));
}

fn untraced(
    args: &Args,
    setup: &Setup,
    (snap, sock): (&Path, &Path),
    daemon: Daemon,
    out: &mut Outcome,
    mut setup_secs: Vec<f64>,
) -> Result<(), String> {
    // warm-up: a few requests the run does not count
    let warm_ids: Vec<usize> = (0..4).map(|i| SEQUENCE_LEN - 1 - i).collect();
    let warm: Vec<ServeRequest> = warm_ids.iter().map(|&i| setup.request(i)).collect();
    sdtw_suite::serve::client_roundtrip(sock, &warm).map_err(|e| format!("warm-up: {e}"))?;

    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(args.seconds);
    let (sent, rss) = drive(setup, sock, deadline, usize::MAX, Some(&daemon.pid()));
    let elapsed = t0.elapsed().as_secs_f64();
    let rss = rss.ok_or("daemon VmHWM unreadable")?;
    daemon.stop()?;
    let again = start_ups(
        args,
        &setup.corpus,
        snap,
        sock,
        &mut setup_secs,
        &mut Vec::new(),
    )?;
    again.daemon.stop()?;

    let lat_ms: Vec<f64> = sent.iter().map(|s| s.latency.as_secs_f64() * 1e3).collect();
    let lat = summarize(&lat_ms);
    out.attempted = sent.len() as u64;
    repeat_split(setup, &sent, &warm_ids, out);
    let engine =
        ServeEngine::new(setup.index.clone(), ServeConfig::default()).map_err(|e| e.to_string())?;
    check(setup, &engine, &sent, out);
    let recall = recall(setup, &engine, &sent)?;

    out.metric("setup_s", median(&setup_secs), "s");
    let ops: Vec<(f64, f64, f64)> = sent
        .iter()
        .map(|s| {
            let at = s.sent_at.as_secs_f64();
            (at, at + s.latency.as_secs_f64(), 1.0)
        })
        .collect();
    let (rate, windows) = windowed_rate(&ops, args.seconds);
    out.metric("throughput_ops_s", rate, "1/s");
    out.metric("latency_p50_ms", lat.p50, "ms");
    out.metric("latency_tail_ms", lat.tail, "ms");
    out.metric("peak_rss_mb", rss, "MiB");
    out.metric("recall_at_5_vs_full", recall, "ratio");
    out.note("latency_ms", lat.record("ms"));
    out.note("setup_s", summarize(&setup_secs).record("s"));
    out.note("measured_s", json!(elapsed));
    out.note("peak_rss_after_responses", json!(RSS_AFTER.min(sent.len())));
    out.note("throughput_windows", json!(windows));
    out.note(
        "connections",
        json!("2 closed-loop: 1 held open, 1 fresh per request"),
    );
    Ok(())
}

fn traced(
    args: &Args,
    setup: &Setup,
    sock: &Path,
    daemon: Daemon,
    out: &mut Outcome,
    build_ms: &[f64],
) -> Result<(), String> {
    let n = TRACED_REQUESTS;
    // 1. the same first n requests through the daemon, for client latency
    let (sent, _) = drive(
        setup,
        sock,
        Instant::now() + Duration::from_secs(120),
        n,
        None,
    );
    daemon.stop()?;
    out.attempted = sent.len() as u64;
    let engine_ref =
        ServeEngine::new(setup.index.clone(), ServeConfig::default()).map_err(|e| e.to_string())?;
    check(setup, &engine_ref, &sent, out);

    let mut tr = Tracer::new();
    let (decode_secs, decoded) = timed_reps(5, || SnapshotCodec::decode(&setup.snapshot));
    let decoded = decoded.map_err(|e| e.to_string())?;
    let lines: Vec<String> = (0..n).map(|i| setup.request(i).to_json_line()).collect();

    // 2. in-process replay: each request answered untraced by `plain`
    //    (the overhead baseline, and the in-process share of the
    //    request's client latency) and traced by `engine` (protocol +
    //    engine spans, program traces beside), the two in alternating
    //    order after a shared warm-up so neither is always the colder
    let plain =
        ServeEngine::new(decoded.clone(), ServeConfig::default()).map_err(|e| e.to_string())?;
    let engine = ServeEngine::new(decoded, ServeConfig::default()).map_err(|e| e.to_string())?;
    let mut scratch = DtwScratch::new();
    let warm = setup.request(SEQUENCE_LEN - 1);
    std::hint::black_box(plain.answer_with_scratch(&warm, &mut scratch));
    std::hint::black_box(engine.answer_with_scratch(&warm, &mut scratch));
    let mut in_process = vec![0.0f64; n];
    let mut per_request = vec![0.0f64; n];
    let mut replayed: Vec<Vec<ServeHit>> = Vec::with_capacity(n);
    let (mut pruned, mut swept) = (0u64, 0u64);
    for (i, line) in lines.iter().enumerate() {
        let untraced_once = |scratch: &mut DtwScratch| -> Result<f64, String> {
            let t = Instant::now();
            let req = ServeRequest::from_json_line(line)?;
            let (resp, _) = plain.answer_with_scratch(&req, scratch);
            std::hint::black_box(resp.to_json_line());
            Ok(t.elapsed().as_secs_f64())
        };
        if i % 2 == 0 {
            in_process[i] = untraced_once(&mut scratch)?;
        }
        tr.begin_op("serve.request", i as u64);
        let t = Instant::now();
        let mut req = tr.span("serve.protocol.decode", || {
            ServeRequest::from_json_line(line)
        })?;
        req.trace = true;
        let (resp, trace) = tr.span("serve.engine.answer", || {
            engine.answer_with_scratch(&req, &mut scratch)
        });
        let encoded = tr.span("serve.protocol.encode", || resp.to_json_line());
        per_request[i] = t.elapsed().as_secs_f64();
        tr.end_op();
        std::hint::black_box(encoded);
        if i % 2 == 1 {
            in_process[i] = untraced_once(&mut scratch)?;
        }
        if let Some(t) = trace {
            tr.program_rows.push(t.to_json_line());
        }
        pruned += resp.entries_pruned;
        swept += resp.entries_swept;
        if let Some(s) = sent.iter().find(|s| s.idx == i) {
            if let Ok(r) = &s.response {
                if hits_key(&r.hits) != hits_key(&resp.hits) {
                    out.fail(format!(
                        "request r{i}: in-process replay differs from the daemon"
                    ));
                }
            }
        }
        replayed.push(resp.hits);
    }
    let untraced_s: f64 = in_process.iter().sum();
    let traced_s: f64 = per_request.iter().sum();

    // 3. the same requests decomposed into the engine's public calls
    let cache_hits = decomposed(setup, &engine, &replayed, &mut tr, out)?;

    // 4. DP fill over the planned (Sakoe) band, no cutoff
    dp_probe(setup, &engine, &replayed, &mut tr)?;

    let st = tr.self_times();
    let reqs = st.op_count("serve.request").max(1) as f64;
    let dec = st.op_count("serve.decomposed").max(1) as f64;
    let unattributed_daemon: Vec<f64> = sent
        .iter()
        .filter(|s| s.idx < n)
        .map(|s| s.latency.as_secs_f64() - in_process[s.idx])
        .collect();
    out.metric(
        "serve.protocol.decode_us",
        st.total("serve.protocol.decode") / reqs * 1e6,
        "us",
    );
    out.metric(
        "serve.protocol.encode_us",
        st.total("serve.protocol.encode") / reqs * 1e6,
        "us",
    );
    out.metric(
        "serve.engine.answer_ms",
        st.total("serve.engine.answer") / reqs * 1e3,
        "ms",
    );
    out.metric(
        "serve.daemon.unattributed_ms",
        median(&unattributed_daemon) * 1e3,
        "ms",
    );
    out.metric(
        "serve.engine.matcher_cache_hit_rate",
        cache_hits as f64 / dec,
        "ratio",
    );
    out.metric(
        "serve.engine.entry_prune_rate",
        pruned as f64 / (pruned + swept).max(1) as f64,
        "ratio",
    );
    out.metric(
        "index.coarse_screen_us",
        st.total("index.coarse_screen") / dec * 1e6,
        "us",
    );
    out.metric(
        "stream.window_bound_floor_us",
        st.total("stream.window_bound_floor") / dec * 1e6,
        "us",
    );
    out.metric(
        "stream.matcher_new_us",
        st.total("stream.matcher_new") / dec * 1e6,
        "us",
    );
    out.metric(
        "stream.find_under_ms",
        st.total("stream.find_under") / dec * 1e3,
        "ms",
    );
    out.metric("index.snapshot_decode_ms", median(&decode_secs) * 1e3, "ms");
    out.metric("index.snapshot_bytes", setup.snapshot.len() as f64, "bytes");
    out.metric("index.build_ms", median(build_ms), "ms");
    out.metric(
        "obs.trace_overhead_pct",
        (traced_s / untraced_s - 1.0) * 100.0,
        "%",
    );
    crate::util::finish_traced(args, &tr, &st, out)
}

/// Replays requests through the public calls the engine composes —
/// matcher preparation, the index's coarse screen, the per-entry window
/// floor and the per-entry sweep — timing each, and checks the merged
/// hits equal the engine's (`replayed[i]` answers request `i`). Returns
/// how many requests found their matcher prepared already, as the
/// engine's matcher cache would.
fn decomposed(
    setup: &Setup,
    engine: &ServeEngine,
    replayed: &[Vec<ServeHit>],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<u64, String> {
    let cfg = engine.stream_config().clone();
    let index = engine.index();
    let mut matchers: HashMap<Vec<u64>, Arc<SubseqMatcher>> = HashMap::new();
    let mut cache_hits = 0u64;
    let mut scratch = DtwScratch::new();
    for (i, expected) in replayed.iter().enumerate() {
        let req = setup.request(i);
        let query = TimeSeries::new(req.values.clone()).map_err(|e| e.to_string())?;
        tr.begin_op("serve.decomposed", i as u64);
        let key: Vec<u64> = req.values.iter().map(|v| v.to_bits()).collect();
        let matcher = match matchers.get(&key) {
            Some(m) => {
                cache_hits += 1;
                Arc::clone(m)
            }
            None => {
                let m = tr.span("stream.matcher_new", || {
                    SubseqMatcher::new(&query, cfg.clone())
                });
                let m = Arc::new(m.map_err(|e| e.to_string())?);
                matchers.insert(key, Arc::clone(&m));
                m
            }
        };
        let screen = tr.span("index.coarse_screen", || index.coarse_screen(&query));
        let mut hits: Vec<ServeHit> = Vec::new();
        let mut dists: Vec<f64> = Vec::new();
        for eb in &screen.order {
            let series = index.entry_series(eb.index);
            let threshold = if dists.len() >= K {
                dists[K - 1]
            } else {
                f64::INFINITY
            };
            let floor = tr.span("stream.window_bound_floor", || {
                matcher.window_bound_floor(series)
            });
            if floor > threshold {
                continue;
            }
            let found = tr.span("stream.find_under", || {
                matcher.find_under_with_scratch(series, K, threshold, &mut scratch)
            });
            let found = found.map_err(|e| e.to_string())?;
            let c = &found.stats.cascade;
            for (name, v) in [
                ("stream.cascade.candidates", c.candidates),
                ("stream.cascade.pruned_kim", c.pruned_kim),
                ("stream.cascade.pruned_paa", c.pruned_paa),
                ("stream.cascade.pruned_keogh", c.pruned_keogh),
                ("stream.cascade.abandoned", c.abandoned),
                ("stream.cascade.dp_completed", c.dp_completed),
                ("stream.cascade.cells_filled", c.cells_filled),
            ] {
                tr.count(name, v);
            }
            for m in &found.matches {
                let at = dists.partition_point(|&d| d < m.distance);
                dists.insert(at, m.distance);
                hits.push(ServeHit {
                    entry: eb.index,
                    offset: m.offset,
                    distance: m.distance,
                });
            }
        }
        tr.end_op();
        hits.sort_by(|a, b| {
            a.distance
                .total_cmp(&b.distance)
                .then(a.entry.cmp(&b.entry))
                .then(a.offset.cmp(&b.offset))
        });
        hits.truncate(K);
        if hits_key(&hits) != hits_key(expected) {
            out.fail(format!(
                "request r{i}: decomposed replay differs from the engine"
            ));
        }
    }
    Ok(cache_hits)
}

/// Re-fills the DP of each probed request against its best hit's window
/// over the planned band, with no cutoff, to price one DP cell.
fn dp_probe(
    setup: &Setup,
    engine: &ServeEngine,
    replayed: &[Vec<ServeHit>],
    tr: &mut Tracer,
) -> Result<(), String> {
    let cfg = engine.stream_config();
    let sdtw = SDtw::new(cfg.sdtw.clone()).map_err(|e| e.to_string())?;
    let mut scratch = DtwScratch::new();
    for (i, hits) in replayed.iter().enumerate().take(DP_PROBES) {
        let req = setup.request(i);
        let Some(best) = hits.first() else {
            continue;
        };
        let m = req.values.len();
        let x = z_normalize(&TimeSeries::new(req.values.clone()).map_err(|e| e.to_string())?);
        let window =
            engine.index().entry_series(best.entry).values()[best.offset..best.offset + m].to_vec();
        let y = z_normalize(&TimeSeries::new(window).map_err(|e| e.to_string())?);
        let band = crate::util::window_band(&sdtw, m);
        tr.begin_op("dtw.probe", i as u64);
        let r = tr.span("dtw.dp_fill", || {
            dtw_run_options(&x, &y, &band, &cfg.sdtw.dtw, None, &mut scratch)
        });
        tr.end_op();
        let cells = r.map_or(0, |r| r.cells_filled) as u64;
        tr.count("dtw.cells", cells);
    }
    Ok(())
}
