//! The resident query engine: one immutable snapshot, many concurrent
//! requests, each answered by the two-level cascade.

use crate::protocol::{RequestOp, ServeHit, ServeRequest, ServeResponse};
use parking_lot::Mutex;
use rayon::prelude::*;
use sdtw_dtw::engine::DtwScratch;
use sdtw_index::{SdtwIndex, SnapshotCodec};
use sdtw_obs::{InputShape, QueryTrace, Recorder, TracePhase, WorkloadKind};
use sdtw_stream::{StreamConfig, SubseqMatcher};
use sdtw_tseries::{TimeSeries, TsError};
use std::collections::HashMap;
use std::sync::Arc;

/// How many prepared matchers the per-pattern cache may hold before it
/// is cleared whole (a simple bound; the cache exists to amortise
/// preparation across *repeated* patterns, not to be an LRU).
const MATCHER_CACHE_CAP: usize = 256;

/// Daemon-side configuration of a [`ServeEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Default `k` for requests that leave theirs at `0`.
    pub default_k: usize,
    /// Level-2 sharding: `1` sweeps each entry serially with the
    /// worker's reused scratch (concurrency comes from the request
    /// batch); any other value hands each surviving entry to
    /// [`SubseqMatcher::find_k_parallel`] with that shard count
    /// (`0` = one shard per rayon worker). Results are bit-identical
    /// either way.
    pub shards: usize,
    /// Record a [`QueryTrace`] for every request (individual requests
    /// can also opt in via [`ServeRequest::trace`]).
    pub trace: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            default_k: 5,
            shards: 1,
            trace: false,
        }
    }
}

/// One corpus entry's level-1 screening record, in visit order (the
/// audit trail [`ServeEngine::answer_detailed`] exposes for the
/// admissibility tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntryScreenRecord {
    /// Corpus entry index.
    pub entry: usize,
    /// The index's whole-recording coarse bound (visit order only —
    /// *not* admissible for subsequence hits).
    pub coarse_bound: f64,
    /// The admissible window floor
    /// ([`SubseqMatcher::window_bound_floor`]): no hit inside the entry
    /// can score below this.
    pub floor: f64,
    /// The threshold the floor was compared against when this entry was
    /// visited (`f64::INFINITY` until k hits have accumulated).
    pub threshold: f64,
    /// Whether the entry was swept (`false` = pruned whole, justified
    /// by `floor > threshold`).
    pub swept: bool,
}

/// A fully detailed answer: the response payload plus the per-entry
/// screening audit trail and the optional trace.
#[derive(Debug, Clone)]
pub struct ServeAnswer {
    /// The k best hits, ascending `(distance, entry, offset)`.
    pub hits: Vec<ServeHit>,
    /// Level-1 verdict for every corpus entry, in visit order.
    pub screens: Vec<EntryScreenRecord>,
    /// The request's trace when tracing was on.
    pub trace: Option<QueryTrace>,
}

/// The resident two-level pattern engine.
///
/// Shared-immutable by design: the snapshot (index + derived stream
/// configuration) never changes after construction, so any number of
/// threads may call [`ServeEngine::answer_with_scratch`] concurrently —
/// the only interior mutability is the prepared-matcher cache behind a
/// `parking_lot::Mutex`. Per-request scratch lives with the caller (one
/// [`DtwScratch`] per worker), so a long-lived worker re-uses its DP
/// buffers across requests.
#[derive(Debug)]
pub struct ServeEngine {
    index: Arc<SdtwIndex>,
    stream_cfg: StreamConfig,
    cfg: ServeConfig,
    /// Prepared matchers keyed by the query's sample bits — repeated
    /// patterns skip envelope/descriptor preparation entirely.
    matchers: Mutex<HashMap<Vec<u64>, Arc<SubseqMatcher>>>,
    /// Total corpus samples (the trace's `y_len`).
    corpus_samples: u64,
    /// Largest `|sample|` of any stored entry (from the entry
    /// summaries) — what bounds a raw-mode window in the finite-cost
    /// contract.
    corpus_abs_max: f64,
}

impl ServeEngine {
    /// Wraps a built (or snapshot-loaded) index as a resident engine.
    /// The level-2 stream configuration is derived from the index
    /// configuration: same engine (policy/kernel/metric), same
    /// z-normalisation convention, same envelope radius fraction.
    ///
    /// # Errors
    ///
    /// Stream-configuration validation (inherited from the index
    /// configuration).
    pub fn new(index: SdtwIndex, cfg: ServeConfig) -> Result<ServeEngine, TsError> {
        let icfg = index.config();
        let stream_cfg = StreamConfig {
            sdtw: icfg.sdtw.clone(),
            z_normalize: icfg.z_normalize,
            lb_radius_frac: icfg.lb_radius_frac,
            ..StreamConfig::default()
        };
        stream_cfg.validate()?;
        let corpus_samples = index.entries().iter().map(|e| e.series.len() as u64).sum();
        let corpus_abs_max = index.entries().iter().fold(0.0f64, |acc, e| {
            acc.max(e.summary.min.abs()).max(e.summary.max.abs())
        });
        Ok(ServeEngine {
            index: Arc::new(index),
            stream_cfg,
            cfg,
            matchers: Mutex::new(HashMap::new()),
            corpus_samples,
            corpus_abs_max,
        })
    }

    /// Loads an index snapshot from disk — JSON or binary columnar v2,
    /// auto-detected by [`SnapshotCodec`] — and wraps it as a resident
    /// engine. The daemon path: binary snapshots stream column-by-column
    /// straight into the engine without an intermediate JSON tree.
    ///
    /// # Errors
    ///
    /// Snapshot I/O/decode failures, then as [`ServeEngine::new`].
    pub fn load<P: AsRef<std::path::Path>>(
        path: P,
        cfg: ServeConfig,
    ) -> Result<ServeEngine, TsError> {
        ServeEngine::new(SnapshotCodec::read_file(path)?, cfg)
    }

    /// The shared snapshot.
    pub fn index(&self) -> &SdtwIndex {
        &self.index
    }

    /// The level-2 stream configuration requests are swept under.
    pub fn stream_config(&self) -> &StreamConfig {
        &self.stream_cfg
    }

    /// The daemon configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The prepared matcher for a pattern, from cache when the same
    /// sample bits were served before.
    fn matcher_for(&self, values: &[f64]) -> Result<Arc<SubseqMatcher>, TsError> {
        let key: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        if let Some(m) = self.matchers.lock().get(&key) {
            return Ok(Arc::clone(m));
        }
        let query = TimeSeries::new(values.to_vec())?;
        let matcher = Arc::new(SubseqMatcher::new(&query, self.stream_cfg.clone())?);
        let mut cache = self.matchers.lock();
        if cache.len() >= MATCHER_CACHE_CAP {
            cache.clear();
        }
        cache.insert(key, Arc::clone(&matcher));
        Ok(matcher)
    }

    /// The finite-cost contract: a pattern is served only when every DP
    /// it can reach stays finite. [`SubseqMatcher::new`] already refused
    /// a pattern whose prepared (possibly z-normalised) samples are not
    /// finite; here the [`cost_ceiling`] of a pattern-sized
    /// grid must be finite, with a factor-2 margin for rounding, when
    /// window samples are bounded by the entry summaries (raw mode) or
    /// by `√m`, the largest z-score of any `m`-sample window
    /// (z-normalised mode). O(m) per request.
    ///
    /// [`cost_ceiling`]: sdtw_dtw::engine::DtwOptions::cost_ceiling
    fn check_finite_cost(&self, matcher: &SubseqMatcher) -> Result<(), TsError> {
        let q = matcher.query_values();
        let m = q.len();
        let max_x = q.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
        let max_y = if self.stream_cfg.z_normalize {
            (m as f64).sqrt()
        } else {
            self.corpus_abs_max
        };
        let ceiling = self.stream_cfg.sdtw.dtw.cost_ceiling(m, m, max_x + max_y);
        if !(2.0 * ceiling).is_finite() {
            return Err(TsError::InvalidParameter {
                name: "values",
                reason: format!(
                    "pattern magnitude {max_x:e} against corpus magnitude {max_y:e} \
                     overflows the DTW cost; distances would not be finite"
                ),
            });
        }
        Ok(())
    }

    /// Answers one request (allocates a fresh scratch; long-lived
    /// workers should hold one and call
    /// [`ServeEngine::answer_with_scratch`]).
    pub fn answer(&self, req: &ServeRequest) -> (ServeResponse, Option<QueryTrace>) {
        self.answer_with_scratch(req, &mut DtwScratch::new())
    }

    /// Answers one request with a caller-owned DP scratch (the worker
    /// hot path). Never panics on bad input — validation errors come
    /// back as an `ok = false` response.
    pub fn answer_with_scratch(
        &self,
        req: &ServeRequest,
        scratch: &mut DtwScratch,
    ) -> (ServeResponse, Option<QueryTrace>) {
        match self.answer_detailed(req, scratch) {
            Ok(answer) => {
                let (pruned, swept) = answer.screens.iter().fold((0u64, 0u64), |(p, s), r| match r
                    .swept
                {
                    true => (p, s + 1),
                    false => (p + 1, s),
                });
                (
                    ServeResponse {
                        id: req.id.clone(),
                        ok: true,
                        error: String::new(),
                        hits: answer.hits,
                        entries_pruned: pruned,
                        entries_swept: swept,
                    },
                    answer.trace,
                )
            }
            Err(e) => (ServeResponse::error(&req.id, e.to_string()), None),
        }
    }

    /// The full two-level cascade with its audit trail (what the
    /// exactness/admissibility tests drive).
    ///
    /// # Errors
    ///
    /// Request validation (`k == 0` after defaulting, NaN/negative
    /// `tau`, invalid pattern samples, a pattern that breaks the
    /// finite-cost contract, a `Shutdown` op) and engine
    /// errors (feature extraction under adaptive policies).
    pub fn answer_detailed(
        &self,
        req: &ServeRequest,
        scratch: &mut DtwScratch,
    ) -> Result<ServeAnswer, TsError> {
        if req.op != RequestOp::Query {
            return Err(TsError::InvalidParameter {
                name: "op",
                reason: "only Query requests reach the engine (Shutdown is a daemon operation)"
                    .to_string(),
            });
        }
        let k = if req.k == 0 {
            self.cfg.default_k
        } else {
            req.k
        };
        if k == 0 {
            return Err(TsError::InvalidParameter {
                name: "k",
                reason: "pattern search needs k >= 1".to_string(),
            });
        }
        let tau = req.tau.unwrap_or(f64::INFINITY);
        if tau.is_nan() || tau < 0.0 {
            return Err(TsError::InvalidParameter {
                name: "tau",
                reason: format!("distance threshold must be >= 0, got {tau}"),
            });
        }
        let traced = self.cfg.trace || req.trace;
        let t0 = std::time::Instant::now();
        let mut rec = if traced {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        let mut trace = traced.then(|| {
            let mut t = QueryTrace::new(&req.id, WorkloadKind::ServePattern);
            t.shape = InputShape {
                x_len: req.values.len() as u64,
                y_len: self.corpus_samples,
                k: k as u64,
                policy: self.stream_cfg.sdtw.policy.label(),
                kernel: self.stream_cfg.sdtw.dtw.kernel_label(),
                engine: "wavefront".into(),
            };
            t
        });

        let matcher = self.matcher_for(&req.values)?;
        self.check_finite_cost(&matcher)?;
        let query = TimeSeries::new(req.values.to_vec())?;
        // Level 1a: coarse visit order from the index's stage-1 screen
        // (whole-recording bounds — ranking only, never pruning).
        let screen = rec.time(TracePhase::EntryScreen, || self.index.coarse_screen(&query));

        // The candidate pool: per-entry greedy hit lists, every hit at
        // or under the threshold that was current when its entry was
        // swept. `dists` mirrors the pool's distances in sorted order so
        // the running k-th best is O(log n) to maintain.
        let mut hits: Vec<ServeHit> = Vec::new();
        let mut dists: Vec<f64> = Vec::new();
        let mut screens: Vec<EntryScreenRecord> = Vec::with_capacity(screen.order.len());

        for eb in &screen.order {
            let series = self.index.entry_series(eb.index);
            // the running threshold: the pool's k-th best distance once
            // k hits exist, capped by the request's tau. It only ever
            // tightens, and the final k-th distance can only be lower —
            // which is what makes pruning against it sound.
            let threshold = if dists.len() >= k {
                dists[k - 1].min(tau)
            } else {
                tau
            };
            // Level 1b: the admissible per-entry floor. Strict
            // comparison — an entry whose floor *ties* the threshold
            // could still win the (distance, entry, offset) tie-break
            // and must be swept.
            let floor = rec.time(TracePhase::EntryScreen, || {
                matcher.window_bound_floor(series)
            });
            if floor > threshold {
                screens.push(EntryScreenRecord {
                    entry: eb.index,
                    coarse_bound: eb.bound,
                    floor,
                    threshold,
                    swept: false,
                });
                if let Some(t) = trace.as_mut() {
                    // fold the level-1 prune into the canonical cascade
                    // counters: one candidate disposed by the Kim-family
                    // floor (entry-granular, vs the window-granular
                    // counters the sweeps contribute — see DESIGN §13)
                    t.counters.cascade.candidates += 1;
                    t.counters.cascade.pruned_kim += 1;
                }
                continue;
            }
            // Level 2: sweep the survivor, seeded with the threshold.
            let result = rec.time(TracePhase::EntrySweep, || {
                if traced {
                    let sweep_id = format!("{}#{}", req.id, eb.index);
                    let (result, sub) = if self.cfg.shards == 1 {
                        matcher.find_under_traced(series, k, threshold, &sweep_id)?
                    } else {
                        matcher.find_k_parallel_traced(
                            series,
                            k,
                            threshold,
                            self.cfg.shards,
                            &sweep_id,
                        )?
                    };
                    if let Some(t) = trace.as_mut() {
                        t.merge(&sub);
                    }
                    Ok::<_, TsError>(result)
                } else if self.cfg.shards == 1 {
                    matcher.find_under_with_scratch(series, k, threshold, scratch)
                } else {
                    matcher.find_k_parallel(series, k, threshold, self.cfg.shards)
                }
            })?;
            for m in &result.matches {
                let at = dists.partition_point(|&d| d < m.distance);
                dists.insert(at, m.distance);
                hits.push(ServeHit {
                    entry: eb.index,
                    offset: m.offset,
                    distance: m.distance,
                });
            }
            screens.push(EntryScreenRecord {
                entry: eb.index,
                coarse_bound: eb.bound,
                floor,
                threshold,
                swept: true,
            });
        }

        // Global merge: the pool's per-entry lists are each internally
        // non-overlapping and in global-compatible order, so the k best
        // by (distance, entry, offset) are exactly the corpus oracle's
        // greedy picks (DESIGN §13).
        rec.time(TracePhase::TopKMerge, || {
            hits.sort_by(|a, b| {
                a.distance
                    .partial_cmp(&b.distance)
                    .expect("distances are finite")
                    .then(a.entry.cmp(&b.entry))
                    .then(a.offset.cmp(&b.offset))
            });
            hits.truncate(k);
        });

        if let Some(t) = trace.as_mut() {
            t.spans.extend(rec.finish());
            t.wall = t0.elapsed();
        }
        Ok(ServeAnswer {
            hits,
            screens,
            trace,
        })
    }

    /// Answers a batch of requests across the rayon pool — the daemon's
    /// job queue. One worker processes many requests with one reused
    /// scratch ([`rayon`'s `map_init`]); responses come back in request
    /// order, bit-identical to answering serially (requests are
    /// independent).
    pub fn answer_batch(&self, reqs: &[ServeRequest]) -> Vec<(ServeResponse, Option<QueryTrace>)> {
        reqs.to_vec()
            .into_par_iter()
            .map_init(DtwScratch::new, |scratch, req| {
                self.answer_with_scratch(&req, scratch)
            })
            .collect()
    }
}
