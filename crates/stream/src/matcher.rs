//! The batch subsequence matcher and the shared per-window cascade.

use crate::config::StreamConfig;
use crate::rolling::RollingExtrema;
use crate::stats::StreamStats;
use rayon::prelude::*;
use sdtw::{DtwScratch, SDtw};
use sdtw_dtw::cascade::{
    Cascade, CascadeScratch, CascadeStats, CoarseEnvelope, PruneStage, SampleInput, StageKind,
};
use sdtw_dtw::engine::{dtw_run_batch_values, Normalization};
use sdtw_dtw::lower_bound::{lb_keogh_batch_windows, lb_kim, Envelope, SeriesSummary, LB_LANES};
use sdtw_dtw::Band;
use sdtw_obs::{InputShape, QueryTrace, Recorder, SpanRecord, TracePhase, WorkloadKind};
use sdtw_salient::{extract_features, SalientFeature};
use sdtw_tseries::stats::WindowedStats;
use sdtw_tseries::transform::{try_z_normalize, z_normalize_values};
use sdtw_tseries::{TimeSeries, TsError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Relative slack applied to the rolling LB_Kim before it may prune.
///
/// The rolling window moments ([`WindowedStats`]) track the exact batch
/// statistics to within ~`100·m·ε` relative (≲ 1e-9 for any realistic
/// window) *whenever they report themselves well-conditioned* — the
/// only regime [`SubseqMatcher::kim_bound`] uses them in — so a bound
/// computed from them can sit at most that far above its exact value;
/// pruning only when the bound clears the threshold by this much keeps
/// the stage admissible while letting borderline windows fall through
/// to the *exact* LB_Keogh and DP stages (which re-derive the window
/// statistics batch-style). See DESIGN.md §9 for the admissibility
/// argument.
const KIM_GUARD: f64 = 1e-7;

/// A serial scan's payload: the result, the spans its recorder kept,
/// and its work totals as a partial trace (see `ShardScan::work`).
type CoreScan = (SubseqResult, Vec<SpanRecord>, QueryTrace);

/// Below this (scale-relative) deviation the rolling σ cannot be
/// distinguished from the exact σ = 0 of a constant window, where
/// z-normalisation switches to the all-zeros convention — the rolling
/// LB_Kim abstains rather than normalise by a garbage σ.
const SIGMA_FLOOR: f64 = 1e-9;

/// One reported occurrence of the query inside the searched series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SubseqMatch {
    /// Window start: the match spans `offset .. offset + query_len`.
    pub offset: usize,
    /// Its (possibly normalised) constrained DTW distance to the query.
    pub distance: f64,
}

/// Answer to one batch search: matches ascending by `(distance, offset)`,
/// plus the accounting of what the cascade disposed of.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubseqResult {
    /// Up to `k` non-overlapping matches, greedily selected ascending by
    /// `(distance, offset)` (fewer when the series has fewer eligible
    /// windows).
    pub matches: Vec<SubseqMatch>,
    /// Per-stage pruning/DP accounting.
    pub stats: StreamStats,
}

/// The per-worker buffers one window evaluation needs: the window
/// normalisation target, the DP scratch, and the cascade's stage
/// scratch. Keep one per worker/monitor, like a [`DtwScratch`].
#[derive(Debug, Clone, Default)]
pub(crate) struct EvalScratch {
    /// Normalised-window buffer.
    pub(crate) window: Vec<f64>,
    /// DP buffers.
    pub(crate) dtw: DtwScratch,
    /// Cascade stage buffers (PAA segment means).
    pub(crate) cascade: CascadeScratch,
    /// Deferred-queue window buffers: one normalised window per LB lane.
    /// Only the batch sweeps fill these — the monitor path never defers.
    pub(crate) lanes: Vec<Vec<f64>>,
}

/// What one shard's sweep produced: its pass winner, or the first error.
type SweepOutcome = Result<Option<(f64, usize)>, TsError>;

/// How the cascade disposed of one window visit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum WindowVerdict {
    /// Dropped by the named lower-bound stage.
    Pruned(StageKind),
    /// The DP abandoned early against the threshold.
    Abandoned,
    /// The DP completed with this distance.
    Completed(f64),
}

/// A prepared subsequence query: the UCR-style search engine.
///
/// Construction pays the per-query costs exactly once — z-normalising
/// the query, extracting its salient descriptors (adaptive policies),
/// building its LB_Keogh [`Envelope`] and LB_Kim [`SeriesSummary`], and
/// planning the band (alignment-free policies, where every `m × m`
/// window shares it). [`SubseqMatcher::find`] then slides over a long
/// series running the cascade per window:
///
/// 1. **rolling LB_Kim** — O(1) from the incremental window statistics
///    ([`WindowedStats`] + [`RollingExtrema`]), conservatively guarded
///    under z-normalisation (see `KIM_GUARD` in the source);
/// 2. **coarse PAA pre-filter** — the exactly-normalised window's
///    segment means against the PAA-compressed query envelope
///    ([`CoarseEnvelope`]; `O(m/w)` metric evaluations, admissible under
///    the same conditions as LB_Keogh — see DESIGN.md §10);
/// 3. **LB_Keogh** — the exactly-normalised window against the query
///    envelope (when the band sits inside the envelope window);
/// 4. **early-abandoned banded DP** — the zero-copy
///    [`SDtw::query_window`] builder path, cut off at the best-so-far;
///    in the batch sweeps under an alignment-free policy, one
///    [`dtw_run_batch_values`] pass fills every queued survivor, one
///    window per lane (DESIGN.md "Lane-batched window DP").
///
/// All stages execute through the workspace-shared
/// [`sdtw_dtw::cascade::Cascade`] pipeline — the same runner
/// `sdtw_index` queries use. The batch sweeps additionally park Kim
/// survivors in a deferred queue of up to [`LB_LANES`] windows so their
/// forward LB_Keogh bounds compute as one [`lb_keogh_batch_windows`]
/// lane pass, and — when the windows share the fixed band — their DP as
/// one lane-batched fill cut off at the flush-start threshold; every
/// pruning *decision* still happens sequentially in sweep order against
/// a fresh best-so-far threshold, which keeps matches, the completed-
/// distance cache and every counter bit-identical to the fully serial
/// sweep (the streaming monitor path never defers).
///
/// Results are **exact**: offsets and bit-identical distances to
/// brute-forcing the same engine over every window and greedily picking
/// the `k` best non-overlapping ones ascending by `(distance, offset)`
/// (the `sdtw_eval` subsequence oracle; ties break toward the lower
/// offset). Top-k selection runs as up to `k` sweeps with a completed-
/// distance cache, so each sweep prunes against a sound best-so-far.
#[derive(Debug, Clone)]
pub struct SubseqMatcher {
    config: StreamConfig,
    engine: SDtw,
    /// The (possibly z-normalised) query samples.
    query: Vec<f64>,
    /// Cached salient descriptors (empty for alignment-free policies).
    query_features: Vec<SalientFeature>,
    query_envelope: Envelope,
    query_summary: SeriesSummary,
    /// Coarse (PAA) compression of the query envelope, feeding the
    /// pre-filter stage (`None` when `paa_width < 2` disabled it).
    query_coarse: Option<CoarseEnvelope>,
    /// The shared band of every window under alignment-free policies
    /// (`None` means adaptive: plan per window against the cached query
    /// descriptors).
    fixed_band: Option<Band>,
    /// The configured pruning pipeline every window runs (shared with
    /// `sdtw_index` via `sdtw_dtw::cascade`).
    cascade: Cascade,
    m: usize,
    radius: usize,
    exclusion: usize,
    bounds_ok: bool,
}

impl SubseqMatcher {
    /// Prepares a query for subsequence search.
    ///
    /// # Errors
    ///
    /// Configuration validation and feature-extraction errors.
    pub fn new(query: &TimeSeries, config: StreamConfig) -> Result<Self, TsError> {
        config.validate()?;
        let engine = SDtw::new(config.sdtw.clone())?;
        let prepared = if config.z_normalize {
            // the overflow error names the offending parameter
            try_z_normalize(query).map_err(|e| match e {
                TsError::InvalidParameter { reason, .. } => TsError::InvalidParameter {
                    name: "query",
                    reason,
                },
                other => other,
            })?
        } else {
            query.clone()
        };
        let needs_features = config.sdtw.policy.needs_alignment();
        let query_features = if needs_features {
            extract_features(&prepared, &config.sdtw.salient)?
        } else {
            Vec::new()
        };
        let m = prepared.len();
        let radius = config.radius_for(m);
        let exclusion = config.exclusion_for(m);
        let query = prepared.into_values();
        let query_envelope = Envelope::build_from_values(&query, radius);
        let query_summary = SeriesSummary::of_values(&query);
        let fixed_band = if needs_features {
            None
        } else {
            let (band, _) = engine.plan_band(&[], &[], m, m);
            Some(if band.is_feasible() {
                band
            } else {
                band.sanitize()
            })
        };
        let bounds_ok = config.sdtw.dtw.lower_bounds_admissible();
        let query_coarse = (config.paa_width >= 2)
            .then(|| CoarseEnvelope::build(&query_envelope, config.paa_width));
        let mut stages = vec![PruneStage::Kim {
            // rolling moments carry bounded numerical error under
            // per-window z-normalisation; the guard keeps the stage
            // admissible (raw windows have exact inputs — strict compare)
            guard: if config.z_normalize { KIM_GUARD } else { 0.0 },
        }];
        if query_coarse.is_some() {
            stages.push(PruneStage::Paa);
        }
        stages.push(PruneStage::Keogh);
        let cascade = Cascade::new(
            stages,
            config.sdtw.dtw.metric,
            config.sdtw.dtw.normalization,
            bounds_ok,
        );
        Ok(Self {
            config,
            engine,
            query,
            query_features,
            query_envelope,
            query_summary,
            query_coarse,
            fixed_band,
            cascade,
            m,
            radius,
            exclusion,
            bounds_ok,
        })
    }

    /// The matcher configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Length of the (prepared) query — the window size.
    pub fn query_len(&self) -> usize {
        self.m
    }

    /// The prepared (possibly z-normalised) query samples.
    pub fn query_values(&self) -> &[f64] {
        &self.query
    }

    /// Minimum offset distance between two reported matches.
    pub fn exclusion(&self) -> usize {
        self.exclusion
    }

    /// The envelope radius the LB_Keogh stage was built with.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Finds the `k` best non-overlapping matches in `series`.
    ///
    /// # Errors
    ///
    /// `k == 0`, or feature-extraction failures (adaptive policies).
    pub fn find(&self, series: &TimeSeries, k: usize) -> Result<SubseqResult, TsError> {
        self.find_under_with_scratch(series, k, f64::INFINITY, &mut DtwScratch::new())
    }

    /// [`SubseqMatcher::find`] restricted to matches with distance `<=
    /// tau` — the monitoring workload ("report occurrences under a
    /// threshold"), and the form whose streaming counterpart
    /// ([`crate::StreamMonitor`]) is exact for every `k`.
    ///
    /// # Errors
    ///
    /// `k == 0`, a negative/NaN `tau`, or feature-extraction failures.
    pub fn find_under(
        &self,
        series: &TimeSeries,
        k: usize,
        tau: f64,
    ) -> Result<SubseqResult, TsError> {
        self.find_under_with_scratch(series, k, tau, &mut DtwScratch::new())
    }

    /// [`SubseqMatcher::find_under`] with caller-owned DP buffers (the
    /// batch hot path: keep one [`DtwScratch`] per worker).
    ///
    /// # Errors
    ///
    /// `k == 0`, a negative/NaN `tau`, or feature-extraction failures.
    pub fn find_under_with_scratch(
        &self,
        series: &TimeSeries,
        k: usize,
        tau: f64,
        scratch: &mut DtwScratch,
    ) -> Result<SubseqResult, TsError> {
        Ok(self.find_core(series, k, tau, scratch, false)?.0)
    }

    /// [`SubseqMatcher::find`] with full telemetry: the result plus a
    /// canonical [`QueryTrace`] carrying phase spans (per-window LB_Kim
    /// screening, band planning, batched and scalar LB_Keogh, DP fill,
    /// whole-sweep wall), the [`StreamStats`] as the trace's counter
    /// block, and the band/grid denominators of the DP-entering windows.
    ///
    /// Matches are bit-identical to [`SubseqMatcher::find`] — recording
    /// never changes what the cascade sees.
    ///
    /// # Errors
    ///
    /// `k == 0`, or feature-extraction failures (adaptive policies).
    pub fn find_traced(
        &self,
        series: &TimeSeries,
        k: usize,
        query_id: &str,
    ) -> Result<(SubseqResult, QueryTrace), TsError> {
        self.find_under_traced(series, k, f64::INFINITY, query_id)
    }

    /// [`SubseqMatcher::find_under`] with full telemetry — the traced
    /// twin of the thresholded scan, so a `--tau` search can still emit
    /// its [`QueryTrace`].
    ///
    /// # Errors
    ///
    /// `k == 0`, a negative/NaN `tau`, or feature-extraction failures.
    pub fn find_under_traced(
        &self,
        series: &TimeSeries,
        k: usize,
        tau: f64,
        query_id: &str,
    ) -> Result<(SubseqResult, QueryTrace), TsError> {
        let t0 = std::time::Instant::now();
        let (result, spans, work) = self.find_core(series, k, tau, &mut DtwScratch::new(), true)?;
        let mut trace = QueryTrace::new(query_id, WorkloadKind::SubseqFind);
        trace.shape = self.trace_shape(series.len() as u64, k as u64);
        trace.counters = result.stats;
        trace.merge(&work);
        trace.spans = spans;
        trace.wall = t0.elapsed();
        Ok((result, trace))
    }

    /// The serial scan everybody funnels through: the one-shard
    /// degenerate of the sharded machinery, with an enabled recorder on
    /// the traced entry point and a disabled (≈free) one otherwise.
    /// Returns the result plus the recorded spans and the work totals.
    fn find_core(
        &self,
        series: &TimeSeries,
        k: usize,
        tau: f64,
        scratch: &mut DtwScratch,
        traced: bool,
    ) -> Result<CoreScan, TsError> {
        if k == 0 {
            return Err(TsError::InvalidParameter {
                name: "k",
                reason: "subsequence search needs k >= 1".to_string(),
            });
        }
        if tau.is_nan() || tau < 0.0 {
            return Err(TsError::InvalidParameter {
                name: "tau",
                reason: format!("distance threshold must be >= 0, got {tau}"),
            });
        }
        let xv = series.values();
        if xv.len() < self.m {
            return Ok((
                SubseqResult {
                    matches: Vec::new(),
                    stats: StreamStats::default(),
                },
                Vec::new(),
                QueryTrace::default(),
            ));
        }
        let w_count = xv.len() - self.m + 1;

        let mut shard = ShardScan::new(self, xv, 0, w_count, traced);
        shard.eval.dtw = std::mem::take(scratch);
        let mut selected: Vec<SubseqMatch> = Vec::new();
        let mut passes = 0u32;
        for _ in 0..k {
            passes += 1;
            match shard.sweep(self, xv, tau, &selected)? {
                None => break,
                Some((distance, offset)) => selected.push(SubseqMatch { offset, distance }),
            }
        }
        *scratch = std::mem::take(&mut shard.eval.dtw);
        let mut stats = shard.stats;
        stats.passes = passes;
        debug_assert!(stats.is_consistent(), "every cascade entry accounted once");
        Ok((
            SubseqResult {
                matches: selected,
                stats,
            },
            shard.rec.finish(),
            shard.work,
        ))
    }

    /// [`SubseqMatcher::find_under`] executed across the rayon pool: the
    /// haystack is split into `shards` contiguous window ranges (each
    /// worker reading its sample range plus an `m − 1` halo, so every
    /// window is evaluated whole by exactly one shard), each pass sweeps
    /// all shards concurrently, and the per-pass shard winners merge
    /// through the same greedy non-overlap selection the serial scan
    /// uses. `shards == 0` picks one shard per rayon worker.
    ///
    /// **Results are bit-identical to the serial scan** — offsets,
    /// distance bits, and tie order — for every shard count: a shard
    /// prunes only against thresholds at or above its own running pass
    /// best, which is itself at or above the global pass winner, so no
    /// window that could win (or tie) a pass is ever disposed of early.
    /// With one shard the execution *is* the serial scan, stats
    /// included. With several, per-stage disposal counts may shift
    /// between categories (each shard's threshold tightens from its
    /// local best rather than the whole series' history — a window the
    /// serial sweep pruned may complete its DP in a shard, and vice
    /// versa), but the merged [`StreamStats`] still accounts for every
    /// window visit exactly once and `windows`/`skipped_excluded` totals
    /// match the serial scan.
    ///
    /// # Errors
    ///
    /// `k == 0`, a negative/NaN `tau`, or feature-extraction failures
    /// (adaptive policies).
    pub fn find_k_parallel(
        &self,
        series: &TimeSeries,
        k: usize,
        tau: f64,
        shards: usize,
    ) -> Result<SubseqResult, TsError> {
        Ok(self.find_k_parallel_core(series, k, tau, shards, false)?.0)
    }

    /// [`SubseqMatcher::find_k_parallel`] with full telemetry: each shard
    /// records its own spans on the rayon worker that runs it (honest
    /// thread ids), and the shard-local traces fold through
    /// [`QueryTrace::merge`] — counters and areas sum, spans concatenate,
    /// the merged counter block is exactly the result's [`StreamStats`].
    ///
    /// Matches stay bit-identical to the serial scan for every shard
    /// count, recording or not.
    ///
    /// # Errors
    ///
    /// `k == 0`, a negative/NaN `tau`, or feature-extraction failures
    /// (adaptive policies).
    pub fn find_k_parallel_traced(
        &self,
        series: &TimeSeries,
        k: usize,
        tau: f64,
        shards: usize,
        query_id: &str,
    ) -> Result<(SubseqResult, QueryTrace), TsError> {
        let t0 = std::time::Instant::now();
        let (result, shard_traces) = self.find_k_parallel_core(series, k, tau, shards, true)?;
        let mut trace = QueryTrace::new(query_id, WorkloadKind::SubseqFind);
        trace.shape = self.trace_shape(series.len() as u64, k as u64);
        for st in &shard_traces {
            trace.merge(st);
        }
        // shard-local counter blocks carry passes = 0 (passes are a
        // whole-query notion); the canonical merged counters are the
        // result's, passes included
        trace.counters = result.stats;
        trace.wall = t0.elapsed();
        Ok((result, trace))
    }

    /// The sharded scan both parallel entry points funnel through.
    /// Returns the per-shard traces (spans + shard counters + areas;
    /// identity fields left default) when `traced`, an empty vec
    /// otherwise.
    fn find_k_parallel_core(
        &self,
        series: &TimeSeries,
        k: usize,
        tau: f64,
        shards: usize,
        traced: bool,
    ) -> Result<(SubseqResult, Vec<QueryTrace>), TsError> {
        if k == 0 {
            return Err(TsError::InvalidParameter {
                name: "k",
                reason: "subsequence search needs k >= 1".to_string(),
            });
        }
        if tau.is_nan() || tau < 0.0 {
            return Err(TsError::InvalidParameter {
                name: "tau",
                reason: format!("distance threshold must be >= 0, got {tau}"),
            });
        }
        let xv = series.values();
        if xv.len() < self.m {
            return Ok((
                SubseqResult {
                    matches: Vec::new(),
                    stats: StreamStats::default(),
                },
                Vec::new(),
            ));
        }
        let w_count = xv.len() - self.m + 1;
        let shard_count = if shards == 0 {
            rayon::current_num_threads()
        } else {
            shards
        }
        .clamp(1, w_count);

        // Shard construction (the rolling LB_Kim precompute is O(samples)
        // per shard) runs on the pool too.
        let mut scans: Vec<ShardScan> = (0..shard_count)
            .into_par_iter()
            .map(|s| {
                let ws = s * w_count / shard_count;
                let we = (s + 1) * w_count / shard_count;
                // traced shards get their recorder here, on the worker
                // thread that will run them — honest thread ordinals
                ShardScan::new(self, xv, ws, we, traced)
            })
            .collect();

        let mut selected: Vec<SubseqMatch> = Vec::new();
        let mut passes = 0u32;
        for _ in 0..k {
            passes += 1;
            let outcomes: Vec<(ShardScan, SweepOutcome)> = scans
                .into_par_iter()
                .map(|mut scan| {
                    let won = scan.sweep(self, xv, tau, &selected);
                    (scan, won)
                })
                .collect();
            scans = Vec::with_capacity(shard_count);
            let mut best: Option<(f64, usize)> = None;
            for (scan, won) in outcomes {
                scans.push(scan);
                if let Some((d, w)) = won? {
                    if Self::better(d, w, &best) {
                        best = Some((d, w));
                    }
                }
            }
            match best {
                None => break,
                Some((distance, offset)) => selected.push(SubseqMatch { offset, distance }),
            }
        }

        let mut stats = StreamStats::default();
        for scan in &scans {
            stats.merge(&scan.stats);
        }
        stats.passes = passes;
        debug_assert!(stats.is_consistent(), "every cascade entry accounted once");
        let shard_traces = if traced {
            scans
                .into_iter()
                .map(|scan| QueryTrace {
                    counters: scan.stats,
                    spans: scan.rec.finish(),
                    ..scan.work
                })
                .collect()
        } else {
            Vec::new()
        };
        Ok((
            SubseqResult {
                matches: selected,
                stats,
            },
            shard_traces,
        ))
    }

    /// An admissible lower bound on the distance of the *best* window of
    /// `series` — the minimum of the rolling LB_Kim bounds over every
    /// window, in reported-distance units. O(samples), no DP work.
    ///
    /// This is the per-entry floor the serve daemon's two-level cascade
    /// prunes whole recordings with: no subsequence hit inside `series`
    /// can score below the returned value, so an entry whose floor
    /// strictly exceeds the running k-th best hit can be skipped without
    /// sweeping it (ties must still be swept — the global tie-break may
    /// prefer them). Conservative by construction:
    ///
    /// * a window whose rolling bound abstains (ill-conditioned σ, or
    ///   bounds disabled by the kernel) contributes `0.0`, collapsing
    ///   the floor to the trivial bound — the entry is always swept;
    /// * under z-normalisation each rolling bound is deflated by the
    ///   same `KIM_GUARD` relative slack the in-sweep Kim stage applies
    ///   (`kim > t + g·(1 + |t| + kim)` solved for `t`), so "floor
    ///   strictly above the threshold" is *exactly* the per-window
    ///   guarded prune decision DESIGN §9 proves admissible;
    /// * a series shorter than the query has no windows and returns
    ///   `f64::INFINITY` — nothing to find, always prunable.
    pub fn window_bound_floor(&self, series: &TimeSeries) -> f64 {
        let xv = series.values();
        if xv.len() < self.m {
            return f64::INFINITY;
        }
        let guard = if self.config.z_normalize {
            KIM_GUARD
        } else {
            0.0
        };
        let w_count = xv.len() - self.m + 1;
        self.rolling_kims(xv, 0, w_count)
            .into_iter()
            .map(|kim| match kim {
                // thresholds are >= 0, so for t >= 0 the guarded prune
                // `kim > t + g·(1 + |t| + kim)` is `t < deflated(kim)`
                Some(kim) => ((kim * (1.0 - guard) - guard) / (1.0 + guard)).max(0.0),
                None => 0.0,
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// The [`InputShape`] block of this matcher's traces: query length,
    /// haystack/stream length, and the configured policy/kernel/engine.
    pub(crate) fn trace_shape(&self, y_len: u64, k: u64) -> InputShape {
        InputShape {
            x_len: self.m as u64,
            y_len,
            k,
            policy: self.config.sdtw.policy.label(),
            kernel: self.config.sdtw.dtw.kernel_label(),
            engine: "wavefront".into(),
        }
    }

    /// Greedy order: ascending distance, ties toward the lower offset.
    fn better(d: f64, w: usize, best: &Option<(f64, usize)>) -> bool {
        match best {
            None => true,
            Some((bd, bw)) => d < *bd || (d == *bd && w < *bw),
        }
    }

    /// Runs the shared cascade on one raw window against `threshold`,
    /// updating the caller's per-stage accounting. `kim` is the
    /// precomputed rolling bound (`None` = stage abstained). Shared by
    /// the batch sweeps, the sharded parallel scan, and the streaming
    /// monitors.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn evaluate_window(
        &self,
        raw: &[f64],
        kim: Option<f64>,
        threshold: f64,
        eval: &mut EvalScratch,
        stats: &mut CascadeStats,
        rec: &mut Recorder,
        work: &mut QueryTrace,
    ) -> Result<WindowVerdict, TsError> {
        debug_assert_eq!(raw.len(), self.m, "window must match the query length");
        if let Some(kind) = rec.time(TracePhase::LbKim, || {
            self.cascade.screen_summary(stats, kim, threshold)
        }) {
            return Ok(WindowVerdict::Pruned(kind));
        }
        // From here on the window statistics are exact: the batch-style
        // normalisation reproduces `z_normalize` bit for bit, so the
        // sample-phase bounds and the DP decide on the very values the
        // oracle sees.
        let EvalScratch {
            window,
            dtw,
            cascade,
            ..
        } = eval;
        let wv = self.normalize_window(raw, window);
        let planned = rec.time(TracePhase::BandPlan, || self.plan_window_band(wv, work))?;
        let band = planned
            .as_ref()
            .or(self.fixed_band.as_ref())
            .expect("alignment-free policies carry a fixed band");
        self.finish_window(wv, band, None, threshold, dtw, cascade, stats, rec, work)
    }

    /// Plans the adaptive band for one prepared (normalised) window —
    /// extract its descriptors, plan against the cached query
    /// descriptors, sanitise; the plan's descriptor comparisons add to
    /// `work`. `None` under an alignment-free policy, where every window
    /// shares the matcher's `fixed_band`.
    fn plan_window_band(&self, wv: &[f64], work: &mut QueryTrace) -> Result<Option<Band>, TsError> {
        if self.fixed_band.is_some() {
            return Ok(None);
        }
        let wts = TimeSeries::new(wv.to_vec())?;
        let wf = extract_features(&wts, &self.config.sdtw.salient)?;
        let (b, matched) = self
            .engine
            .plan_band(&self.query_features, &wf, self.m, self.m);
        if let Some(matched) = matched {
            work.descriptor_comparisons += matched.descriptor_comparisons as u64;
        }
        Ok(Some(if b.is_feasible() { b } else { b.sanitize() }))
    }

    /// The sample-phase stages and the early-abandoned DP for one
    /// prepared (normalised, band-planned) window. `y_keogh_raw`
    /// optionally carries the batched forward LB_Keogh bound — by
    /// construction bit-identical to the scalar value the cascade would
    /// otherwise compute itself, so passing it changes cost, never
    /// decisions.
    #[allow(clippy::too_many_arguments)]
    fn finish_window(
        &self,
        wv: &[f64],
        band: &Band,
        y_keogh_raw: Option<f64>,
        threshold: f64,
        dtw: &mut DtwScratch,
        cascade_scratch: &mut CascadeScratch,
        stats: &mut CascadeStats,
        rec: &mut Recorder,
        work: &mut QueryTrace,
    ) -> Result<WindowVerdict, TsError> {
        if let Some(kind) = self.screen_window(
            wv,
            band,
            y_keogh_raw,
            threshold,
            cascade_scratch,
            stats,
            rec,
        ) {
            return Ok(WindowVerdict::Pruned(kind));
        }
        let outcome = rec.time(TracePhase::DpFill, || {
            self.engine
                .query_window(&self.query, wv)
                .band(band)
                .cutoff(threshold)
                .path(false)
                .scratch(dtw)
                .run()
        })?;
        Ok(self.charge_dp(band, outcome.map(|r| r.distance), stats, work))
    }

    /// The counted sample-phase screen of one prepared window: the
    /// coarse PAA pre-filter and both LB_Keogh directions, all
    /// attributed to the LbKeogh span. Returns the pruning stage.
    #[allow(clippy::too_many_arguments)]
    fn screen_window(
        &self,
        wv: &[f64],
        band: &Band,
        y_keogh_raw: Option<f64>,
        threshold: f64,
        cascade_scratch: &mut CascadeScratch,
        stats: &mut CascadeStats,
        rec: &mut Recorder,
    ) -> Option<StageKind> {
        let input = SampleInput {
            x: wv,
            y: &self.query,
            y_envelope: Some(&self.query_envelope),
            y_keogh_raw,
            x_envelope: None,
            y_coarse: self.query_coarse.as_ref(),
        };
        rec.time(TracePhase::LbKeogh, || {
            self.cascade
                .screen_samples(stats, &input, band, threshold, cascade_scratch)
        })
    }

    /// Accounts one DP-entering window and turns its outcome (`None` =
    /// abandoned against the threshold) into a verdict.
    fn charge_dp(
        &self,
        band: &Band,
        distance: Option<f64>,
        stats: &mut CascadeStats,
        work: &mut QueryTrace,
    ) -> WindowVerdict {
        work.band_area += band.area() as u64;
        work.full_grid += (self.m * self.m) as u64;
        match distance {
            None => {
                // the abandoning run still paid for part of the grid;
                // charge the full band conservatively (as the index does)
                stats.record_abandoned(band.area());
                WindowVerdict::Abandoned
            }
            Some(d) => {
                stats.record_completed(band.area());
                WindowVerdict::Completed(d)
            }
        }
    }

    /// The rolling LB_Kim bound of a window, in reported-distance units,
    /// from the O(1) accumulators. `None` when the stage abstains: σ too
    /// close to the constant-window convention switch, or the sliding
    /// moments numerically ill-conditioned (stale centring offset after
    /// a level shift in the stream — see
    /// [`WindowedStats::moments_well_conditioned`]); abstaining windows
    /// fall through to the exact LB_Keogh/DP stages, so results never
    /// depend on an untrustworthy σ.
    pub(crate) fn kim_bound(
        &self,
        first: f64,
        last: f64,
        min: f64,
        max: f64,
        moments: &WindowedStats,
    ) -> Option<f64> {
        let metric = self.config.sdtw.dtw.metric;
        let summary = if self.config.z_normalize {
            if !moments.moments_well_conditioned() {
                return None;
            }
            let sd = moments.std_dev();
            let mean = moments.mean();
            if sd <= SIGMA_FLOOR * (1.0 + mean.abs()) {
                return None;
            }
            SeriesSummary {
                first: (first - mean) / sd,
                last: (last - mean) / sd,
                min: (min - mean) / sd,
                max: (max - mean) / sd,
                len: self.m,
            }
        } else {
            SeriesSummary {
                first,
                last,
                min,
                max,
                len: self.m,
            }
        };
        Some(self.normalize_bound(lb_kim(&self.query_summary, &summary, metric)))
    }

    /// Z-normalises a raw window into `buf` via the one shared
    /// implementation ([`z_normalize_values`] — bit-identical to the
    /// [`z_normalize`] series path by construction), or passes it
    /// through untouched in raw mode.
    ///
    /// [`z_normalize`]: sdtw_tseries::transform::z_normalize
    pub(crate) fn normalize_window<'a>(&self, raw: &'a [f64], buf: &'a mut Vec<f64>) -> &'a [f64] {
        if !self.config.z_normalize {
            return raw;
        }
        z_normalize_values(raw, buf);
        buf
    }

    /// Converts a raw accumulated-cost bound into the units of the
    /// configured normalisation, so it compares against final distances.
    fn normalize_bound(&self, raw: f64) -> f64 {
        match self.config.sdtw.dtw.normalization {
            Normalization::None => raw,
            Normalization::LengthSum => raw / (2 * self.m) as f64,
        }
    }

    /// Precomputes the rolling LB_Kim bound of every window in
    /// `[ws, we)` from one incremental sweep over the sample range the
    /// shard owns (`[ws, we − 1 + m)` — its windows plus the `m − 1`
    /// halo). The accumulators are the very ones the streaming monitor
    /// feeds push by push; a shard starting at `ws == 0` reproduces the
    /// serial sweep bit for bit. Later shards seed their moments at
    /// their own first sample, which can flip borderline guarded prunes
    /// — admissible either way, so matches never change.
    fn rolling_kims(&self, xv: &[f64], ws: usize, we: usize) -> Vec<Option<f64>> {
        let mut out = Vec::with_capacity(we - ws);
        if !self.bounds_ok {
            out.resize(we - ws, None);
            return out;
        }
        let mut moments = WindowedStats::new(self.m);
        let mut extrema = RollingExtrema::new(self.m);
        for (t, &v) in xv[ws..we - 1 + self.m].iter().enumerate() {
            moments.push(v);
            extrema.push(v);
            if t + 1 >= self.m {
                let w = ws + t + 1 - self.m;
                out.push(self.kim_bound(xv[w], v, extrema.min(), extrema.max(), &moments));
            }
        }
        out
    }
}

/// A Kim-surviving window parked in the deferred queue until enough
/// accumulate to batch their forward LB_Keogh bounds (one
/// [`lb_keogh_batch_windows`] lane pass over up to [`LB_LANES`] windows —
/// the queue capacity and the normalised-window staging buffers are both
/// sized from that one const, which the `sdtw_dtw::simd` lane layer
/// defines, so no chunk-width assumption lives in this crate).
/// Normalisation and band planning happen at enqueue time — in serial
/// sweep order — so deferral changes *when* the sample-phase stages run,
/// never what they see.
#[derive(Debug)]
struct PendingWindow {
    /// Global window offset.
    w: usize,
    /// Lane buffer holding the z-normalised samples (`None` in raw mode,
    /// where the haystack is re-sliced at flush time).
    lane: Option<usize>,
    /// The planned adaptive band (`None` under alignment-free policies —
    /// every window shares the matcher's `fixed_band`).
    band: Option<Band>,
}

/// One worker's share of a (possibly sharded) scan: the window range
/// `[ws, we)`, its precomputed rolling bounds, and every piece of
/// per-worker state the sweep mutates — the completed-distance cache,
/// the DP/cascade scratch buffers, and the shard's own [`StreamStats`].
///
/// The serial scan runs exactly one of these over the whole window
/// range; [`SubseqMatcher::find_k_parallel`] runs one per shard and
/// merges.
#[derive(Debug)]
struct ShardScan {
    /// First window this shard owns.
    ws: usize,
    /// One past the last window this shard owns.
    we: usize,
    /// Rolling LB_Kim per owned window (`kims[w - ws]`).
    kims: Vec<Option<f64>>,
    /// Completed DP distances, keyed by global window offset.
    computed: BTreeMap<usize, f64>,
    eval: EvalScratch,
    stats: StreamStats,
    /// Shard-local phase spans — disabled (≈free) outside the traced
    /// entry points.
    rec: Recorder,
    /// Work totals as a partial trace: band and full-grid areas summed
    /// over DP-entering windows (the pruning-power denominators) and
    /// descriptor comparisons summed over adaptive band plans.
    work: QueryTrace,
}

impl ShardScan {
    /// Prepares a shard over windows `[ws, we)` of `xv` (`ws < we`).
    fn new(matcher: &SubseqMatcher, xv: &[f64], ws: usize, we: usize, traced: bool) -> Self {
        debug_assert!(ws < we && we <= xv.len() - matcher.m + 1);
        Self {
            ws,
            we,
            kims: matcher.rolling_kims(xv, ws, we),
            computed: BTreeMap::new(),
            eval: EvalScratch::default(),
            stats: StreamStats {
                windows: (we - ws) as u64,
                ..StreamStats::default()
            },
            rec: if traced {
                Recorder::enabled()
            } else {
                Recorder::disabled()
            },
            work: QueryTrace::default(),
        }
    }

    /// One greedy best-match pass over the shard's windows: finds the
    /// minimal `(distance, offset)` among non-excluded windows at or
    /// under `tau`, pruning against the pass's running best (seeded from
    /// the completed-distance cache) — the serial sweep restricted to
    /// `[ws, we)`.
    fn sweep(
        &mut self,
        matcher: &SubseqMatcher,
        xv: &[f64],
        tau: f64,
        selected: &[SubseqMatch],
    ) -> SweepOutcome {
        let excluded = |w: usize| {
            selected
                .iter()
                .any(|s| w.abs_diff(s.offset) < matcher.exclusion)
        };
        let (ws, we) = (self.ws, self.we);
        self.eval.lanes.resize(LB_LANES, Vec::new());
        let Self {
            kims,
            computed,
            eval,
            stats,
            rec,
            work,
            ..
        } = self;
        // WindowSweep is the enclosing span: its duration covers the
        // whole pass, the per-stage spans nest inside it
        let sweep_t0 = rec.is_enabled().then(std::time::Instant::now);
        let EvalScratch {
            dtw,
            cascade: cascade_scratch,
            lanes,
            ..
        } = eval;
        let mut best: Option<(f64, usize)> = None;
        for (&w, &d) in computed.iter() {
            if d <= tau && !excluded(w) && SubseqMatcher::better(d, w, &best) {
                best = Some((d, w));
            }
        }
        let mut pending: Vec<PendingWindow> = Vec::with_capacity(LB_LANES);
        for w in ws..we {
            if excluded(w) {
                stats.skipped_excluded += 1;
                continue;
            }
            if computed.contains_key(&w) {
                stats.cache_hits += 1;
                continue;
            }
            // The threshold this Kim screen reads can be stale by the (at
            // most LB_LANES - 1) queued survivors ahead of this window;
            // staleness only ever *loosens* it, so deferral may admit an
            // extra window into the queue but never drops one the serial
            // sweep would keep. The flush re-reads a fresh threshold
            // before every decision that can complete, so the pass winner
            // and the completed-distance cache stay bit-identical to the
            // serial sweep — an admitted-by-staleness window necessarily
            // exceeds its fresh flush threshold and falls to a later
            // stage (shifting pruning *credit* between stages only).
            let threshold = best.map_or(tau, |(d, _)| d.min(tau));
            if rec
                .time(TracePhase::LbKim, || {
                    matcher
                        .cascade
                        .screen_summary(&mut stats.cascade, kims[w - ws], threshold)
                })
                .is_some()
            {
                continue;
            }
            let raw = &xv[w..w + matcher.m];
            let lane = matcher.config.z_normalize.then(|| {
                let l = pending.len();
                z_normalize_values(raw, &mut lanes[l]);
                l
            });
            let wv: &[f64] = match lane {
                Some(l) => &lanes[l],
                None => raw,
            };
            let band = rec.time(TracePhase::BandPlan, || matcher.plan_window_band(wv, work))?;
            pending.push(PendingWindow { w, lane, band });
            if pending.len() == LB_LANES {
                Self::flush_pending(
                    matcher,
                    xv,
                    &mut pending,
                    lanes,
                    dtw,
                    cascade_scratch,
                    &mut stats.cascade,
                    computed,
                    tau,
                    &mut best,
                    rec,
                    work,
                )?;
            }
        }
        Self::flush_pending(
            matcher,
            xv,
            &mut pending,
            lanes,
            dtw,
            cascade_scratch,
            &mut stats.cascade,
            computed,
            tau,
            &mut best,
            rec,
            work,
        )?;
        if let Some(t0) = sweep_t0 {
            rec.add(TracePhase::WindowSweep, t0.elapsed());
        }
        Ok(best)
    }

    /// Drains the deferred window queue: one batched forward LB_Keogh
    /// pass over the lanes whose stage applies (same predicate the
    /// cascade uses — the band inside the query-envelope window), then
    /// each window is decided strictly in FIFO (= serial sweep) order
    /// against a fresh pass-best threshold. The cascade re-derives
    /// applicability itself and falls back to the scalar bound when no
    /// precomputed value is present, so the predicate here is a
    /// performance filter, not a correctness gate.
    ///
    /// When the queued windows share the matcher's `fixed_band`, their
    /// DP also runs batched, in three steps (DESIGN.md "Lane-batched
    /// window DP"):
    ///
    /// 1. pick as lanes every window whose batched LB_Keogh bound does
    ///    not exceed the flush-start threshold `t0` (uncounted; the PAA
    ///    bound never exceeds it, so this is the sample-phase pick);
    /// 2. fill all lanes in one [`dtw_run_batch_values`] pass cut off at
    ///    `t0`;
    /// 3. decide each window in FIFO order with the counted sample
    ///    screen against the fresh threshold, then read its lane: a
    ///    distance over the fresh threshold, or a lane that dropped out
    ///    at `t0`, is the `Abandoned` the serial DP would report.
    ///
    /// `t0` can only sit at or above every fresh threshold, so a window
    /// the fresh screen keeps was always picked, and each verdict, the
    /// completed-distance cache and every counter match the serial sweep
    /// bit for bit. Adaptive-band windows keep the single-window DP.
    #[allow(clippy::too_many_arguments)]
    fn flush_pending(
        matcher: &SubseqMatcher,
        xv: &[f64],
        pending: &mut Vec<PendingWindow>,
        lanes: &[Vec<f64>],
        dtw: &mut DtwScratch,
        cascade_scratch: &mut CascadeScratch,
        stats: &mut CascadeStats,
        computed: &mut BTreeMap<usize, f64>,
        tau: f64,
        best: &mut Option<(f64, usize)>,
        rec: &mut Recorder,
        work: &mut QueryTrace,
    ) -> Result<(), TsError> {
        if pending.is_empty() {
            return Ok(());
        }
        debug_assert!(pending.len() <= LB_LANES, "queue flushes at the lane width");
        let window_of = |cand: &PendingWindow| -> &[f64] {
            match cand.lane {
                Some(l) => &lanes[l],
                None => &xv[cand.w..cand.w + matcher.m],
            }
        };
        // Some(band) ⇔ every queued window shares it: the batched DP path
        let shared = matcher.fixed_band.as_ref();
        let t0 = best.map_or(tau, |(d, _)| d.min(tau));
        let mut pre: [Option<f64>; LB_LANES] = [None; LB_LANES];
        // lane_of[p]: the DP lane of queued window p, when it was picked
        let mut lane_of: [Option<usize>; LB_LANES] = [None; LB_LANES];
        let mut picked: Vec<&[f64]> = Vec::with_capacity(LB_LANES);
        if matcher.bounds_ok {
            rec.time(TracePhase::LbKeogh, || {
                let mut slots: Vec<usize> = Vec::with_capacity(pending.len());
                let mut views: Vec<&[f64]> = Vec::with_capacity(pending.len());
                for (p, cand) in pending.iter().enumerate() {
                    let band = cand.band.as_ref().or(shared);
                    if band.is_some_and(|b| b.within_window(matcher.radius)) {
                        slots.push(p);
                        views.push(window_of(cand));
                    }
                }
                let mut bounds = Vec::with_capacity(slots.len());
                lb_keogh_batch_windows(
                    &views,
                    &matcher.query_envelope,
                    matcher.config.sdtw.dtw.metric,
                    &mut bounds,
                );
                for (&p, &raw) in slots.iter().zip(&bounds) {
                    pre[p] = Some(raw);
                }
            });
        }
        if shared.is_some() {
            // The pick reads only the batched LB_Keogh bound and counts
            // nothing. The PAA bound never exceeds LB_Keogh and applies
            // under the same radius, so the full sample screen at `t0`
            // would pick the same set; any pick at least that loose keeps
            // every window the fresh screen below lets through.
            for (p, cand) in pending.iter().enumerate() {
                if pre[p].is_none_or(|raw| matcher.normalize_bound(raw) <= t0) {
                    lane_of[p] = Some(picked.len());
                    picked.push(window_of(cand));
                }
            }
        }
        let filled = match shared {
            Some(band) if !picked.is_empty() => rec.time(TracePhase::DpFill, || {
                dtw_run_batch_values(
                    &matcher.query,
                    &picked,
                    band,
                    &matcher.config.sdtw.dtw,
                    t0,
                    dtw,
                )
            }),
            _ => [None; LB_LANES],
        };
        for (p, cand) in pending.iter().enumerate() {
            let wv = window_of(cand);
            let threshold = best.map_or(tau, |(d, _)| d.min(tau));
            let verdict = match shared {
                Some(band) => {
                    match matcher.screen_window(
                        wv,
                        band,
                        pre[p],
                        threshold,
                        cascade_scratch,
                        stats,
                        rec,
                    ) {
                        Some(kind) => WindowVerdict::Pruned(kind),
                        None => {
                            let lane = lane_of[p]
                                .expect("a window the fresh screen keeps passed the stale one");
                            let distance = filled[lane].filter(|&d| d <= threshold);
                            matcher.charge_dp(band, distance, stats, work)
                        }
                    }
                }
                None => {
                    let band = cand
                        .band
                        .as_ref()
                        .expect("adaptive windows carry a planned band");
                    matcher.finish_window(
                        wv,
                        band,
                        pre[p],
                        threshold,
                        dtw,
                        cascade_scratch,
                        stats,
                        rec,
                        work,
                    )?
                }
            };
            if let WindowVerdict::Completed(d) = verdict {
                computed.insert(cand.w, d);
                if d <= tau && SubseqMatcher::better(d, cand.w, best) {
                    *best = Some((d, cand.w));
                }
            }
        }
        pending.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::StreamMonitor;
    use sdtw_tseries::transform::z_normalize;

    fn ts(v: Vec<f64>) -> TimeSeries {
        TimeSeries::new(v).unwrap()
    }

    /// A haystack with the query planted (shifted/scaled) at known spots.
    fn planted() -> (TimeSeries, TimeSeries) {
        let query = ts((0..48)
            .map(|i| {
                let t = i as f64 / 47.0;
                (-((t - 0.5) / 0.12).powi(2)).exp()
            })
            .collect());
        let mut hay = vec![0.0; 400];
        for (start, gain, offset) in [(60usize, 1.0, 0.0), (220, 3.0, 5.0)] {
            for i in 0..48 {
                hay[start + i] += gain * query.at(i) + offset;
            }
        }
        // mild deterministic ripple so windows are never exactly constant
        for (i, v) in hay.iter_mut().enumerate() {
            *v += 0.01 * (i as f64 / 9.0).sin();
        }
        (query, ts(hay))
    }

    #[test]
    fn window_bound_floor_is_admissible_and_conservative() {
        let (query, hay) = planted();
        for z in [true, false] {
            let mut cfg = StreamConfig::exact_banded(0.2);
            cfg.z_normalize = z;
            let matcher = SubseqMatcher::new(&query, cfg).unwrap();
            let floor = matcher.window_bound_floor(&hay);
            assert!(floor >= 0.0 && floor.is_finite());
            // admissible: no window's exact distance lies below the floor
            let best = matcher.find(&hay, 1).unwrap().matches[0].distance;
            assert!(
                floor <= best,
                "z={z}: floor {floor} above best window {best}"
            );
        }
        // a haystack shorter than the query has no windows at all
        let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
        let short = ts(vec![0.0; 8]);
        assert_eq!(matcher.window_bound_floor(&short), f64::INFINITY);
    }

    #[test]
    fn finds_planted_occurrences_under_z_normalization() {
        let (query, hay) = planted();
        let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
        let result = matcher.find(&hay, 2).unwrap();
        assert_eq!(result.matches.len(), 2);
        // both planted sites found (z-normalisation cancels gain/offset),
        // within a couple of samples of the planting position
        let mut offsets: Vec<usize> = result.matches.iter().map(|m| m.offset).collect();
        offsets.sort_unstable();
        assert!((offsets[0] as i64 - 60).abs() <= 6, "got {offsets:?}");
        assert!((offsets[1] as i64 - 220).abs() <= 6, "got {offsets:?}");
        assert!(result.stats.is_consistent());
        assert_eq!(result.stats.windows, 400 - 48 + 1);
    }

    #[test]
    fn raw_mode_is_offset_sensitive() {
        let (query, hay) = planted();
        let config = StreamConfig {
            z_normalize: false,
            ..StreamConfig::exact_banded(0.2)
        };
        let matcher = SubseqMatcher::new(&query, config).unwrap();
        let best = matcher.find(&hay, 1).unwrap().matches[0];
        // raw comparison must prefer the unscaled planting
        assert!((best.offset as i64 - 60).abs() <= 6, "got {}", best.offset);
    }

    #[test]
    fn matches_respect_the_exclusion_zone() {
        let (query, hay) = planted();
        let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
        let result = matcher.find(&hay, 5).unwrap();
        let excl = matcher.exclusion();
        for (i, a) in result.matches.iter().enumerate() {
            for b in &result.matches[i + 1..] {
                assert!(
                    a.offset.abs_diff(b.offset) >= excl,
                    "matches {a:?} and {b:?} overlap (exclusion {excl})"
                );
            }
        }
        // matches come out ascending by (distance, offset)
        for pair in result.matches.windows(2) {
            assert!(pair[0].distance <= pair[1].distance);
        }
    }

    #[test]
    fn tau_restricts_and_short_series_yield_nothing() {
        let (query, hay) = planted();
        let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
        let all = matcher.find(&hay, 3).unwrap();
        let tau = all.matches[0].distance; // only the best qualifies
        let under = matcher.find_under(&hay, 3, tau).unwrap();
        assert_eq!(under.matches.len(), 1);
        assert_eq!(under.matches[0], all.matches[0]);
        // inclusive: tau exactly at the distance keeps the match
        let short = ts(vec![0.0; 10]);
        assert!(matcher.find(&short, 1).unwrap().matches.is_empty());
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let (query, hay) = planted();
        let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
        let fresh = matcher.find(&hay, 3).unwrap();
        let mut scratch = DtwScratch::new();
        let reused = matcher
            .find_under_with_scratch(&hay, 3, f64::INFINITY, &mut scratch)
            .unwrap();
        assert_eq!(fresh.matches.len(), reused.matches.len());
        for (a, b) in fresh.matches.iter().zip(&reused.matches) {
            assert_eq!(a.offset, b.offset);
            assert_eq!(a.distance.to_bits(), b.distance.to_bits());
        }
        assert_eq!(fresh.stats, reused.stats);
    }

    #[test]
    fn bad_parameters_are_rejected() {
        let (query, hay) = planted();
        let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
        assert!(matcher.find(&hay, 0).is_err());
        assert!(matcher.find_under(&hay, 1, -1.0).is_err());
        assert!(matcher.find_under(&hay, 1, f64::NAN).is_err());
        let bad = StreamConfig {
            exclusion_frac: -1.0,
            ..StreamConfig::default()
        };
        assert!(SubseqMatcher::new(&query, bad).is_err());
    }

    #[test]
    fn a_query_whose_z_normalisation_overflows_is_a_typed_error() {
        // finite samples whose running sum overflows to ±inf
        let q = ts(vec![1e308, -1e308, 1e308, 1e308, -1e308, 1e308, 0.0, 1.0]);
        let cfg = StreamConfig {
            z_normalize: true,
            ..StreamConfig::exact_banded(0.2)
        };
        match SubseqMatcher::new(&q, cfg) {
            Err(TsError::InvalidParameter { name, .. }) => assert_eq!(name, "query"),
            other => panic!("expected a typed error, got {other:?}"),
        }
    }

    #[test]
    fn constant_windows_are_handled_by_the_sigma_convention() {
        // a flat haystack: every window z-normalises to all-zeros; the
        // search must complete without pruning anything unsoundly
        let query = ts((0..32).map(|i| (i as f64 / 5.0).sin()).collect());
        let hay = ts(vec![3.25; 200]);
        let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
        let result = matcher.find(&hay, 1).unwrap();
        assert_eq!(result.matches.len(), 1);
        // distance to the zero window = sum of squared query samples
        // under the banded DP; just sanity-check finiteness + stats
        assert!(result.matches[0].distance.is_finite());
        assert!(result.stats.is_consistent());
    }

    #[test]
    fn level_shift_streams_stay_exact() {
        // the ill-conditioning regression: a huge DC level shift makes
        // the rolling sigma garbage for the stale-offset windows; the
        // Kim stage must abstain there rather than unsoundly prune the
        // planting hidden inside the new level
        let query = ts((0..32)
            .map(|i| (-((i as f64 / 31.0 - 0.5) / 0.15).powi(2)).exp())
            .collect());
        let mut hay = vec![0.0; 400];
        for (i, v) in hay.iter_mut().enumerate() {
            *v = 0.01 * (i as f64 / 3.0).sin();
            if i >= 200 {
                *v += 1e6; // the level shift
            }
        }
        // plant the query once before the shift and once inside the
        // stale-offset regime right after it (window fully at the new
        // level, before the next scheduled re-centring refresh): a
        // garbage rolling sigma there would corrupt the rolling LB_Kim
        // and silently drop this second match
        for (start, gain) in [(80usize, 1.0), (210, 1.0)] {
            for i in 0..32 {
                hay[start + i] += gain * query.at(i);
            }
        }
        let hay = ts(hay);
        let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
        // brute-force oracle inline: every window, batch-normalised
        let engine = SDtw::new(matcher.config().sdtw.clone()).unwrap();
        let qts = ts(matcher.query_values().to_vec());
        let mut profile: Vec<(usize, f64)> = Vec::new();
        for w in 0..=(hay.len() - 32) {
            let window = z_normalize(&ts(hay.values()[w..w + 32].to_vec()));
            let d = engine.query(&qts, &window).run().unwrap().unwrap().distance;
            profile.push((w, d));
        }
        for k in [1usize, 3] {
            // greedy reference selection
            let mut picked: Vec<(usize, f64)> = Vec::new();
            while picked.len() < k {
                let mut best: Option<(usize, f64)> = None;
                for &(w, d) in &profile {
                    if picked
                        .iter()
                        .any(|&(p, _)| w.abs_diff(p) < matcher.exclusion())
                    {
                        continue;
                    }
                    best = match best {
                        None => Some((w, d)),
                        Some((bw, bd)) if d < bd || (d == bd && w < bw) => Some((w, d)),
                        keep => keep,
                    };
                }
                match best {
                    None => break,
                    Some(p) => picked.push(p),
                }
            }
            let got = matcher.find(&hay, k).unwrap();
            assert_eq!(got.matches.len(), picked.len(), "k={k}");
            for (m, (w, d)) in got.matches.iter().zip(&picked) {
                assert_eq!(m.offset, *w, "k={k}: the level shift broke exactness");
                assert_eq!(m.distance.to_bits(), d.to_bits(), "k={k}");
            }
        }
        // streaming mode sees the same shift sample by sample
        let batch = matcher.find(&hay, 1).unwrap();
        let mut monitor = StreamMonitor::new(matcher, 1, f64::INFINITY).unwrap();
        monitor.process(hay.values()).unwrap();
        let live = monitor.matches();
        assert_eq!(live[0].offset, batch.matches[0].offset);
        assert_eq!(
            live[0].distance.to_bits(),
            batch.matches[0].distance.to_bits()
        );
    }

    #[test]
    fn cascade_actually_prunes_on_an_easy_stream() {
        let (query, hay) = planted();
        let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
        let result = matcher.find(&hay, 1).unwrap();
        assert!(
            result.stats.cascade.pruned_before_dp() > 0,
            "lower bounds never fired: {:?}",
            result.stats
        );
        assert!(result.stats.prune_rate() > 0.2, "{:?}", result.stats);
    }
}
