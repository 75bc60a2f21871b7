//! Banded dynamic-programming engine and warp-path traceback.
//!
//! One kernel-generic recurrence executes every pruning policy **and**
//! every cost model. The input alone picks the fill order:
//!
//! * a run that traces a warp path fills **row by row** into the
//!   band-sparse accumulation matrix `D` (CSR-style row offsets into a
//!   flat buffer), because the backward traceback walk needs the whole
//!   matrix;
//! * every other run sweeps **anti-diagonals** `d = i + j` of the banded
//!   lattice: every cell on a diagonal depends only on the two previous
//!   diagonals, so the inner loop carries no serial dependency, only
//!   three flat diagonal buffers stay alive, and the interior of each
//!   diagonal runs in explicit [`F64Lanes`] vectors (spans narrower than
//!   one vector and ragged tails run scalar cells).
//!
//! Both fills evaluate the identical per-cell expression in
//! `O(band area)`, so their distances and abandon decisions are
//! bit-identical (`tests/differential_engine.rs` runs one pair with and
//! without a path request to keep this checkable). The all-scalar
//! wavefront sweep survives only as the test oracle
//! [`crate::reference::wavefront_scalar_values`]. Out-of-band parents are
//! treated as `+∞`; the band sanitiser guarantees the corner cell stays
//! reachable.
//!
//! The execution surface is **one** function pair:
//!
//! * [`dtw_run`] — generic over any [`DtwKernel`] (static dispatch, the
//!   fill loop monomorphises per kernel), with warp-path tracing and the
//!   early-abandon cutoff as orthogonal options;
//! * [`dtw_run_options`] — the same path driven by a serialisable
//!   [`DtwOptions`] (its [`KernelChoice`] is dispatched once per call).
//!
//! Many windows against one query under one shared band take a third
//! shape: [`dtw_run_batch_values`] fills up to [`LANE_WIDTH`] windows in
//! one row-by-row pass, one window per [`F64Lanes`] lane, each lane
//! running the row engine's per-cell expression (so each lane's distance
//! and abandon decision are bit-identical to a single-window fill). It
//! wins where the wavefront cannot fill a vector — narrow bands with
//! fewer than [`LANE_WIDTH`] cells per anti-diagonal — and the stream
//! sweep uses it for every fixed-band flush.

use crate::band::Band;
use crate::kernel::{AmercedKernel, DtwKernel, KernelChoice, StandardKernel};
use crate::path::WarpPath;
use crate::simd::{F64Lanes, LaneMask, LANE_WIDTH};
use sdtw_tseries::{ElementMetric, TimeSeries, TsError};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Local-transition weighting of the DTW recurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum StepPattern {
    /// `D(i,j) = min(D(i-1,j), D(i,j-1), D(i-1,j-1)) + d` — the paper's
    /// recurrence (§2.1.3) and the default.
    #[default]
    Symmetric1,
    /// Sakoe & Chiba's symmetric2: the diagonal transition pays `2d`
    /// (compensating its double time advance), making the distance
    /// comparable across alignments of different lengths and enabling the
    /// conventional `/(N+M)` normalisation.
    Symmetric2,
}

impl StepPattern {
    /// Cost multiplier of the diagonal transition.
    #[inline]
    pub fn diagonal_weight(self) -> f64 {
        match self {
            StepPattern::Symmetric1 => 1.0,
            StepPattern::Symmetric2 => 2.0,
        }
    }
}

/// Post-hoc normalisation of the accumulated distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Normalization {
    /// Report the raw accumulated cost (the paper's convention).
    #[default]
    None,
    /// Divide by `N + M` — the standard normalisation for
    /// [`StepPattern::Symmetric2`], yielding a per-step cost that is
    /// comparable across series lengths.
    LengthSum,
}

/// Options for a DTW computation.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct DtwOptions {
    /// Pointwise metric inside the recurrence.
    pub metric: ElementMetric,
    /// Whether to keep the accumulation matrix and trace the optimal warp
    /// path back (costs one extra `O(N+M)` walk plus the band-sized matrix
    /// retained during the call either way).
    pub compute_path: bool,
    /// Transition weighting (default: the paper's symmetric1). Ignored by
    /// the amerced kernel, which defines its own weighting.
    pub step_pattern: StepPattern,
    /// Distance normalisation (default: none, as in the paper).
    pub normalization: Normalization,
    /// Which cost kernel runs the recurrence (default: the standard
    /// step-pattern kernel).
    pub kernel: KernelChoice,
}

// Hand-written (the shim derive has no `#[serde(default)]`): `kernel`
// falls back to `Standard` when absent, so JSON artifacts persisted
// before the field existed — index snapshots in particular — keep
// loading.
impl serde::Deserialize for DtwOptions {
    fn from_json(v: &serde::Value) -> Result<Self, serde::DeError> {
        if v.as_object().is_none() {
            return Err(serde::DeError::expected("object", v));
        }
        Ok(Self {
            metric: serde::Deserialize::from_json(serde::obj_get(v, "metric")?)?,
            compute_path: serde::Deserialize::from_json(serde::obj_get(v, "compute_path")?)?,
            step_pattern: serde::Deserialize::from_json(serde::obj_get(v, "step_pattern")?)?,
            normalization: serde::Deserialize::from_json(serde::obj_get(v, "normalization")?)?,
            kernel: match v.get("kernel") {
                Some(k) => serde::Deserialize::from_json(k)?,
                None => KernelChoice::default(),
            },
        })
    }
}

impl DtwOptions {
    /// Options that also produce the warp path.
    pub fn with_path() -> Self {
        Self {
            compute_path: true,
            ..Self::default()
        }
    }

    /// The conventional normalised-symmetric2 configuration.
    pub fn normalized_symmetric2() -> Self {
        Self {
            step_pattern: StepPattern::Symmetric2,
            normalization: Normalization::LengthSum,
            ..Self::default()
        }
    }

    /// ADTW options: the amerced kernel with the given warp penalty.
    pub fn amerced(penalty: f64) -> Self {
        Self {
            kernel: KernelChoice::Amerced { penalty },
            ..Self::default()
        }
    }

    /// Validates kernel parameters (the amerced penalty must be finite
    /// and non-negative — both early abandoning and the lower-bound
    /// admissibility argument rely on it).
    ///
    /// # Errors
    ///
    /// [`TsError::InvalidParameter`] on a bad penalty.
    pub fn validate(&self) -> Result<(), TsError> {
        if let KernelChoice::Amerced { penalty } = self.kernel {
            if !penalty.is_finite() || penalty < 0.0 {
                return Err(TsError::InvalidParameter {
                    name: "kernel.penalty",
                    reason: format!("amerced warp penalty must be finite and >= 0, got {penalty}"),
                });
            }
        }
        Ok(())
    }

    /// An upper bound on the raw accumulated cost of any warp path
    /// through an `n × m` grid whose paired samples differ by at most
    /// `max_diff`: a path visits at most `n + m` cells, and each charges
    /// at most the diagonal weight times the largest local cost plus the
    /// amerced penalty. A finite ceiling means no fill of such a grid can
    /// overflow to `+∞` (or reach the `∞ − ∞ = NaN` the lane layer's
    /// bit-identity contract excludes).
    pub fn cost_ceiling(&self, n: usize, m: usize, max_diff: f64) -> f64 {
        let local = self.metric.eval(max_diff, 0.0);
        let step = match self.kernel {
            KernelChoice::Standard => self.step_pattern.diagonal_weight() * local,
            KernelChoice::Amerced { penalty } => local + penalty,
        };
        (n + m) as f64 * step
    }

    /// Whether `LB_Kim`/`LB_Keogh` remain admissible under the configured
    /// kernel (retrieval cascades consult this before enabling
    /// lower-bound pruning).
    pub fn lower_bounds_admissible(&self) -> bool {
        self.kernel.lower_bounds_admissible()
    }

    /// Short label of the configured kernel (experiment output, CLI).
    pub fn kernel_label(&self) -> String {
        self.kernel.label(self.step_pattern)
    }
}

/// Result of a DTW computation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DtwResult {
    /// The (possibly constrained) DTW distance. For a banded run this is an
    /// upper bound on the optimal full-grid distance.
    pub distance: f64,
    /// The optimal warp path within the band, when requested.
    pub path: Option<WarpPath>,
    /// Number of grid cells filled — the deterministic work proxy used by
    /// the experiment harness.
    pub cells_filled: usize,
}

/// Reusable DP buffers: the band-sparse accumulation matrix's row offsets
/// and cell storage (row engine), the three rotating anti-diagonal
/// buffers of the wavefront engine (which the explicit-SIMD lane sweep
/// loads [`LANE_WIDTH`] cells at a time — plain contiguous `Vec<f64>`
/// storage is exactly the layout the lanes want), and the transposed
/// windows and row pair of [`dtw_run_batch_values`].
///
/// A [`dtw_run`] call without caller scratch allocates one internally;
/// batch workloads (distance matrices, nearest-neighbour loops) instead
/// keep one `DtwScratch` per worker thread, turning the per-pair
/// allocation into a cheap `resize` of already-hot buffers. Reuse never
/// changes results: the buffers are re-initialised per call, so scratch
/// and non-scratch paths are bit-identical.
#[derive(Debug, Default, Clone)]
pub struct DtwScratch {
    offsets: Vec<usize>,
    data: Vec<f64>,
    // wavefront engine: diagonals d-2, d-1 and d of the sweep, rotated by
    // pointer swap; each holds at most min(n, m) cells
    diag_a: Vec<f64>,
    diag_b: Vec<f64>,
    diag_c: Vec<f64>,
    // wavefront engine, non-staircase bands: suffix minimum of the row
    // start diagonals `i + lo_i`, rebuilt per call
    start_min: Vec<usize>,
    // batched fill: the windows transposed column-major (one vector per
    // column, one lane per window) and two rows of lane vectors
    batch_y: Vec<F64Lanes>,
    batch_prev: Vec<F64Lanes>,
    batch_cur: Vec<F64Lanes>,
}

impl DtwScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Capacity currently held by the cell buffer (diagnostics/tests).
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }
}

/// Band-sparse accumulation matrix over borrowed scratch buffers.
struct BandMatrix<'a> {
    band: &'a Band,
    /// Holds the row offsets (`data[offsets[i] + (j - lo_i)]` is cell
    /// `(i,j)`) and the cell buffer.
    scratch: &'a mut DtwScratch,
}

impl<'a> BandMatrix<'a> {
    fn new(band: &'a Band, scratch: &'a mut DtwScratch) -> Self {
        scratch.offsets.clear();
        scratch.offsets.reserve(band.n() + 1);
        let mut acc = 0usize;
        scratch.offsets.push(0);
        for i in 0..band.n() {
            acc += band.row(i).width();
            scratch.offsets.push(acc);
        }
        scratch.data.clear();
        scratch.data.resize(acc, f64::INFINITY);
        Self { band, scratch }
    }

    #[inline]
    fn get(&self, i: usize, j: usize) -> f64 {
        let r = self.band.row(i);
        if r.contains(j) {
            self.scratch.data[self.scratch.offsets[i] + (j - r.lo)]
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    fn set(&mut self, i: usize, j: usize, v: f64) {
        let r = self.band.row(i);
        debug_assert!(r.contains(j));
        self.scratch.data[self.scratch.offsets[i] + (j - r.lo)] = v;
    }
}

/// Fills the band-sparse matrix under a kernel. With `ABANDON`, returns
/// `None` as soon as a completed row's minimum (converted into reported
/// units, which is monotone) exceeds `cutoff` — kernels guarantee costs
/// never decrease along a path, so no path through that row can come back
/// under it. With `ABANDON = false` the cutoff comparisons compile out
/// and the fill always completes.
// Index loops are deliberate here: (i, j) are band coordinates addressing
// the matrix, the band rows and both sample buffers simultaneously.
#[allow(clippy::needless_range_loop)]
fn fill<'a, K: DtwKernel, const ABANDON: bool>(
    xv: &[f64],
    yv: &[f64],
    band: &'a Band,
    metric: ElementMetric,
    kernel: &K,
    cutoff: f64,
    scratch: &'a mut DtwScratch,
) -> Option<BandMatrix<'a>> {
    let n = band.n();
    let mut d = BandMatrix::new(band, scratch);

    // Row 0: cumulative along the allowed prefix (row 0 always starts at
    // column 0 after sanitisation).
    {
        let r = band.row(0);
        let mut acc = 0.0;
        let mut row_min = f64::INFINITY;
        for j in r.lo..=r.hi {
            let local = metric.eval(xv[0], yv[j]);
            acc = if j == r.lo {
                kernel.start(local)
            } else {
                kernel.left(acc, local)
            };
            d.set(0, j, acc);
            if ABANDON {
                row_min = row_min.min(acc);
            }
        }
        if ABANDON && kernel.normalize(row_min, xv.len(), yv.len()) > cutoff {
            return None;
        }
    }
    for i in 1..n {
        let r = band.row(i);
        let mut row_min = f64::INFINITY;
        for j in r.lo..=r.hi {
            let local = metric.eval(xv[i], yv[j]);
            let up = d.get(i - 1, j);
            let (left, diag) = if j > 0 {
                (d.get(i, j - 1), d.get(i - 1, j - 1))
            } else {
                (f64::INFINITY, f64::INFINITY)
            };
            let best = kernel
                .up(up, local)
                .min(kernel.left(left, local))
                .min(kernel.diagonal(diag, local));
            // Cells with no reachable parent stay +inf (they cannot be on
            // any path); feasibility guarantees the corner is reachable.
            d.set(i, j, best);
            if ABANDON {
                row_min = row_min.min(best);
            }
        }
        if ABANDON && kernel.normalize(row_min, xv.len(), yv.len()) > cutoff {
            return None;
        }
    }
    Some(d)
}

/// A parent read outside the recorded span of its diagonal buffer is out
/// of band, hence `+∞`.
#[inline(always)]
fn span_read(buf: &[f64], span: (usize, usize), i: usize) -> f64 {
    if span.0 <= i && i <= span.1 {
        buf[i - span.0]
    } else {
        f64::INFINITY
    }
}

/// One scalar pass over rows `lo..hi` of diagonal `d` (span origin `a`) —
/// the per-cell reference expression of the wavefront sweep. The lane
/// path delegates its head/ragged-tail cells (and any span narrower than
/// one vector) here, so scalar and lane fills share one cell definition.
#[allow(clippy::too_many_arguments)]
// private kernel of fill_wavefront
// the index loop addresses the band rows and both sample buffers at once
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn wavefront_cells_scalar<K: DtwKernel, const ABANDON: bool>(
    xv: &[f64],
    yv: &[f64],
    band: &Band,
    staircase: bool,
    metric: ElementMetric,
    kernel: &K,
    d: usize,
    a: usize,
    lo: usize,
    hi: usize,
    prev: &[f64],
    prev_span: (usize, usize),
    prev2: &[f64],
    prev2_span: (usize, usize),
    cur: &mut [f64],
    diag_min: &mut f64,
) {
    for i in lo..hi {
        let j = d - i;
        if !staircase && !band.row(i).contains(j) {
            cur[i - a] = f64::INFINITY;
            continue;
        }
        let local = metric.eval(xv[i], yv[j]);
        // the same three-way kernel expression as the row engine; arms
        // whose parent cannot exist (i == 0 or j == 0) drop out exactly
        // as min(x, +inf) would
        let v = if i == 0 {
            if j == band.row(0).lo {
                kernel.start(local)
            } else {
                kernel.left(span_read(prev, prev_span, 0), local)
            }
        } else if j == 0 {
            kernel.up(span_read(prev, prev_span, i - 1), local)
        } else {
            let up = span_read(prev, prev_span, i - 1);
            let left = span_read(prev, prev_span, i);
            let diag = span_read(prev2, prev2_span, i - 1);
            kernel
                .up(up, local)
                .min(kernel.left(left, local))
                .min(kernel.diagonal(diag, local))
        };
        cur[i - a] = v;
        if ABANDON {
            *diag_min = diag_min.min(v);
        }
    }
}

/// Wavefront fill: sweeps anti-diagonals `d = i + j` of the banded
/// lattice and returns the raw corner cost. Cell `(i, j)` reads its `up`
/// and `left` parents from diagonal `d - 1` and its `diagonal` parent
/// from `d - 2`, so only three flat buffers stay alive and the inner loop
/// over a diagonal carries no serial dependency (the shape the explicit
/// SIMD lanes map onto directly). The per-cell expression is the row
/// engine's verbatim, hence bit-identical values by induction over `d`.
///
/// With `LANES`, the interior of each diagonal span — the rows whose
/// three parent reads are proven inside the recorded spans of the two
/// live diagonals, so no per-cell span check is needed — is swept
/// [`LANE_WIDTH`] cells at a time on [`F64Lanes`] through the kernel's
/// `*_lanes` seam; the head before the interior, the ragged tail after
/// the last full vector, and any span narrower than one vector run the
/// scalar per-cell code above. Non-staircase membership is applied by
/// mask-select (`+∞` into excluded lanes — the value the scalar path
/// writes). Every lane executes the scalar op sequence bit-for-bit, so
/// `LANES` never changes a single stored cell.
///
/// With `ABANDON`, abandons when neither of the two live diagonals holds
/// a cell at or under `cutoff`: a warp path advances `i + j` by 1 or 2
/// per step, so every path from origin to corner visits diagonal `d - 1`
/// or `d`, and kernels never decrease cost along a path. The lane path
/// folds a vector minimum and reduces it with [`F64Lanes::horizontal_min`]
/// — `f64::min` over non-NaN values is order-independent, so the reduced
/// value (and hence every abandon decision) is identical to the scalar
/// left-to-right fold.
///
/// Band cells are enumerated per diagonal as one contiguous row interval.
/// For staircase bands (both edges non-decreasing — every classic policy)
/// the interval is exact; otherwise a conservative interval is scanned
/// with per-cell membership tests and out-of-band slots pinned to `+∞`.
fn fill_wavefront<K: DtwKernel, const ABANDON: bool, const LANES: bool>(
    xv: &[f64],
    yv: &[f64],
    band: &Band,
    metric: ElementMetric,
    kernel: &K,
    cutoff: f64,
    scratch: &mut DtwScratch,
) -> Option<f64> {
    let n = band.n();
    let m = band.m();
    let staircase = band.is_staircase();
    // a diagonal holds at most min(n, m) cells
    let cap = n.min(m);
    let mut prev2 = std::mem::take(&mut scratch.diag_a);
    let mut prev = std::mem::take(&mut scratch.diag_b);
    let mut cur = std::mem::take(&mut scratch.diag_c);
    let mut start_min = std::mem::take(&mut scratch.start_min);
    prev2.clear();
    prev2.resize(cap, f64::INFINITY);
    prev.clear();
    prev.resize(cap, f64::INFINITY);
    cur.clear();
    cur.resize(cap, f64::INFINITY);
    if !staircase {
        // suffix minimum of the row start diagonals: rows beyond the last
        // `i` with `start_min[i] <= d` cannot own a cell on diagonal `d`
        start_min.clear();
        start_min.resize(n, 0);
        let mut run = usize::MAX;
        for i in (0..n).rev() {
            run = run.min(i + band.row(i).lo);
            start_min[i] = run;
        }
    }

    let raw = 'sweep: {
        let total = n + m - 1;
        // two-pointer row-span state, advanced monotonically with d
        let mut first_row = 0usize; // staircase: first i with i + hi_i >= d
        let mut last_row = 0usize; // last i whose (suffix-min) start <= d
        let mut end_max = band.row(0).hi; // general: prefix max of i + hi_i
        let mut prev_span = (1usize, 0usize); // empty
        let mut prev2_span = (1usize, 0usize);
        let mut frontier_min = f64::INFINITY; // min of diagonal d - 1
        for d in 0..total {
            let (a, b) = if staircase {
                while first_row < n && first_row + band.row(first_row).hi < d {
                    first_row += 1;
                }
                while last_row + 1 < n && last_row + 1 + band.row(last_row + 1).lo <= d {
                    last_row += 1;
                }
                (first_row, last_row)
            } else {
                while first_row + 1 < n && end_max < d {
                    first_row += 1;
                    end_max = end_max.max(first_row + band.row(first_row).hi);
                }
                while last_row + 1 < n && start_min[last_row + 1] <= d {
                    last_row += 1;
                }
                (first_row, last_row)
            };
            // clamp to the geometric diagonal so j = d - i is a column
            let a = a.max(d.saturating_sub(m - 1));
            let b = b.min(d);
            let mut diag_min = f64::INFINITY;
            if a <= b {
                // lane-safe interior of the span: rows whose `up`/`left`
                // reads (prev[i-1], prev[i]) and `diag` read (prev2[i-1])
                // are all inside the recorded spans, and which are neither
                // in row 0 nor column 0 — within it, parents load straight
                // from the buffers with no span or edge checks. (When a
                // live span is the empty sentinel (1, 0), lo > hi and the
                // interior vanishes; +1 on the sentinel cannot overflow.)
                let lane_lo = a.max(1).max(prev_span.0 + 1).max(prev2_span.0 + 1);
                let lane_hi = b
                    .min(d.saturating_sub(1))
                    .min(prev_span.1)
                    .min(prev2_span.1 + 1);
                if LANES && lane_lo <= lane_hi && lane_hi - lane_lo + 1 >= LANE_WIDTH {
                    wavefront_cells_scalar::<K, ABANDON>(
                        xv,
                        yv,
                        band,
                        staircase,
                        metric,
                        kernel,
                        d,
                        a,
                        a,
                        lane_lo,
                        &prev,
                        prev_span,
                        &prev2,
                        prev2_span,
                        &mut cur,
                        &mut diag_min,
                    );
                    let mut lane_min = F64Lanes::splat(f64::INFINITY);
                    let mut i0 = lane_lo;
                    while i0 + LANE_WIDTH <= lane_hi + 1 {
                        let xs = F64Lanes::load(&xv[i0..]);
                        // ascending rows read descending columns j = d - i:
                        // a contiguous yv window, loaded reversed
                        let ys = F64Lanes::load_reversed(&yv[d - i0 + 1 - LANE_WIDTH..]);
                        let local = kernel.local_lanes(metric, xs, ys);
                        let up = F64Lanes::load(&prev[i0 - 1 - prev_span.0..]);
                        let left = F64Lanes::load(&prev[i0 - prev_span.0..]);
                        let diag = F64Lanes::load(&prev2[i0 - 1 - prev2_span.0..]);
                        let mut v = kernel
                            .up_lanes(up, local)
                            .min(kernel.left_lanes(left, local))
                            .min(kernel.diagonal_lanes(diag, local));
                        if !staircase {
                            // out-of-band lanes get the +inf the scalar
                            // path writes; their computed values (finite,
                            // never NaN) are discarded by the select
                            let member =
                                LaneMask::from_fn(|l| band.row(i0 + l).contains(d - i0 - l));
                            v = F64Lanes::select(member, v, F64Lanes::splat(f64::INFINITY));
                        }
                        v.store(&mut cur[i0 - a..]);
                        if ABANDON {
                            lane_min = lane_min.min(v);
                        }
                        i0 += LANE_WIDTH;
                    }
                    if ABANDON {
                        diag_min = diag_min.min(lane_min.horizontal_min());
                    }
                    wavefront_cells_scalar::<K, ABANDON>(
                        xv,
                        yv,
                        band,
                        staircase,
                        metric,
                        kernel,
                        d,
                        a,
                        i0,
                        b + 1,
                        &prev,
                        prev_span,
                        &prev2,
                        prev2_span,
                        &mut cur,
                        &mut diag_min,
                    );
                } else {
                    wavefront_cells_scalar::<K, ABANDON>(
                        xv,
                        yv,
                        band,
                        staircase,
                        metric,
                        kernel,
                        d,
                        a,
                        a,
                        b + 1,
                        &prev,
                        prev_span,
                        &prev2,
                        prev2_span,
                        &mut cur,
                        &mut diag_min,
                    );
                }
            }
            if ABANDON && kernel.normalize(frontier_min.min(diag_min), xv.len(), yv.len()) > cutoff
            {
                break 'sweep None;
            }
            if d + 1 == total {
                // the last diagonal is exactly the corner cell
                break 'sweep Some(cur[n - 1 - a]);
            }
            if ABANDON {
                frontier_min = diag_min;
            }
            std::mem::swap(&mut prev2, &mut prev);
            std::mem::swap(&mut prev, &mut cur);
            prev2_span = prev_span;
            prev_span = (a, b);
        }
        unreachable!("the corner diagonal terminates the sweep");
    };

    scratch.diag_a = prev2;
    scratch.diag_b = prev;
    scratch.diag_c = cur;
    scratch.start_min = start_min;
    raw
}

/// The unified banded DTW execution path, generic over the cost kernel.
///
/// Orthogonal options, all in one call:
///
/// * **kernel** — any [`DtwKernel`]; the fill loop monomorphises (no
///   per-cell dispatch). Config-driven callers use [`dtw_run_options`].
/// * **`compute_path`** — trace the optimal warp path back from the
///   corner (one extra `O(N+M)` walk).
/// * **`cutoff`** — early abandoning: `Some(t)` returns `None` as soon as
///   a completed row's minimum accumulated cost (in reported-distance
///   units — conversion is monotone, so ties survive exactly) exceeds
///   `t`, or when the final distance does. `None` never abandons.
/// * **`scratch`** — caller-owned DP buffers; keep one per worker thread
///   in batch loops. Results are bit-identical regardless of reuse.
///
/// The band must match the series dimensions; it is sanitised internally
/// when infeasible, so callers may pass raw constraint-builder output.
/// `cells_filled` counts the sanitised band's area.
///
/// # Panics
///
/// Panics on dimension mismatch (programmer error).
// The argument list IS the option set, each orthogonal by design; a config
// struct would just re-wrap DtwOptions (see dtw_run_options for that form).
#[allow(clippy::too_many_arguments)]
pub fn dtw_run<K: DtwKernel>(
    x: &TimeSeries,
    y: &TimeSeries,
    band: &Band,
    metric: ElementMetric,
    kernel: &K,
    compute_path: bool,
    cutoff: Option<f64>,
    scratch: &mut DtwScratch,
) -> Option<DtwResult> {
    dtw_run_values(
        x.values(),
        y.values(),
        band,
        metric,
        kernel,
        compute_path,
        cutoff,
        scratch,
    )
}

/// [`dtw_run`] over raw sample slices — the zero-copy entry point for
/// callers whose inputs are windows of a larger buffer (subsequence
/// search, streaming monitors). Semantics are identical to [`dtw_run`];
/// the slices must be non-empty and finite (a [`TimeSeries`] guarantees
/// this by construction — window-slicing callers inherit the guarantee
/// from the series they slice).
///
/// `compute_path` picks the fill (see the module docs): the row fill
/// when a path is traced, the lane wavefront otherwise. Distance, abandon
/// decision and `cells_filled` are the same bits either way.
///
/// # Panics
///
/// Panics on dimension mismatch or an empty slice (programmer errors).
#[allow(clippy::too_many_arguments)] // mirror of dtw_run, see there
pub fn dtw_run_values<K: DtwKernel>(
    xv: &[f64],
    yv: &[f64],
    band: &Band,
    metric: ElementMetric,
    kernel: &K,
    compute_path: bool,
    cutoff: Option<f64>,
    scratch: &mut DtwScratch,
) -> Option<DtwResult> {
    let band = feasible_band(xv, yv, band);
    if !compute_path {
        return wavefront_run::<K, true>(xv, yv, &band, metric, kernel, cutoff, scratch);
    }

    let d = match cutoff {
        Some(t) => fill::<K, true>(xv, yv, &band, metric, kernel, t, scratch)?,
        None => fill::<K, false>(xv, yv, &band, metric, kernel, f64::INFINITY, scratch)
            .expect("a fill without a cutoff never abandons"),
    };

    let raw = d.get(band.n() - 1, band.m() - 1);
    debug_assert!(raw.is_finite(), "sanitised band must reach the corner cell");
    let distance = kernel.normalize(raw, xv.len(), yv.len());
    // reject against the cutoff before paying for the traceback walk
    if cutoff.is_some_and(|t| distance > t) {
        return None;
    }
    Some(DtwResult {
        distance,
        path: Some(traceback(&d, xv, yv, metric, kernel)),
        cells_filled: band.area(),
    })
}

/// Checks the slice dimensions against the band and returns the band the
/// recurrence runs on: `band` itself when feasible, its sanitised
/// superset otherwise.
pub(crate) fn feasible_band<'b>(xv: &[f64], yv: &[f64], band: &'b Band) -> Cow<'b, Band> {
    assert!(!xv.is_empty() && !yv.is_empty(), "series must be non-empty");
    assert_eq!(band.n(), xv.len(), "band rows must match |X|");
    assert_eq!(band.m(), yv.len(), "band cols must match |Y|");
    if band.is_feasible() {
        Cow::Borrowed(band)
    } else {
        Cow::Owned(band.sanitize())
    }
}

/// The wavefront fill of one pair on a feasible band, normalised and
/// checked against the cutoff. `LANES` selects the [`F64Lanes`] interior
/// sweep (production) or the all-scalar cell loop (the oracle in
/// [`crate::reference`]).
pub(crate) fn wavefront_run<K: DtwKernel, const LANES: bool>(
    xv: &[f64],
    yv: &[f64],
    band: &Band,
    metric: ElementMetric,
    kernel: &K,
    cutoff: Option<f64>,
    scratch: &mut DtwScratch,
) -> Option<DtwResult> {
    let raw = match cutoff {
        Some(t) => fill_wavefront::<K, true, LANES>(xv, yv, band, metric, kernel, t, scratch)?,
        None => {
            fill_wavefront::<K, false, LANES>(xv, yv, band, metric, kernel, f64::INFINITY, scratch)
                .expect("a sweep without a cutoff never abandons")
        }
    };
    debug_assert!(raw.is_finite(), "sanitised band must reach the corner cell");
    let distance = kernel.normalize(raw, xv.len(), yv.len());
    // a completed sweep can still land over the cutoff
    if cutoff.is_some_and(|t| distance > t) {
        return None;
    }
    Some(DtwResult {
        distance,
        path: None,
        cells_filled: band.area(),
    })
}

/// [`dtw_run`] driven by serialisable [`DtwOptions`]: dispatches the
/// options' [`KernelChoice`] to a concrete kernel once, then runs the
/// monomorphic fill. This is the execution path the `SDtw` query builder
/// above it resolves to.
///
/// Returns `None` only when `cutoff` is `Some` and the run abandoned.
///
/// # Panics
///
/// Panics on dimension mismatch, or on an invalid amerced penalty
/// (negative/non-finite — both programmer errors; config-driven callers
/// reject bad penalties earlier via [`DtwOptions::validate`]).
pub fn dtw_run_options(
    x: &TimeSeries,
    y: &TimeSeries,
    band: &Band,
    opts: &DtwOptions,
    cutoff: Option<f64>,
    scratch: &mut DtwScratch,
) -> Option<DtwResult> {
    dtw_run_options_values(x.values(), y.values(), band, opts, cutoff, scratch)
}

/// [`dtw_run_options`] over raw sample slices (see [`dtw_run_values`] for
/// the slice-input contract and the fill choice).
///
/// # Panics
///
/// Panics on dimension mismatch, an empty slice, or an invalid amerced
/// penalty (programmer errors).
pub fn dtw_run_options_values(
    xv: &[f64],
    yv: &[f64],
    band: &Band,
    opts: &DtwOptions,
    cutoff: Option<f64>,
    scratch: &mut DtwScratch,
) -> Option<DtwResult> {
    match opts.kernel {
        KernelChoice::Standard => dtw_run_values(
            xv,
            yv,
            band,
            opts.metric,
            &StandardKernel::new(opts.step_pattern, opts.normalization),
            opts.compute_path,
            cutoff,
            scratch,
        ),
        KernelChoice::Amerced { penalty } => dtw_run_values(
            xv,
            yv,
            band,
            opts.metric,
            &AmercedKernel::new(penalty, opts.normalization),
            opts.compute_path,
            cutoff,
            scratch,
        ),
    }
}

/// Lane-batched row fill: up to [`LANE_WIDTH`] windows `ys` against one
/// shared `xv` under one band, one window per [`F64Lanes`] lane. Every
/// lane runs the row engine's per-cell expression through the kernel's
/// `*_lanes` seam — `up`, `left` from a register carried along the row,
/// `diagonal` — so each lane's cells are bit-identical to a
/// single-window fill of that lane's window. A lane drops out once its
/// normalised row minimum exceeds `cutoff` (the row engine's abandon
/// rule, on the same value — `min` is order-independent over non-NaN
/// values); the fill stops when every lane has dropped out.
///
/// The rows live in two full-width vectors of lane vectors with a `+∞`
/// sentinel in slot 0 (slot `j + 1` holds column `j`), so the `up` and
/// `diagonal` reads need no band or edge checks: every slot outside the
/// previous row's band holds `+∞`, the value the row engine's
/// out-of-band read returns.
fn fill_batch<K: DtwKernel>(
    xv: &[f64],
    ys: &[&[f64]],
    band: &Band,
    metric: ElementMetric,
    kernel: &K,
    cutoff: f64,
    scratch: &mut DtwScratch,
) -> [Option<f64>; LANE_WIDTH] {
    let (n, m) = (band.n(), band.m());
    let inf = F64Lanes::splat(f64::INFINITY);
    let mut out = [None; LANE_WIDTH];
    let mut alive: [bool; LANE_WIDTH] = std::array::from_fn(|l| l < ys.len());
    let mut yt = std::mem::take(&mut scratch.batch_y);
    let mut prev = std::mem::take(&mut scratch.batch_prev);
    let mut cur = std::mem::take(&mut scratch.batch_cur);
    yt.clear();
    // unused lanes carry zeros: finite, never read back
    yt.extend((0..m).map(|j| F64Lanes::from_fn(|l| ys.get(l).map_or(0.0, |y| y[j]))));
    prev.clear();
    prev.resize(m + 1, inf);
    cur.clear();
    cur.resize(m + 1, inf);

    // drops every lane whose normalised row minimum exceeds the cutoff;
    // true once no lane is left
    let mut drop_out = |row_min: F64Lanes| {
        for (l, live) in alive.iter_mut().enumerate() {
            if *live && kernel.normalize(row_min.lane(l), n, m) > cutoff {
                *live = false;
            }
        }
        !alive.contains(&true)
    };

    let completed = 'fill: {
        // Row 0: cumulative along the allowed prefix (row 0 starts at
        // column 0 after sanitisation).
        let r = band.row(0);
        let x0 = F64Lanes::splat(xv[0]);
        let mut acc = inf;
        let mut row_min = inf;
        for j in r.lo..=r.hi {
            let local = kernel.local_lanes(metric, x0, yt[j]);
            acc = if j == r.lo {
                F64Lanes::from_fn(|l| kernel.start(local.lane(l)))
            } else {
                kernel.left_lanes(acc, local)
            };
            prev[j + 1] = acc;
            row_min = row_min.min(acc);
        }
        if drop_out(row_min) {
            break 'fill false;
        }
        // `cur` still holds row i - 2 over `stale` (nothing yet)
        let mut stale = (1usize, 0usize);
        for (i, &x) in xv.iter().enumerate().skip(1) {
            let r = band.row(i);
            // reset the stale cells this row will not overwrite, so every
            // slot outside row i's band reads +inf once it becomes `prev`
            for j in stale.0..r.lo.min(stale.1 + 1) {
                cur[j + 1] = inf;
            }
            for j in stale.0.max(r.hi + 1)..=stale.1 {
                cur[j + 1] = inf;
            }
            let xi = F64Lanes::splat(x);
            let mut left = inf;
            let mut row_min = inf;
            let parents = &prev[r.lo..=r.hi + 1];
            let cols = &yt[r.lo..=r.hi];
            for ((dst, y), pair) in cur[r.lo + 1..=r.hi + 1]
                .iter_mut()
                .zip(cols)
                .zip(parents.windows(2))
            {
                let local = kernel.local_lanes(metric, xi, *y);
                let (diag, up) = (pair[0], pair[1]);
                let v = kernel
                    .up_lanes(up, local)
                    .min(kernel.left_lanes(left, local))
                    .min(kernel.diagonal_lanes(diag, local));
                *dst = v;
                left = v;
                row_min = row_min.min(v);
            }
            if drop_out(row_min) {
                break 'fill false;
            }
            let done = band.row(i - 1);
            stale = (done.lo, done.hi);
            std::mem::swap(&mut prev, &mut cur);
        }
        true
    };
    if completed {
        let corner = prev[m];
        for (l, slot) in out.iter_mut().enumerate() {
            if alive[l] {
                let distance = kernel.normalize(corner.lane(l), n, m);
                // a completed lane can still land over the cutoff
                if distance <= cutoff {
                    *slot = Some(distance);
                }
            }
        }
    }
    scratch.batch_y = yt;
    scratch.batch_prev = prev;
    scratch.batch_cur = cur;
    out
}

/// Lane-batched early-abandoned DTW: up to [`LANE_WIDTH`] windows `ys`
/// against one shared `xv` under one band and one set of options, in a
/// single row-by-row pass with one window per [`F64Lanes`] lane.
///
/// Lane `l` of the result is bit-identical to
/// `dtw_run_options_values(xv, ys[l], band, opts, Some(cutoff), …)`
/// mapped to its distance: `Some(d)` with the same bits when `d <=
/// cutoff`, `None` exactly when the single-window distance exceeds
/// `cutoff` (a tie never abandons). Lanes past `ys.len()` are `None`.
/// Every lane runs the row engine's per-cell expression through the
/// kernel's `*_lanes` seam; `opts.compute_path` is ignored (no warp path
/// is traced). An infinite `cutoff` never abandons.
///
/// This is the fill that pays off when the band is narrow: a
/// single-window wavefront sweeps fewer than [`LANE_WIDTH`] cells per
/// anti-diagonal there, while this fill always runs full vectors.
///
/// # Panics
///
/// Panics when `ys` is empty or holds more than [`LANE_WIDTH`] windows,
/// on an empty `xv`, on a dimension mismatch, or on an invalid amerced
/// penalty (programmer errors).
pub fn dtw_run_batch_values(
    xv: &[f64],
    ys: &[&[f64]],
    band: &Band,
    opts: &DtwOptions,
    cutoff: f64,
    scratch: &mut DtwScratch,
) -> [Option<f64>; LANE_WIDTH] {
    assert!(
        (1..=LANE_WIDTH).contains(&ys.len()),
        "a batch holds 1..={LANE_WIDTH} windows, got {}",
        ys.len()
    );
    for y in ys {
        assert_eq!(band.m(), y.len(), "band cols must match every |Y|");
    }
    let band = feasible_band(xv, ys[0], band);
    match opts.kernel {
        KernelChoice::Standard => fill_batch(
            xv,
            ys,
            &band,
            opts.metric,
            &StandardKernel::new(opts.step_pattern, opts.normalization),
            cutoff,
            scratch,
        ),
        KernelChoice::Amerced { penalty } => fill_batch(
            xv,
            ys,
            &band,
            opts.metric,
            &AmercedKernel::new(penalty, opts.normalization),
            cutoff,
            scratch,
        ),
    }
}

/// Computes the unconstrained (optimal-under-the-kernel) DTW distance.
pub fn dtw_full(x: &TimeSeries, y: &TimeSeries, opts: &DtwOptions) -> DtwResult {
    let band = Band::full(x.len(), y.len());
    let mut scratch = DtwScratch::new();
    dtw_run_options(x, y, &band, opts, None, &mut scratch)
        .expect("a run without a cutoff never abandons")
}

/// Walks the filled matrix from the top-right corner back to the origin,
/// preferring the diagonal parent on ties (the conventional choice; it
/// yields the shortest of the cost-equal paths). Parent selection asks
/// the kernel for effective arrival costs, so step weighting and warp
/// penalties are accounted for.
fn traceback<K: DtwKernel>(
    d: &BandMatrix<'_>,
    x: &[f64],
    y: &[f64],
    metric: ElementMetric,
    kernel: &K,
) -> WarpPath {
    let n = x.len();
    let m = y.len();
    let mut steps = Vec::with_capacity(n + m);
    let (mut i, mut j) = (n - 1, m - 1);
    steps.push((i, j));
    while i > 0 || j > 0 {
        let local = metric.eval(x[i], y[j]);
        // effective arrival costs through each parent
        let diag = if i > 0 && j > 0 {
            kernel.diagonal(d.get(i - 1, j - 1), local)
        } else {
            f64::INFINITY
        };
        let up = if i > 0 {
            kernel.up(d.get(i - 1, j), local)
        } else {
            f64::INFINITY
        };
        let left = if j > 0 {
            kernel.left(d.get(i, j - 1), local)
        } else {
            f64::INFINITY
        };
        if diag <= up && diag <= left {
            i -= 1;
            j -= 1;
        } else if up <= left {
            i -= 1;
        } else {
            j -= 1;
        }
        steps.push((i, j));
    }
    steps.reverse();
    WarpPath::from_steps(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::band::ColRange;

    fn ts(v: &[f64]) -> TimeSeries {
        TimeSeries::new(v.to_vec()).unwrap()
    }

    /// The unified path with a fresh scratch (test shorthand).
    fn run(x: &TimeSeries, y: &TimeSeries, band: &Band, opts: &DtwOptions) -> DtwResult {
        dtw_run_options(x, y, band, opts, None, &mut DtwScratch::new()).unwrap()
    }

    /// The unified path with a cutoff and a fresh scratch (test shorthand).
    fn run_cutoff(
        x: &TimeSeries,
        y: &TimeSeries,
        band: &Band,
        opts: &DtwOptions,
        cutoff: f64,
    ) -> Option<DtwResult> {
        dtw_run_options(x, y, band, opts, Some(cutoff), &mut DtwScratch::new())
    }

    #[test]
    fn identical_series_have_zero_distance() {
        let x = ts(&[0.0, 1.0, 2.0, 1.0]);
        let r = dtw_full(&x, &x, &DtwOptions::with_path());
        assert_eq!(r.distance, 0.0);
        let p = r.path.unwrap();
        p.validate(4, 4).unwrap();
        // zero-distance self-alignment is the diagonal
        assert_eq!(p.steps(), &[(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn known_small_example() {
        // X = [0, 1, 2], Y = [0, 2]; squared metric.
        // Optimal: (0,0)=0, (1,?) -> align 1 with 0 or 2 (cost 1), (2,1)=0.
        let x = ts(&[0.0, 1.0, 2.0]);
        let y = ts(&[0.0, 2.0]);
        let r = dtw_full(&x, &y, &DtwOptions::with_path());
        assert_eq!(r.distance, 1.0);
        assert_eq!(r.cells_filled, 6);
        let p = r.path.unwrap();
        p.validate(3, 2).unwrap();
        assert_eq!(p.cost(&x, &y, ElementMetric::Squared), r.distance);
    }

    #[test]
    fn shifted_pattern_has_small_dtw_but_large_euclidean() {
        // DTW's raison d'être: a temporal shift is almost free.
        let x = ts(&[0.0, 0.0, 1.0, 2.0, 1.0, 0.0, 0.0, 0.0]);
        let y = ts(&[0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 1.0, 0.0]);
        let dtw = dtw_full(&x, &y, &DtwOptions::default()).distance;
        let euclid: f64 = x
            .values()
            .iter()
            .zip(y.values())
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        assert_eq!(dtw, 0.0);
        assert!(euclid > 5.0);
    }

    #[test]
    fn symmetry() {
        let x = ts(&[0.3, 1.8, 2.2, 0.1, -0.7]);
        let y = ts(&[1.0, 1.0, 0.0, 2.0]);
        let opts = DtwOptions::default();
        let xy = dtw_full(&x, &y, &opts).distance;
        let yx = dtw_full(&y, &x, &opts).distance;
        assert!((xy - yx).abs() < 1e-12);
    }

    #[test]
    fn banded_distance_upper_bounds_full() {
        let x = ts(&[0.0, 3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]);
        let y = ts(&[2.0, 7.0, 1.0, 8.0, 2.0, 8.0]);
        let full = dtw_full(&x, &y, &DtwOptions::default());
        // a very thin diagonal band
        let ranges = (0..8)
            .map(|i| {
                let c = i * 5 / 7;
                ColRange::new(c, c)
            })
            .collect();
        let band = Band::from_ranges(8, 6, ranges).sanitize();
        let banded = run(&x, &y, &band, &DtwOptions::default());
        assert!(banded.distance >= full.distance - 1e-12);
        assert!(banded.cells_filled < full.cells_filled);
    }

    #[test]
    fn full_width_band_equals_full_dtw() {
        let x = ts(&[0.0, 1.0, 0.5, 2.0, 1.5]);
        let y = ts(&[0.2, 0.9, 2.2, 1.4]);
        let full = dtw_full(&x, &y, &DtwOptions::default());
        let band = Band::full(5, 4);
        let banded = run(&x, &y, &band, &DtwOptions::default());
        assert_eq!(full.distance, banded.distance);
        assert_eq!(full.cells_filled, banded.cells_filled);
    }

    #[test]
    fn infeasible_band_is_sanitised_internally() {
        let x = ts(&[0.0, 1.0, 2.0, 3.0]);
        let y = ts(&[0.0, 1.0, 2.0, 3.0]);
        // gap between rows 1 and 2
        let band = Band::from_ranges(
            4,
            4,
            vec![
                ColRange::new(0, 0),
                ColRange::new(0, 0),
                ColRange::new(3, 3),
                ColRange::new(3, 3),
            ],
        );
        assert!(!band.is_feasible());
        let r = run(&x, &y, &band, &DtwOptions::with_path());
        assert!(r.distance.is_finite());
        r.path.unwrap().validate(4, 4).unwrap();
    }

    #[test]
    fn path_cost_matches_reported_distance() {
        let x = ts(&[0.1, 0.9, 0.4, 1.7, 1.1, 0.2]);
        let y = ts(&[0.0, 1.0, 0.5, 1.5, 0.0]);
        for metric in [ElementMetric::Squared, ElementMetric::Absolute] {
            let opts = DtwOptions {
                metric,
                compute_path: true,
                ..DtwOptions::default()
            };
            let r = dtw_full(&x, &y, &opts);
            let p = r.path.unwrap();
            p.validate(6, 5).unwrap();
            assert!((p.cost(&x, &y, metric) - r.distance).abs() < 1e-9);
        }
    }

    #[test]
    fn single_sample_series() {
        let x = ts(&[2.0]);
        let y = ts(&[5.0, 5.0, 5.0]);
        let r = dtw_full(&x, &y, &DtwOptions::with_path());
        assert_eq!(r.distance, 27.0); // 3 * (3^2)
        let p = r.path.unwrap();
        p.validate(1, 3).unwrap();
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn absolute_metric_known_value() {
        let x = ts(&[0.0, 5.0]);
        let y = ts(&[0.0, 5.0, 5.0]);
        let opts = DtwOptions {
            metric: ElementMetric::Absolute,
            ..DtwOptions::default()
        };
        assert_eq!(dtw_full(&x, &y, &opts).distance, 0.0);
    }

    #[test]
    fn symmetric2_weights_the_diagonal() {
        // X = Y = [0, 1]: the diagonal path costs 0 under both patterns,
        // so use a pair where the optimal path takes a diagonal step with
        // non-zero local cost.
        let x = ts(&[0.0, 1.0]);
        let y = ts(&[0.0, 2.0]);
        let s1 = dtw_full(&x, &y, &DtwOptions::default()).distance;
        let s2 = dtw_full(
            &x,
            &y,
            &DtwOptions {
                step_pattern: StepPattern::Symmetric2,
                ..DtwOptions::default()
            },
        )
        .distance;
        // symmetric1: diagonal step pays (1-2)^2 = 1; symmetric2 pays 2
        assert_eq!(s1, 1.0);
        assert_eq!(s2, 2.0);
    }

    #[test]
    fn symmetric2_distance_dominates_symmetric1() {
        let x = ts(&[0.3, 1.8, 2.2, 0.1, -0.7, 0.4]);
        let y = ts(&[1.0, 1.0, 0.0, 2.0, 0.3]);
        let s1 = dtw_full(&x, &y, &DtwOptions::default()).distance;
        let s2 = dtw_full(
            &x,
            &y,
            &DtwOptions {
                step_pattern: StepPattern::Symmetric2,
                ..DtwOptions::default()
            },
        )
        .distance;
        assert!(s2 >= s1 - 1e-12, "s2 {s2} must dominate s1 {s1}");
    }

    #[test]
    fn normalization_divides_by_length_sum() {
        let x = ts(&[0.0, 1.0, 2.0]);
        let y = ts(&[0.0, 2.0]);
        let raw = dtw_full(&x, &y, &DtwOptions::default()).distance;
        let norm = dtw_full(
            &x,
            &y,
            &DtwOptions {
                normalization: Normalization::LengthSum,
                ..DtwOptions::default()
            },
        )
        .distance;
        assert!((norm - raw / 5.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_symmetric2_path_is_still_valid() {
        let x = ts(&[0.1, 0.9, 0.4, 1.7, 1.1, 0.2]);
        let y = ts(&[0.0, 1.0, 0.5, 1.5, 0.0]);
        let opts = DtwOptions {
            compute_path: true,
            ..DtwOptions::normalized_symmetric2()
        };
        let r = dtw_full(&x, &y, &opts);
        r.path.unwrap().validate(6, 5).unwrap();
        assert!(r.distance.is_finite() && r.distance >= 0.0);
    }

    #[test]
    fn early_abandon_agrees_with_full_when_under_threshold() {
        let x = ts(&[0.1, 0.9, 0.4, 1.7, 1.1, 0.2]);
        let y = ts(&[0.0, 1.0, 0.5, 1.5, 0.0]);
        let band = Band::full(6, 5);
        let opts = DtwOptions::default();
        let full = run(&x, &y, &band, &opts);
        let ea = run_cutoff(&x, &y, &band, &opts, f64::INFINITY)
            .expect("infinite threshold never abandons");
        assert_eq!(ea.distance, full.distance);
    }

    #[test]
    fn early_abandon_fires_on_tight_threshold() {
        let x = ts(&[0.0; 20]);
        let y = ts(&[10.0; 20]);
        let band = Band::full(20, 20);
        let opts = DtwOptions::default();
        // every cell costs 100; first row min is 100 > 1
        assert!(run_cutoff(&x, &y, &band, &opts, 1.0).is_none());
        // threshold exactly at the distance keeps the result
        let d = run(&x, &y, &band, &opts).distance;
        assert!(run_cutoff(&x, &y, &band, &opts, d).is_some());
    }

    #[test]
    fn early_abandon_respects_normalized_thresholds() {
        let x = ts(&[0.0, 1.0, 2.0, 1.0]);
        let y = ts(&[0.0, 2.0, 2.0, 0.0]);
        let band = Band::full(4, 4);
        let opts = DtwOptions {
            normalization: Normalization::LengthSum,
            ..DtwOptions::default()
        };
        let d = run(&x, &y, &band, &opts).distance;
        assert!(run_cutoff(&x, &y, &band, &opts, d + 1e-9).is_some());
        assert!(run_cutoff(&x, &y, &band, &opts, d * 0.5).is_none());
    }

    #[test]
    fn cutoff_and_path_compose() {
        // the unified path may trace the warp path of a run that survived
        // its cutoff — an ability no legacy entry point had
        let x = ts(&[0.1, 0.9, 0.4, 1.7, 1.1, 0.2]);
        let y = ts(&[0.0, 1.0, 0.5, 1.5, 0.0]);
        let band = Band::full(6, 5);
        let opts = DtwOptions::with_path();
        let r = dtw_run_options(&x, &y, &band, &opts, None, &mut DtwScratch::new());
        let d = r.as_ref().unwrap().distance;
        let kept = dtw_run_options(&x, &y, &band, &opts, Some(d), &mut DtwScratch::new())
            .expect("threshold == distance must not abandon");
        kept.path.expect("path requested").validate(6, 5).unwrap();
        assert!(
            dtw_run_options(&x, &y, &band, &opts, Some(d * 0.5), &mut DtwScratch::new()).is_none()
        );
    }

    #[test]
    #[should_panic(expected = "band rows must match")]
    fn dimension_mismatch_panics() {
        let x = ts(&[0.0, 1.0]);
        let y = ts(&[0.0]);
        let band = Band::full(3, 1);
        let _ = run(&x, &y, &band, &DtwOptions::default());
    }

    #[test]
    fn monotone_band_with_unequal_lengths_traces_back() {
        let x = ts(&(0..40).map(|i| (i as f64 / 5.0).sin()).collect::<Vec<_>>());
        let y = ts(&(0..25).map(|i| (i as f64 / 4.0).sin()).collect::<Vec<_>>());
        let ranges = (0..40usize)
            .map(|i| {
                let c = i * 24 / 39;
                ColRange::new(c.saturating_sub(2), (c + 2).min(24))
            })
            .collect();
        let band = Band::from_ranges(40, 25, ranges).sanitize();
        let r = run(&x, &y, &band, &DtwOptions::with_path());
        let p = r.path.unwrap();
        p.validate(40, 25).unwrap();
        // every path step must lie inside the band
        for &(i, j) in p.steps() {
            assert!(band.contains(i, j));
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_mixed_shapes() {
        // one scratch reused across pairs of different sizes and bands
        // must reproduce the fresh-scratch path exactly
        let mut scratch = DtwScratch::new();
        let series: Vec<TimeSeries> = (0..6)
            .map(|k| {
                ts(&(0..(20 + 7 * k))
                    .map(|i| ((i + 3 * k) as f64 / (4 + k) as f64).sin())
                    .collect::<Vec<_>>())
            })
            .collect();
        for a in &series {
            for b in &series {
                for band in [
                    Band::full(a.len(), b.len()),
                    crate::sakoe::sakoe_chiba_band(a.len(), b.len(), 0.3),
                ] {
                    for opts in [
                        DtwOptions::default(),
                        DtwOptions::normalized_symmetric2(),
                        DtwOptions::amerced(0.2),
                    ] {
                        let fresh = run(a, b, &band, &opts);
                        let reused = dtw_run_options(a, b, &band, &opts, None, &mut scratch)
                            .expect("no cutoff");
                        assert_eq!(fresh.distance.to_bits(), reused.distance.to_bits());
                        assert_eq!(fresh.cells_filled, reused.cells_filled);
                    }
                }
            }
        }
    }

    #[test]
    fn early_abandon_scratch_reuse_is_bit_identical() {
        // one scratch reused across candidates of mixed shapes must agree
        // exactly with the fresh-scratch abandoning path, both in outcome
        // (abandon vs complete) and in the returned distance bits
        let mut scratch = DtwScratch::new();
        let series: Vec<TimeSeries> = (0..5)
            .map(|k| {
                ts(&(0..(18 + 9 * k))
                    .map(|i| ((i + 2 * k) as f64 / (3 + k) as f64).sin())
                    .collect::<Vec<_>>())
            })
            .collect();
        for a in &series {
            for b in &series {
                let band = Band::full(a.len(), b.len());
                for threshold in [0.05, 1.0, f64::INFINITY] {
                    for opts in [
                        DtwOptions::default(),
                        DtwOptions::normalized_symmetric2(),
                        DtwOptions::amerced(0.1),
                    ] {
                        let fresh = run_cutoff(a, b, &band, &opts, threshold);
                        let reused =
                            dtw_run_options(a, b, &band, &opts, Some(threshold), &mut scratch);
                        match (fresh, reused) {
                            (None, None) => {}
                            (Some(f), Some(r)) => {
                                assert_eq!(f.distance.to_bits(), r.distance.to_bits());
                                assert_eq!(f.cells_filled, r.cells_filled);
                            }
                            (f, r) => panic!("abandon disagreement: {f:?} vs {r:?}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_produces_valid_paths_too() {
        let mut scratch = DtwScratch::new();
        let x = ts(&[0.1, 0.9, 0.4, 1.7, 1.1, 0.2]);
        let y = ts(&[0.0, 1.0, 0.5, 1.5, 0.0]);
        let band = Band::full(6, 5);
        let r = dtw_run_options(&x, &y, &band, &DtwOptions::with_path(), None, &mut scratch)
            .expect("no cutoff");
        let p = r.path.unwrap();
        p.validate(6, 5).unwrap();
        // buffers were retained for reuse
        assert!(scratch.capacity() >= 30);
    }

    #[test]
    fn scratch_cutoff_and_path_options_are_bit_identical_to_the_plain_run() {
        let series: Vec<TimeSeries> = (0..4)
            .map(|k| {
                ts(&(0..(24 + 11 * k))
                    .map(|i| ((i + 5 * k) as f64 / (6 + k) as f64).sin())
                    .collect::<Vec<_>>())
            })
            .collect();
        let mut scratch = DtwScratch::new();
        for a in &series {
            for b in &series {
                let band = crate::sakoe::sakoe_chiba_band(a.len(), b.len(), 0.4);
                for opts in [DtwOptions::with_path(), DtwOptions::normalized_symmetric2()] {
                    let plain = run(a, b, &band, &opts);
                    let reused = dtw_run_options(a, b, &band, &opts, None, &mut scratch).unwrap();
                    assert_eq!(plain.distance.to_bits(), reused.distance.to_bits());
                    assert_eq!(plain.path, reused.path);
                    assert_eq!(plain.cells_filled, reused.cells_filled);
                    for threshold in [0.2, f64::INFINITY] {
                        let no_path = DtwOptions {
                            compute_path: false,
                            ..opts
                        };
                        let cut = run_cutoff(a, b, &band, &no_path, threshold);
                        let cut_reused =
                            dtw_run_options(a, b, &band, &no_path, Some(threshold), &mut scratch);
                        assert_eq!(
                            cut.as_ref().map(|r| r.distance.to_bits()),
                            cut_reused.as_ref().map(|r| r.distance.to_bits())
                        );
                        assert_eq!(
                            cut.as_ref().map(|r| r.distance.to_bits()),
                            (plain.distance <= threshold).then_some(plain.distance.to_bits())
                        );
                        assert!(cut.as_ref().is_none_or(|r| r.path.is_none()));
                    }
                }
            }
        }
    }

    #[test]
    fn amerced_zero_penalty_is_bit_identical_to_symmetric1() {
        let x = ts(&(0..50).map(|i| (i as f64 / 6.0).sin()).collect::<Vec<_>>());
        let y = ts(&(0..40).map(|i| (i as f64 / 5.0).cos()).collect::<Vec<_>>());
        for band in [
            Band::full(50, 40),
            crate::sakoe::sakoe_chiba_band(50, 40, 0.3),
        ] {
            let std = run(&x, &y, &band, &DtwOptions::default());
            let am = run(&x, &y, &band, &DtwOptions::amerced(0.0));
            assert_eq!(std.distance.to_bits(), am.distance.to_bits());
        }
    }

    #[test]
    fn amerced_distance_is_monotone_in_penalty() {
        let x = ts(&(0..60).map(|i| (i as f64 / 7.0).sin()).collect::<Vec<_>>());
        let y = ts(&(0..60)
            .map(|i| ((i + 9) as f64 / 7.0).sin())
            .collect::<Vec<_>>());
        let mut prev = run(&x, &y, &Band::full(60, 60), &DtwOptions::amerced(0.0)).distance;
        for penalty in [0.01, 0.1, 1.0, 10.0] {
            let d = run(&x, &y, &Band::full(60, 60), &DtwOptions::amerced(penalty)).distance;
            assert!(
                d >= prev - 1e-12,
                "penalty {penalty}: {d} < previous {prev}"
            );
            prev = d;
        }
    }

    #[test]
    fn amerced_huge_penalty_equals_the_euclidean_diagonal() {
        // with a penalty no warp step can amortise, the optimal amerced
        // path is the plain diagonal, i.e. the pointwise distance
        let xv: Vec<f64> = (0..32).map(|i| (i as f64 / 4.0).sin()).collect();
        let yv: Vec<f64> = (0..32).map(|i| (i as f64 / 3.0).cos()).collect();
        let x = ts(&xv);
        let y = ts(&yv);
        let euclid = xv
            .iter()
            .zip(&yv)
            .fold(0.0, |acc, (a, b)| acc + ElementMetric::Squared.eval(*a, *b));
        let d = run(&x, &y, &Band::full(32, 32), &DtwOptions::amerced(1e9));
        assert_eq!(d.distance.to_bits(), euclid.to_bits());
    }

    #[test]
    fn amerced_interpolates_between_dtw_and_euclidean() {
        let x = ts(&[0.0, 0.0, 1.0, 2.0, 1.0, 0.0, 0.0, 0.0]);
        let y = ts(&[0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 1.0, 0.0]);
        let band = Band::full(8, 8);
        let dtw = run(&x, &y, &band, &DtwOptions::default()).distance;
        let mid = run(&x, &y, &band, &DtwOptions::amerced(0.05)).distance;
        let stiff = run(&x, &y, &band, &DtwOptions::amerced(1e6)).distance;
        assert_eq!(dtw, 0.0);
        assert!(mid > dtw && mid < stiff, "dtw {dtw} < mid {mid} < {stiff}");
    }

    #[test]
    fn amerced_path_is_valid_and_pays_the_reported_distance() {
        let x = ts(&[0.1, 0.9, 0.4, 1.7, 1.1, 0.2]);
        let y = ts(&[0.0, 1.0, 0.5, 1.5, 0.0]);
        let penalty = 0.3;
        let opts = DtwOptions {
            compute_path: true,
            ..DtwOptions::amerced(penalty)
        };
        let r = dtw_full(&x, &y, &opts);
        let p = r.path.unwrap();
        p.validate(6, 5).unwrap();
        // path cost = pointwise cost + penalty per off-diagonal step
        let mut cost = 0.0;
        for (k, &(i, j)) in p.steps().iter().enumerate() {
            cost += ElementMetric::Squared.eval(x.at(i), y.at(j));
            if k > 0 {
                let (pi, pj) = p.steps()[k - 1];
                if i == pi || j == pj {
                    cost += penalty;
                }
            }
        }
        assert!(
            (cost - r.distance).abs() < 1e-9,
            "path pays {cost}, reported {}",
            r.distance
        );
    }

    #[test]
    fn amerced_early_abandon_is_sound() {
        let x = ts(&(0..40).map(|i| (i as f64 / 5.0).sin()).collect::<Vec<_>>());
        let y = ts(&(0..40)
            .map(|i| ((i + 7) as f64 / 5.0).sin())
            .collect::<Vec<_>>());
        let band = Band::full(40, 40);
        let opts = DtwOptions::amerced(0.25);
        let d = run(&x, &y, &band, &opts).distance;
        let kept = run_cutoff(&x, &y, &band, &opts, d).expect("threshold == distance survives");
        assert_eq!(kept.distance.to_bits(), d.to_bits());
        assert!(run_cutoff(&x, &y, &band, &opts, d * 0.5).is_none());
    }

    #[test]
    fn options_validate_rejects_bad_penalties() {
        assert!(DtwOptions::default().validate().is_ok());
        assert!(DtwOptions::amerced(0.0).validate().is_ok());
        assert!(DtwOptions::amerced(-0.5).validate().is_err());
        assert!(DtwOptions::amerced(f64::NAN).validate().is_err());
        assert!(DtwOptions::amerced(f64::INFINITY).validate().is_err());
    }

    #[test]
    fn options_json_without_kernel_field_defaults_to_standard() {
        // index snapshots persisted before the kernel field existed must
        // keep loading: strip the field from a current serialisation and
        // deserialise the pre-redesign shape
        let current = serde_json::to_string(&DtwOptions::default()).unwrap();
        let legacy = current.replace(",\"kernel\":\"Standard\"", "");
        assert_ne!(current, legacy, "the kernel field was present to strip");
        let opts: DtwOptions = serde_json::from_str(&legacy).unwrap();
        assert_eq!(opts, DtwOptions::default());
        // and the current shape (including amerced) round-trips
        let amerced = DtwOptions::amerced(0.5);
        let back: DtwOptions =
            serde_json::from_str(&serde_json::to_string(&amerced).unwrap()).unwrap();
        assert_eq!(back, amerced);
    }

    #[test]
    fn cutoff_rejection_skips_the_traceback() {
        // a run whose final distance exceeds the cutoff must return None
        // even with paths requested (and not pay for the walk first)
        let x = ts(&[0.0, 1.0, 2.0, 1.0]);
        let y = ts(&[0.5, 1.5, 2.5, 1.5]);
        let band = Band::full(4, 4);
        let opts = DtwOptions::with_path();
        let d = run(&x, &y, &band, &opts).distance;
        assert!(d > 0.0);
        let rejected = run_cutoff(&x, &y, &band, &opts, d * 0.99);
        assert!(rejected.is_none());
    }

    #[test]
    fn options_report_kernel_labels_and_admissibility() {
        assert_eq!(DtwOptions::default().kernel_label(), "sym1");
        assert_eq!(DtwOptions::normalized_symmetric2().kernel_label(), "sym2");
        assert_eq!(DtwOptions::amerced(0.5).kernel_label(), "amerced(w=0.5)");
        assert!(DtwOptions::default().lower_bounds_admissible());
        assert!(DtwOptions::amerced(2.0).lower_bounds_admissible());
    }

    #[test]
    fn custom_kernels_plug_into_the_generic_path() {
        // a third-party kernel: absolute-difference costs with a squared
        // warp deterrent — nothing in the engine knows about it
        struct Stiff;
        impl DtwKernel for Stiff {
            fn up(&self, parent: f64, local: f64) -> f64 {
                parent + 2.0 * local + 0.1
            }
            fn left(&self, parent: f64, local: f64) -> f64 {
                parent + 2.0 * local + 0.1
            }
            fn diagonal(&self, parent: f64, local: f64) -> f64 {
                parent + local
            }
            fn normalize(&self, raw: f64, _n: usize, _m: usize) -> f64 {
                raw
            }
            fn lower_bounds_admissible(&self) -> bool {
                false
            }
            fn label(&self) -> String {
                "stiff".into()
            }
        }
        let x = ts(&[0.0, 1.0, 2.0, 1.0]);
        let y = ts(&[0.0, 2.0, 1.0]);
        let band = Band::full(4, 3);
        let mut scratch = DtwScratch::new();
        let r = dtw_run(
            &x,
            &y,
            &band,
            ElementMetric::Squared,
            &Stiff,
            true,
            None,
            &mut scratch,
        )
        .unwrap();
        assert!(r.distance.is_finite() && r.distance >= 0.0);
        r.path.unwrap().validate(4, 3).unwrap();
    }

    /// One pair through both fills with a fresh scratch each: the lane
    /// wavefront (no path requested) and the row fill (path requested).
    fn run_both_fills(
        x: &TimeSeries,
        y: &TimeSeries,
        band: &Band,
        opts: &DtwOptions,
        cutoff: Option<f64>,
    ) -> (Option<DtwResult>, Option<DtwResult>) {
        let run = |compute_path| {
            let opts = DtwOptions {
                compute_path,
                ..*opts
            };
            dtw_run_options(x, y, band, &opts, cutoff, &mut DtwScratch::new())
        };
        (run(false), run(true))
    }

    #[test]
    fn wavefront_is_bit_identical_to_rows_across_mixed_shapes() {
        let series: Vec<TimeSeries> = (0..6)
            .map(|k| {
                ts(&(0..(15 + 8 * k))
                    .map(|i| ((i + 2 * k) as f64 / (3 + k) as f64).sin())
                    .collect::<Vec<_>>())
            })
            .collect();
        for a in &series {
            for b in &series {
                for band in [
                    Band::full(a.len(), b.len()),
                    crate::sakoe::sakoe_chiba_band(a.len(), b.len(), 0.25),
                    crate::itakura::itakura_band(a.len(), b.len(), 2.0),
                ] {
                    for opts in [
                        DtwOptions::default(),
                        DtwOptions::normalized_symmetric2(),
                        DtwOptions::amerced(0.15),
                    ] {
                        for cutoff in [None, Some(0.5), Some(f64::INFINITY)] {
                            match run_both_fills(a, b, &band, &opts, cutoff) {
                                (None, None) => {}
                                (Some(w), Some(r)) => {
                                    assert_eq!(w.distance.to_bits(), r.distance.to_bits());
                                    assert_eq!(w.cells_filled, r.cells_filled);
                                    assert!(w.path.is_none() && r.path.is_some());
                                }
                                (w, r) => panic!("fills disagree on abandon: {w:?} vs {r:?}"),
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn wavefront_handles_non_staircase_bands() {
        // lo dips back down between rows: feasible yet not a staircase, so
        // the wavefront takes its membership-checked general path
        let band = Band::from_ranges(
            4,
            5,
            vec![
                ColRange::new(0, 4),
                ColRange::new(3, 4),
                ColRange::new(1, 4),
                ColRange::new(2, 4),
            ],
        );
        assert!(band.is_feasible() && !band.is_staircase());
        let x = ts(&[0.1, 0.9, 0.4, 1.7]);
        let y = ts(&[0.0, 1.0, 0.5, 1.5, 0.0]);
        let (w, r) = run_both_fills(&x, &y, &band, &DtwOptions::default(), None);
        let (w, r) = (w.unwrap(), r.unwrap());
        assert_eq!(w.distance.to_bits(), r.distance.to_bits());
        r.path.unwrap().validate(4, 5).unwrap();
    }

    #[test]
    fn wavefront_scratch_reuse_is_bit_identical() {
        // the rotating diagonal buffers are re-initialised per call, so
        // one scratch reused across mixed shapes changes nothing
        let mut scratch = DtwScratch::new();
        let series: Vec<TimeSeries> = (0..5)
            .map(|k| {
                ts(&(0..(12 + 9 * k))
                    .map(|i| ((i + 4 * k) as f64 / (5 + k) as f64).cos())
                    .collect::<Vec<_>>())
            })
            .collect();
        let opts = DtwOptions::default();
        for a in &series {
            for b in &series {
                let band = crate::sakoe::sakoe_chiba_band(a.len(), b.len(), 0.3);
                for cutoff in [None, Some(0.8)] {
                    let fresh = dtw_run_options(a, b, &band, &opts, cutoff, &mut DtwScratch::new());
                    let reused = dtw_run_options(a, b, &band, &opts, cutoff, &mut scratch);
                    assert_eq!(
                        fresh.as_ref().map(|r| r.distance.to_bits()),
                        reused.as_ref().map(|r| r.distance.to_bits())
                    );
                }
            }
        }
    }
}
