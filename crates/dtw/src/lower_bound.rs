//! Lower bounds on the DTW distance (extensions beyond the paper's core).
//!
//! Two classic bounds power the retrieval cascade:
//!
//! * **LB_Kim** ([`lb_kim`]): a constant-time bound from endpoint and
//!   extremum summaries ([`SeriesSummary`]). The corner cells `(0, 0)` and
//!   `(N−1, M−1)` lie on *every* warp path (of any feasible band), so their
//!   local costs always accrue; and the global maximum (minimum) of `X`
//!   must align with *some* sample of `Y`, paying at least its distance to
//!   the closest value `Y` can offer — its own maximum (minimum). The
//!   bound is the larger of the two arguments, never their sum (the cells
//!   involved could coincide).
//! * **LB_Keogh** ([`lb_keogh`], the paper's reference `[7]`): build the
//!   upper/lower envelope of `Y` under a window `r`, then sum, over each
//!   `x_i`, the distance from `x_i` to the envelope tube. Lower bounds any
//!   DTW whose band stays within the `±r` Sakoe window.
//!
//! Retrieval loops skip the DP entirely when the running k-NN threshold is
//! below a bound; `sdtw-index` chains them cheapest-first. Neither bound is
//! part of the sDTW algorithm itself.

use crate::simd::{lanes_eval, F64Lanes, LANE_WIDTH};
use sdtw_tseries::{ElementMetric, TimeSeries};
use serde::{Deserialize, Serialize};

/// Upper/lower envelope of a series under a symmetric window of radius `r`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// `upper[i] = max(y[i-r ..= i+r])`
    pub upper: Vec<f64>,
    /// `lower[i] = min(y[i-r ..= i+r])`
    pub lower: Vec<f64>,
    /// The window radius the envelope was built with.
    pub radius: usize,
}

impl Envelope {
    /// Builds the envelope with a monotonic-deque sliding min/max, `O(n)`.
    pub fn build(y: &TimeSeries, radius: usize) -> Self {
        Self::build_from_values(y.values(), radius)
    }

    /// [`Envelope::build`] over a raw sample slice — for callers whose
    /// series is a window of a larger buffer (subsequence search builds
    /// the envelope of a z-normalised query held in a plain `Vec`).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice (programmer error).
    pub fn build_from_values(v: &[f64], radius: usize) -> Self {
        assert!(!v.is_empty(), "envelope needs a non-empty series");
        let n = v.len();
        let mut upper = Vec::with_capacity(n);
        let mut lower = Vec::with_capacity(n);
        // Deques hold indices; front is the current extremum.
        let mut maxq: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut minq: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        // window for output i is [i-radius, i+radius]; sweep right edge
        // (saturating: a radius of usize::MAX order must mean "the whole
        // series", not wrap around)
        let mut right = 0usize;
        for i in 0..n {
            let hi = i.saturating_add(radius).min(n - 1);
            while right <= hi {
                while let Some(&b) = maxq.back() {
                    if v[b] <= v[right] {
                        maxq.pop_back();
                    } else {
                        break;
                    }
                }
                maxq.push_back(right);
                while let Some(&b) = minq.back() {
                    if v[b] >= v[right] {
                        minq.pop_back();
                    } else {
                        break;
                    }
                }
                minq.push_back(right);
                right += 1;
            }
            let lo_edge = i.saturating_sub(radius);
            while let Some(&f) = maxq.front() {
                if f < lo_edge {
                    maxq.pop_front();
                } else {
                    break;
                }
            }
            while let Some(&f) = minq.front() {
                if f < lo_edge {
                    minq.pop_front();
                } else {
                    break;
                }
            }
            upper.push(v[*maxq.front().expect("window non-empty")]);
            lower.push(v[*minq.front().expect("window non-empty")]);
        }
        Self {
            upper,
            lower,
            radius,
        }
    }
}

/// LB_Keogh: lower bound on the Sakoe-Chiba-constrained DTW distance
/// between `x` and the series whose envelope is given. Requires
/// `x.len() == envelope.len()` (the classic formulation assumes
/// equal-length series; resample first otherwise).
///
/// # Panics
///
/// Panics on length mismatch.
pub fn lb_keogh(x: &TimeSeries, env: &Envelope, metric: ElementMetric) -> f64 {
    lb_keogh_values(x.values(), env, metric)
}

/// [`lb_keogh`] over a raw sample slice (subsequence windows, normalised
/// scratch buffers).
///
/// # Panics
///
/// Panics on length mismatch.
pub fn lb_keogh_values(x: &[f64], env: &Envelope, metric: ElementMetric) -> f64 {
    assert_eq!(
        x.len(),
        env.upper.len(),
        "LB_Keogh requires equal lengths (resample first)"
    );
    let mut acc = 0.0;
    for (i, &xi) in x.iter().enumerate() {
        if xi > env.upper[i] {
            acc += metric.eval(xi, env.upper[i]);
        } else if xi < env.lower[i] {
            acc += metric.eval(xi, env.lower[i]);
        }
    }
    acc
}

/// Constant-size summary of a series for [`lb_kim`]: the endpoint values
/// and the global extremes. An index precomputes one per corpus entry (and
/// one per incoming query), making the first cascade filter O(1) per pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesSummary {
    /// First sample.
    pub first: f64,
    /// Last sample.
    pub last: f64,
    /// Global minimum.
    pub min: f64,
    /// Global maximum.
    pub max: f64,
    /// Series length (corner cells coincide when both series have length 1).
    pub len: usize,
}

impl SeriesSummary {
    /// Summarises a series in one pass.
    pub fn of(ts: &TimeSeries) -> Self {
        Self::of_values(ts.values())
    }

    /// [`SeriesSummary::of`] over a raw sample slice.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice (programmer error).
    pub fn of_values(v: &[f64]) -> Self {
        assert!(!v.is_empty(), "summary needs a non-empty series");
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &s in v {
            min = min.min(s);
            max = max.max(s);
        }
        Self {
            first: v[0],
            last: v[v.len() - 1],
            min,
            max,
            len: v.len(),
        }
    }
}

/// LB_Kim: constant-time lower bound on the DTW distance between the two
/// summarised series — full-grid *or* constrained to any feasible band,
/// under either step pattern (transition weights are all ≥ 1), on the raw
/// (unnormalised) accumulated cost.
///
/// The bound is the maximum of two admissible arguments:
///
/// * **endpoints** — cells `(0, 0)` and `(N−1, M−1)` are on every warp
///   path, so `d(x_0, y_0) + d(x_{N−1}, y_{M−1})` always accrues (the two
///   terms are summed only when the cells are distinct);
/// * **extremes** — the global maximum of `X` aligns with *some* `y_j ≤
///   max(Y)`, costing at least `d(max X, max Y)` whenever
///   `max X > max Y`; symmetrically for the minima.
///
/// Unlike [`lb_keogh`] it needs no equal lengths and no window/band
/// containment — it is sound for every pair the banded kernel accepts.
pub fn lb_kim(x: &SeriesSummary, y: &SeriesSummary, metric: ElementMetric) -> f64 {
    let ends = if x.len == 1 && y.len == 1 {
        // a 1×1 grid has a single cell; don't count it twice
        metric.eval(x.first, y.first)
    } else {
        metric.eval(x.first, y.first) + metric.eval(x.last, y.last)
    };
    let top = if x.max > y.max {
        metric.eval(x.max, y.max)
    } else if y.max > x.max {
        metric.eval(y.max, x.max)
    } else {
        0.0
    };
    let bottom = if x.min < y.min {
        metric.eval(x.min, y.min)
    } else if y.min < x.min {
        metric.eval(y.min, x.min)
    } else {
        0.0
    };
    ends.max(top).max(bottom)
}

/// Lane width of the batched bound loops: one chunk carries this many
/// candidates (index cascade) or windows (stream matcher) per pass.
/// Defined as [`crate::simd::LANE_WIDTH`] — the *one* place the lane
/// width lives — so the explicit-SIMD chunk bodies below, the DP lane
/// sweep, and every batching caller (`sdtw-index` candidate queues,
/// `sdtw-stream` deferred window queues) agree on the same number.
///
/// The batched variants below restructure the `O(n)` bound loops from
/// one-candidate-at-a-time into chunk loops with one [`F64Lanes`]
/// accumulator lane per candidate. The per-element functions
/// ([`lb_keogh_values`], [`lb_kim`]) are their scalar reference. Two
/// invariants make every lane **bit-identical** to that reference, and
/// the lane bodies lean on both:
///
/// * **each lane accumulates in the exact sequential order of the scalar
///   reference** — sample `i` is folded into lane `l`'s accumulator
///   before sample `i + 1`, exactly as `lb_keogh_values` would;
/// * **in-tube samples add a literal `+0.0`** — where the scalar
///   reference *skips* the add, the lane loops add `0.0`, a bitwise
///   no-op on the non-negative accumulator (`+0.0 + +0.0 == +0.0`; no
///   value here is `-0.0` or NaN), which is what lets the lane body be
///   branch-free (mask-select of the deviation, add unconditionally).
///
/// Ragged tails shorter than a chunk fall back to the scalar functions —
/// callers must not assume output batches are produced in lane-width
/// groups, only that the order matches the input order.
pub const LB_LANES: usize = LANE_WIDTH;

/// Branch-free LB_Keogh deviation of one lane vector against the tube
/// `[lower, upper]`: the lane image of the scalar
/// `if xi > upper { eval(xi, upper) } else if xi < lower { eval(xi, lower) } else { 0.0 }`
/// chain — the nested select keeps the branch priority, the taken
/// branch's value is bit-identical, and the untaken branches' lanewise
/// evaluations are discarded by the select (finite inputs, never NaN).
#[inline(always)]
fn keogh_dev_lanes(
    xi: F64Lanes,
    upper: F64Lanes,
    lower: F64Lanes,
    metric: ElementMetric,
) -> F64Lanes {
    F64Lanes::select(
        xi.gt(upper),
        lanes_eval(metric, xi, upper),
        F64Lanes::select(
            xi.lt(lower),
            lanes_eval(metric, xi, lower),
            F64Lanes::splat(0.0),
        ),
    )
}

/// Batched [`lb_keogh_values`], index shape: one probe `x` scored against
/// many candidate envelopes (the per-query cascade batches corpus
/// entries). Appends one bound per envelope to `out`, in order; each is
/// bit-identical to `lb_keogh_values(x, env, metric)` (see [`LB_LANES`]
/// for the two invariants that make the lane loops exact).
///
/// # Panics
///
/// Panics on any length mismatch.
pub fn lb_keogh_batch(x: &[f64], envs: &[&Envelope], metric: ElementMetric, out: &mut Vec<f64>) {
    out.clear();
    out.reserve(envs.len());
    let mut chunks = envs.chunks_exact(LB_LANES);
    for chunk in &mut chunks {
        for env in chunk {
            assert_eq!(
                x.len(),
                env.upper.len(),
                "LB_Keogh requires equal lengths (resample first)"
            );
        }
        // lane l walks envelope chunk[l]; the envelope values are
        // gathered per sample (the tubes live in separate Vecs), the
        // probe sample is a splat shared by every lane
        let mut acc = F64Lanes::splat(0.0);
        for (i, &s) in x.iter().enumerate() {
            let xi = F64Lanes::splat(s);
            let upper = F64Lanes::from_fn(|l| chunk[l].upper[i]);
            let lower = F64Lanes::from_fn(|l| chunk[l].lower[i]);
            acc = acc + keogh_dev_lanes(xi, upper, lower, metric);
        }
        out.extend_from_slice(acc.as_array());
    }
    for env in chunks.remainder() {
        out.push(lb_keogh_values(x, env, metric));
    }
}

/// Batched [`lb_keogh_values`], stream shape: many (z-normalised) windows
/// of one stream scored against the shared query envelope. Appends one
/// bound per window to `out`, in order; each is bit-identical to
/// `lb_keogh_values(w, env, metric)` (see [`LB_LANES`] for the chunk
/// invariants).
///
/// # Panics
///
/// Panics on any length mismatch.
pub fn lb_keogh_batch_windows(
    windows: &[&[f64]],
    env: &Envelope,
    metric: ElementMetric,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.reserve(windows.len());
    let mut chunks = windows.chunks_exact(LB_LANES);
    for chunk in &mut chunks {
        for w in chunk {
            assert_eq!(
                w.len(),
                env.upper.len(),
                "LB_Keogh requires equal lengths (resample first)"
            );
        }
        // lane l walks window chunk[l]; the shared tube is a splat, the
        // window samples are gathered per position
        let mut acc = F64Lanes::splat(0.0);
        for (i, (&upper, &lower)) in env.upper.iter().zip(&env.lower).enumerate() {
            let upper = F64Lanes::splat(upper);
            let lower = F64Lanes::splat(lower);
            let xi = F64Lanes::from_fn(|l| chunk[l][i]);
            acc = acc + keogh_dev_lanes(xi, upper, lower, metric);
        }
        out.extend_from_slice(acc.as_array());
    }
    for w in chunks.remainder() {
        out.push(lb_keogh_values(w, env, metric));
    }
}

/// Batched [`lb_kim`]: one probe summary against many candidate
/// summaries, evaluated as three lane passes (endpoints, maxima, minima)
/// over each chunk. Appends one bound per candidate to `out`, in order;
/// each is bit-identical to `lb_kim(x, y, metric)` (ragged tails fall
/// back to the scalar function, per [`LB_LANES`]).
pub fn lb_kim_batch(
    x: &SeriesSummary,
    ys: &[SeriesSummary],
    metric: ElementMetric,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.reserve(ys.len());
    let mut chunks = ys.chunks_exact(LB_LANES);
    for chunk in &mut chunks {
        // endpoints stay a per-lane gather: the 1×1-grid special case
        // branches on each candidate's length, which is not worth a
        // select over a usize compare
        let ends = F64Lanes::from_fn(|l| {
            let y = &chunk[l];
            if x.len == 1 && y.len == 1 {
                metric.eval(x.first, y.first)
            } else {
                metric.eval(x.first, y.first) + metric.eval(x.last, y.last)
            }
        });
        // the extreme terms mirror the scalar if/else-if chains,
        // including the argument order of each eval ((x−y)² and (y−x)²
        // agree bitwise under IEEE, but mirroring keeps the lane body a
        // literal transcription of the scalar)
        let x_max = F64Lanes::splat(x.max);
        let y_max = F64Lanes::from_fn(|l| chunk[l].max);
        let top = F64Lanes::select(
            x_max.gt(y_max),
            lanes_eval(metric, x_max, y_max),
            F64Lanes::select(
                y_max.gt(x_max),
                lanes_eval(metric, y_max, x_max),
                F64Lanes::splat(0.0),
            ),
        );
        let x_min = F64Lanes::splat(x.min);
        let y_min = F64Lanes::from_fn(|l| chunk[l].min);
        let bottom = F64Lanes::select(
            x_min.lt(y_min),
            lanes_eval(metric, x_min, y_min),
            F64Lanes::select(
                y_min.lt(x_min),
                lanes_eval(metric, y_min, x_min),
                F64Lanes::splat(0.0),
            ),
        );
        out.extend_from_slice(ends.max(top).max(bottom).as_array());
    }
    for y in chunks.remainder() {
        out.push(lb_kim(x, y, metric));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{dtw_full, dtw_run_options, DtwOptions, DtwScratch};
    use crate::sakoe::sakoe_chiba_band;

    fn ts(v: &[f64]) -> TimeSeries {
        TimeSeries::new(v.to_vec()).unwrap()
    }

    #[test]
    fn envelope_of_constant_is_constant() {
        let e = Envelope::build(&ts(&[2.0; 9]), 3);
        assert!(e.upper.iter().all(|&v| v == 2.0));
        assert!(e.lower.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn envelope_radius_zero_is_identity() {
        let y = ts(&[1.0, 5.0, 3.0]);
        let e = Envelope::build(&y, 0);
        assert_eq!(e.upper, y.values());
        assert_eq!(e.lower, y.values());
    }

    #[test]
    fn envelope_brackets_series() {
        let y = ts(&[0.0, 3.0, -1.0, 2.0, 5.0, 1.0]);
        for r in [1, 2, 5] {
            let e = Envelope::build(&y, r);
            for i in 0..y.len() {
                assert!(e.lower[i] <= y.at(i) && y.at(i) <= e.upper[i]);
            }
        }
    }

    #[test]
    fn envelope_matches_naive_computation() {
        let y = ts(&[4.0, -2.0, 7.0, 7.0, 0.0, 3.0, -5.0, 1.0]);
        let r = 2;
        let e = Envelope::build(&y, r);
        for i in 0..y.len() {
            let lo = i.saturating_sub(r);
            let hi = (i + r).min(y.len() - 1);
            let mx = y.values()[lo..=hi].iter().cloned().fold(f64::MIN, f64::max);
            let mn = y.values()[lo..=hi].iter().cloned().fold(f64::MAX, f64::min);
            assert_eq!(e.upper[i], mx, "upper at {i}");
            assert_eq!(e.lower[i], mn, "lower at {i}");
        }
    }

    #[test]
    fn envelope_with_oversized_radius_is_the_global_range() {
        // radii at or beyond the series length (up to usize::MAX) must
        // saturate to the whole-series envelope, not overflow
        let y = ts(&[0.0, 3.0, -1.0, 2.0]);
        for r in [4usize, 1000, usize::MAX] {
            let e = Envelope::build(&y, r);
            assert!(e.upper.iter().all(|&v| v == 3.0), "radius {r}");
            assert!(e.lower.iter().all(|&v| v == -1.0), "radius {r}");
        }
    }

    #[test]
    fn lb_keogh_is_zero_inside_tube() {
        let y = ts(&[0.0, 1.0, 2.0, 1.0, 0.0]);
        let env = Envelope::build(&y, 2);
        assert_eq!(lb_keogh(&y, &env, ElementMetric::Squared), 0.0);
    }

    #[test]
    fn lb_keogh_lower_bounds_banded_dtw() {
        // Property over a handful of pseudo-random pairs: LB ≤ SC-DTW.
        let mut seed = 0x12345u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for _ in 0..10 {
            let n = 40;
            let x = ts(&(0..n).map(|_| rng()).collect::<Vec<_>>());
            let y = ts(&(0..n).map(|_| rng()).collect::<Vec<_>>());
            let radius = 4;
            let env = Envelope::build(&y, radius);
            let lb = lb_keogh(&x, &env, ElementMetric::Squared);
            // The SC band with half-width = radius dominates the envelope
            // window, so its DTW distance is lower-bounded by LB_Keogh.
            let band = sakoe_chiba_band(n, n, 2.0 * radius as f64 / n as f64);
            let d = dtw_run_options(
                &x,
                &y,
                &band,
                &DtwOptions::default(),
                None,
                &mut DtwScratch::new(),
            )
            .expect("no cutoff")
            .distance;
            assert!(lb <= d + 1e-9, "LB_Keogh {lb} exceeded banded DTW {d}");
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn length_mismatch_panics() {
        let env = Envelope::build(&ts(&[0.0, 1.0]), 1);
        let _ = lb_keogh(&ts(&[0.0, 1.0, 2.0]), &env, ElementMetric::Squared);
    }

    #[test]
    fn summary_captures_endpoints_and_extremes() {
        let s = SeriesSummary::of(&ts(&[2.0, -1.0, 5.0, 0.5]));
        assert_eq!(s.first, 2.0);
        assert_eq!(s.last, 0.5);
        assert_eq!(s.min, -1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.len, 4);
    }

    #[test]
    fn lb_kim_is_zero_for_identical_series() {
        let s = SeriesSummary::of(&ts(&[0.0, 1.0, 2.0, 1.0]));
        assert_eq!(lb_kim(&s, &s, ElementMetric::Squared), 0.0);
    }

    #[test]
    fn lb_kim_known_values() {
        // endpoints dominate: (1-0)^2 + (3-5)^2 = 5
        let x = SeriesSummary::of(&ts(&[1.0, 2.0, 3.0]));
        let y = SeriesSummary::of(&ts(&[0.0, 2.0, 5.0]));
        assert_eq!(lb_kim(&x, &y, ElementMetric::Squared), 5.0);
        // extremes dominate: ranges [0,10] vs [4,6] → max term (10-6)^2 = 16
        let x = SeriesSummary::of(&ts(&[4.0, 10.0, 0.0, 6.0]));
        let y = SeriesSummary::of(&ts(&[4.0, 6.0, 5.0, 6.0]));
        assert_eq!(lb_kim(&x, &y, ElementMetric::Squared), 16.0);
        // symmetric in its arguments
        assert_eq!(
            lb_kim(&x, &y, ElementMetric::Squared),
            lb_kim(&y, &x, ElementMetric::Squared)
        );
    }

    #[test]
    fn lb_kim_lower_bounds_full_dtw_on_unequal_lengths() {
        let mut seed = 0xfeedu64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for metric in [ElementMetric::Squared, ElementMetric::Absolute] {
            for _ in 0..10 {
                let x = ts(&(0..37).map(|_| 2.0 * rng()).collect::<Vec<_>>());
                let y = ts(&(0..53).map(|_| 2.0 * rng()).collect::<Vec<_>>());
                let lb = lb_kim(&SeriesSummary::of(&x), &SeriesSummary::of(&y), metric);
                let opts = DtwOptions {
                    metric,
                    ..DtwOptions::default()
                };
                let d = dtw_full(&x, &y, &opts).distance;
                assert!(lb <= d + 1e-9, "lb_kim {lb} exceeded full DTW {d}");
            }
        }
    }

    #[test]
    fn lb_kim_single_sample_grid_counts_the_corner_once() {
        let x = SeriesSummary::of(&ts(&[2.0]));
        let y = SeriesSummary::of(&ts(&[5.0]));
        // one shared corner cell: (2-5)^2 = 9, not 18
        assert_eq!(lb_kim(&x, &y, ElementMetric::Squared), 9.0);
        let d = dtw_full(&ts(&[2.0]), &ts(&[5.0]), &DtwOptions::default()).distance;
        assert_eq!(d, 9.0);
    }

    #[test]
    fn cascade_ordering_kim_keogh_dtw_on_seeded_pairs() {
        // The cascade invariant the index relies on, on seeded random
        // pairs: lb_kim ≤ lb_keogh ≤ banded DTW. (Kim's two-term bound is
        // not *provably* below Keogh's n-term sum, but it is on any
        // reasonably sized random pair; the seeds below are fixed so this
        // stays deterministic.)
        let mut seed = 0x5eed5u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        // smooth series (random sinusoid mixtures): Keogh's n-term sum
        // accumulates real mass there, while Kim only sees the endpoints
        let mut smooth = |n: usize| {
            let (p1, p2, a) = (3.0 * rng(), 3.0 * rng(), 0.5 + 0.4 * rng());
            ts(&(0..n)
                .map(|i| {
                    let t = i as f64;
                    a * (t / 7.0 + p1).sin() + 0.5 * (t / 19.0 + p2).cos()
                })
                .collect::<Vec<_>>())
        };
        let mut keogh_strictly_above_kim = 0;
        for _ in 0..10 {
            let n = 48;
            let x = smooth(n);
            let y = smooth(n);
            let radius = 5;
            let kim = lb_kim(
                &SeriesSummary::of(&x),
                &SeriesSummary::of(&y),
                ElementMetric::Squared,
            );
            let env = Envelope::build(&y, radius);
            let keogh = lb_keogh(&x, &env, ElementMetric::Squared);
            let band = sakoe_chiba_band(n, n, 2.0 * radius as f64 / n as f64);
            let d = dtw_run_options(
                &x,
                &y,
                &band,
                &DtwOptions::default(),
                None,
                &mut DtwScratch::new(),
            )
            .expect("no cutoff")
            .distance;
            assert!(
                kim <= keogh + 1e-9,
                "lb_kim {kim} exceeded lb_keogh {keogh}"
            );
            assert!(
                keogh <= d + 1e-9,
                "lb_keogh {keogh} exceeded banded DTW {d}"
            );
            if keogh > kim {
                keogh_strictly_above_kim += 1;
            }
        }
        // the tighter bound must actually be tighter somewhere, or the
        // cascade ordering is pointless
        assert!(keogh_strictly_above_kim > 0);
    }

    fn seeded(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                4.0 * (((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0)
            })
            .collect()
    }

    #[test]
    fn batched_keogh_lanes_match_scalar_bitwise() {
        let x = seeded(0xabc, 32);
        for count in [0usize, 1, 7, 8, 9, 20, 64] {
            let series: Vec<Vec<f64>> = (0..count).map(|k| seeded(k as u64 + 1, 32)).collect();
            let envs: Vec<Envelope> = series
                .iter()
                .map(|v| Envelope::build_from_values(v, 3))
                .collect();
            let env_refs: Vec<&Envelope> = envs.iter().collect();
            for metric in [ElementMetric::Squared, ElementMetric::Absolute] {
                let mut out = Vec::new();
                lb_keogh_batch(&x, &env_refs, metric, &mut out);
                assert_eq!(out.len(), count);
                for (env, got) in envs.iter().zip(&out) {
                    let want = lb_keogh_values(&x, env, metric);
                    assert_eq!(want.to_bits(), got.to_bits(), "count {count}");
                }
            }
        }
    }

    #[test]
    fn batched_keogh_windows_match_scalar_bitwise() {
        let y = seeded(0xdef, 24);
        let env = Envelope::build_from_values(&y, 2);
        for count in [0usize, 1, 7, 8, 9, 64] {
            let windows: Vec<Vec<f64>> = (0..count).map(|k| seeded(k as u64 + 31, 24)).collect();
            let refs: Vec<&[f64]> = windows.iter().map(|w| w.as_slice()).collect();
            let mut out = Vec::new();
            lb_keogh_batch_windows(&refs, &env, ElementMetric::Squared, &mut out);
            assert_eq!(out.len(), count);
            for (w, got) in windows.iter().zip(&out) {
                let want = lb_keogh_values(w, &env, ElementMetric::Squared);
                assert_eq!(want.to_bits(), got.to_bits(), "count {count}");
            }
        }
    }

    #[test]
    fn batched_kim_lanes_match_scalar_bitwise() {
        let x = SeriesSummary::of_values(&seeded(0x777, 19));
        for count in [0usize, 1, 7, 8, 9, 64] {
            let ys: Vec<SeriesSummary> = (0..count)
                .map(|k| SeriesSummary::of_values(&seeded(k as u64 + 5, 11 + k % 7)))
                .collect();
            for metric in [ElementMetric::Squared, ElementMetric::Absolute] {
                let mut out = Vec::new();
                lb_kim_batch(&x, &ys, metric, &mut out);
                assert_eq!(out.len(), count);
                for (y, got) in ys.iter().zip(&out) {
                    let want = lb_kim(&x, y, metric);
                    assert_eq!(want.to_bits(), got.to_bits(), "count {count}");
                }
            }
        }
    }

    #[test]
    fn summary_roundtrips_through_serde() {
        let s = SeriesSummary::of(&ts(&[1.0, -2.0, 3.0]));
        let json = serde_json::to_string(&s).unwrap();
        let back: SeriesSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        let e = Envelope::build(&ts(&[1.0, -2.0, 3.0]), 1);
        let json = serde_json::to_string(&e).unwrap();
        let back: Envelope = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
