//! Pluggable DTW kernels: cost accumulation, step weighting, and
//! normalisation behind one trait.
//!
//! The banded DP engine ([`crate::engine`]) is generic over a
//! [`DtwKernel`], which decides what each local transition costs and how
//! the accumulated corner cost is turned into the reported distance. The
//! built-in kernels are
//!
//! * [`StandardKernel`] — the classic recurrence the paper uses, covering
//!   both Sakoe-Chiba step patterns ([`StepPattern::Symmetric1`] pays `d`
//!   on every transition, [`StepPattern::Symmetric2`] pays `2d` on the
//!   diagonal) and the optional `/(N+M)` length normalisation;
//! * [`AmercedKernel`] — ADTW (Herrmann & Webb, *Amercing: An intuitive
//!   and effective constraint for dynamic time warping*, 2021): every
//!   off-diagonal transition pays an **additive** warp penalty `ω` on top
//!   of the local cost, so warping is discouraged smoothly instead of
//!   being cut off by a band edge. `ω = 0` degenerates to symmetric1;
//!   `ω → ∞` approaches the (diagonal-only) Euclidean distance.
//!
//! Kernels are plugged in two ways: statically, by calling
//! [`crate::engine::dtw_run`] with any `impl DtwKernel` (zero dynamic
//! dispatch — the fill loop monomorphises per kernel); or through
//! configuration, via the serialisable [`KernelChoice`] selector carried
//! by [`crate::engine::DtwOptions`] and dispatched once per call by
//! [`crate::engine::dtw_run_options`].

use crate::engine::{Normalization, StepPattern};
use crate::simd::{lanes_eval, F64Lanes};
use sdtw_tseries::ElementMetric;
use serde::{Deserialize, Serialize};

/// The cost model of one DTW recurrence: how each parent transition is
/// charged and how the raw accumulated cost becomes the reported
/// distance.
///
/// # Contract
///
/// The engine relies on two properties, both documented per method:
///
/// * **Monotonicity** — every transition cost must be ≥ the parent value
///   (local costs and penalties are non-negative), so a completed row's
///   minimum is a lower bound on any path through it. Early abandoning
///   ([`crate::engine::dtw_run`] with a cutoff) is unsound otherwise.
/// * **Bound compatibility** — [`DtwKernel::lower_bounds_admissible`]
///   must return `true` only when the kernel's accumulated cost dominates
///   the plain symmetric1 accumulation on the same band, which is what
///   `LB_Kim`/`LB_Keogh` actually bound. Retrieval cascades consult this
///   before enabling lower-bound pruning.
/// * **Infinity propagation** — every transition must map a `+∞` parent
///   to `+∞` (any finite additive cost does this for free). Both fill
///   orders represent unreachable/out-of-band parents as `+∞`, and the
///   wavefront engine additionally drops transition arms whose parent
///   cell cannot exist (first row/column) on the strength of
///   `min(x, +∞) == x`; a kernel that collapsed infinities would break
///   the row/wavefront bit-identity the differential harness asserts.
/// * **Lane bit-identity** — the `*_lanes` methods must compute, in every
///   lane, the *bit-identical* result of the corresponding scalar method
///   on that lane's inputs. The defaults guarantee this by delegating
///   per-lane; an override may only reorder *across* lanes (which is what
///   makes it vectorisable), never alter the per-lane op sequence —
///   the lane fill's bit-identity with the scalar oracle
///   ([`crate::reference::wavefront_scalar_values`]) rests on it, and
///   the differential harness asserts it per kernel.
pub trait DtwKernel {
    /// Cost of the origin cell of a warp path (no parent).
    #[inline]
    fn start(&self, local: f64) -> f64 {
        local
    }

    /// Cost of arriving from the cell above (`(i-1, j)`).
    fn up(&self, parent: f64, local: f64) -> f64;

    /// Cost of arriving from the cell to the left (`(i, j-1)`).
    fn left(&self, parent: f64, local: f64) -> f64;

    /// Cost of arriving from the diagonal parent (`(i-1, j-1)`).
    fn diagonal(&self, parent: f64, local: f64) -> f64;

    /// Lanewise local cost: lane `l` must equal `metric.eval(x[l], y[l])`
    /// bitwise. The default delegates per lane; built-in kernels override
    /// with [`lanes_eval`] (same per-lane op sequence, vector shape).
    #[inline]
    fn local_lanes(&self, metric: ElementMetric, x: F64Lanes, y: F64Lanes) -> F64Lanes {
        F64Lanes::from_fn(|l| metric.eval(x.lane(l), y.lane(l)))
    }

    /// Lanewise [`DtwKernel::up`]: lane `l` must equal
    /// `self.up(parent[l], local[l])` bitwise.
    #[inline]
    fn up_lanes(&self, parent: F64Lanes, local: F64Lanes) -> F64Lanes {
        F64Lanes::from_fn(|l| self.up(parent.lane(l), local.lane(l)))
    }

    /// Lanewise [`DtwKernel::left`]: lane `l` must equal
    /// `self.left(parent[l], local[l])` bitwise.
    #[inline]
    fn left_lanes(&self, parent: F64Lanes, local: F64Lanes) -> F64Lanes {
        F64Lanes::from_fn(|l| self.left(parent.lane(l), local.lane(l)))
    }

    /// Lanewise [`DtwKernel::diagonal`]: lane `l` must equal
    /// `self.diagonal(parent[l], local[l])` bitwise.
    #[inline]
    fn diagonal_lanes(&self, parent: F64Lanes, local: F64Lanes) -> F64Lanes {
        F64Lanes::from_fn(|l| self.diagonal(parent.lane(l), local.lane(l)))
    }

    /// Converts a raw accumulated cost into reported-distance units.
    /// Must be monotone non-decreasing in `raw` (early-abandon thresholds
    /// are compared in these units).
    fn normalize(&self, raw: f64, n: usize, m: usize) -> f64;

    /// Whether `LB_Kim`/`LB_Keogh` (computed for the plain symmetric1
    /// accumulation) still lower-bound this kernel's distance. True for
    /// every built-in kernel: symmetric2 and amerced costs dominate the
    /// symmetric1 cost of the same path cell-for-cell.
    fn lower_bounds_admissible(&self) -> bool;

    /// Short human-readable label (experiment output, CLI).
    fn label(&self) -> String;
}

/// The classic DTW recurrence: `up`/`left` pay `d`, the diagonal pays
/// `w·d` with `w` from the [`StepPattern`] (1 for symmetric1, 2 for
/// symmetric2), and the distance is optionally `/(N+M)`-normalised.
///
/// Bit-identical to the pre-trait engine: the arithmetic is the same
/// expressions in the same order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StandardKernel {
    diagonal_weight: f64,
    normalization: Normalization,
}

impl StandardKernel {
    /// Builds the kernel for a step pattern and normalisation.
    pub fn new(step_pattern: StepPattern, normalization: Normalization) -> Self {
        Self {
            diagonal_weight: step_pattern.diagonal_weight(),
            normalization,
        }
    }
}

impl DtwKernel for StandardKernel {
    #[inline(always)]
    fn up(&self, parent: f64, local: f64) -> f64 {
        parent + local
    }

    #[inline(always)]
    fn left(&self, parent: f64, local: f64) -> f64 {
        parent + local
    }

    #[inline(always)]
    fn diagonal(&self, parent: f64, local: f64) -> f64 {
        // symmetric2 charges the diagonal transition 2·d
        parent + self.diagonal_weight * local
    }

    #[inline(always)]
    fn local_lanes(&self, metric: ElementMetric, x: F64Lanes, y: F64Lanes) -> F64Lanes {
        lanes_eval(metric, x, y)
    }

    #[inline(always)]
    fn up_lanes(&self, parent: F64Lanes, local: F64Lanes) -> F64Lanes {
        parent + local
    }

    #[inline(always)]
    fn left_lanes(&self, parent: F64Lanes, local: F64Lanes) -> F64Lanes {
        parent + local
    }

    #[inline(always)]
    fn diagonal_lanes(&self, parent: F64Lanes, local: F64Lanes) -> F64Lanes {
        // same association as the scalar: parent + (w * local)
        parent + F64Lanes::splat(self.diagonal_weight) * local
    }

    #[inline(always)]
    fn normalize(&self, raw: f64, n: usize, m: usize) -> f64 {
        match self.normalization {
            Normalization::None => raw,
            Normalization::LengthSum => raw / (n + m) as f64,
        }
    }

    fn lower_bounds_admissible(&self) -> bool {
        // diagonal_weight >= 1 and up/left pay full d: the accumulated
        // cost dominates the symmetric1 cost the bounds were derived for
        true
    }

    fn label(&self) -> String {
        if self.diagonal_weight == 2.0 {
            "sym2".to_string()
        } else {
            "sym1".to_string()
        }
    }
}

/// ADTW's amerced recurrence: off-diagonal transitions pay the local cost
/// **plus** an additive warp penalty `ω ≥ 0`; the diagonal pays the local
/// cost alone (symmetric1 weighting).
///
/// `D(i,j) = d + min(D(i-1,j-1), D(i-1,j) + ω, D(i,j-1) + ω)`
///
/// The penalty is amortised per warp step, so the distance interpolates
/// smoothly between unconstrained DTW (`ω = 0`) and the rigid diagonal
/// alignment (`ω → ∞`) — a tunable stiffness rather than a hard band.
/// Because `ω ≥ 0`, the amerced cost of any path dominates its symmetric1
/// cost, so the standard lower bounds remain admissible and early
/// abandoning stays sound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmercedKernel {
    penalty: f64,
    normalization: Normalization,
}

impl AmercedKernel {
    /// Builds the kernel with the given warp penalty (finite, ≥ 0).
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite penalty (programmer error —
    /// config-driven paths validate via
    /// [`crate::engine::DtwOptions::validate`] first).
    pub fn new(penalty: f64, normalization: Normalization) -> Self {
        assert!(
            penalty.is_finite() && penalty >= 0.0,
            "amerced penalty must be finite and >= 0, got {penalty}"
        );
        Self {
            penalty,
            normalization,
        }
    }

    /// The additive warp penalty `ω`.
    pub fn penalty(&self) -> f64 {
        self.penalty
    }
}

impl DtwKernel for AmercedKernel {
    #[inline(always)]
    fn up(&self, parent: f64, local: f64) -> f64 {
        parent + local + self.penalty
    }

    #[inline(always)]
    fn left(&self, parent: f64, local: f64) -> f64 {
        parent + local + self.penalty
    }

    #[inline(always)]
    fn diagonal(&self, parent: f64, local: f64) -> f64 {
        parent + local
    }

    #[inline(always)]
    fn local_lanes(&self, metric: ElementMetric, x: F64Lanes, y: F64Lanes) -> F64Lanes {
        lanes_eval(metric, x, y)
    }

    #[inline(always)]
    fn up_lanes(&self, parent: F64Lanes, local: F64Lanes) -> F64Lanes {
        // same association as the scalar: (parent + local) + ω
        parent + local + F64Lanes::splat(self.penalty)
    }

    #[inline(always)]
    fn left_lanes(&self, parent: F64Lanes, local: F64Lanes) -> F64Lanes {
        parent + local + F64Lanes::splat(self.penalty)
    }

    #[inline(always)]
    fn diagonal_lanes(&self, parent: F64Lanes, local: F64Lanes) -> F64Lanes {
        parent + local
    }

    #[inline(always)]
    fn normalize(&self, raw: f64, n: usize, m: usize) -> f64 {
        match self.normalization {
            Normalization::None => raw,
            Normalization::LengthSum => raw / (n + m) as f64,
        }
    }

    fn lower_bounds_admissible(&self) -> bool {
        // ω >= 0: every path's amerced cost >= its symmetric1 cost
        true
    }

    fn label(&self) -> String {
        format!("amerced(w={})", self.penalty)
    }
}

/// Serialisable kernel selector carried by
/// [`crate::engine::DtwOptions`]: the configuration-level counterpart of
/// the [`DtwKernel`] trait. [`crate::engine::dtw_run_options`] dispatches
/// it to a concrete kernel once per call, so the fill loop stays
/// monomorphic.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum KernelChoice {
    /// [`StandardKernel`], parameterised by the options' `step_pattern`
    /// and `normalization` fields.
    #[default]
    Standard,
    /// [`AmercedKernel`] with the given warp penalty (the options'
    /// `step_pattern` is ignored — amercing defines its own weighting —
    /// while `normalization` still applies).
    Amerced {
        /// Additive penalty `ω` per off-diagonal step (finite, ≥ 0).
        penalty: f64,
    },
}

impl KernelChoice {
    /// Short label for experiment output and the CLI.
    pub fn label(&self, step_pattern: StepPattern) -> String {
        match self {
            KernelChoice::Standard => match step_pattern {
                StepPattern::Symmetric1 => "sym1".to_string(),
                StepPattern::Symmetric2 => "sym2".to_string(),
            },
            KernelChoice::Amerced { penalty } => format!("amerced(w={penalty})"),
        }
    }

    /// Whether the standard lower bounds stay admissible under this
    /// kernel (see [`DtwKernel::lower_bounds_admissible`]).
    pub fn lower_bounds_admissible(&self) -> bool {
        match self {
            KernelChoice::Standard => true,
            // admissible precisely because validate() rejects ω < 0
            KernelChoice::Amerced { .. } => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_kernel_matches_the_legacy_expressions() {
        let k1 = StandardKernel::new(StepPattern::Symmetric1, Normalization::None);
        assert_eq!(k1.up(3.0, 2.0), 5.0);
        assert_eq!(k1.left(3.0, 2.0), 5.0);
        assert_eq!(k1.diagonal(3.0, 2.0), 5.0);
        assert_eq!(k1.start(2.0), 2.0);
        let k2 = StandardKernel::new(StepPattern::Symmetric2, Normalization::None);
        assert_eq!(k2.diagonal(3.0, 2.0), 7.0);
        assert_eq!(k2.up(3.0, 2.0), 5.0);
    }

    #[test]
    fn standard_normalization_divides_by_length_sum() {
        let k = StandardKernel::new(StepPattern::Symmetric1, Normalization::LengthSum);
        assert_eq!(k.normalize(10.0, 3, 2), 2.0);
        let raw = StandardKernel::new(StepPattern::Symmetric1, Normalization::None);
        assert_eq!(raw.normalize(10.0, 3, 2), 10.0);
    }

    #[test]
    fn amerced_charges_off_diagonal_steps_only() {
        let k = AmercedKernel::new(0.5, Normalization::None);
        assert_eq!(k.diagonal(3.0, 2.0), 5.0);
        assert_eq!(k.up(3.0, 2.0), 5.5);
        assert_eq!(k.left(3.0, 2.0), 5.5);
        assert_eq!(k.penalty(), 0.5);
        assert!(k.lower_bounds_admissible());
    }

    #[test]
    fn amerced_zero_penalty_equals_symmetric1() {
        let a = AmercedKernel::new(0.0, Normalization::None);
        let s = StandardKernel::new(StepPattern::Symmetric1, Normalization::None);
        for (p, l) in [(0.0, 1.0), (2.5, 0.25), (100.0, 7.0)] {
            assert_eq!(a.up(p, l).to_bits(), s.up(p, l).to_bits());
            assert_eq!(a.left(p, l).to_bits(), s.left(p, l).to_bits());
            assert_eq!(a.diagonal(p, l).to_bits(), s.diagonal(p, l).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn negative_penalty_panics() {
        let _ = AmercedKernel::new(-1.0, Normalization::None);
    }

    #[test]
    fn kernel_choice_labels_and_default() {
        assert_eq!(KernelChoice::default(), KernelChoice::Standard);
        assert_eq!(
            KernelChoice::Standard.label(StepPattern::Symmetric1),
            "sym1"
        );
        assert_eq!(
            KernelChoice::Standard.label(StepPattern::Symmetric2),
            "sym2"
        );
        assert_eq!(
            KernelChoice::Amerced { penalty: 0.25 }.label(StepPattern::Symmetric1),
            "amerced(w=0.25)"
        );
        assert!(KernelChoice::Amerced { penalty: 0.25 }.lower_bounds_admissible());
    }

    #[test]
    fn kernel_choice_roundtrips_through_serde() {
        for k in [
            KernelChoice::Standard,
            KernelChoice::Amerced { penalty: 1.5 },
        ] {
            let json = serde_json::to_string(&k).unwrap();
            let back: KernelChoice = serde_json::from_str(&json).unwrap();
            assert_eq!(k, back);
        }
    }

    #[test]
    fn lane_methods_match_scalar_methods_bitwise() {
        use crate::simd::LANE_WIDTH;
        let parents = F64Lanes::from_fn(|l| 0.37 * l as f64 + 0.1);
        let locals = F64Lanes::from_fn(|l| 1.13 * (LANE_WIDTH - l) as f64);
        let xs = F64Lanes::from_fn(|l| 0.7 * l as f64 - 2.0);
        let ys = F64Lanes::from_fn(|l| -0.3 * l as f64 + 1.0);
        let std2 = StandardKernel::new(StepPattern::Symmetric2, Normalization::None);
        let am = AmercedKernel::new(0.75, Normalization::None);

        fn check<K: DtwKernel>(k: &K, p: F64Lanes, d: F64Lanes, x: F64Lanes, y: F64Lanes) {
            use crate::simd::LANE_WIDTH;
            for metric in [ElementMetric::Squared, ElementMetric::Absolute] {
                let lanes = k.local_lanes(metric, x, y);
                for l in 0..LANE_WIDTH {
                    assert_eq!(
                        lanes.lane(l).to_bits(),
                        metric.eval(x.lane(l), y.lane(l)).to_bits()
                    );
                }
            }
            let (u, le, di) = (k.up_lanes(p, d), k.left_lanes(p, d), k.diagonal_lanes(p, d));
            for l in 0..LANE_WIDTH {
                assert_eq!(u.lane(l).to_bits(), k.up(p.lane(l), d.lane(l)).to_bits());
                assert_eq!(le.lane(l).to_bits(), k.left(p.lane(l), d.lane(l)).to_bits());
                assert_eq!(
                    di.lane(l).to_bits(),
                    k.diagonal(p.lane(l), d.lane(l)).to_bits()
                );
            }
        }
        check(&std2, parents, locals, xs, ys);
        check(&am, parents, locals, xs, ys);

        // a kernel relying on the default (per-lane delegating) impls
        struct Plain;
        impl DtwKernel for Plain {
            fn up(&self, p: f64, d: f64) -> f64 {
                p + 2.0 * d
            }
            fn left(&self, p: f64, d: f64) -> f64 {
                p + d + 0.5
            }
            fn diagonal(&self, p: f64, d: f64) -> f64 {
                p + d
            }
            fn normalize(&self, raw: f64, _: usize, _: usize) -> f64 {
                raw
            }
            fn lower_bounds_admissible(&self) -> bool {
                false
            }
            fn label(&self) -> String {
                "plain".into()
            }
        }
        check(&Plain, parents, locals, xs, ys);
    }

    #[test]
    fn infinities_propagate_through_transitions() {
        // out-of-band parents are +inf; kernels must keep them +inf
        let s = StandardKernel::new(StepPattern::Symmetric2, Normalization::None);
        let a = AmercedKernel::new(3.0, Normalization::None);
        assert_eq!(s.up(f64::INFINITY, 1.0), f64::INFINITY);
        assert_eq!(s.diagonal(f64::INFINITY, 1.0), f64::INFINITY);
        assert_eq!(a.left(f64::INFINITY, 1.0), f64::INFINITY);
    }
}
