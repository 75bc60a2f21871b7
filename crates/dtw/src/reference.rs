//! Test oracles: reference implementations that no production path
//! calls.
//!
//! Production single-pair fills run through [`crate::engine::dtw_run`]
//! and its siblings, whose wavefront sweeps the interior of each
//! anti-diagonal in [`crate::simd::F64Lanes`] vectors. The oracle here is
//! the same sweep with every cell evaluated one at a time — the scalar
//! expression each lane must reproduce bit for bit. Differential tests
//! and the lane benchmark compare against it. It is kept out of the
//! crate-root re-exports and the prelude on purpose.

use crate::band::Band;
use crate::engine::{feasible_band, wavefront_run, DtwOptions, DtwResult, DtwScratch};
use crate::kernel::{AmercedKernel, KernelChoice, StandardKernel};

/// The wavefront fill of [`crate::engine::dtw_run_options_values`] with
/// the lane sweep switched off: every cell runs the scalar per-cell
/// expression. Band sanitising, cutoff semantics and `cells_filled`
/// follow the production contract; no warp path is ever traced
/// (`opts.compute_path` is ignored). Oracle-only — never call it outside
/// tests and benchmarks.
///
/// # Panics
///
/// Panics on dimension mismatch, an empty slice, or an invalid amerced
/// penalty (programmer errors).
pub fn wavefront_scalar_values(
    xv: &[f64],
    yv: &[f64],
    band: &Band,
    opts: &DtwOptions,
    cutoff: Option<f64>,
    scratch: &mut DtwScratch,
) -> Option<DtwResult> {
    let band = feasible_band(xv, yv, band);
    match opts.kernel {
        KernelChoice::Standard => wavefront_run::<_, false>(
            xv,
            yv,
            &band,
            opts.metric,
            &StandardKernel::new(opts.step_pattern, opts.normalization),
            cutoff,
            scratch,
        ),
        KernelChoice::Amerced { penalty } => wavefront_run::<_, false>(
            xv,
            yv,
            &band,
            opts.metric,
            &AmercedKernel::new(penalty, opts.normalization),
            cutoff,
            scratch,
        ),
    }
}
