//! # sdtw-dtw — DTW engine substrate
//!
//! The dynamic-time-warping machinery everything else drives (paper §2.1).
//! Design pivot: **every** grid-pruning policy — the full grid, the classic
//! Sakoe-Chiba band (*fixed core & fixed width*), the Itakura parallelogram,
//! and all of sDTW's locally relevant constraints — compiles down to a
//! [`band::Band`]: one allowed column interval per row of the `N × M` grid.
//! A single banded dynamic-programming kernel ([`engine`]) executes any
//! band, so accuracy/cost comparisons across policies measure the
//! constraint, never the implementation.
//!
//! Modules:
//!
//! * [`band`] — the band type, area accounting, union (for the symmetric
//!   variant of sDTW), and the **sanitiser** that makes an arbitrary raw
//!   band feasible for the DP recurrence (bridging the gaps the paper
//!   describes in §3.3.2) while only ever *adding* cells;
//! * [`engine`] — banded DP fill (`O(band area)` time and memory) and warp
//!   path traceback;
//! * [`path`] — warp-path representation and validity checking (the
//!   §2.1.1 conditions);
//! * [`sakoe`] — Sakoe-Chiba fixed core & fixed width bands;
//! * [`itakura`] — Itakura parallelogram (slope-constrained) bands;
//! * [`lower_bound`] — the LB_Kim constant-time bound (endpoint/extremum
//!   summaries) and the LB_Keogh envelope bound (extensions; they power
//!   the `sdtw-index` retrieval cascade and the pruning ablations);
//! * [`cascade`] — the composable pruning pipeline built from those
//!   bounds: the [`cascade::PruneStage`] abstraction, the
//!   [`cascade::Cascade`] runner, the coarse PAA pre-filter
//!   ([`cascade::CoarseEnvelope`]) and the shared per-stage
//!   [`cascade::CascadeStats`] accounting that `sdtw-index` (per corpus
//!   candidate) and `sdtw-stream` (per window) both execute;
//! * [`kernel`] — the [`kernel::DtwKernel`] trait (cost accumulation,
//!   step weighting, normalisation) with the standard and amerced (ADTW)
//!   kernels, plus the serialisable [`kernel::KernelChoice`] selector;
//! * [`multires`] — coarse-to-fine (FastDTW-style) corridor DTW, the
//!   reduced-representation family the paper calls orthogonal to sDTW;
//! * [`simd`] — the portable explicit-SIMD lane layer: the aligned
//!   [`simd::F64Lanes`] vector type the wavefront fill, the batched
//!   window fill and the batched bounds sweep with;
//! * [`mod@reference`] — test oracles only: the all-scalar wavefront sweep
//!   the lane fill is checked against bit for bit (kept out of the
//!   re-exports below).
//!
//! The execution surface is the unified [`engine::dtw_run`] /
//! [`engine::dtw_run_options`] pair; the input alone picks the fill (the
//! row fill when a warp path is traced, the lane wavefront otherwise).
//! (The former `search` module's pruned 1-NN scan was superseded by the
//! `sdtw-index` cascade and has been removed;
//! `sdtw_eval::compute_query_matrix` is the brute-force oracle the test
//! suites compare against.)
//!
//! # Example
//!
//! ```
//! use sdtw_tseries::TimeSeries;
//! use sdtw_dtw::engine::{dtw_full, dtw_run_options, DtwOptions, DtwScratch};
//! use sdtw_dtw::sakoe::sakoe_chiba_band;
//!
//! let x = TimeSeries::new(vec![0.0, 1.0, 2.0, 1.0, 0.0]).unwrap();
//! let y = TimeSeries::new(vec![0.0, 0.0, 1.0, 2.0, 1.0, 0.0]).unwrap();
//! let full = dtw_full(&x, &y, &DtwOptions::default());
//! let band = sakoe_chiba_band(x.len(), y.len(), 0.5);
//! let mut scratch = DtwScratch::new();
//! let banded = dtw_run_options(&x, &y, &band, &DtwOptions::default(), None, &mut scratch)
//!     .expect("no cutoff configured");
//! assert!(banded.distance >= full.distance); // constrained search can only do worse
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod band;
pub mod cascade;
pub mod engine;
pub mod itakura;
pub mod kernel;
pub mod lower_bound;
pub mod multires;
pub mod path;
pub mod reference;
pub mod sakoe;
pub mod simd;

pub use band::Band;
pub use cascade::{
    Cascade, CascadeScratch, CascadeStats, CoarseEnvelope, PruneStage, SampleInput, StageKind,
};
pub use engine::{
    dtw_full, dtw_run, dtw_run_options, dtw_run_options_values, dtw_run_values, DtwOptions,
    DtwResult, DtwScratch, Normalization, StepPattern,
};
pub use kernel::{AmercedKernel, DtwKernel, KernelChoice, StandardKernel};
pub use lower_bound::{
    lb_keogh, lb_keogh_batch, lb_keogh_batch_windows, lb_keogh_values, lb_kim, lb_kim_batch,
    Envelope, SeriesSummary, LB_LANES,
};
pub use multires::{dtw_multires, dtw_multires_with_scratch, MultiresScratch};
pub use path::WarpPath;
pub use simd::{F64Lanes, LaneMask, LANE_WIDTH};
