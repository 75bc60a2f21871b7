//! # sdtw-align — salient feature matching & inconsistency pruning
//!
//! Step 2 of sDTW (paper §3.2): given the salient features of two series,
//! find *consistent* alignments between them.
//!
//! 1. [`matcher`] — **dominant pair identification** (§3.2.1): for each
//!    feature of the first series, candidate features of the second series
//!    are screened by an amplitude bound `τ_a` and a scale-ratio bound
//!    `τ_s`; the best-descriptor-distance candidate is kept only when it
//!    dominates every other candidate by the ratio `τ_d` (the 1D analogue
//!    of Lowe's ratio test).
//! 2. [`scores`] — each surviving pair gets an **alignment score**
//!    `µ_align` (prefers large features close in time), a **similarity
//!    score** `µ_sim` (prefers similar descriptors and similar scope
//!    amplitudes), and their F-measure combination `µ_comb` (§3.2.2).
//! 3. [`prune`] — **inconsistency pruning**: pairs are committed in
//!    descending `µ_comb` order; a pair is kept only if the ranks of its
//!    scope start/end agree in the boundary lists of both series (ties in
//!    time are the paper's confirmed special case). Surviving boundaries
//!    never cross.
//! 4. [`interval`] — the committed scope boundaries partition both series
//!    into corresponding intervals (Figure 9's A…K), the raw material for
//!    the locally relevant constraints built in the `sdtw` core crate.
//!
//! The scalar dominant-pair search lives on in [`mod@reference`] as the test
//! oracle of the lane-batched production search.
//!
//! # Example
//!
//! ```
//! use sdtw_tseries::{TimeSeries, WarpMap};
//! use sdtw_salient::{SalientConfig, feature::extract_features};
//! use sdtw_align::{MatchConfig, match_features};
//!
//! // two warped copies of the same two-bump pattern
//! let proto = TimeSeries::new((0..200).map(|i| {
//!     let a = (i as f64 - 50.0) / 7.0;
//!     let b = (i as f64 - 140.0) / 12.0;
//!     (-a * a / 2.0).exp() + 0.7 * (-b * b / 2.0).exp()
//! }).collect()).unwrap();
//! let warp = WarpMap::from_anchors(&[(0.5, 0.4)]).unwrap();
//! let x = proto.clone();
//! let y = warp.apply(&proto, 220).unwrap();
//!
//! let cfg = SalientConfig::default();
//! let fx = extract_features(&x, &cfg).unwrap();
//! let fy = extract_features(&y, &cfg).unwrap();
//! let result = match_features(&fx, &fy, x.len(), y.len(), &MatchConfig::default());
//! assert!(!result.consistent_pairs.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod interval;
pub mod matcher;
pub mod prune;
pub mod reference;
pub mod scores;

pub use config::MatchConfig;
pub use interval::IntervalPartition;
pub use matcher::{match_features, MatchResult, MatchedPair};
