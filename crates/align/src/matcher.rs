//! Dominant pair identification (paper §3.2.1) and the top-level matching
//! entry point.
//!
//! The dominant-pair search compares the descriptors of every screened
//! feature pair — the `|S_X| × |S_Y|` term of the paper's complexity
//! analysis (§3.4) and the hot loop of adaptive band planning. It runs
//! lane-batched: the first series' features are sorted by σ into blocks
//! of [`LANE_WIDTH`], each block's descriptors are transposed to
//! dimension-major order, and every feature of the second series is
//! compared against a whole block in one [`F64Lanes`] pass, abandoned as
//! soon as no lane can still change its outcome. DESIGN.md §17 proves the
//! abandonment exact and every completed distance bit-identical to
//! `euclidean`; the scalar search is kept as the test oracle
//! [`crate::reference::match_features_scalar`].

use crate::config::MatchConfig;
use crate::interval::IntervalPartition;
use crate::prune::prune_inconsistent;
use crate::scores::{combined_scores, descriptor_similarity, mu_align, mu_sim};
use sdtw_dtw::simd::{F64Lanes, LaneMask, LANE_WIDTH};
use sdtw_salient::SalientFeature;
use serde::{Deserialize, Serialize};

/// A matched pair of salient features (indices into the two feature
/// slices) plus its scores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchedPair {
    /// Index of the feature in the first series' feature slice.
    pub idx1: usize,
    /// Index of the feature in the second series' feature slice.
    pub idx2: usize,
    /// Euclidean distance between the descriptors.
    pub desc_distance: f64,
    /// Combined score `µ_comb` (filled by the scoring pass).
    pub combined_score: f64,
    /// Scope `[start, end]` of the first feature (samples of series 1).
    pub scope1: (usize, usize),
    /// Scope `[start, end]` of the second feature (samples of series 2).
    pub scope2: (usize, usize),
}

impl MatchedPair {
    /// An unscored pair of `feats1[idx1]` and `feats2[idx2]`.
    pub(crate) fn unscored(
        idx1: usize,
        idx2: usize,
        desc_distance: f64,
        feats1: &[SalientFeature],
        feats2: &[SalientFeature],
    ) -> Self {
        Self {
            idx1,
            idx2,
            desc_distance,
            combined_score: 0.0,
            scope1: (feats1[idx1].scope_start, feats1[idx1].scope_end),
            scope2: (feats2[idx2].scope_start, feats2[idx2].scope_end),
        }
    }
}

/// Full output of feature matching.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchResult {
    /// Pairs surviving the dominance test, before inconsistency pruning —
    /// the state of the paper's Figure 7(a).
    pub raw_pairs: Vec<MatchedPair>,
    /// Pairs surviving inconsistency pruning — Figure 7(c).
    pub consistent_pairs: Vec<MatchedPair>,
    /// The interval partition induced by the committed scope boundaries —
    /// Figure 9.
    pub partition: IntervalPartition,
    /// Number of feature pairs that passed the `τ_a`/`τ_s` screens — the
    /// `|S_X| × |S_Y|` work term of the paper's complexity analysis
    /// (§3.4). It counts screen-passing pairs, not completed distances:
    /// the search abandons most descriptor comparisons part-way once they
    /// cannot change the outcome (DESIGN.md §17).
    pub descriptor_comparisons: usize,
}

/// The nearest and second-nearest screened candidates of one feature of
/// the first series, offered in ascending `j` order.
#[derive(Debug, Clone, Copy)]
struct Nearest {
    best: Option<(usize, f64)>,
    second: f64,
}

impl Nearest {
    const EMPTY: Nearest = Nearest {
        best: None,
        second: f64::INFINITY,
    };

    /// Offers candidate `j` at descriptor distance `d`; of equal
    /// distances the first offered stays best.
    fn offer(&mut self, j: usize, d: f64) {
        match self.best {
            None => self.best = Some((j, d)),
            Some((_, bd)) if d < bd => {
                self.second = bd;
                self.best = Some((j, d));
            }
            _ => self.second = self.second.min(d),
        }
    }

    /// The largest distance a candidate can have and still change the
    /// emitted pair: above the second-best it moves neither the best nor
    /// the second-best, above `cap = max_desc_distance · τ_d` it cannot
    /// change what [`Nearest::dominant`] returns (DESIGN.md §17).
    fn limit(&self, cap: f64) -> f64 {
        self.second.min(cap)
    }

    /// The best candidate when it passes the absolute "small distance"
    /// ceiling and `τ_d`-dominates every other candidate (vacuously true
    /// with no second).
    fn dominant(&self, cfg: &MatchConfig) -> Option<(usize, f64)> {
        let (j, d) = self.best?;
        let small_enough = cfg.max_desc_distance.is_none_or(|max| d <= max);
        (small_enough && d * cfg.tau_d <= self.second).then_some((j, d))
    }
}

/// Up to [`LANE_WIDTH`] features of the first series: their screen
/// inputs as lanes and their descriptors transposed to dimension-major
/// order.
struct LaneBlock<'a> {
    /// `cols[k * LANE_WIDTH + l]` is dimension `k` of lane `l` (zero in
    /// the padding lanes of a short block).
    cols: &'a [f64],
    /// Descriptor length.
    width: usize,
    /// The lanes that hold a feature.
    real: LaneMask,
    sigma: F64Lanes,
    amplitude: F64Lanes,
}

impl<'a> LaneBlock<'a> {
    /// Gathers `feats1[i]` for `i` in `feats` into lanes, transposing the
    /// descriptors into `cols`.
    fn transpose(feats: &[usize], feats1: &[SalientFeature], cols: &'a mut Vec<f64>) -> Self {
        debug_assert!(feats.len() <= LANE_WIDTH);
        let feat = |l: usize| feats.get(l).map(|&i| &feats1[i]);
        let width = feats
            .iter()
            .map(|&i| feats1[i].descriptor.len())
            .max()
            .unwrap_or(0);
        cols.clear();
        cols.resize(width * LANE_WIDTH, 0.0);
        for (l, &i) in feats.iter().enumerate() {
            for (k, &x) in feats1[i].descriptor.iter().enumerate() {
                cols[k * LANE_WIDTH + l] = x;
            }
        }
        Self {
            cols,
            width,
            real: LaneMask::from_fn(|l| l < feats.len()),
            sigma: F64Lanes::from_fn(|l| feat(l).map_or(1.0, |f| f.keypoint.sigma)),
            amplitude: F64Lanes::from_fn(|l| feat(l).map_or(0.0, |f| f.amplitude)),
        }
    }

    /// The lanes whose pair with `f2` passes the `τ_a` / `τ_s` screens —
    /// the scalar tests of [`crate::reference`] lane by lane, on the same
    /// operands in the same order.
    fn screen(&self, f2: &SalientFeature, cfg: &MatchConfig) -> LaneMask {
        let amplitude_fails = cfg.tau_a.map(|tau_a| {
            let gap = (self.amplitude - F64Lanes::splat(f2.amplitude)).abs();
            LaneMask::from_fn(|l| gap.lane(l) >= tau_a)
        });
        let scale_fails = cfg.tau_s.map(|tau_s| {
            let (a, b) = (self.sigma, F64Lanes::splat(f2.keypoint.sigma));
            // `if a > b { a / b } else { b / a }`, one division per lane
            let wider = a.gt(b);
            let ratio = F64Lanes::select(wider, a, b) / F64Lanes::select(wider, b, a);
            LaneMask::from_fn(|l| ratio.lane(l) >= tau_s)
        });
        let fails = |mask: Option<LaneMask>, l: usize| mask.is_some_and(|m| m.lane(l));
        LaneMask::from_fn(|l| {
            self.real.lane(l) && !fails(amplitude_fails, l) && !fails(scale_fails, l)
        })
    }

    /// Offers every screened feature of the second series, in `j` order,
    /// to the block's lanes and returns their nearest candidates; adds the
    /// screen-passing pairs to `comparisons`.
    fn scan(
        &self,
        feats2: &[SalientFeature],
        cfg: &MatchConfig,
        cap: f64,
        comparisons: &mut usize,
    ) -> [Nearest; LANE_WIDTH] {
        let mut nearest = [Nearest::EMPTY; LANE_WIDTH];
        for (j, f2) in feats2.iter().enumerate() {
            let live = self.screen(f2, cfg);
            let live_count = (0..LANE_WIDTH).filter(|&l| live.lane(l)).count();
            if live_count == 0 {
                continue;
            }
            *comparisons += live_count;
            // a dead lane's limit of −∞ never holds the block back
            let limit = F64Lanes::from_fn(|l| {
                if live.lane(l) {
                    nearest[l].limit(cap)
                } else {
                    f64::NEG_INFINITY
                }
            });
            let Some(sums) = self.squared_sums(&f2.descriptor, limit) else {
                continue;
            };
            let dist = sums.sqrt();
            for (l, lane) in nearest.iter_mut().enumerate() {
                let d = dist.lane(l);
                if !live.lane(l) || d > limit.lane(l) {
                    continue;
                }
                lane.offer(j, d);
            }
        }
        nearest
    }

    /// Every lane's squared descriptor distance to `y`, summed dimension
    /// by dimension in the order of `euclidean`, or `None` once every
    /// lane's distance provably exceeds its `limit`.
    fn squared_sums(&self, y: &[f64], limit: F64Lanes) -> Option<F64Lanes> {
        let dims = self.width.min(y.len());
        // the sign-preserving square keeps the dead lanes at −∞
        let limit_sq = limit * limit.abs();
        // `Iterator::sum` folds from this zero; starting there keeps an
        // empty descriptor's distance the same zero bits
        let mut acc = F64Lanes::splat(std::iter::empty::<f64>().sum());
        let mut k = 0;
        while k < dims {
            let end = (k + LANE_WIDTH).min(dims);
            let cols = self.cols[k * LANE_WIDTH..end * LANE_WIDTH].chunks_exact(LANE_WIDTH);
            for (col, &yk) in cols.zip(&y[k..end]) {
                let t = F64Lanes::load(col) - F64Lanes::splat(yk);
                acc = acc + t * t;
            }
            k = end;
            // partial sums of squares never decrease and `sqrt` is
            // monotone, so a lane whose partial root already exceeds its
            // limit ends above it; the squared test only spares the roots
            if k < dims && acc.gt(limit_sq).all() && acc.sqrt().gt(limit).all() {
                return None;
            }
        }
        Some(acc)
    }
}

/// Dominant-pair search: for each feature of series 1, the nearest
/// (descriptor-Euclidean) screened candidate of series 2 is returned iff it
/// `τ_d`-dominates every other screened candidate.
fn dominant_pairs(
    feats1: &[SalientFeature],
    feats2: &[SalientFeature],
    cfg: &MatchConfig,
) -> (Vec<MatchedPair>, usize) {
    debug_assert!(
        {
            let mut lens = feats1.iter().chain(feats2).map(|f| f.descriptor.len());
            let first = lens.next();
            lens.all(|len| Some(len) == first)
        },
        "descriptors of one match share one length (the `euclidean` contract)"
    );
    // `validate` guarantees τ_d ≥ 1, which makes this cap sound
    let cap = cfg
        .max_desc_distance
        .map_or(f64::INFINITY, |max| max * cfg.tau_d);
    // σ-sorted blocks rarely have the τ_s screen split them
    let mut order: Vec<usize> = (0..feats1.len()).collect();
    order.sort_by(|&a, &b| {
        feats1[a]
            .keypoint
            .sigma
            .total_cmp(&feats1[b].keypoint.sigma)
    });
    let mut nearest = vec![Nearest::EMPTY; feats1.len()];
    let mut comparisons = 0usize;
    let mut cols = Vec::new();
    for feats in order.chunks(LANE_WIDTH) {
        let block = LaneBlock::transpose(feats, feats1, &mut cols);
        let lanes = block.scan(feats2, cfg, cap, &mut comparisons);
        for (&i, lane) in feats.iter().zip(lanes) {
            nearest[i] = lane;
        }
    }
    let pairs = nearest
        .iter()
        .enumerate()
        .filter_map(|(i, lane)| {
            let (j, d) = lane.dominant(cfg)?;
            Some(MatchedPair::unscored(i, j, d, feats1, feats2))
        })
        .collect();
    (pairs, comparisons)
}

/// Scores raw pairs in place (fills `combined_score`). The descriptor
/// similarity comes from each pair's stored `desc_distance`, the very
/// `euclidean` value a recomputation would give.
fn score_pairs(pairs: &mut [MatchedPair], feats1: &[SalientFeature], feats2: &[SalientFeature]) {
    if pairs.is_empty() {
        return;
    }
    let mu_desc: Vec<f64> = pairs
        .iter()
        .map(|p| descriptor_similarity(p.desc_distance))
        .collect();
    // µ_desc,min over the matched pairs
    let mu_desc_min = mu_desc.iter().copied().fold(f64::INFINITY, f64::min);
    let raw: Vec<(f64, f64)> = pairs
        .iter()
        .zip(&mu_desc)
        .map(|(p, &mu)| {
            let f1 = &feats1[p.idx1];
            let f2 = &feats2[p.idx2];
            (mu_align(f1, f2), mu_sim(f1, f2, mu, mu_desc_min))
        })
        .collect();
    for (pair, score) in pairs.iter_mut().zip(combined_scores(&raw)) {
        pair.combined_score = score;
    }
}

/// Scoring → inconsistency pruning → interval partition over the raw
/// dominant pairs: the tail of [`match_features`] after the search.
pub(crate) fn finish_match(
    mut raw_pairs: Vec<MatchedPair>,
    descriptor_comparisons: usize,
    feats1: &[SalientFeature],
    feats2: &[SalientFeature],
    n: usize,
    m: usize,
) -> MatchResult {
    score_pairs(&mut raw_pairs, feats1, feats2);
    let consistent_pairs = prune_inconsistent(&raw_pairs);
    let partition = IntervalPartition::from_pairs(&consistent_pairs, n, m);
    MatchResult {
        raw_pairs,
        consistent_pairs,
        partition,
        descriptor_comparisons,
    }
}

/// The complete matching pipeline of paper §3.2: dominant pairs → scoring →
/// inconsistency pruning → interval partition. `n` and `m` are the lengths
/// of the two series (needed to close the partition at the series ends).
pub fn match_features(
    feats1: &[SalientFeature],
    feats2: &[SalientFeature],
    n: usize,
    m: usize,
    cfg: &MatchConfig,
) -> MatchResult {
    let (raw_pairs, descriptor_comparisons) = dominant_pairs(feats1, feats2, cfg);
    finish_match(raw_pairs, descriptor_comparisons, feats1, feats2, n, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdtw_salient::{Keypoint, Polarity};

    fn feat(position: usize, sigma: f64, amplitude: f64, descriptor: Vec<f64>) -> SalientFeature {
        let scope = (3.0 * sigma) as usize;
        SalientFeature {
            keypoint: Keypoint {
                position,
                octave_position: position,
                octave: 0,
                level: 1,
                sigma,
                response: 0.5,
                polarity: Polarity::Peak,
            },
            scope_start: position.saturating_sub(scope),
            scope_end: position + scope,
            scope_len: 6.0 * sigma + 1.0,
            amplitude,
            descriptor,
        }
    }

    #[test]
    fn matches_identical_features() {
        let f1 = vec![feat(10, 2.0, 1.0, vec![1.0, 0.0, 0.0])];
        let f2 = vec![feat(12, 2.0, 1.0, vec![1.0, 0.0, 0.0])];
        let r = match_features(&f1, &f2, 100, 100, &MatchConfig::default());
        assert_eq!(r.raw_pairs.len(), 1);
        assert_eq!(r.raw_pairs[0].idx1, 0);
        assert_eq!(r.raw_pairs[0].idx2, 0);
        assert_eq!(r.raw_pairs[0].desc_distance, 0.0);
        assert_eq!(r.descriptor_comparisons, 1);
    }

    #[test]
    fn dominance_test_rejects_ambiguous_matches() {
        let f1 = vec![feat(10, 2.0, 1.0, vec![1.0, 0.0])];
        // two nearly identical candidates: neither dominates
        let f2 = vec![
            feat(10, 2.0, 1.0, vec![0.95, 0.0]),
            feat(60, 2.0, 1.0, vec![0.94, 0.0]),
        ];
        let cfg = MatchConfig {
            tau_d: 1.5,
            ..Default::default()
        };
        let r = match_features(&f1, &f2, 100, 100, &cfg);
        assert!(r.raw_pairs.is_empty(), "ambiguous match must be dropped");
        // a clearly distinct second candidate lets the best one through
        let f2b = vec![
            feat(10, 2.0, 1.0, vec![1.0, 0.0]),
            feat(60, 2.0, 1.0, vec![0.0, 5.0]),
        ];
        let r = match_features(&f1, &f2b, 100, 100, &cfg);
        assert_eq!(r.raw_pairs.len(), 1);
        assert_eq!(r.raw_pairs[0].idx2, 0);
    }

    #[test]
    fn amplitude_screen_applies_when_enabled() {
        let f1 = vec![feat(10, 2.0, 1.0, vec![1.0])];
        let f2 = vec![feat(10, 2.0, 5.0, vec![1.0])];
        let off = MatchConfig {
            tau_a: None,
            ..Default::default()
        };
        assert_eq!(match_features(&f1, &f2, 50, 50, &off).raw_pairs.len(), 1);
        let on = MatchConfig {
            tau_a: Some(1.0),
            ..Default::default()
        };
        assert!(match_features(&f1, &f2, 50, 50, &on).raw_pairs.is_empty());
    }

    #[test]
    fn scale_screen_applies_when_enabled() {
        let f1 = vec![feat(10, 1.0, 1.0, vec![1.0])];
        let f2 = vec![feat(10, 8.0, 1.0, vec![1.0])];
        let on = MatchConfig {
            tau_s: Some(4.0),
            ..Default::default()
        };
        assert!(match_features(&f1, &f2, 80, 80, &on).raw_pairs.is_empty());
        let off = MatchConfig {
            tau_s: None,
            ..Default::default()
        };
        assert_eq!(match_features(&f1, &f2, 80, 80, &off).raw_pairs.len(), 1);
    }

    #[test]
    fn scores_are_filled_and_bounded() {
        let f1 = vec![
            feat(10, 2.0, 1.0, vec![1.0, 0.0]),
            feat(50, 3.0, 0.5, vec![0.0, 1.0]),
        ];
        let f2 = vec![
            feat(11, 2.0, 1.0, vec![1.0, 0.0]),
            feat(55, 3.0, 0.5, vec![0.0, 1.0]),
        ];
        let r = match_features(&f1, &f2, 100, 100, &MatchConfig::default());
        assert_eq!(r.raw_pairs.len(), 2);
        for p in &r.raw_pairs {
            assert!((0.0..=1.0).contains(&p.combined_score));
        }
        // the perfectly aligned identical pair scores at least as high
        let p0 = r.raw_pairs.iter().find(|p| p.idx1 == 0).unwrap();
        assert!(p0.combined_score > 0.5);
    }

    #[test]
    fn empty_feature_sets_produce_empty_result() {
        let r = match_features(&[], &[], 10, 10, &MatchConfig::default());
        assert!(r.raw_pairs.is_empty());
        assert!(r.consistent_pairs.is_empty());
        assert_eq!(r.descriptor_comparisons, 0);
        assert_eq!(r.partition.interval_count(), 1); // whole-series interval
    }

    #[test]
    fn comparison_counter_counts_screened_pairs_only() {
        let f1 = vec![feat(10, 1.0, 1.0, vec![1.0]), feat(20, 1.0, 9.0, vec![1.0])];
        let f2 = vec![feat(10, 1.0, 1.0, vec![1.0]), feat(20, 1.0, 9.0, vec![1.0])];
        let cfg = MatchConfig {
            tau_a: Some(0.5),
            ..Default::default()
        };
        let r = match_features(&f1, &f2, 50, 50, &cfg);
        // only amplitude-compatible combinations are compared: (0,0), (1,1)
        assert_eq!(r.descriptor_comparisons, 2);
    }

    #[test]
    fn crossing_matches_are_pruned() {
        // two features in each series, matched crosswise: distinct
        // descriptors force idx1=0 -> idx2=1 (far in time) and vice versa.
        let f1 = vec![
            feat(10, 2.0, 1.0, vec![1.0, 0.0]),
            feat(80, 2.0, 1.0, vec![0.0, 1.0]),
        ];
        let f2 = vec![
            feat(10, 2.0, 1.0, vec![0.0, 1.0]),
            feat(80, 2.0, 1.0, vec![1.0, 0.0]),
        ];
        let r = match_features(&f1, &f2, 100, 100, &MatchConfig::default());
        assert_eq!(r.raw_pairs.len(), 2, "both cross matches found");
        // inconsistency pruning must drop one of the crossing pairs
        assert_eq!(r.consistent_pairs.len(), 1);
    }
}
