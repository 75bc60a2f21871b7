//! Pair scoring: `µ_align`, `µ_sim`, `µ_comb` (paper §3.2.2, step 1).

use sdtw_salient::SalientFeature;

/// Alignment score: prefers pairs of *large* features whose centres sit
/// *close* in time —
/// `µ_align = ((scope(f_i) + scope(f_j)) / 2) / (1 + |center(f_i) − center(f_j)|)`.
pub fn mu_align(fi: &SalientFeature, fj: &SalientFeature) -> f64 {
    let scopes = (fi.scope_len + fj.scope_len) / 2.0;
    scopes / (1.0 + (fi.center() - fj.center()).abs())
}

/// Descriptor similarity of a pair whose descriptors lie `desc_distance`
/// apart: the paper speaks of a descriptor "matching score"; we define it
/// as `1 / (1 + ‖d_i − d_j‖₂)` so that *higher is more similar* and the
/// score is bounded in `(0, 1]` (see DESIGN.md §5).
pub fn descriptor_similarity(desc_distance: f64) -> f64 {
    1.0 / (1.0 + desc_distance)
}

/// Percentage amplitude difference of the two features' scope means,
/// clamped to `[0, 1]`:
/// `Δ_amp = |a_i − a_j| / max(|a_i|, |a_j|)` (0 when both are ~zero).
pub fn delta_amp(fi: &SalientFeature, fj: &SalientFeature) -> f64 {
    let denom = fi.amplitude.abs().max(fj.amplitude.abs());
    if denom < 1e-12 {
        return 0.0;
    }
    ((fi.amplitude - fj.amplitude).abs() / denom).min(1.0)
}

/// Similarity score of a pair with descriptor similarity `mu_desc`, given
/// the minimum descriptor similarity among all matched pairs:
/// `µ_sim = (µ_desc / µ_desc,min) × (1 − Δ_amp)`.
pub fn mu_sim(fi: &SalientFeature, fj: &SalientFeature, mu_desc: f64, mu_desc_min: f64) -> f64 {
    let denom = if mu_desc_min > 0.0 { mu_desc_min } else { 1.0 };
    (mu_desc / denom) * (1.0 - delta_amp(fi, fj))
}

/// F-measure combination of two already-normalised scores (both in
/// `[0, 1]`): `2ab / (a + b)`, 0 when both are 0 — "requires both alignment
/// and similarity scores to be high for a high combined score".
pub fn f_measure(a: f64, b: f64) -> f64 {
    if a + b <= 0.0 {
        0.0
    } else {
        2.0 * a * b / (a + b)
    }
}

/// Computes `µ_comb` for every pair: raw `µ_align`/`µ_sim` are first
/// normalised by their maxima over the pair set (the paper's `ns` scores),
/// then combined with the F-measure. Returns one score per input pair.
pub fn combined_scores(pairs: &[(f64, f64)]) -> Vec<f64> {
    let max_a = pairs.iter().map(|p| p.0).fold(0.0f64, f64::max);
    let max_s = pairs.iter().map(|p| p.1).fold(0.0f64, f64::max);
    pairs
        .iter()
        .map(|&(a, s)| {
            let na = if max_a > 0.0 { a / max_a } else { 0.0 };
            let ns = if max_s > 0.0 { s / max_s } else { 0.0 };
            f_measure(na, ns)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdtw_salient::{Keypoint, Polarity};
    use sdtw_tseries::metric::euclidean;

    fn feat(
        position: usize,
        scope_len: f64,
        amplitude: f64,
        descriptor: Vec<f64>,
    ) -> SalientFeature {
        SalientFeature {
            keypoint: Keypoint {
                position,
                octave_position: position,
                octave: 0,
                level: 1,
                sigma: scope_len / 6.0,
                response: 0.5,
                polarity: Polarity::Peak,
            },
            scope_start: position.saturating_sub(scope_len as usize / 2),
            scope_end: position + scope_len as usize / 2,
            scope_len,
            amplitude,
            descriptor,
        }
    }

    #[test]
    fn mu_align_prefers_close_large_pairs() {
        let big_close_a = feat(100, 20.0, 1.0, vec![1.0]);
        let big_close_b = feat(102, 20.0, 1.0, vec![1.0]);
        let small_far_a = feat(100, 4.0, 1.0, vec![1.0]);
        let small_far_b = feat(160, 4.0, 1.0, vec![1.0]);
        assert!(mu_align(&big_close_a, &big_close_b) > mu_align(&small_far_a, &small_far_b));
    }

    #[test]
    fn mu_align_exact_value() {
        let a = feat(10, 8.0, 1.0, vec![1.0]);
        let b = feat(14, 12.0, 1.0, vec![1.0]);
        // ((8+12)/2) / (1 + 4) = 10 / 5 = 2
        assert!((mu_align(&a, &b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn descriptor_similarity_bounds() {
        let a = feat(0, 6.0, 1.0, vec![1.0, 0.0]);
        let same = feat(0, 6.0, 1.0, vec![1.0, 0.0]);
        let far = feat(0, 6.0, 1.0, vec![0.0, 9.0]);
        let sim =
            |f: &SalientFeature| descriptor_similarity(euclidean(&a.descriptor, &f.descriptor));
        assert_eq!(sim(&same), 1.0);
        let s = sim(&far);
        assert!(s > 0.0 && s < 0.2);
    }

    #[test]
    fn delta_amp_behaviour() {
        let a = feat(0, 6.0, 1.0, vec![1.0]);
        let b = feat(0, 6.0, 1.0, vec![1.0]);
        assert_eq!(delta_amp(&a, &b), 0.0);
        let c = feat(0, 6.0, 2.0, vec![1.0]);
        assert!((delta_amp(&a, &c) - 0.5).abs() < 1e-12);
        let z1 = feat(0, 6.0, 0.0, vec![1.0]);
        let z2 = feat(0, 6.0, 0.0, vec![1.0]);
        assert_eq!(delta_amp(&z1, &z2), 0.0);
        // opposite signs saturate at 1
        let n = feat(0, 6.0, -3.0, vec![1.0]);
        assert_eq!(delta_amp(&c, &n), 1.0);
    }

    #[test]
    fn mu_sim_scales_by_minimum_and_amp() {
        let a = feat(0, 6.0, 1.0, vec![1.0, 0.0]);
        let b = feat(0, 6.0, 1.0, vec![1.0, 0.0]);
        // identical descriptors, identical amplitude, min = own similarity
        assert!((mu_sim(&a, &b, 1.0, 1.0) - 1.0).abs() < 1e-12);
        // halved amplitude ratio halves the score
        let c = feat(0, 6.0, 2.0, vec![1.0, 0.0]);
        assert!((mu_sim(&a, &c, 1.0, 1.0) - 0.5).abs() < 1e-12);
        // degenerate min falls back to 1.0 divisor
        assert!(mu_sim(&a, &b, 1.0, 0.0).is_finite());
    }

    #[test]
    fn f_measure_requires_both_high() {
        assert_eq!(f_measure(0.0, 1.0), 0.0);
        assert_eq!(f_measure(1.0, 1.0), 1.0);
        assert!((f_measure(0.5, 1.0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(f_measure(0.0, 0.0), 0.0);
    }

    #[test]
    fn combined_scores_normalise_by_max() {
        let scores = combined_scores(&[(2.0, 4.0), (1.0, 4.0), (2.0, 2.0)]);
        // pair 0: (1.0, 1.0) -> 1.0
        assert!((scores[0] - 1.0).abs() < 1e-12);
        // pair 1: (0.5, 1.0) -> 2/3
        assert!((scores[1] - 2.0 / 3.0).abs() < 1e-12);
        // pair 2: (1.0, 0.5) -> 2/3
        assert!((scores[2] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn combined_scores_handle_empty_and_zero() {
        assert!(combined_scores(&[]).is_empty());
        let s = combined_scores(&[(0.0, 0.0)]);
        assert_eq!(s[0], 0.0);
    }
}
