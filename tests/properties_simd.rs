//! Property tests for the explicit-SIMD lane layer: the production lane
//! sweeps must be **bit-identical** to their scalar references in every
//! observable — distances, cells filled, early-abandon decisions,
//! batched lower bounds, and the index cascade's pruning counters. The
//! DP reference is the oracle-only all-scalar wavefront
//! (`dtw::reference::wavefront_scalar_values`); the bound references are
//! the per-element `lb_keogh_values` and `lb_kim`. The sweep here
//! complements `differential_engine.rs` (which crosses the two fills of
//! the entry point over structured pairs) with the shapes that stress
//! the lane decomposition specifically: series shorter than one lane,
//! ragged-tail diagonal spans, membership-masked non-staircase bands,
//! and the batched bounds' remainder handling.

mod common;

use common::{random_series, structured_series, TestRng};
use sdtw_suite::dtw::band::ColRange;
use sdtw_suite::dtw::engine::{
    dtw_run_options_values, DtwOptions, DtwScratch, Normalization, StepPattern,
};
use sdtw_suite::dtw::lower_bound::{
    lb_keogh_batch, lb_keogh_batch_windows, lb_keogh_values, lb_kim, lb_kim_batch, Envelope,
    SeriesSummary, LB_LANES,
};
use sdtw_suite::dtw::reference::wavefront_scalar_values;
use sdtw_suite::dtw::sakoe::sakoe_chiba_band;
use sdtw_suite::dtw::simd::LANE_WIDTH;
use sdtw_suite::dtw::{Band, KernelChoice};
use sdtw_suite::index::{IndexConfig, SdtwIndex};
use sdtw_suite::tseries::{ElementMetric, TimeSeries};

/// Runs one configuration through the production entry point (the lane
/// wavefront, or the row fill when `opts` requests a path) and through
/// the scalar wavefront oracle, and asserts bit-identity of the outcome
/// (including the abandon decision).
fn assert_modes_agree(
    xv: &[f64],
    yv: &[f64],
    band: &Band,
    opts: &DtwOptions,
    cutoff: Option<f64>,
    label: &str,
) {
    let mut scratch = DtwScratch::new();
    let lanes = dtw_run_options_values(xv, yv, band, opts, cutoff, &mut scratch);
    let scalar = wavefront_scalar_values(xv, yv, band, opts, cutoff, &mut scratch);
    match (&lanes, &scalar) {
        (None, None) => {}
        (Some(l), Some(s)) => {
            assert_eq!(
                l.distance.to_bits(),
                s.distance.to_bits(),
                "distance diverged [{label}]: lanes {} vs scalar {}",
                l.distance,
                s.distance
            );
            assert_eq!(
                l.cells_filled, s.cells_filled,
                "cell accounting diverged [{label}]"
            );
        }
        _ => panic!(
            "abandon decisions diverged [{label}]: lanes {:?} vs scalar {:?}",
            lanes.map(|r| r.distance),
            scalar.map(|r| r.distance)
        ),
    }
}

/// The kernel grid the sweeps cross with band/length/cutoff axes.
fn kernel_grid() -> Vec<(&'static str, DtwOptions)> {
    let sym1 = DtwOptions::default();
    let sym2 = DtwOptions {
        step_pattern: StepPattern::Symmetric2,
        normalization: Normalization::LengthSum,
        ..DtwOptions::default()
    };
    let amerced = DtwOptions {
        kernel: KernelChoice::Amerced { penalty: 0.25 },
        ..DtwOptions::default()
    };
    vec![("sym1", sym1), ("sym2", sym2), ("amerced", amerced)]
}

/// Cutoff grid derived from the uncut distance: none, loose (never
/// abandons), tie (exactly the distance — the boundary case of the
/// strictly-greater abandon test), tight (forces abandonment on any
/// non-trivial grid).
fn cutoff_grid(distance: f64) -> Vec<(&'static str, Option<f64>)> {
    vec![
        ("none", None),
        ("loose", Some(distance * 1.5 + 1.0)),
        ("tie", Some(distance)),
        ("tight", Some(distance * 0.5 - 1e-9)),
    ]
}

/// Lengths below one lane, exactly one lane, and ragged tails around the
/// lane width: every diagonal span shape the interior decomposition can
/// produce (empty lane interior, single chunk, chunk + tail).
#[test]
fn degenerate_and_ragged_lengths_are_bit_identical() {
    let mut rng = TestRng::new(0x51D0_5EED);
    let lengths = [
        1,
        2,
        3,
        LANE_WIDTH - 1,
        LANE_WIDTH,
        LANE_WIDTH + 1,
        13,
        17,
        2 * LANE_WIDTH + 3,
        31,
    ];
    for &n in &lengths {
        for &m in &lengths {
            let xv: Vec<f64> = (0..n).map(|_| rng.f64_in(-5.0, 5.0)).collect();
            let yv: Vec<f64> = (0..m).map(|_| rng.f64_in(-5.0, 5.0)).collect();
            let bands = vec![
                ("full", Band::full(n, m)),
                ("sakoe", sakoe_chiba_band(n, m, 0.3)),
            ];
            for (bname, band) in &bands {
                for (kname, opts) in kernel_grid() {
                    let label = format!("{n}x{m}/{bname}/{kname}");
                    let mut scratch = DtwScratch::new();
                    let base = wavefront_scalar_values(&xv, &yv, band, &opts, None, &mut scratch)
                        .expect("no cutoff");
                    for (cname, cutoff) in cutoff_grid(base.distance) {
                        assert_modes_agree(
                            &xv,
                            &yv,
                            band,
                            &opts,
                            cutoff,
                            &format!("{label}/{cname}"),
                        );
                    }
                }
            }
        }
    }
}

/// A non-staircase band wide enough that the lane path runs with the
/// membership mask active: the band edges jump down every third row, so
/// the wavefront must cover each diagonal conservatively and mask the
/// holes — the masked lanes must write the same `+inf` the scalar loop
/// writes, cell for cell.
#[test]
fn non_staircase_band_is_bit_identical_under_the_membership_mask() {
    let mut rng = TestRng::new(0xBAD5_7A12);
    let (n, m) = (32, 32);
    let xv: Vec<f64> = (0..n).map(|_| rng.f64_in(-5.0, 5.0)).collect();
    let yv: Vec<f64> = (0..m).map(|_| rng.f64_in(-5.0, 5.0)).collect();
    let ranges: Vec<ColRange> = (0..n)
        .map(|i| {
            // lo drops back to 0 on every third row — strictly
            // non-monotonic edges, never a staircase.
            let lo = if i % 3 == 0 { 0 } else { i / 2 };
            ColRange::new(lo, m - 1)
        })
        .collect();
    let band = Band::from_ranges(n, m, ranges);
    assert!(
        !band.is_staircase(),
        "fixture must exercise the masked (non-staircase) lane path"
    );
    for (kname, opts) in kernel_grid() {
        for compute_path in [false, true] {
            let opts = DtwOptions {
                compute_path,
                ..opts
            };
            let mut scratch = DtwScratch::new();
            let base = wavefront_scalar_values(&xv, &yv, &band, &opts, None, &mut scratch)
                .expect("no cutoff");
            for (cname, cutoff) in cutoff_grid(base.distance) {
                assert_modes_agree(
                    &xv,
                    &yv,
                    &band,
                    &opts,
                    cutoff,
                    &format!("non-staircase/{kname}/path={compute_path}/{cname}"),
                );
            }
        }
    }
}

/// The batched lower bounds agree with the per-element scalar reference
/// bit for bit, at batch sizes that cover the empty, sub-lane,
/// exact-lane, and ragged-tail remainder shapes.
#[test]
fn lb_batches_match_the_scalar_reference_bitwise() {
    let mut rng = TestRng::new(0x1B_BA7C4);
    for &count in &[0usize, 1, LB_LANES - 1, LB_LANES, LB_LANES + 1, 21] {
        let len = 64;
        let x: Vec<f64> = (0..len).map(|_| rng.f64_in(-4.0, 4.0)).collect();
        let ys: Vec<Vec<f64>> = (0..count)
            .map(|_| (0..len).map(|_| rng.f64_in(-4.0, 4.0)).collect())
            .collect();
        let envs: Vec<Envelope> = ys
            .iter()
            .map(|y| Envelope::build_from_values(y, 5))
            .collect();
        let env_refs: Vec<&Envelope> = envs.iter().collect();
        let windows: Vec<&[f64]> = ys.iter().map(|y| y.as_slice()).collect();
        let x_env = Envelope::build_from_values(&x, 5);
        let x_sum = SeriesSummary::of_values(&x);
        let y_sums: Vec<SeriesSummary> = ys.iter().map(|y| SeriesSummary::of_values(y)).collect();
        for metric in [ElementMetric::Squared, ElementMetric::Absolute] {
            let mut lanes = Vec::new();

            lb_keogh_batch(&x, &env_refs, metric, &mut lanes);
            let reference: Vec<f64> = envs
                .iter()
                .map(|e| lb_keogh_values(&x, e, metric))
                .collect();
            assert_bits_eq(&lanes, &reference, &format!("keogh/{count}/{metric:?}"));

            lb_keogh_batch_windows(&windows, &x_env, metric, &mut lanes);
            let reference: Vec<f64> = ys
                .iter()
                .map(|y| lb_keogh_values(y, &x_env, metric))
                .collect();
            assert_bits_eq(&lanes, &reference, &format!("windows/{count}/{metric:?}"));

            lb_kim_batch(&x_sum, &y_sums, metric, &mut lanes);
            let reference: Vec<f64> = y_sums.iter().map(|s| lb_kim(&x_sum, s, metric)).collect();
            assert_bits_eq(&lanes, &reference, &format!("kim/{count}/{metric:?}"));
        }
    }
}

fn assert_bits_eq(got: &[f64], want: &[f64], label: &str) {
    assert_eq!(got.len(), want.len(), "length diverged [{label}]");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "bound #{i} diverged [{label}]: {g} vs {w}"
        );
    }
}

/// Fixed-length corpus so every LB stage in the index cascade is
/// applicable (LB_Kim, PAA, both LB_Keogh directions) and the counters
/// have something to count.
fn fixed_len_series(rng: &mut TestRng, len: usize) -> TimeSeries {
    let bumps = 1 + rng.usize_in(1, 4);
    let mut v = vec![0.0; len];
    for _ in 0..bumps {
        let c = rng.f64_in(0.0, len as f64);
        let w = rng.f64_in(3.0, 12.0);
        let a = rng.f64_in(0.5, 2.0);
        for (i, s) in v.iter_mut().enumerate() {
            let t = (i as f64 - c) / w;
            *s += a * (-t * t / 2.0).exp();
        }
    }
    TimeSeries::new(v).expect("finite fixture")
}

/// Golden cascade counters on a seeded serial index query. The expected
/// values are hard-coded literals captured before the lane sweeps became
/// the only production form of the DP and the bounds, so passing them
/// proves the cascade's prune/abandon/cell accounting did not move when
/// the scalar execution modes were deleted.
#[test]
fn cascade_counters_are_identical_across_simd_modes() {
    let mut rng = TestRng::new(0xCA5C_ADE5);
    let corpus: Vec<TimeSeries> = (0..24).map(|_| fixed_len_series(&mut rng, 96)).collect();
    let config = IndexConfig {
        z_normalize: true,
        ..IndexConfig::default()
    };
    let index = SdtwIndex::build(&corpus, config).expect("finite corpus");
    let query = fixed_len_series(&mut rng, 96);
    let (result, dispositions) = index.query_detailed(&query, 3).expect("valid query");
    assert_eq!(dispositions.len(), corpus.len());
    assert_eq!(result.neighbors.len(), 3);

    let s = &result.stats;
    assert!(!s.bounds_disabled);
    assert_eq!(s.candidates, 24, "candidates");
    assert_eq!(
        s.pruned_kim
            + s.pruned_paa
            + s.pruned_keogh
            + s.pruned_keogh_rev
            + s.abandoned
            + s.dp_completed,
        24,
        "every candidate must be accounted for exactly once"
    );
    // Golden values — any drift is a bit-identity regression in the lane
    // layer, not a tolerance question.
    assert_eq!(
        (
            s.pruned_kim,
            s.pruned_paa,
            s.pruned_keogh,
            s.pruned_keogh_rev,
            s.abandoned,
            s.dp_completed,
            s.cells_filled,
        ),
        GOLDEN,
        "cascade counters drifted from the golden record"
    );
}

/// The golden counter record for the seeded query above (captured from
/// the seed run, when it held under every scalar and lane execution mode).
const GOLDEN: (u64, u64, u64, u64, u64, u64, u64) = (1, 0, 0, 0, 17, 6, 98050);

/// Sanity: `random_series`/`structured_series` feed the differential
/// harness; keep their envelope of shapes overlapping the lane-critical
/// lengths (shorter than one lane through several lanes long).
#[test]
fn fixture_generators_cover_sub_lane_lengths() {
    let mut rng = TestRng::new(0xF1B7_0F17);
    let mut saw_sub_lane = false;
    let mut saw_multi_lane = false;
    for _ in 0..64 {
        let len = random_series(&mut rng).len();
        saw_sub_lane |= len < LANE_WIDTH;
        saw_multi_lane |= len >= 2 * LANE_WIDTH;
    }
    assert!(
        saw_sub_lane,
        "random_series never produced a sub-lane length"
    );
    assert!(
        saw_multi_lane,
        "random_series never produced a multi-lane length"
    );
    assert!(structured_series(&mut rng).len() >= 2 * LANE_WIDTH);
}
