//! Differential harness: the wavefront (anti-diagonal) DP engine against
//! the row-sequential reference — and, orthogonally, the explicit-SIMD
//! lane sweep against the scalar cell loop — over a seeded grid of
//! kernels × band families × path/cutoff modes. Every engine × SIMD-mode
//! combination must agree **bit for bit** — distances, cells filled,
//! warp paths, and early-abandon decisions — because every per-cell
//! expression is shared; any drift here is an indexing bug in the
//! diagonal sweep (or a lane-interior bound error), never a tolerance
//! question.
//!
//! The same harness drives the edge cases: degenerate lengths, bands
//! wider than the grid, all-equal series (maximal tie-path ambiguity),
//! non-staircase bands, and non-finite-input rejection — and the
//! lane-batched fill, whose every lane must equal the single-window fill
//! bit for bit.

mod common;

use common::{structured_series, TestRng};
use sdtw_suite::core::{ConstraintPolicy, SDtw, SDtwConfig};
use sdtw_suite::dtw::band::ColRange;
use sdtw_suite::dtw::engine::{
    dtw_run_batch_values, dtw_run_options_values, dtw_run_options_values_pinned, DtwEngine,
    DtwOptions, DtwResult, DtwScratch, Normalization, StepPattern,
};
use sdtw_suite::dtw::itakura::itakura_band;
use sdtw_suite::dtw::sakoe::sakoe_chiba_band;
use sdtw_suite::dtw::simd::{SimdMode, LANE_WIDTH};
use sdtw_suite::dtw::{Band, KernelChoice};
use sdtw_suite::salient::extract_features;
use sdtw_suite::tseries::{TimeSeries, TsError};

/// Every engine × SIMD-mode combination the grid pins. The row engine
/// ignores the SIMD mode by contract, so running it under both modes
/// doubles as a regression check of exactly that.
const COMBOS: [(&str, DtwEngine, SimdMode); 4] = [
    ("wavefront/lanes", DtwEngine::Wavefront, SimdMode::Lanes),
    ("wavefront/scalar", DtwEngine::Wavefront, SimdMode::Scalar),
    ("rows/lanes", DtwEngine::Rows, SimdMode::Lanes),
    ("rows/scalar", DtwEngine::Rows, SimdMode::Scalar),
];

/// Runs one configuration under every engine × SIMD-mode combination and
/// asserts bit-identity of every observable: abandon decision, distance
/// bits, cells filled, and the warp path (when traced). Returns the
/// wavefront/lanes outcome.
fn assert_engines_agree(
    xv: &[f64],
    yv: &[f64],
    band: &Band,
    opts: &DtwOptions,
    cutoff: Option<f64>,
    label: &str,
) -> Option<DtwResult> {
    let mut scratch = DtwScratch::new();
    let mut results: Vec<(&str, Option<DtwResult>)> = Vec::with_capacity(COMBOS.len());
    for (name, engine, simd) in COMBOS {
        results.push((
            name,
            dtw_run_options_values_pinned(engine, simd, xv, yv, band, opts, cutoff, &mut scratch),
        ));
    }
    let (ref_name, reference) = &results[0];
    for (name, got) in &results[1..] {
        match (reference, got) {
            (None, None) => {}
            (Some(w), Some(r)) => {
                assert_eq!(
                    w.distance.to_bits(),
                    r.distance.to_bits(),
                    "distance diverged [{label}]: {ref_name} {} vs {name} {}",
                    w.distance,
                    r.distance
                );
                assert_eq!(
                    w.cells_filled, r.cells_filled,
                    "cell accounting diverged [{label}]: {ref_name} vs {name}"
                );
                assert_eq!(
                    w.path, r.path,
                    "warp path diverged [{label}]: {ref_name} vs {name}"
                );
            }
            _ => panic!(
                "abandon decisions diverged [{label}]: {ref_name} {:?} vs {name} {:?}",
                reference.as_ref().map(|r| r.distance),
                got.as_ref().map(|r| r.distance)
            ),
        }
    }
    results.swap_remove(0).1
}

/// The three kernels the grid sweeps: standard symmetric1 (the paper's
/// recurrence), standard symmetric2 with the conventional normalisation,
/// and the amerced (ADTW) kernel.
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

/// The salient (sDTW) band of a pair, planned by the `fc,aw` policy from
/// freshly extracted descriptors — the band family the paper is about.
fn salient_band(x: &TimeSeries, y: &TimeSeries) -> Band {
    let config = SDtwConfig {
        policy: ConstraintPolicy::fixed_core_adaptive_width(),
        ..SDtwConfig::default()
    };
    let engine = SDtw::new(config.clone()).expect("valid config");
    let fx = extract_features(x, &config.salient).expect("finite series");
    let fy = extract_features(y, &config.salient).expect("finite series");
    let (band, _) = engine.plan_band(&fx, &fy, x.len(), y.len());
    if band.is_feasible() {
        band
    } else {
        band.sanitize()
    }
}

#[test]
fn wavefront_matches_rows_across_the_seeded_grid() {
    let mut rng = TestRng::new(0xD1FF_EE01);
    for pair in 0..4 {
        let x = structured_series(&mut rng);
        let y = structured_series(&mut rng);
        let (xv, yv) = (x.values(), y.values());
        let bands: Vec<(&str, Band)> = vec![
            ("sakoe", sakoe_chiba_band(x.len(), y.len(), 0.2)),
            ("itakura", itakura_band(x.len(), y.len(), 2.0)),
            ("salient", salient_band(&x, &y)),
        ];
        for (bname, band) in &bands {
            for (kname, opts) in kernel_grid() {
                for compute_path in [false, true] {
                    let opts = DtwOptions {
                        compute_path,
                        ..opts
                    };
                    let label =
                        format!("pair {pair} band {bname} kernel {kname} path {compute_path}");
                    // no cutoff first — its distance seeds the cutoff cases
                    let full = assert_engines_agree(xv, yv, band, &opts, None, &label)
                        .expect("no cutoff cannot abandon");
                    // a generous cutoff (survives, including the tie) and a
                    // tight one (must abandon): both decisions must agree
                    for (cname, cutoff) in [
                        ("loose", full.distance * 1.5 + 1.0),
                        ("tie", full.distance),
                        ("tight", full.distance * 0.5 - 1e-9),
                    ] {
                        let outcome = assert_engines_agree(
                            xv,
                            yv,
                            band,
                            &opts,
                            Some(cutoff),
                            &format!("{label} cutoff {cname}"),
                        );
                        match cname {
                            "tight" => assert!(outcome.is_none(), "tight cutoff must abandon"),
                            _ => {
                                assert!(outcome.is_some(), "cutoff at/above the distance survives")
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn degenerate_lengths_agree_and_empty_inputs_are_rejected() {
    // length-1 × length-1 and length-1 × length-n: the wavefront's first
    // row/column special cases in their purest form
    for (xv, yv) in [
        (vec![2.5], vec![-1.0]),
        (vec![2.5], (0..40).map(|i| (i as f64 / 5.0).sin()).collect()),
        (
            (0..40).map(|i| (i as f64 / 7.0).cos()).collect(),
            vec![0.25],
        ),
    ] {
        let band = Band::full(xv.len(), yv.len());
        for (kname, opts) in kernel_grid() {
            assert_engines_agree(&xv, &yv, &band, &opts, None, &format!("degenerate {kname}"));
        }
    }
    // empty input never reaches either engine: the series type rejects it
    assert!(matches!(TimeSeries::new(vec![]), Err(TsError::Empty)));
    let engine = SDtw::new(SDtwConfig::default()).unwrap();
    for dp in [DtwEngine::Wavefront, DtwEngine::Rows] {
        let err = engine.query_window(&[], &[1.0]).dp_engine(dp).run();
        assert!(
            matches!(err, Err(TsError::Empty)),
            "{dp:?} must reject empty windows"
        );
    }
}

#[test]
fn bands_wider_than_the_grid_clamp_identically() {
    let x: Vec<f64> = (0..24).map(|i| (i as f64 / 3.0).sin()).collect();
    let y: Vec<f64> = (0..17).map(|i| (i as f64 / 4.0).cos()).collect();
    // a Sakoe radius beyond every row clamps to the full grid
    let band = sakoe_chiba_band(x.len(), y.len(), 5.0);
    assert_eq!(band.area(), Band::full(x.len(), y.len()).area());
    for (kname, opts) in kernel_grid() {
        for compute_path in [false, true] {
            let opts = DtwOptions {
                compute_path,
                ..opts
            };
            assert_engines_agree(&x, &y, &band, &opts, None, &format!("overwide {kname}"));
        }
    }
}

#[test]
fn all_equal_series_resolve_ties_identically() {
    // every cell costs 0 (squared metric): the DP is one giant tie and
    // the traceback's deterministic preference order is all that picks
    // the path — both engines must report the same one (path mode
    // dispatches to the row engine by design, so this pins the fallback)
    let x = vec![3.0; 20];
    let y = vec![3.0; 25];
    let band = Band::full(x.len(), y.len());
    for (kname, opts) in kernel_grid() {
        let opts = DtwOptions {
            compute_path: true,
            ..opts
        };
        let r = assert_engines_agree(&x, &y, &band, &opts, None, &format!("ties {kname}"))
            .expect("no cutoff");
        let path = r.path.expect("path requested");
        // amerced pays a penalty per off-diagonal step, so only the
        // standard kernels yield exactly 0 here; ties still resolve the
        // same way in both engines either way
        if !matches!(opts.kernel, KernelChoice::Amerced { .. }) {
            assert_eq!(r.distance.to_bits(), 0f64.to_bits(), "{kname}");
        }
        path.validate(x.len(), y.len())
            .unwrap_or_else(|e| panic!("{kname}: invalid tie path: {e}"));
    }
}

#[test]
fn non_staircase_bands_agree() {
    // a feasible band whose per-row spans regress (row 1 starts after
    // row 2) — the wavefront cannot use tight two-pointer spans and must
    // fall back to its conservative diagonal cover with per-cell
    // membership checks; results still match the row engine exactly
    let x: Vec<f64> = (0..4).map(|i| i as f64).collect();
    let y: Vec<f64> = (0..5).map(|i| (i as f64) * 0.5).collect();
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
    assert!(band.is_feasible(), "the test band must be DP-feasible");
    for (kname, opts) in kernel_grid() {
        for cutoff in [None, Some(1.0), Some(1e9)] {
            assert_engines_agree(
                &x,
                &y,
                &band,
                &opts,
                cutoff,
                &format!("non-staircase {kname}"),
            );
        }
    }
}

#[test]
fn non_finite_inputs_never_reach_the_engines() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(
            matches!(
                TimeSeries::new(vec![0.0, bad, 1.0]),
                Err(TsError::NonFinite { .. })
            ),
            "series construction must reject {bad}"
        );
    }
}

#[test]
fn env_selection_and_explicit_override_agree() {
    // whatever SDTW_ENGINE says for this process, pinning the engine
    // explicitly must reproduce it bit for bit when it names the same
    // engine — and the two pins must agree with each other regardless
    let engine = SDtw::new(SDtwConfig::default()).unwrap();
    let x = TimeSeries::new((0..60).map(|i| (i as f64 / 6.0).sin()).collect()).unwrap();
    let y = TimeSeries::new((0..55).map(|i| (i as f64 / 5.0).cos()).collect()).unwrap();
    let ambient = engine.query(&x, &y).run().unwrap().unwrap();
    let selected = engine
        .query(&x, &y)
        .dp_engine(DtwEngine::selected())
        .run()
        .unwrap()
        .unwrap();
    assert_eq!(ambient.distance.to_bits(), selected.distance.to_bits());
    let wave = engine
        .query(&x, &y)
        .dp_engine(DtwEngine::Wavefront)
        .run()
        .unwrap()
        .unwrap();
    let rows = engine
        .query(&x, &y)
        .dp_engine(DtwEngine::Rows)
        .run()
        .unwrap()
        .unwrap();
    assert_eq!(wave.distance.to_bits(), rows.distance.to_bits());
    assert_eq!(wave.cells_filled, rows.cells_filled);
}

/// Every kernel of the grid under both normalisations.
fn batch_kernel_grid() -> Vec<(String, DtwOptions)> {
    let mut out = Vec::new();
    for (kname, opts) in kernel_grid() {
        for normalization in [Normalization::None, Normalization::LengthSum] {
            out.push((
                format!("{kname}/{normalization:?}"),
                DtwOptions {
                    normalization,
                    ..opts
                },
            ));
        }
    }
    out
}

/// Asserts that every lane of one batched fill equals the single-window
/// fill of its window bit for bit — `None` exactly when that window's
/// distance exceeds the cutoff — and that unused lanes stay `None`.
fn assert_batch_matches_single(
    xv: &[f64],
    ys: &[&[f64]],
    band: &Band,
    opts: &DtwOptions,
    cutoff: f64,
    scratch: &mut DtwScratch,
    label: &str,
) {
    let batch = dtw_run_batch_values(xv, ys, band, opts, cutoff, scratch);
    for (l, &got) in batch.iter().enumerate() {
        let Some(y) = ys.get(l) else {
            assert_eq!(got, None, "unused lane {l} must stay empty [{label}]");
            continue;
        };
        let full = dtw_run_options_values(xv, y, band, opts, None, scratch)
            .expect("no cutoff cannot abandon")
            .distance;
        let single =
            dtw_run_options_values(xv, y, band, opts, Some(cutoff), scratch).map(|r| r.distance);
        assert_eq!(
            got.map(f64::to_bits),
            single.map(f64::to_bits),
            "lane {l} diverged from the single-window fill [{label}]: {got:?} vs {single:?}"
        );
        assert_eq!(
            got.is_none(),
            full > cutoff,
            "lane {l} abandon decision [{label}]: distance {full}, cutoff {cutoff}"
        );
    }
}

#[test]
fn batched_fill_matches_single_window_fills_per_lane() {
    let mut rng = TestRng::new(0xBA7C_4ED0);
    let mut scratch = DtwScratch::new();
    for (n, m) in [(40, 40), (33, 47)] {
        let x: Vec<f64> = (0..n).map(|_| rng.f64_in(-2.0, 2.0)).collect();
        // overlapping windows of one haystack, as the stream sweep cuts them
        let hay: Vec<f64> = (0..m + 3 * LANE_WIDTH)
            .map(|t| (t as f64 / 5.0).sin() + rng.f64_in(-0.5, 0.5))
            .collect();
        let windows: Vec<&[f64]> = (0..LANE_WIDTH).map(|l| &hay[3 * l..3 * l + m]).collect();
        let mut bands: Vec<(String, Band)> = [0.05, 0.1, 0.2, 0.5]
            .iter()
            .map(|&w| (format!("sakoe {w}"), sakoe_chiba_band(n, m, w)))
            .collect();
        bands.push(("itakura".into(), itakura_band(n, m, 2.0)));
        bands.push(("full".into(), Band::full(n, m)));
        for (bname, band) in &bands {
            for (kname, opts) in batch_kernel_grid() {
                for live in 1..=LANE_WIDTH {
                    let ys = &windows[..live];
                    let dists: Vec<f64> = ys
                        .iter()
                        .map(|y| {
                            dtw_run_options_values(&x, y, band, &opts, None, &mut scratch)
                                .expect("no cutoff cannot abandon")
                                .distance
                        })
                        .collect();
                    let mut sorted = dists.clone();
                    sorted.sort_by(f64::total_cmp);
                    let cutoffs = [
                        ("inf", f64::INFINITY),
                        // below the median: some lanes drop out, some finish
                        ("tight", sorted[live / 2] * 0.999),
                        // equal to one lane's distance: that lane must survive
                        ("tie", dists[live - 1]),
                    ];
                    for (cname, cutoff) in cutoffs {
                        let label = format!("{n}x{m} {bname} {kname} lanes {live} cutoff {cname}");
                        assert_batch_matches_single(
                            &x,
                            ys,
                            band,
                            &opts,
                            cutoff,
                            &mut scratch,
                            &label,
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn batched_fill_handles_non_staircase_and_infeasible_bands() {
    let x: Vec<f64> = (0..4).map(|i| i as f64).collect();
    let ys: Vec<Vec<f64>> = (0..3)
        .map(|s| (0..5).map(|i| (i + s) as f64 * 0.5).collect())
        .collect();
    let views: Vec<&[f64]> = ys.iter().map(Vec::as_slice).collect();
    let non_staircase = Band::from_ranges(
        4,
        5,
        vec![
            ColRange::new(0, 4),
            ColRange::new(3, 4),
            ColRange::new(1, 4),
            ColRange::new(2, 4),
        ],
    );
    // a band that misses the corner is sanitised exactly as the
    // single-window entry points sanitise it
    let infeasible = Band::from_ranges(4, 5, vec![ColRange::new(0, 0); 4]);
    let mut scratch = DtwScratch::new();
    for band in [non_staircase, infeasible] {
        for (kname, opts) in batch_kernel_grid() {
            for cutoff in [f64::INFINITY, 1.0, 1e9] {
                assert_batch_matches_single(
                    &x,
                    &views,
                    &band,
                    &opts,
                    cutoff,
                    &mut scratch,
                    &format!("odd band {kname} cutoff {cutoff}"),
                );
            }
        }
    }
}
