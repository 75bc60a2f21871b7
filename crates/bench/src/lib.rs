//! # sdtw-bench — experiment regenerators and micro-benchmarks
//!
//! One binary per evaluation artefact of the paper (Tables 1–2, Figures
//! 13–18) plus Criterion micro-benchmarks of the hot paths. The binaries
//! print the same rows/series the paper reports and append their output to
//! `results/` as JSON; `run_all` executes everything and assembles the
//! data behind the experiment index in `DESIGN.md` §6.
//!
//! Run an individual experiment with e.g.
//! `cargo run -p sdtw_bench --release --bin exp_fig13`.
//!
//! # Example
//!
//! ```
//! use sdtw_bench::{paper_policy_grid, corpus_cap, dataset};
//! use sdtw_datasets::UcrAnalog;
//!
//! // the paper's §4.3 policy grid has nine entries
//! assert_eq!(paper_policy_grid().len(), 9);
//! // corpora cap sizes are class-balanced multiples
//! assert_eq!(corpus_cap(UcrAnalog::Trace) % 4, 0);
//! // and the seeded dataset matches its Table 1 spec
//! let ds = dataset(UcrAnalog::Gun);
//! assert_eq!(ds.series.len(), 50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sdtw::ConstraintPolicy;
use sdtw_datasets::{Dataset, UcrAnalog};
use sdtw_eval::EvalOptions;
use serde::Serialize;
use std::path::PathBuf;

/// The seed every experiment derives its corpora from — fixed so the
/// whole evaluation is reproducible bit-for-bit.
pub const EXPERIMENT_SEED: u64 = 20120827; // VLDB 2012 started Aug 27

/// The paper's policy grid (§4.3): three Sakoe widths, `fc,aw`, three
/// adaptive-core widths, and the two adaptive/adaptive variants.
pub fn paper_policy_grid() -> Vec<ConstraintPolicy> {
    vec![
        ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.06 },
        ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.10 },
        ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.20 },
        ConstraintPolicy::fixed_core_adaptive_width(),
        ConstraintPolicy::adaptive_core_fixed_width(0.06),
        ConstraintPolicy::adaptive_core_fixed_width(0.10),
        ConstraintPolicy::adaptive_core_fixed_width(0.20),
        ConstraintPolicy::adaptive_core_adaptive_width(),
        ConstraintPolicy::adaptive_core_adaptive_width_averaged(),
    ]
}

/// Per-dataset corpus caps for pairwise experiments. Full matrices are
/// quadratic in corpus size; these keep a full figure regeneration inside
/// minutes on a laptop while preserving class balance. Gun runs complete.
pub fn corpus_cap(kind: UcrAnalog) -> usize {
    match kind {
        UcrAnalog::Gun => 50,
        UcrAnalog::Trace => 60,
        UcrAnalog::Words50 => 75,
    }
}

/// Default evaluation options for a dataset kind.
pub fn eval_options(kind: UcrAnalog) -> EvalOptions {
    EvalOptions {
        max_series: Some(corpus_cap(kind)),
        ks: vec![5, 10],
        parallel: true,
        base_config: sdtw::SDtwConfig::default(),
    }
}

/// Generates the dataset for a kind under the experiment seed.
pub fn dataset(kind: UcrAnalog) -> Dataset {
    kind.generate(EXPERIMENT_SEED)
}

/// Repository-relative results directory (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("SDTW_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("results directory must be creatable");
    dir
}

/// Writes a serialisable result as pretty JSON into `results/<name>.json`.
pub fn write_result<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("results serialise");
    std::fs::write(&path, json).expect("results file must be writable");
    eprintln!("[results] wrote {}", path.display());
}

/// Formats one table row with fixed column widths.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Prints a fixed-width table with a header rule.
pub fn print_table(headers: &[&str], widths: &[usize], rows: &[Vec<String>]) {
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", row(&head, widths));
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
    for r in rows {
        println!("{}", row(r, widths));
    }
}

/// Min-of-batches nanoseconds per call: warmed, then the minimum mean
/// over several batches — the estimator least sensitive to scheduler
/// noise on a shared CI runner, which the benches' guard assertions
/// (a 2% overhead budget, ≥ 1.2× lane speedups) need.
pub fn min_ns_per_call(f: &mut dyn FnMut(), iters: u32, batches: u32) -> f64 {
    for _ in 0..iters / 4 {
        f();
    }
    let mut min = f64::INFINITY;
    for _ in 0..batches {
        let t = std::time::Instant::now();
        for _ in 0..iters {
            f();
        }
        min = min.min(t.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    min
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_grid_matches_paper_legend_count() {
        let grid = paper_policy_grid();
        assert_eq!(grid.len(), 9);
        let labels: Vec<String> = grid.iter().map(|p| p.label()).collect();
        assert!(labels.contains(&"fc,fw 6%".to_string()));
        assert!(labels.contains(&"fc,aw".to_string()));
        assert!(labels.contains(&"ac,fw 20%".to_string()));
        assert!(labels.contains(&"ac,aw".to_string()));
        assert!(labels.contains(&"ac2,aw".to_string()));
    }

    #[test]
    fn caps_are_class_multiples() {
        // caps must allow class-balanced subsampling
        assert_eq!(corpus_cap(UcrAnalog::Gun) % 2, 0);
        assert_eq!(corpus_cap(UcrAnalog::Trace) % 4, 0);
        assert_eq!(corpus_cap(UcrAnalog::Words50) % 25, 0);
    }

    #[test]
    fn row_formatting_is_right_aligned() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
