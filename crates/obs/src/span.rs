//! Phase spans: where a query's wall-clock time went.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The execution phase a [`SpanRecord`] attributes time to. One variant
/// per seam the workspace instruments: feature extraction, envelope
/// construction, each cascade stage, the DP fill, and the result merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TracePhase {
    /// Salient-feature extraction (scale-space analysis of the inputs).
    Extraction,
    /// LB_Keogh envelope (and coarse tube) construction.
    EnvelopeBuild,
    /// Feature matching and band construction — the paper's "matching"
    /// phase that turns aligned salient features into a local band.
    BandPlan,
    /// The O(1) LB_Kim endpoint/extremum screen (including the batched
    /// ordering pass index queries run up front).
    LbKim,
    /// The coarse PAA pre-filter (segment means against the coarse tube).
    CoarsePaa,
    /// Sample-phase envelope bounds: LB_Keogh and its batched lanes.
    LbKeogh,
    /// The reversed LB_Keogh second-chance bound.
    LbKeoghRev,
    /// Banded DP fill (completed and early-abandoned runs alike). One
    /// span per fill call: a lane-batched stream flush records one span
    /// for all its windows.
    DpFill,
    /// Top-k selection / cross-shard result merge.
    TopKMerge,
    /// A whole sweep pass over a shard's windows (stream workloads).
    WindowSweep,
    /// Serve level 1: the coarse per-entry screen of a pattern request —
    /// the index visit-order bound plus the admissible per-entry floor
    /// that decides pruning.
    EntryScreen,
    /// Serve level 2: one surviving corpus entry's subsequence sweep
    /// (the matcher internals attribute their own phases underneath).
    EntrySweep,
}

impl TracePhase {
    /// Every phase, in canonical (pipeline) order.
    pub const ALL: [TracePhase; 12] = [
        TracePhase::Extraction,
        TracePhase::EnvelopeBuild,
        TracePhase::BandPlan,
        TracePhase::LbKim,
        TracePhase::CoarsePaa,
        TracePhase::LbKeogh,
        TracePhase::LbKeoghRev,
        TracePhase::DpFill,
        TracePhase::TopKMerge,
        TracePhase::WindowSweep,
        TracePhase::EntryScreen,
        TracePhase::EntrySweep,
    ];

    /// Number of phases (the recorder sizes its slot table with this).
    pub const COUNT: usize = TracePhase::ALL.len();

    /// The phase's position in [`TracePhase::ALL`].
    pub fn index(self) -> usize {
        TracePhase::ALL
            .iter()
            .position(|p| *p == self)
            .expect("every phase appears in ALL")
    }

    /// Stable human-readable label (used by `Display` and the report
    /// tables; the NDJSON wire form uses the variant name instead).
    pub fn label(self) -> &'static str {
        match self {
            TracePhase::Extraction => "extraction",
            TracePhase::EnvelopeBuild => "envelope-build",
            TracePhase::BandPlan => "band-plan",
            TracePhase::LbKim => "lb-kim",
            TracePhase::CoarsePaa => "coarse-paa",
            TracePhase::LbKeogh => "lb-keogh",
            TracePhase::LbKeoghRev => "lb-keogh-rev",
            TracePhase::DpFill => "dp-fill",
            TracePhase::TopKMerge => "topk-merge",
            TracePhase::WindowSweep => "window-sweep",
            TracePhase::EntryScreen => "entry-screen",
            TracePhase::EntrySweep => "entry-sweep",
        }
    }
}

/// One aggregated phase span of a [`QueryTrace`](crate::QueryTrace).
///
/// A span is *aggregated*: a query that screens 10 000 windows through
/// LB_Kim produces one `LbKim` span whose `duration` is the summed time
/// and whose `count` is 10 000 — per-window spans would cost more to
/// record than the work they measure. `start` is the offset of the
/// phase's first execution from the recorder's epoch (a monotonic
/// `Instant` taken when recording began), so spans from one recorder
/// order correctly; spans merged across shards keep their shard-local
/// offsets and are distinguished by `thread`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Which pipeline phase this span measures.
    pub phase: TracePhase,
    /// Offset of the phase's first execution from the recorder epoch.
    pub start: Duration,
    /// Total time spent in the phase across all `count` executions.
    pub duration: Duration,
    /// How many executions were folded into this span.
    pub count: u64,
    /// Ordinal of the recording thread (process-wide, assigned on first
    /// use; 0 is whichever thread recorded first, typically the main
    /// thread).
    pub thread: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_phase_once_in_index_order() {
        assert_eq!(TracePhase::ALL.len(), TracePhase::COUNT);
        for (i, p) in TracePhase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let mut labels: Vec<&str> = TracePhase::ALL.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), TracePhase::COUNT, "labels are distinct");
    }

    #[test]
    fn span_roundtrips_through_serde() {
        let s = SpanRecord {
            phase: TracePhase::DpFill,
            start: Duration::from_micros(12),
            duration: Duration::from_micros(340),
            count: 17,
            thread: 2,
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: SpanRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
