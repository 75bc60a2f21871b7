//! Shared-ingest multi-query monitoring: one stream, N queries.
//!
//! Running N independent [`StreamMonitor`](crate::StreamMonitor)s over
//! the same stream pays the ring buffer, the incremental
//! [`WindowedStats`](sdtw_tseries::stats::WindowedStats) moments and the
//! [`RollingExtrema`](crate::RollingExtrema) deques N times — all state
//! that depends only on the *stream*. A [`MonitorBank`] pays them once
//! (one `StreamIngest`) and fans every completed window across the
//! per-query runtimes, which keep their own matchers, thresholds,
//! scratch buffers, candidates and stats.
//!
//! Per-query semantics are **identical to a standalone monitor** — same
//! candidates, same matches (bit-for-bit), same stats — because the
//! runtime half is literally the same code (`monitor::QueryRuntime`) fed
//! the same rolling statistics; the equivalence is pinned by
//! `tests/integration_stream.rs`. The exactness contract therefore
//! carries over per query: exact and witness-pruned for every `k` and
//! `tau`, with at most `(2k − 1)(2E − 1)` retained candidates for
//! exclusion distance `E` (see DESIGN.md §9/§10).
//!
//! The one structural requirement is a shared window length: every query
//! of a bank must have the same (prepared) length, since the ingest
//! maintains exactly one window of history. Monitor streams with
//! mixed-length queries by grouping them into one bank per length.

use crate::matcher::{SubseqMatch, SubseqMatcher};
use crate::monitor::{QueryRuntime, StreamIngest};
use crate::stats::StreamStats;
use sdtw_obs::{QueryTrace, WorkloadKind};
use sdtw_tseries::TsError;

/// One query's slot specification for [`MonitorBank::new`].
#[derive(Debug, Clone)]
pub struct BankQuery {
    /// The prepared subsequence matcher.
    pub matcher: SubseqMatcher,
    /// Matches to retain for this query.
    pub k: usize,
    /// Acceptance threshold for this query (`f64::INFINITY` = none;
    /// exact for every `k`, like a standalone monitor).
    pub tau: f64,
}

impl BankQuery {
    /// Convenience constructor.
    pub fn new(matcher: SubseqMatcher, k: usize, tau: f64) -> Self {
        Self { matcher, k, tau }
    }
}

/// A match event reported by [`MonitorBank::push`]: which query fired
/// and what it saw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankEvent {
    /// Index of the query (the position its [`BankQuery`] was passed in).
    pub query: usize,
    /// The candidate the query's window completed at or under its
    /// acceptance threshold.
    pub matched: SubseqMatch,
}

/// Shared-ingest monitor over N queries of one stream.
#[derive(Debug, Clone)]
pub struct MonitorBank {
    ingest: StreamIngest,
    slots: Vec<QueryRuntime>,
}

impl MonitorBank {
    /// Starts monitoring one stream for every given query.
    ///
    /// # Errors
    ///
    /// An empty query list, per-query validation failures (`k == 0`,
    /// negative/NaN `tau`), or mismatched query lengths (the bank keeps
    /// exactly one window of history).
    pub fn new<I: IntoIterator<Item = BankQuery>>(queries: I) -> Result<Self, TsError> {
        let mut slots = Vec::new();
        let mut m: Option<usize> = None;
        for q in queries {
            let qm = q.matcher.query_len();
            match m {
                None => m = Some(qm),
                Some(m) if m != qm => {
                    return Err(TsError::InvalidParameter {
                        name: "queries",
                        reason: format!(
                            "a MonitorBank shares one window of history, so every \
                             query must have the same prepared length (got {m} and \
                             {qm}); group mixed lengths into one bank per length"
                        ),
                    });
                }
                Some(_) => {}
            }
            slots.push(QueryRuntime::new(q.matcher, q.k, q.tau)?);
        }
        let Some(m) = m else {
            return Err(TsError::InvalidParameter {
                name: "queries",
                reason: "a MonitorBank needs at least one query".to_string(),
            });
        };
        Ok(Self {
            ingest: StreamIngest::new(m),
            slots,
        })
    }

    /// [`MonitorBank::new`] with one shared `k`/`tau` for every matcher.
    ///
    /// # Errors
    ///
    /// As [`MonitorBank::new`].
    pub fn uniform<I: IntoIterator<Item = SubseqMatcher>>(
        matchers: I,
        k: usize,
        tau: f64,
    ) -> Result<Self, TsError> {
        Self::new(
            matchers
                .into_iter()
                .map(|matcher| BankQuery::new(matcher, k, tau)),
        )
    }

    /// Number of monitored queries.
    pub fn query_count(&self) -> usize {
        self.slots.len()
    }

    /// Samples pushed so far (the stream position).
    pub fn position(&self) -> u64 {
        self.ingest.position()
    }

    /// Pushes one sample into the shared ingest; once at least one full
    /// window is buffered, every query's cascade runs on the window this
    /// sample completes. Returns the match events the window produced
    /// (ascending by query index).
    ///
    /// # Errors
    ///
    /// A non-finite sample (rejected before touching any stream state),
    /// or feature-extraction failures (adaptive policies only).
    pub fn push(&mut self, v: f64) -> Result<Vec<BankEvent>, TsError> {
        let mut events = Vec::new();
        if let Some(offset) = self.ingest.push(v)? {
            for (query, slot) in self.slots.iter_mut().enumerate() {
                if let Some(matched) = slot.on_window(&self.ingest, offset)? {
                    events.push(BankEvent { query, matched });
                }
            }
        }
        Ok(events)
    }

    /// Pushes a batch of samples (convenience wrapper over
    /// [`MonitorBank::push`]), returning every event produced.
    ///
    /// # Errors
    ///
    /// The first per-push error.
    pub fn process(&mut self, samples: &[f64]) -> Result<Vec<BankEvent>, TsError> {
        let mut out = Vec::new();
        for &v in samples {
            out.extend(self.push(v)?);
        }
        Ok(out)
    }

    /// Query `q`'s current best non-overlapping matches, ascending by
    /// `(distance, offset)`.
    ///
    /// # Panics
    ///
    /// Panics when `q` is out of range.
    pub fn matches(&self, q: usize) -> Vec<SubseqMatch> {
        self.slots[q].matches()
    }

    /// Query `q`'s matcher.
    ///
    /// # Panics
    ///
    /// Panics when `q` is out of range.
    pub fn matcher(&self, q: usize) -> &SubseqMatcher {
        self.slots[q].matcher()
    }

    /// Query `q`'s accounting so far.
    ///
    /// # Panics
    ///
    /// Panics when `q` is out of range.
    pub fn stats(&self, q: usize) -> &StreamStats {
        self.slots[q].stats()
    }

    /// Query `q`'s retained candidate count (diagnostics).
    ///
    /// # Panics
    ///
    /// Panics when `q` is out of range.
    pub fn candidate_count(&self, q: usize) -> usize {
        self.slots[q].candidate_count()
    }

    /// The bank's aggregate accounting: every query's [`StreamStats`]
    /// folded through [`StreamStats::merge`] (window visits and cascade
    /// counts sum across queries; each query is its own single endless
    /// pass, so `passes` stays 1).
    pub fn merged_stats(&self) -> StreamStats {
        let mut total = StreamStats::default();
        for slot in &self.slots {
            total.merge(slot.stats());
        }
        total
    }

    /// Switches span recording on or off for every query (off by
    /// default — a disabled recorder costs one branch per phase).
    pub fn set_tracing(&mut self, on: bool) {
        for slot in &mut self.slots {
            slot.set_tracing(on);
        }
    }

    /// Query `q`'s telemetry so far as one canonical [`QueryTrace`]
    /// (`workload = monitor-batch`): counters are a snapshot, spans
    /// drain — a later call carries only spans recorded since this one.
    ///
    /// # Panics
    ///
    /// Panics when `q` is out of range.
    pub fn trace(&mut self, q: usize, query_id: &str) -> QueryTrace {
        let pos = self.ingest.position();
        self.slots[q].trace(query_id, pos)
    }

    /// The bank's aggregate telemetry: every query's trace folded
    /// through [`QueryTrace::merge`] — counters and areas sum across
    /// queries (`passes` stays 1, the max), spans concatenate. Spans
    /// drain from every slot, like [`MonitorBank::trace`].
    pub fn merged_trace(&mut self, query_id: &str) -> QueryTrace {
        let pos = self.ingest.position();
        let mut merged = QueryTrace::new(query_id, WorkloadKind::MonitorBatch);
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let t = slot.trace(&format!("{query_id}/q{i}"), pos);
            if i == 0 {
                merged.shape = t.shape.clone();
            }
            merged.merge(&t);
        }
        merged
    }

    /// Forgets all stream state for every query (query preparation is
    /// retained).
    pub fn reset(&mut self) {
        self.ingest.clear();
        for slot in &mut self.slots {
            slot.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StreamConfig;
    use crate::monitor::StreamMonitor;
    use sdtw_tseries::TimeSeries;

    fn ts(v: Vec<f64>) -> TimeSeries {
        TimeSeries::new(v).unwrap()
    }

    fn bump(len: usize, centre: f64, width: f64) -> TimeSeries {
        ts((0..len)
            .map(|i| {
                let t = i as f64 / (len - 1) as f64;
                (-((t - centre) / width).powi(2)).exp()
            })
            .collect())
    }

    fn stream() -> Vec<f64> {
        let q1 = bump(40, 0.5, 0.12);
        let q2 = bump(40, 0.3, 0.2);
        let mut hay = vec![0.0; 360];
        for (start, src, gain) in [(40usize, &q1, 1.0), (150, &q2, 2.0), (260, &q1, 0.8)] {
            for i in 0..40 {
                hay[start + i] += gain * src.at(i);
            }
        }
        for (i, v) in hay.iter_mut().enumerate() {
            *v += 0.02 * (i as f64 / 11.0).sin();
        }
        hay
    }

    fn matcher(query: &TimeSeries) -> SubseqMatcher {
        SubseqMatcher::new(query, StreamConfig::exact_banded(0.2)).unwrap()
    }

    #[test]
    fn bank_equals_independent_monitors_bitwise() {
        let q1 = bump(40, 0.5, 0.12);
        let q2 = bump(40, 0.3, 0.2);
        let hay = stream();
        let specs = [(q1, 1usize, f64::INFINITY), (q2, 3, 2.5)];

        let mut bank = MonitorBank::new(
            specs
                .iter()
                .map(|(q, k, tau)| BankQuery::new(matcher(q), *k, *tau)),
        )
        .unwrap();
        bank.process(&hay).unwrap();

        for (qi, (q, k, tau)) in specs.iter().enumerate() {
            let mut solo = StreamMonitor::new(matcher(q), *k, *tau).unwrap();
            solo.process(&hay).unwrap();
            let bank_matches = bank.matches(qi);
            let solo_matches = solo.matches();
            assert_eq!(bank_matches.len(), solo_matches.len(), "query {qi}");
            for (a, b) in bank_matches.iter().zip(&solo_matches) {
                assert_eq!(a.offset, b.offset, "query {qi}");
                assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "query {qi}");
            }
            assert_eq!(bank.stats(qi), solo.stats(), "query {qi} stats");
        }
    }

    #[test]
    fn merged_stats_aggregate_across_queries() {
        let hay = stream();
        let mut bank = MonitorBank::uniform(
            [matcher(&bump(40, 0.5, 0.12)), matcher(&bump(40, 0.3, 0.2))],
            1,
            f64::INFINITY,
        )
        .unwrap();
        bank.process(&hay).unwrap();
        let merged = bank.merged_stats();
        assert_eq!(
            merged.windows,
            bank.stats(0).windows + bank.stats(1).windows
        );
        assert_eq!(merged.passes, 1);
        assert!(merged.is_consistent());
        assert!(merged.cascade.candidates > 0);
    }

    #[test]
    fn events_tag_their_query_and_reset_forgets() {
        let hay = stream();
        let mut bank = MonitorBank::uniform(
            [matcher(&bump(40, 0.5, 0.12)), matcher(&bump(40, 0.3, 0.2))],
            1,
            f64::INFINITY,
        )
        .unwrap();
        let events = bank.process(&hay).unwrap();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.query < bank.query_count()));
        assert_eq!(bank.position(), hay.len() as u64);
        bank.reset();
        assert_eq!(bank.position(), 0);
        assert!(bank.matches(0).is_empty() && bank.matches(1).is_empty());
    }

    #[test]
    fn bad_banks_are_rejected() {
        assert!(MonitorBank::new(std::iter::empty()).is_err());
        let a = matcher(&bump(40, 0.5, 0.12));
        let b = matcher(&bump(48, 0.5, 0.12));
        let err = MonitorBank::uniform([a.clone(), b], 1, f64::INFINITY).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("same prepared length"), "{msg}");
        assert!(MonitorBank::uniform([a.clone()], 0, 1.0).is_err());
        assert!(MonitorBank::uniform([a], 1, -1.0).is_err());
    }

    #[test]
    fn mixed_normalisation_banks_are_allowed() {
        // the ingest is normalisation-agnostic (raw ring + raw rolling
        // stats); each runtime normalises its own windows, so raw and
        // z-normalised queries can share a stream
        let hay = stream();
        let q = bump(40, 0.5, 0.12);
        let raw_config = StreamConfig {
            z_normalize: false,
            ..StreamConfig::exact_banded(0.2)
        };
        let raw = SubseqMatcher::new(&q, raw_config).unwrap();
        let mut bank = MonitorBank::new([
            BankQuery::new(matcher(&q), 1, f64::INFINITY),
            BankQuery::new(raw, 1, f64::INFINITY),
        ])
        .unwrap();
        bank.process(&hay).unwrap();
        assert_eq!(bank.matches(0).len(), 1);
        assert_eq!(bank.matches(1).len(), 1);
        assert!(bank.stats(0).is_consistent() && bank.stats(1).is_consistent());
    }
}
