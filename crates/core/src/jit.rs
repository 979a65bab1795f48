//! Just-in-time filter control (§4) and the per-iteration activation log
//! behind Fig. 8.
//!
//! "SIMD-X always activates the online filter first. Once a thread bin
//! overflows, SIMD-X will switch on ballot filter to generate the
//! correct task list for the next iteration." Recording resumes at every
//! iteration (the bins start empty) and stops at the first overflow
//! within one, since that iteration's bins are never read: the
//! controller switches back the moment a frontier fits again — the
//! ≤2.1% overhead Fig. 9(b) measures.

use crate::config::FilterPolicy;
use crate::error::SimdxError;
use crate::filters::FilterKind;
use crate::frontier::ThreadBins;
use simdx_graph::csr::Direction;

/// Per-iteration JIT decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct JitController {
    policy: FilterPolicy,
}

impl JitController {
    /// Creates a controller for the given policy.
    pub(crate) fn new(policy: FilterPolicy) -> Self {
        Self { policy }
    }

    /// Whether the engine should record updates into thread bins this
    /// iteration (the ballot-only baseline skips recording entirely;
    /// the others record until the bins overflow).
    pub(crate) fn records_bins(&self) -> bool {
        !matches!(self.policy, FilterPolicy::BallotOnly)
    }

    /// Picks the filter for this iteration's task management, given the
    /// bins' state after computation.
    pub(crate) fn decide(
        &self,
        bins: &ThreadBins,
        iteration: u32,
    ) -> Result<FilterKind, SimdxError> {
        match self.policy {
            FilterPolicy::BallotOnly => Ok(FilterKind::Ballot),
            FilterPolicy::OnlineOnly => {
                if bins.overflowed() {
                    Err(SimdxError::OnlineOverflow { iteration })
                } else {
                    Ok(FilterKind::Online)
                }
            }
            FilterPolicy::Jit => Ok(if bins.overflowed() {
                FilterKind::Ballot
            } else {
                FilterKind::Online
            }),
        }
    }
}

/// One iteration's record in the activation log.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterationRecord {
    /// Zero-based iteration index.
    pub iteration: u32,
    /// Scan direction used.
    pub direction: Direction,
    /// Worklist entries processed.
    pub frontier_len: u64,
    /// Scan-direction degree sum of the worklists.
    pub degree_sum: u64,
    /// Filter that produced the next frontier (Fig. 8's color).
    pub filter: FilterKind,
    /// Whether the online bins overflowed during computation.
    pub overflowed: bool,
    /// Simulated cycles this iteration took.
    pub cycles: u64,
}

/// The full per-run activation log (the data behind Fig. 8).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ActivationLog {
    /// One record per iteration, in order.
    pub records: Vec<IterationRecord>,
}

impl ActivationLog {
    /// Number of iterations logged.
    pub fn iterations(&self) -> u32 {
        self.records.len() as u32
    }

    /// Iterations that used the ballot filter.
    pub(crate) fn ballot_iterations(&self) -> u32 {
        self.records
            .iter()
            .filter(|r| r.filter == FilterKind::Ballot)
            .count() as u32
    }

    /// Iterations that used the online filter.
    pub fn online_iterations(&self) -> u32 {
        self.iterations() - self.ballot_iterations()
    }

    /// Number of online↔ballot switches across the run.
    pub fn filter_switches(&self) -> u32 {
        self.records
            .windows(2)
            .filter(|w| w[0].filter != w[1].filter)
            .count() as u32
    }

    /// A compact pattern string, one character per iteration:
    /// `o` = online, `B` = ballot — the textual form of a Fig. 8 row.
    pub fn pattern(&self) -> String {
        self.records
            .iter()
            .map(|r| match r.filter {
                FilterKind::Online => 'o',
                FilterKind::Ballot => 'B',
            })
            .collect()
    }

    /// A run-length-encoded pattern (`"o×3 B×12 o×5"`), readable for
    /// long road-graph runs.
    pub fn pattern_rle(&self) -> String {
        let mut out = String::new();
        let mut iter = self.records.iter().peekable();
        while let Some(first) = iter.next() {
            let mut count = 1u32;
            while iter.peek().map(|r| r.filter) == Some(first.filter) {
                iter.next();
                count += 1;
            }
            if !out.is_empty() {
                out.push(' ');
            }
            let c = match first.filter {
                FilterKind::Online => 'o',
                FilterKind::Ballot => 'B',
            };
            out.push_str(&format!("{c}x{count}"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn overflowed_bins() -> ThreadBins {
        let mut bins = ThreadBins::new(1, 1);
        bins.record(0, 1);
        bins.record(0, 2);
        assert!(bins.overflowed());
        bins
    }

    #[test]
    fn jit_switches_on_overflow() {
        let jit = JitController::new(FilterPolicy::Jit);
        let empty = ThreadBins::new(1, 4);
        assert_eq!(jit.decide(&empty, 0), Ok(FilterKind::Online));
        assert_eq!(jit.decide(&overflowed_bins(), 3), Ok(FilterKind::Ballot));
        assert!(jit.records_bins());
    }

    #[test]
    fn online_only_errors_on_overflow() {
        let ctl = JitController::new(FilterPolicy::OnlineOnly);
        assert_eq!(
            ctl.decide(&overflowed_bins(), 7),
            Err(SimdxError::OnlineOverflow { iteration: 7 })
        );
    }

    #[test]
    fn ballot_only_never_records() {
        let ctl = JitController::new(FilterPolicy::BallotOnly);
        assert!(!ctl.records_bins());
        assert_eq!(
            ctl.decide(&ThreadBins::new(1, 1), 0),
            Ok(FilterKind::Ballot)
        );
    }

    fn rec(i: u32, f: FilterKind) -> IterationRecord {
        IterationRecord {
            iteration: i,
            direction: Direction::Push,
            frontier_len: 10 * i as u64,
            degree_sum: 0,
            filter: f,
            overflowed: f == FilterKind::Ballot,
            cycles: 100,
        }
    }

    #[test]
    fn log_statistics() {
        let log = ActivationLog {
            records: vec![
                rec(0, FilterKind::Online),
                rec(1, FilterKind::Ballot),
                rec(2, FilterKind::Ballot),
                rec(3, FilterKind::Online),
            ],
        };
        assert_eq!(log.iterations(), 4);
        assert_eq!(log.ballot_iterations(), 2);
        assert_eq!(log.online_iterations(), 2);
        assert_eq!(log.filter_switches(), 2);
        assert_eq!(log.pattern(), "oBBo");
        assert_eq!(log.pattern_rle(), "ox1 Bx2 ox1");
    }

    #[test]
    fn empty_log() {
        let log = ActivationLog::default();
        assert_eq!(log.iterations(), 0);
        assert_eq!(log.filter_switches(), 0);
        assert_eq!(log.pattern(), "");
        assert_eq!(log.pattern_rle(), "");
    }

    #[test]
    fn error_display() {
        let e = SimdxError::OnlineOverflow { iteration: 5 };
        assert!(e.to_string().contains("iteration 5"));
        let e = SimdxError::IterationLimit { max_iterations: 9 };
        assert!(e.to_string().contains('9'));
    }
}
