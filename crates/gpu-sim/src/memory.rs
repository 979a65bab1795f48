//! Global-memory transaction model.
//!
//! Kepler-class GPUs service a warp's global loads in 128-byte
//! transactions: if the 32 lanes touch consecutive words the warp pays
//! one transaction; if they scatter, it pays up to 32. This single
//! mechanism is behind most of the paper's filter results — the ballot
//! filter's *coalesced* metadata scan vs the strided filter's scattered
//! one (§8: "up to 16× worse"), and the sorted frontiers that make "the
//! computation of next iteration" sequential (§1).

/// Size of one global-memory transaction in bytes.
pub const TRANSACTION_BYTES: u64 = 128;

/// Counts the 128-byte segments touched by a warp accessing the given
/// byte addresses — the number of memory transactions the warp issues.
pub fn transactions_for_addresses(addresses: &[u64]) -> u64 {
    if addresses.is_empty() {
        return 0;
    }
    let mut segments: Vec<u64> = addresses.iter().map(|a| a / TRANSACTION_BYTES).collect();
    segments.sort_unstable();
    segments.dedup();
    segments.len() as u64
}

/// Transactions for a warp reading `lanes` consecutive `elem_bytes`-wide
/// elements starting at element index `start` — the fully coalesced case.
pub fn coalesced_transactions(start: u64, lanes: u64, elem_bytes: u64) -> u64 {
    if lanes == 0 {
        return 0;
    }
    let first = start * elem_bytes / TRANSACTION_BYTES;
    let last = (start + lanes - 1) * elem_bytes / TRANSACTION_BYTES;
    last - first + 1
}

/// A running tally of memory traffic, in transactions, split by kind so
/// reports can show where bandwidth went.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficCounter {
    /// Coalesced (sequential) read transactions.
    pub coalesced_reads: u64,
    /// Scattered (random) read transactions.
    pub random_reads: u64,
    /// Write transactions.
    pub writes: u64,
    /// Atomic read-modify-write transactions.
    pub atomics: u64,
}

impl TrafficCounter {
    /// Total transactions of any kind.
    pub fn total(&self) -> u64 {
        self.coalesced_reads + self.random_reads + self.writes + self.atomics
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.total() * TRANSACTION_BYTES
    }

    /// Accumulates another counter.
    pub fn add(&mut self, other: &TrafficCounter) {
        self.coalesced_reads += other.coalesced_reads;
        self.random_reads += other.random_reads;
        self.writes += other.writes;
        self.atomics += other.atomics;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_words_are_one_transaction() {
        // 32 lanes × 4-byte words starting at 0 = exactly one 128 B segment.
        let addrs: Vec<u64> = (0..32).map(|i| i * 4).collect();
        assert_eq!(transactions_for_addresses(&addrs), 1);
    }

    #[test]
    fn misaligned_consecutive_words_are_two_transactions() {
        let addrs: Vec<u64> = (0..32).map(|i| 64 + i * 4).collect();
        assert_eq!(transactions_for_addresses(&addrs), 2);
    }

    #[test]
    fn scattered_words_are_many_transactions() {
        let addrs: Vec<u64> = (0..32).map(|i| i * 4096).collect();
        assert_eq!(transactions_for_addresses(&addrs), 32);
    }

    #[test]
    fn duplicate_addresses_collapse() {
        let addrs = vec![0, 0, 4, 8, 8];
        assert_eq!(transactions_for_addresses(&addrs), 1);
    }

    #[test]
    fn empty_warp_no_traffic() {
        assert_eq!(transactions_for_addresses(&[]), 0);
        assert_eq!(coalesced_transactions(0, 0, 4), 0);
    }

    #[test]
    fn coalesced_formula_matches_address_model() {
        for start in [0u64, 5, 31, 32, 100] {
            for lanes in [1u64, 7, 32] {
                let addrs: Vec<u64> = (0..lanes).map(|i| (start + i) * 4).collect();
                assert_eq!(
                    coalesced_transactions(start, lanes, 4),
                    transactions_for_addresses(&addrs),
                    "start={start} lanes={lanes}"
                );
            }
        }
    }

    #[test]
    fn traffic_counter_accumulates() {
        let mut t = TrafficCounter::default();
        t.add(&TrafficCounter {
            coalesced_reads: 2,
            random_reads: 3,
            writes: 1,
            atomics: 4,
        });
        t.add(&TrafficCounter {
            coalesced_reads: 1,
            ..Default::default()
        });
        assert_eq!(t.total(), 11);
        assert_eq!(t.total_bytes(), 11 * 128);
    }
}
