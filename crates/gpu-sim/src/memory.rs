//! Global-memory transaction accounting.
//!
//! Kepler-class GPUs service a warp's global loads in 128-byte
//! transactions: if the 32 lanes touch consecutive words the warp pays
//! one transaction; if they scatter, it pays up to 32. This single
//! mechanism is behind most of the paper's filter results — the ballot
//! filter's *coalesced* metadata scan (§8 measures a strided, scattered
//! scan "up to 16× worse"), and the sorted frontiers that make "the
//! computation of next iteration" sequential (§1).
//!
//! The simulator applies that rule per charged [`Cost`](crate::Cost)
//! rather than per address: the executor counts coalesced elements in
//! 32-element transactions and each scattered read, write or atomic as
//! one, into a [`TrafficCounter`]. The transaction size also prices
//! scattered accesses in the bytes behind the bandwidth floor.

/// Size of one global-memory transaction in bytes.
pub(crate) const TRANSACTION_BYTES: u64 = 128;

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
    /// Accumulates another counter.
    pub(crate) fn add(&mut self, other: &TrafficCounter) {
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
        assert_eq!(
            t,
            TrafficCounter {
                coalesced_reads: 3,
                random_reads: 3,
                writes: 1,
                atomics: 4,
            }
        );
    }
}
