//! Bounded deterministic-interleaving enumeration.
//!
//! [`Schedules`] enumerates, in lexicographic order, every interleaving
//! of `counts[i]` steps from each of N logical threads — i.e. all
//! distinct sequences over thread indices where thread `i` appears
//! exactly `counts[i]` times. The count of such sequences is the
//! multinomial coefficient `(Σcounts)! / Π(counts[i]!)`, so small step
//! vectors already give real coverage: `[3, 2, 2]` → 210 schedules.
//!
//! `simdx_core`'s `*_under_all_interleavings` unit tests and its
//! service ledger's call-order test replay each schedule against the
//! real types and assert the scenario's invariants hold under **every**
//! interleaving, not just the ones the OS scheduler happens to produce.
//!
//! This is exhaustive enumeration over a bounded step budget — the
//! honest, dependency-free core of what `loom` does, without its state
//! reduction. Budgets are chosen so full enumeration stays cheap.

/// Lexicographic enumerator over all interleavings of per-thread step
/// counts. Yields each schedule as a `Vec<usize>` of thread indices.
pub struct Schedules {
    counts: Vec<usize>,
    current: Option<Vec<usize>>,
}

impl Schedules {
    pub fn new(counts: &[usize]) -> Self {
        let total: usize = counts.iter().sum();
        // First schedule in lexicographic order: thread 0's steps, then
        // thread 1's, … An all-zero budget yields one empty schedule.
        let mut first = Vec::with_capacity(total);
        for (tid, &n) in counts.iter().enumerate() {
            first.extend(std::iter::repeat_n(tid, n));
        }
        Self {
            counts: counts.to_vec(),
            current: Some(first),
        }
    }

    /// The number of schedules this enumerator will yield:
    /// `(Σcounts)! / Π(counts[i]!)`, computed without overflow by
    /// interleaving multiplies and divides.
    pub fn count(counts: &[usize]) -> u128 {
        let mut result: u128 = 1;
        let mut placed: u128 = 0;
        for &n in counts {
            for k in 1..=n as u128 {
                placed += 1;
                result = result * placed / k;
            }
        }
        result
    }
}

impl Iterator for Schedules {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let cur = self.current.take()?;
        // Standard next-multiset-permutation: find the longest
        // non-increasing suffix, swap its predecessor with the smallest
        // element in the suffix greater than it, reverse the suffix.
        let mut next = cur.clone();
        let n = next.len();
        if n > 1 {
            let mut i = n - 1;
            while i > 0 && next[i - 1] >= next[i] {
                i -= 1;
            }
            if i > 0 {
                let pivot = i - 1;
                let mut j = n - 1;
                while next[j] <= next[pivot] {
                    j -= 1;
                }
                next.swap(pivot, j);
                next[i..].reverse();
                self.current = Some(next);
            }
        }
        debug_assert_eq!(
            {
                let mut seen = vec![0usize; self.counts.len()];
                for &t in &cur {
                    seen[t] += 1;
                }
                seen
            },
            self.counts,
            "schedule must use each thread's exact step budget"
        );
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn counts_match_the_multinomial() {
        assert_eq!(Schedules::count(&[1, 1]), 2);
        assert_eq!(Schedules::count(&[2, 2]), 6);
        assert_eq!(Schedules::count(&[3, 2, 2]), 210);
        assert_eq!(Schedules::count(&[1, 1, 1, 1]), 24);
        assert_eq!(Schedules::count(&[]), 1);
    }

    #[test]
    fn enumeration_is_exhaustive_and_duplicate_free() {
        let counts = [3, 2, 2];
        let all: Vec<_> = Schedules::new(&counts).collect();
        assert_eq!(all.len() as u128, Schedules::count(&counts));
        let distinct: BTreeSet<_> = all.iter().cloned().collect();
        assert_eq!(distinct.len(), all.len(), "no duplicate schedules");
        for s in &all {
            assert_eq!(s.len(), 7);
            assert_eq!(s.iter().filter(|&&t| t == 0).count(), 3);
            assert_eq!(s.iter().filter(|&&t| t == 1).count(), 2);
            assert_eq!(s.iter().filter(|&&t| t == 2).count(), 2);
        }
    }

    #[test]
    fn enumeration_is_deterministic_and_lexicographic() {
        let a: Vec<_> = Schedules::new(&[2, 1]).collect();
        let b: Vec<_> = Schedules::new(&[2, 1]).collect();
        assert_eq!(a, b, "same input, same order, every run");
        assert_eq!(a, vec![vec![0, 0, 1], vec![0, 1, 0], vec![1, 0, 0]]);
    }

    #[test]
    fn zero_budget_threads_and_empty_input_degenerate_cleanly() {
        let empty: Vec<_> = Schedules::new(&[]).collect();
        assert_eq!(empty, vec![Vec::<usize>::new()]);
        let zeros: Vec<_> = Schedules::new(&[0, 2, 0]).collect();
        assert_eq!(zeros, vec![vec![1, 1]]);
    }
}
