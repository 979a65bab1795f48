//! Random edge-weight assignment.
//!
//! "For graphs without edge weight, we use a random generator to generate
//! one weight for each edge similar to Gunrock" (§6). Gunrock draws
//! uniform integers in `[1, 64)`; we follow that convention and keep it
//! deterministic per seed so that SSSP results are reproducible.

use crate::edgelist::EdgeList;
use crate::Weight;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default weight range (inclusive low, exclusive high), following Gunrock.
pub(crate) const DEFAULT_WEIGHT_RANGE: (Weight, Weight) = (1, 64);

/// Returns a weighted copy of `el`, drawing each weight uniformly from
/// `range`.
///
/// # Panics
///
/// Panics if the range is empty.
pub(crate) fn assign_random_weights(el: &EdgeList, range: (Weight, Weight), seed: u64) -> EdgeList {
    assert!(range.0 < range.1, "weight range must be non-empty");
    let mut rng = StdRng::seed_from_u64(seed);
    let weights: Vec<Weight> = (0..el.num_edges())
        .map(|_| rng.gen_range(range.0..range.1))
        .collect();
    EdgeList::from_weighted(el.num_vertices(), el.edges().to_vec(), weights)
}

/// Convenience wrapper using `DEFAULT_WEIGHT_RANGE`.
pub fn assign_default_weights(el: &EdgeList, seed: u64) -> EdgeList {
    assign_random_weights(el, DEFAULT_WEIGHT_RANGE, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_in_range_and_deterministic() {
        let el = EdgeList::from_pairs(vec![(0, 1), (1, 2), (2, 0), (0, 2)]);
        let w1 = assign_default_weights(&el, 99);
        let w2 = assign_default_weights(&el, 99);
        assert_eq!(w1, w2);
        for &w in w1.weights().expect("weighted") {
            assert!((1..64).contains(&w));
        }
    }

    #[test]
    fn different_seed_different_weights() {
        let el = EdgeList::from_pairs(vec![(0, 1); 64]);
        let a = assign_default_weights(&el, 1);
        let b = assign_default_weights(&el, 2);
        assert_ne!(a.weights(), b.weights());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_range_panics() {
        let el = EdgeList::from_pairs(vec![(0, 1)]);
        assign_random_weights(&el, (5, 5), 0);
    }
}
