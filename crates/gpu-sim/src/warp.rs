//! Warp vote primitives with CUDA semantics.
//!
//! The **ballot filter** (§4) in `simdx-core` is built on these two:
//! `__ballot` condenses a warp-sized, coalesced chunk of metadata
//! comparisons into a lane mask, and `__popc` counts the lanes that
//! voted to enqueue their vertex.

use crate::WARP_SIZE;

/// A lane-activity mask, as returned by `__ballot`. Bit `i` corresponds
/// to lane `i`.
pub(crate) type LaneMask = u32;

/// `__ballot(predicate)`: returns a mask with bit `i` set iff lane `i`'s
/// predicate is true. Lanes beyond `predicates.len()` are inactive
/// (contribute 0), matching a partially-full warp at the end of an array.
///
/// # Panics
///
/// Panics if more than [`WARP_SIZE`] predicates are supplied.
pub fn ballot(predicates: &[bool]) -> LaneMask {
    assert!(predicates.len() <= WARP_SIZE, "a warp has 32 lanes");
    let mut mask = 0u32;
    for (lane, &p) in predicates.iter().enumerate() {
        if p {
            mask |= 1 << lane;
        }
    }
    mask
}

/// `__popc(mask)`: number of set bits — how many lanes voted true.
pub fn popc(mask: LaneMask) -> u32 {
    mask.count_ones()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ballot_sets_expected_bits() {
        let preds = [true, false, true, true];
        assert_eq!(ballot(&preds), 0b1101);
        assert_eq!(popc(ballot(&preds)), 3);
    }

    #[test]
    fn ballot_empty_is_zero() {
        assert_eq!(ballot(&[]), 0);
    }

    #[test]
    fn ballot_full_warp() {
        let preds = [true; 32];
        assert_eq!(ballot(&preds), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "32 lanes")]
    fn ballot_oversized_panics() {
        ballot(&[false; 33]);
    }
}
