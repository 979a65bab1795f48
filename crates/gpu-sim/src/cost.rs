//! The cycle cost model.
//!
//! [`Cost`] is the unit of work the engine charges to a scheduling slot
//! (a simulated thread, warp or CTA); [`CostModel`] converts it to
//! cycles. The constants are calibration knobs, not measurements — they
//! are chosen so that the *ratios* the paper's evaluation depends on
//! hold: an uncoalesced access costs a full transaction while a
//! coalesced one amortizes over 32 lanes; an atomic costs more than a
//! plain write and serializes under contention; a kernel launch costs
//! microseconds while a barrier costs sub-microsecond.

/// Simulated cycles.
pub type CycleCount = u64;

/// Work performed by one scheduled task, in model units.
///
/// Element counts are the task's *total* work. `width` is the number of
/// lanes cooperating on the task (1 for a thread task, 32 for a warp
/// task, the CTA width for a CTA task): elapsed cycles divide by it,
/// while memory traffic — which is physical bytes moved — does not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cost {
    /// ALU operations (comparisons, adds, lane shuffles).
    pub compute_ops: u64,
    /// Elements read with warp-coalesced addressing.
    pub coalesced_reads: u64,
    /// Elements read with scattered addressing (one transaction each).
    pub random_reads: u64,
    /// Elements written (assumed scattered unless noted otherwise).
    pub writes: u64,
    /// Atomic read-modify-write operations.
    pub atomics: u64,
    /// Extra serialization on atomics: number of *conflicting* ops that
    /// had to retry/serialize behind this slot's atomics.
    pub atomic_conflicts: u64,
    /// Cooperating lanes executing this task in parallel.
    pub width: u64,
}

impl Default for Cost {
    fn default() -> Self {
        Self {
            compute_ops: 0,
            coalesced_reads: 0,
            random_reads: 0,
            writes: 0,
            atomics: 0,
            atomic_conflicts: 0,
            width: 1,
        }
    }
}

impl Cost {
    /// A pure-compute cost.
    #[cfg(test)]
    pub(crate) fn compute(ops: u64) -> Self {
        Self {
            compute_ops: ops,
            ..Self::default()
        }
    }

    /// Bytes this cost moves through global memory.
    ///
    /// Coalesced elements cost their 4 bytes. Scattered accesses fetch a
    /// 128-byte transaction but the L2 cache recovers most of the waste
    /// on graph workloads (neighbor metadata exhibits strong reuse), so
    /// they are charged a quarter transaction; atomics, which bypass
    /// part of the hierarchy, are charged half.
    ///
    /// Linear in the counters, so the bytes of a sum of costs are the
    /// sum of their bytes.
    #[inline]
    pub(crate) fn bytes(&self) -> u64 {
        self.coalesced_reads * 4
            + self.random_reads * crate::memory::TRANSACTION_BYTES / 4
            + self.writes * crate::memory::TRANSACTION_BYTES / 4
            + self.atomics * crate::memory::TRANSACTION_BYTES / 2
    }
}

/// Converts [`Cost`] units to cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Cycles per ALU op.
    pub cycles_per_op: u64,
    /// Cycles per coalesced element (transaction cost amortized over a
    /// warp: 128 B / 32 lanes at ~1 cycle per 4 B element).
    pub cycles_per_coalesced_elem: u64,
    /// Cycles per scattered element (a whole transaction's latency slice).
    pub cycles_per_random_elem: u64,
    /// Cycles per written element.
    pub cycles_per_write: u64,
    /// Base cycles per atomic.
    pub cycles_per_atomic: u64,
    /// Additional cycles per conflicting atomic (serialization).
    pub cycles_per_atomic_conflict: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            cycles_per_op: 1,
            cycles_per_coalesced_elem: 1,
            cycles_per_random_elem: 16,
            cycles_per_write: 4,
            cycles_per_atomic: 32,
            cycles_per_atomic_conflict: 24,
        }
    }
}

impl CostModel {
    /// Raw cycles for `cost`'s total work, ignoring lane cooperation.
    #[inline]
    pub(crate) fn raw_cycles(&self, cost: &Cost) -> CycleCount {
        cost.compute_ops * self.cycles_per_op
            + cost.coalesced_reads * self.cycles_per_coalesced_elem
            + cost.random_reads * self.cycles_per_random_elem
            + cost.writes * self.cycles_per_write
            + cost.atomics * self.cycles_per_atomic
            + cost.atomic_conflicts * self.cycles_per_atomic_conflict
    }

    /// Cycles charged to the owning slot: total work divided across the
    /// task's cooperating lanes, rounded up.
    ///
    /// The engine charges this once per task, and a thread (1), warp
    /// (32) or default CTA (128) width is a power of two, so those
    /// divide by a shift and a mask; any other width takes `div_ceil`.
    #[inline]
    pub(crate) fn cycles(&self, cost: &Cost) -> CycleCount {
        let raw = self.raw_cycles(cost);
        let width = cost.width.max(1);
        if width.is_power_of_two() {
            (raw >> width.trailing_zeros()) + u64::from(raw & (width - 1) != 0)
        } else {
            raw.div_ceil(width)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_reads_cost_more_than_coalesced() {
        let m = CostModel::default();
        let coalesced = Cost {
            coalesced_reads: 32,
            ..Default::default()
        };
        let random = Cost {
            random_reads: 32,
            ..Default::default()
        };
        assert!(m.cycles(&random) >= m.cycles(&coalesced) * 8);
    }

    #[test]
    fn atomics_cost_more_than_writes() {
        let m = CostModel::default();
        let w = Cost {
            writes: 10,
            ..Default::default()
        };
        let a = Cost {
            atomics: 10,
            ..Default::default()
        };
        assert!(m.cycles(&a) > m.cycles(&w));
    }

    #[test]
    fn conflicts_serialize() {
        let m = CostModel::default();
        let free = Cost {
            atomics: 10,
            ..Default::default()
        };
        let contended = Cost {
            atomics: 10,
            atomic_conflicts: 9,
            ..Default::default()
        };
        assert!(m.cycles(&contended) > m.cycles(&free));
    }

    #[test]
    fn zero_cost_is_zero_cycles() {
        assert_eq!(CostModel::default().cycles(&Cost::default()), 0);
    }

    #[test]
    fn width_divides_cycles_not_bytes() {
        let m = CostModel::default();
        let narrow = Cost {
            random_reads: 64,
            ..Cost::default()
        };
        let wide = Cost {
            width: 32,
            ..narrow
        };
        assert_eq!(m.cycles(&narrow), 32 * m.cycles(&wide));
        assert_eq!(narrow.bytes(), wide.bytes());
    }

    #[test]
    fn cycles_round_up_at_every_width() {
        // Power-of-two widths take the shift, the rest `div_ceil`; both
        // must round up exactly, on and either side of a multiple.
        let m = CostModel::default();
        for width in [0u64, 1, 2, 3, 31, 32, 33, 96, 128, 1024] {
            let w = width.max(1);
            for multiple in [0u64, 1, 2, 7, 1 << 20] {
                for raw in [
                    multiple * w,
                    multiple * w + 1,
                    (multiple * w).saturating_sub(1),
                ] {
                    let cost = Cost {
                        compute_ops: raw,
                        width,
                        ..Cost::default()
                    };
                    assert_eq!(m.raw_cycles(&cost), raw);
                    assert_eq!(m.cycles(&cost), raw.div_ceil(w), "raw {raw} width {width}");
                }
            }
        }
        let top = Cost {
            compute_ops: u64::MAX,
            width: 32,
            ..Cost::default()
        };
        assert_eq!(m.cycles(&top), u64::MAX.div_ceil(32));
    }
}
