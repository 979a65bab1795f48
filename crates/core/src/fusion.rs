//! Push-pull based kernel fusion (§5) and the Table 2 register model.
//!
//! Three strategies are modeled:
//!
//! * **None** — every compute and task-management kernel is a separate
//!   launch each iteration (register consumption 22–30 per kernel,
//!   launch count up to tens of thousands);
//! * **All** — the whole algorithm is one persistent kernel (registers
//!   ≈ 110: every stage's live state coexists), launched once,
//!   synchronizing through the software global barrier;
//! * **PushPull** — SIMD-X's strategy: one fused kernel per direction
//!   phase (registers 48 push / 50 pull), relaunched only when the
//!   computation switches between push and pull (3 launches for BFS).
//!
//! Register numbers are the paper's measured `-Xptxas -v` values
//! (Table 2); they drive occupancy via Equation 1, which is how fusion
//! strategy changes performance in the simulator.

use simdx_gpu::{KernelDesc, SchedUnit};
use simdx_graph::csr::Direction;

/// Measured register consumption per kernel (Table 2).
pub mod registers {
    /// Unfused push kernels: Thread / Warp / CTA / task management.
    pub const PUSH_THREAD: u32 = 26;
    /// Unfused push Warp kernel.
    pub const PUSH_WARP: u32 = 27;
    /// Unfused push CTA kernel.
    pub const PUSH_CTA: u32 = 28;
    /// Unfused push task-management kernel.
    pub const PUSH_TASK_MGMT: u32 = 24;
    /// Unfused pull Thread kernel.
    pub const PULL_THREAD: u32 = 24;
    /// Unfused pull Warp kernel.
    pub const PULL_WARP: u32 = 24;
    /// Unfused pull CTA kernel.
    pub const PULL_CTA: u32 = 22;
    /// Unfused pull task-management kernel.
    pub const PULL_TASK_MGMT: u32 = 30;
    /// Selectively-fused push kernel.
    pub const FUSED_PUSH: u32 = 48;
    /// Selectively-fused pull kernel.
    pub const FUSED_PULL: u32 = 50;
    /// Aggressively fused whole-algorithm kernel.
    pub const ALL_FUSION: u32 = 110;
}

/// Kernel-fusion strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FusionStrategy {
    /// No fusion: per-iteration launches.
    None,
    /// One persistent kernel for the whole algorithm.
    All,
    /// SIMD-X: fuse within push and pull phases.
    PushPull,
}

/// The role a kernel invocation plays within an iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelRole {
    /// Compute kernel at the given scheduling granularity.
    Compute(SchedUnit),
    /// Task-management (filter) kernel.
    TaskMgmt,
}

/// Every role, in [`FusionPlan`]'s descriptor-table column order.
const ROLES: [KernelRole; 4] = [
    KernelRole::Compute(SchedUnit::Thread),
    KernelRole::Compute(SchedUnit::Warp),
    KernelRole::Compute(SchedUnit::Cta),
    KernelRole::TaskMgmt,
];

/// Produces kernel descriptors and launch decisions for a strategy.
#[derive(Clone, Debug)]
pub struct FusionPlan {
    strategy: FusionStrategy,
    /// The descriptor of every (direction, role) pair, built once at
    /// construction: rows push / pull, columns in [`ROLES`] order.
    kernels: [[KernelDesc; 4]; 2],
    /// Direction whose fused kernel is currently resident, if any.
    running: Option<Direction>,
    /// Whether the all-fusion kernel has been launched.
    all_launched: bool,
}

impl FusionPlan {
    /// Creates a plan for the given strategy and CTA width.
    pub fn new(strategy: FusionStrategy, threads_per_cta: u32) -> Self {
        let kernels = [Direction::Push, Direction::Pull].map(|dir| {
            ROLES.map(|role| {
                let (name, regs) = Self::footprint(strategy, dir, role);
                KernelDesc::new(name, regs).with_threads_per_cta(threads_per_cta)
            })
        });
        Self {
            strategy,
            kernels,
            running: None,
            all_launched: false,
        }
    }

    /// The strategy in force.
    pub fn strategy(&self) -> FusionStrategy {
        self.strategy
    }

    /// Name and register count (Table 2) of the kernel that runs `role`
    /// in `dir` under `strategy`. Fused strategies map every role onto
    /// the single fused kernel (whose register pressure they all
    /// share).
    fn footprint(
        strategy: FusionStrategy,
        dir: Direction,
        role: KernelRole,
    ) -> (&'static str, u32) {
        match strategy {
            FusionStrategy::None => match (dir, role) {
                (Direction::Push, KernelRole::Compute(SchedUnit::Thread)) => {
                    ("push-thread", registers::PUSH_THREAD)
                }
                (Direction::Push, KernelRole::Compute(SchedUnit::Warp)) => {
                    ("push-warp", registers::PUSH_WARP)
                }
                (Direction::Push, KernelRole::Compute(SchedUnit::Cta)) => {
                    ("push-cta", registers::PUSH_CTA)
                }
                (Direction::Push, KernelRole::TaskMgmt) => {
                    ("push-taskmgmt", registers::PUSH_TASK_MGMT)
                }
                (Direction::Pull, KernelRole::Compute(SchedUnit::Thread)) => {
                    ("pull-thread", registers::PULL_THREAD)
                }
                (Direction::Pull, KernelRole::Compute(SchedUnit::Warp)) => {
                    ("pull-warp", registers::PULL_WARP)
                }
                (Direction::Pull, KernelRole::Compute(SchedUnit::Cta)) => {
                    ("pull-cta", registers::PULL_CTA)
                }
                (Direction::Pull, KernelRole::TaskMgmt) => {
                    ("pull-taskmgmt", registers::PULL_TASK_MGMT)
                }
            },
            FusionStrategy::All => ("all-fused", registers::ALL_FUSION),
            FusionStrategy::PushPull => match dir {
                Direction::Push => ("fused-push", registers::FUSED_PUSH),
                Direction::Pull => ("fused-pull", registers::FUSED_PULL),
            },
        }
    }

    /// The kernel descriptor used for `role` in `dir` under this
    /// strategy — a table lookup, no allocation.
    pub fn kernel(&self, dir: Direction, role: KernelRole) -> &KernelDesc {
        let row = match dir {
            Direction::Push => 0,
            Direction::Pull => 1,
        };
        let col = match role {
            KernelRole::Compute(SchedUnit::Thread) => 0,
            KernelRole::Compute(SchedUnit::Warp) => 1,
            KernelRole::Compute(SchedUnit::Cta) => 2,
            KernelRole::TaskMgmt => 3,
        };
        &self.kernels[row][col]
    }

    /// Every kernel descriptor of the plan, for configuration checks.
    pub(crate) fn kernels(&self) -> impl Iterator<Item = &KernelDesc> {
        self.kernels.iter().flatten()
    }

    /// Whether the next invocation of `role` in `dir` pays a kernel
    /// launch, updating the resident-kernel state.
    ///
    /// * `None`: every invocation is a launch.
    /// * `All`: only the very first invocation launches.
    /// * `PushPull`: launches when the direction changes (the fused
    ///   kernel for the previous phase terminated at the switch).
    pub fn needs_launch(&mut self, dir: Direction) -> bool {
        match self.strategy {
            FusionStrategy::None => true,
            FusionStrategy::All => {
                let first = !self.all_launched;
                self.all_launched = true;
                first
            }
            FusionStrategy::PushPull => {
                let switch = self.running != Some(dir);
                self.running = Some(dir);
                switch
            }
        }
    }

    /// Whether iterations synchronize through the software global
    /// barrier (fused strategies) rather than through kernel-launch
    /// boundaries (unfused).
    pub fn uses_global_barrier(&self) -> bool {
        !matches!(self.strategy, FusionStrategy::None)
    }

    /// Launch-residency state `(running, all_launched)`, captured by
    /// the engine's checkpoint path so a resumed run charges launches
    /// exactly where the uninterrupted run would have.
    pub(crate) fn launch_state(&self) -> (Option<Direction>, bool) {
        (self.running, self.all_launched)
    }

    /// Restores launch-residency state captured by [`Self::launch_state`].
    pub(crate) fn restore_launch_state(&mut self, running: Option<Direction>, all_launched: bool) {
        self.running = running;
        self.all_launched = all_launched;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_register_values() {
        let plan = FusionPlan::new(FusionStrategy::None, 128);
        let regs = |d, r| plan.kernel(d, r).registers_per_thread;
        assert_eq!(
            regs(Direction::Push, KernelRole::Compute(SchedUnit::Thread)),
            26
        );
        assert_eq!(
            regs(Direction::Push, KernelRole::Compute(SchedUnit::Warp)),
            27
        );
        assert_eq!(
            regs(Direction::Push, KernelRole::Compute(SchedUnit::Cta)),
            28
        );
        assert_eq!(regs(Direction::Push, KernelRole::TaskMgmt), 24);
        assert_eq!(
            regs(Direction::Pull, KernelRole::Compute(SchedUnit::Thread)),
            24
        );
        assert_eq!(
            regs(Direction::Pull, KernelRole::Compute(SchedUnit::Cta)),
            22
        );
        assert_eq!(regs(Direction::Pull, KernelRole::TaskMgmt), 30);

        let fused = FusionPlan::new(FusionStrategy::PushPull, 128);
        assert_eq!(
            fused
                .kernel(Direction::Push, KernelRole::TaskMgmt)
                .registers_per_thread,
            48
        );
        assert_eq!(
            fused
                .kernel(Direction::Pull, KernelRole::Compute(SchedUnit::Warp))
                .registers_per_thread,
            50
        );

        let all = FusionPlan::new(FusionStrategy::All, 128);
        assert_eq!(
            all.kernel(Direction::Push, KernelRole::TaskMgmt)
                .registers_per_thread,
            110
        );
    }

    #[test]
    // The "constant" assertions are the point: they pin the Table 2
    // register constants to the §5 relationship the paper states.
    #[allow(clippy::assertions_on_constants)]
    fn fusion_halves_register_consumption_vs_all() {
        // §5: "the register consumption decreases to 48 and 55 [from
        // 110] thus increases the configurable thread count".
        assert!(registers::FUSED_PUSH * 2 <= registers::ALL_FUSION);
        assert!(registers::FUSED_PULL * 2 + 10 >= registers::ALL_FUSION);
    }

    #[test]
    fn none_strategy_always_launches() {
        let mut plan = FusionPlan::new(FusionStrategy::None, 128);
        for _ in 0..5 {
            assert!(plan.needs_launch(Direction::Push));
            assert!(plan.needs_launch(Direction::Pull));
        }
        assert!(!plan.uses_global_barrier());
    }

    #[test]
    fn all_strategy_launches_once() {
        let mut plan = FusionPlan::new(FusionStrategy::All, 128);
        assert!(plan.needs_launch(Direction::Push));
        assert!(!plan.needs_launch(Direction::Pull));
        assert!(!plan.needs_launch(Direction::Push));
        assert!(plan.uses_global_barrier());
    }

    #[test]
    fn pushpull_launches_on_direction_switch() {
        // The BFS pattern push → pull → push should cost exactly 3
        // launches (Table 2's "kernel launching count" row).
        let mut plan = FusionPlan::new(FusionStrategy::PushPull, 128);
        let mut launches = 0;
        for dir in [
            Direction::Push,
            Direction::Push,
            Direction::Pull,
            Direction::Pull,
            Direction::Pull,
            Direction::Push,
        ] {
            if plan.needs_launch(dir) {
                launches += 1;
            }
        }
        assert_eq!(launches, 3);
    }

    #[test]
    fn cta_width_propagates() {
        let plan = FusionPlan::new(FusionStrategy::PushPull, 256);
        assert_eq!(
            plan.kernel(Direction::Push, KernelRole::TaskMgmt)
                .threads_per_cta,
            256
        );
    }
}
