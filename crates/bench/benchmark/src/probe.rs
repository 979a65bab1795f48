//! `peak_rss_mib`: the peak resident memory of a process that does what
//! a user of the workload does and nothing else — generate the edge
//! lists, build and bind the graphs, answer the query set once — read
//! from `VmHWM` in a child process of its own.
//!
//! A child, not the measuring process: that one also holds the
//! reference answers, every expected answer and the cold phases' second
//! set of graphs, which together were a third of its peak and would
//! hide a change in CSR, grid or scratch memory.
//!
//! The child runs with glibc's `MALLOC_MMAP_THRESHOLD_` pinned at its
//! 128 KiB default. Left dynamic, the threshold rises with the first
//! large block freed, and whether the service's half-megabyte answers
//! then land in reusable heap or in fresh pages depends on the exact
//! sizes the seed's edge list gave earlier blocks: `serve_open` read 58
//! or 74 MiB by seed for the same live memory. Pinned, every large block
//! is its own mapping, returned when freed, and the peak follows what is
//! live (55.5–55.8 MiB over the same seeds). Only the probe runs this
//! way; every timed phase runs on the allocator as users get it.

use std::process::Command;

use simdx_algos::Bfs;
use simdx_core::ServiceConfig;

use crate::batch::{timed_pass, Batch, BatchInputs};
use crate::harness::{Answer, Mode, Session};
use crate::inputs::draw_queries;
use crate::serve::{
    drain, faulted_config, faulted_round, starvation_budget, FaultedSet, ScratchDir, ServeInputs,
    PHASE_DRAIN,
};
use crate::{spec, Run};

/// The flag that makes a single-workload invocation the probe's child.
pub const FLAG: &str = "--rss-probe";

/// `VmHWM` of this process in MiB. Panics where `/proc` has no such
/// line: the run cannot report the metric then.
fn vm_hwm_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status reads");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("/proc/self/status has VmHWM");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|kib| kib.parse().ok())
        .expect("VmHWM is a number of kB");
    kib / 1024.0
}

/// The probe's body: one pass over the workload's query set on a
/// freshly built session, then the reading, with everything still live.
pub fn in_this_process(run: &Run) -> f64 {
    let batch = |kind| {
        let inputs = BatchInputs::generate(kind, run.seed, &run.sizing);
        let runtime = Mode::Serial.runtime();
        let session = Session::bind(&runtime, &inputs.graphs);
        let answers = timed_pass(&session, &inputs.suite).1;
        let peak = vm_hwm_mib();
        std::hint::black_box(answers);
        peak
    };
    match run.workload.as_str() {
        spec::RMAT17_ANALYTICS => batch(Batch::Analytics),
        spec::ROAD_TRAVERSAL => batch(Batch::Road),
        serving => {
            let inputs = ServeInputs::generate(run);
            let runtime = Mode::Serial.runtime();
            let bound = runtime.bind(&inputs.graph);
            if serving == spec::SERVE_OPEN {
                let queries = draw_queries(
                    &inputs.pool,
                    run.seed,
                    PHASE_DRAIN,
                    run.sizing.drain_queries,
                );
                let report = drain(&bound, &queries, 1, 1, ServiceConfig::default()).1;
                let peak = vm_hwm_mib();
                std::hint::black_box(report);
                peak
            } else {
                // Budgets from throw-away solo runs, so no answer is
                // retained that the workload's caller would not hold.
                let set = FaultedSet::new(&inputs, run, |src| {
                    let solo = bound
                        .run(Bfs::new(src))
                        .execute()
                        .expect("benchmark queries run to convergence");
                    starvation_budget(&Answer::of_u32(solo))
                });
                let scratch = ScratchDir::create("probe");
                let round = faulted_round(
                    &bound,
                    &set,
                    faulted_config(1),
                    &scratch.path().join("spill"),
                );
                let peak = vm_hwm_mib();
                std::hint::black_box(round).expect("the probe's faulted round runs");
                peak
            }
        }
    }
}

/// The workload's `peak_rss_mib`: from a child re-run of this binary
/// with `run.probe_args` plus [`FLAG`], or from this process when there
/// are none (the unit tests, whose executable is not the benchmark).
pub fn peak_rss_mib(run: &Run) -> f64 {
    let Some(args) = &run.probe_args else {
        return in_this_process(run);
    };
    let exe = std::env::current_exe().expect("the benchmark finds its own executable");
    // `output` waits for the child to end and collects its pipes.
    let out = Command::new(exe)
        .args(args)
        .arg(FLAG)
        .env("MALLOC_MMAP_THRESHOLD_", "131072")
        .output()
        .expect("the memory probe starts");
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(mib) if out.status.success() => mib,
        _ => panic!(
            "the memory probe failed ({}): {text}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ),
    }
}
