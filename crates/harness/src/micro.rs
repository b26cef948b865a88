//! `exp_all micro`: what one call of each checker-path and observability
//! primitive costs, as one table.
//!
//! These are the rows EXPERIMENTS.md §"Micro-benchmarks" and the
//! `gcs-obs` <5 % overhead budget cite. Each is the median of five timed
//! batches (`std::time::Instant`, as the repository benchmark's probes
//! time theirs); wall-clock numbers, so unlike the E-series tables they
//! differ run to run.

use crate::{row, Stack, StackConfig, Table};
use gcs_core::adversary::SystemAdversary;
use gcs_core::derived::DerivedState;
use gcs_core::invariants::all_invariants;
use gcs_core::system::{SysState, VsToToSystem};
use gcs_core::to_trace::check_to_trace;
use gcs_ioa::Runner;
use gcs_model::{Majority, ProcId};
use gcs_obs::{EventKind, Obs};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median over five timed batches of `f`, in ns per call.
fn time_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[2]
}

fn render(ns: f64) -> String {
    match ns {
        x if x < 1e3 => format!("{x:.2} ns"),
        x if x < 1e6 => format!("{:.2} µs", x / 1e3),
        x => format!("{:.2} ms", x / 1e6),
    }
}

fn abstract_system(n: u32) -> VsToToSystem {
    let procs = ProcId::range(n);
    VsToToSystem::new(procs.clone(), procs, Arc::new(Majority::new(n as usize)))
}

/// A mid-execution state of the composed system: the fixture of the
/// invariant, abstraction and derived-state rows.
fn mid_execution_state() -> SysState {
    let mut runner = Runner::new(abstract_system(3), SystemAdversary::default(), 3);
    runner.run(600).expect("no invariants installed").final_state().clone()
}

/// Times every row; `quick` divides the iteration counts by 20.
pub fn run(quick: bool) -> Table {
    let iters = |full: u64| if quick { (full / 20).max(1) } else { full };
    let mut t = Table::new(
        "micro — checker-path and observability cost per call (median of 5 batches)",
        &["row", "iterations per batch", "time per call"],
    );
    let mut time = |name: &str, full: u64, f: &mut dyn FnMut()| {
        let n = iters(full);
        t.row(row![name, n, render(time_ns(n, f))]);
    };

    let state = mid_execution_state();
    let checks = all_invariants();
    time("invariant_suite_one_state", 400, &mut || {
        // One shared snapshot serves the whole suite.
        let d = DerivedState::new(&state);
        black_box(checks.iter().filter(|(_, check)| check(&state, &d).is_err()).count());
    });
    time("simulation_abstraction_one_state", 2_000, &mut || {
        black_box(gcs_core::simulation::abstraction(&state).queue.len());
    });
    for n in [3u32, 5] {
        time(&format!("abstract_scheduler_steps/{n}"), 40, &mut || {
            let mut runner = Runner::new(abstract_system(n), SystemAdversary::default(), 7);
            black_box(runner.run(500).expect("no invariants installed").actions().len());
        });
    }
    time("derived_state_snapshot", 2_000, &mut || {
        black_box(DerivedState::new(&state).entries.len());
    });

    // Fixture of the checker rows: a recorded implementation trace.
    let mut stack = Stack::new(StackConfig::standard(3, 5, 5));
    let pi = stack.config().proto.pi;
    for i in 0..50u64 {
        stack.schedule_bcast(4 * pi + i * 10, ProcId((i % 3) as u32));
    }
    stack.run_until(4 * pi + 500 + 60 * pi);
    let to_events = stack.to_obs().untimed();
    let vs_actions = stack.vs_actions();
    let procs = ProcId::range(3);
    time("to_trace_checker", 2_000, &mut || {
        black_box(check_to_trace(&to_events).brcvs);
    });
    time("cause_checker", 400, &mut || {
        black_box(gcs_core::cause::check_trace(&vs_actions, &procs).gprcv_checked);
    });

    // Pre-resolved handles, as the transport hot paths hold them. "bare"
    // is the uninstrumented frame bookkeeping stand-in; "instrumented"
    // adds what one real frame pays: a counter bump plus a trace event.
    let obs = Obs::new();
    let counter = obs.registry.counter_labeled("bench_frames_total", &[("node", "0")]);
    let hist = obs.registry.histogram("bench_latency_us");
    let mut x = 0u64;
    time("obs_overhead/frame_path_bare", 20_000_000, &mut || {
        x = x.wrapping_add(1);
        black_box(x);
    });
    time("obs_overhead/frame_path_instrumented", 2_000_000, &mut || {
        counter.inc();
        obs.trace.record(EventKind::Send { from: 0, to: 1 });
    });
    time("obs_overhead/counter_inc", 20_000_000, &mut || counter.inc());
    let mut v = 1u64;
    time("obs_overhead/histogram_record", 2_000_000, &mut || {
        v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        hist.record(v >> 40);
    });
    time("obs_overhead/trace_record", 2_000_000, &mut || {
        obs.trace.record(EventKind::Recv { node: 0, from: 1 });
    });
    // Cold-path lookup (label resolution through the shard map).
    time("obs_overhead/counter_labeled_lookup", 2_000_000, &mut || {
        black_box(obs.registry.counter_labeled("bench_frames_total", &[("node", "0")]).get());
    });
    t
}
