//! The experiments, one module per id. Each exposes
//! `run(quick: bool) -> Vec<Table>`; `quick` shrinks sizes for tests
//! while exercising the same code paths.

pub mod e01;
pub mod e02;
pub mod e03;
pub mod e04;
pub mod e05;
pub mod e06;
pub mod e07;
pub mod e08;
pub mod e09;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;

/// One experiment entry point: `run(quick) -> tables`.
pub type ExperimentFn = fn(bool) -> Vec<crate::Table>;

/// Every experiment, in id order: what `exp_all` without ids runs, and
/// the ids it accepts.
pub const ALL: [(&str, ExperimentFn); 14] = [
    ("e01", e01::run),
    ("e02", e02::run),
    ("e03", e03::run),
    ("e04", e04::run),
    ("e05", e05::run),
    ("e06", e06::run),
    ("e07", e07::run),
    ("e08", e08::run),
    ("e09", e09::run),
    ("e10", e10::run),
    ("e11", e11::run),
    ("e12", e12::run),
    ("e13", e13::run),
    ("e14", e14::run),
];

/// Runs one experiment, timing it into the process-wide registry
/// (`harness_experiment_ms{experiment=..}`).
pub fn run_timed(name: &str, run: ExperimentFn, quick: bool) -> Vec<crate::Table> {
    let reg = &crate::obs().registry;
    let t0 = std::time::Instant::now();
    let tables = run(quick);
    reg.histogram_labeled("harness_experiment_ms", &[("experiment", name)])
        .record(t0.elapsed().as_millis() as u64);
    reg.counter_labeled("harness_experiments_total", &[("experiment", name)]).inc();
    tables
}
