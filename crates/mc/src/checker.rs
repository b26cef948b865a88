//! The exploration driver: systematic DFS with iterative preemption
//! bounding, and single-schedule replay.

use crate::engine::{self, Engine};
use crate::report::{Failure, FailureKind, Report};
use crate::sched::{Dfs, Schedule, Source};
use std::path::PathBuf;
use std::sync::Arc;

/// Execution-count ceiling: a runaway model fails loudly instead of
/// hanging CI.
const MAX_EXECUTIONS: u64 = 200_000;

/// A configured model checker for one named model.
///
/// ```no_run
/// use gcs_mc::{AtomicU64Api, Checker, JoinApi, McShims, Shims};
/// use std::sync::Arc;
///
/// let report = Checker::new("counter").check(|| {
///     let c = Arc::new(<McShims as Shims>::AtomicU64::new(0));
///     let c2 = Arc::clone(&c);
///     let t = McShims::spawn(move || {
///         c2.fetch_add(1);
///     });
///     c.fetch_add(1);
///     t.join();
///     assert_eq!(c.load(), 2);
/// });
/// report.assert_ok();
/// ```
#[derive(Debug)]
pub struct Checker {
    name: String,
    bound: usize,
}

/// Outcome of a single execution (internal).
struct Exec {
    failure: Option<Failure>,
    digest: u64,
    source: Source,
}

fn run_one(model: &Arc<dyn Fn() + Send + Sync>, source: Source) -> Exec {
    let eng = Arc::new(Engine::new(source));
    engine::install_root(&eng);
    let m = Arc::clone(model);
    let eng2 = Arc::clone(&eng);
    let root = std::thread::Builder::new()
        .name("mc-0".into())
        .stack_size(256 * 1024)
        .spawn(move || engine::model_thread(eng2, 0, Box::new(move || m())))
        .expect("spawn mc root thread");
    let mut st = eng.wait_done();
    let (failure, digest, source, handles) = st.harvest();
    drop(st);
    for h in handles {
        let _ = h.join();
    }
    let _ = root.join();
    Exec { failure, digest, source }
}

impl Checker {
    /// A checker named `name` (names the repro artifact). The
    /// preemption bound is `GCS_MC_BOUND` when set (nightly CI sets 2),
    /// else 1 (what tier-1 CI runs).
    pub fn new(name: &str) -> Checker {
        let bound =
            std::env::var("GCS_MC_BOUND").ok().and_then(|v| v.parse::<usize>().ok()).unwrap_or(1);
        Checker { name: name.to_string(), bound }
    }

    /// Override the preemption bound (`0` = no preemptions, CHESS
    /// round 0).
    pub fn preemption_bound(mut self, bound: usize) -> Checker {
        self.bound = bound;
        self
    }

    /// Where failure artifacts go: `GCS_MC_ARTIFACT_DIR`, else
    /// `<tmp>/gcs-mc-artifacts`.
    fn artifact_dir() -> PathBuf {
        std::env::var_os("GCS_MC_ARTIFACT_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| std::env::temp_dir().join("gcs-mc-artifacts"))
    }

    fn write_artifact(&self, f: &Failure, executions: u64) -> Option<PathBuf> {
        let dir = Self::artifact_dir();
        std::fs::create_dir_all(&dir).ok()?;
        let path = dir.join(format!("{}.repro", self.name));
        let body = format!(
            "model: {}\nkind: {}\nschedule: {}\ndigest: {:016x}\nexecutions: {}\n\
             replay: Checker::new(\"{}\").replay(model, &Schedule::from_hex(\"{}\").unwrap())\n",
            self.name, f.kind, f.schedule, f.digest, executions, self.name, f.schedule,
        );
        std::fs::write(&path, body).ok()?;
        Some(path)
    }

    fn finish(&self, executions: u64, digest: u64, failure: Option<Failure>) -> Report {
        let artifact = failure.as_ref().and_then(|f| self.write_artifact(f, executions));
        Report { name: self.name.clone(), executions, digest, failure, artifact }
    }

    /// Systematically explore `model`: exhaust all schedules with 0
    /// preemptions, then 1, … up to the bound (CHESS-style iterative
    /// preemption bounding — shallow bug first, smallest repro first).
    /// Stops at the first failure; the report carries its replayable
    /// schedule.
    pub fn check<F: Fn() + Send + Sync + 'static>(&self, model: F) -> Report {
        let model: Arc<dyn Fn() + Send + Sync> = Arc::new(model);
        let mut executions: u64 = 0;
        let mut last_digest = 0u64;
        for b in 0..=self.bound {
            // Each round re-explores the lower-preemption prefix space
            // (CHESS does too); the duplicated work is tiny next to
            // the new frontier and keeps the driver state trivial.
            let mut dfs = Dfs::new(b);
            loop {
                if executions >= MAX_EXECUTIONS {
                    let failure = Failure {
                        kind: FailureKind::ExecutionCap,
                        schedule: Schedule(Vec::new()),
                        digest: last_digest,
                    };
                    return self.finish(executions, last_digest, Some(failure));
                }
                dfs.begin();
                let exec = run_one(&model, Source::Dfs(dfs));
                executions += 1;
                last_digest = exec.digest;
                if let Some(f) = exec.failure {
                    return self.finish(executions, last_digest, Some(f));
                }
                let Source::Dfs(d) = exec.source else {
                    unreachable!("dfs source round-trips");
                };
                dfs = d;
                if !dfs.backtrack() {
                    break;
                }
            }
        }
        self.finish(executions, last_digest, None)
    }

    /// Replay one schedule (e.g. from a `.repro` artifact). The report
    /// digest identifies the execution; a failing schedule reproduces
    /// the same failure deterministically.
    pub fn replay<F: Fn() + Send + Sync + 'static>(&self, model: F, schedule: &Schedule) -> Report {
        let model: Arc<dyn Fn() + Send + Sync> = Arc::new(model);
        let exec = run_one(&model, Source::replay(schedule));
        self.finish(1, exec.digest, exec.failure)
    }
}
