//! Failure reporting: what the checker found and how to reproduce it.

use crate::sched::Schedule;
use std::fmt;
use std::panic::Location;
use std::path::PathBuf;

/// A source location (file:line:column) where a thread blocked. The
/// blocking shim operations are `#[track_caller]`, so this points at
/// the call site inside the ported structure, not inside gcs-mc.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Site {
    /// Source file as recorded by the compiler.
    pub file: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub column: u32,
}

impl Site {
    pub(crate) fn of(loc: &'static Location<'static>) -> Site {
        Site { file: loc.file(), line: loc.line(), column: loc.column() }
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.file, self.line, self.column)
    }
}

/// What went wrong in an execution.
#[derive(Clone, Debug)]
pub enum FailureKind {
    /// Every live thread is blocked and none holds a timed wait.
    Deadlock {
        /// `(thread ordinal, blocking site)` for each blocked thread.
        blocked: Vec<(usize, Site)>,
    },
    /// A model thread panicked (assertion failure in the model).
    Panic {
        /// Thread ordinal that panicked.
        thread: usize,
        /// Rendered panic payload.
        message: String,
    },
    /// A replayed schedule did not match the execution (model drift
    /// or a hand-edited schedule string).
    ScheduleDiverged,
    /// The same DFS prefix produced different decision points across
    /// executions: the model itself is nondeterministic (uses time,
    /// randomness, or unshimmed sync).
    Nondeterminism,
    /// An execution exceeded the per-execution step budget — almost
    /// always a model spinning on a condition the scheduler never
    /// flips; restructure the model to block instead of spin.
    StepCap,
    /// Exploration exceeded the execution budget before exhausting
    /// the space; raise the budget or shrink the model.
    ExecutionCap,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Deadlock { blocked } => {
                write!(f, "deadlock: all live threads blocked:")?;
                for (t, site) in blocked {
                    write!(f, " [t{t} at {site}]")?;
                }
                Ok(())
            }
            FailureKind::Panic { thread, message } => {
                write!(f, "model panic on t{thread}: {message}")
            }
            FailureKind::ScheduleDiverged => {
                write!(f, "schedule replay diverged from the execution")
            }
            FailureKind::Nondeterminism => write!(
                f,
                "model is nondeterministic under a fixed schedule (uses time, \
                 randomness, or unshimmed synchronization)"
            ),
            FailureKind::StepCap => write!(f, "per-execution step budget exceeded"),
            FailureKind::ExecutionCap => write!(f, "execution budget exceeded"),
        }
    }
}

/// A failing execution: the finding plus everything needed to replay
/// it deterministically.
#[derive(Clone, Debug)]
pub struct Failure {
    /// What was found.
    pub kind: FailureKind,
    /// The schedule that reaches it (feed to `Checker::replay`).
    pub schedule: Schedule,
    /// Execution digest at the failure point.
    pub digest: u64,
}

/// The outcome of a `check` or `replay` run.
#[derive(Debug)]
pub struct Report {
    /// Model name (artifact file stem).
    pub name: String,
    /// Executions explored.
    pub executions: u64,
    /// Digest of the last completed execution (replay determinism
    /// tests compare this across runs).
    pub digest: u64,
    /// The first failure found, if any.
    pub failure: Option<Failure>,
    /// Where the repro artifact was written, if a failure was found.
    pub artifact: Option<PathBuf>,
}

impl Report {
    /// Panic (with the finding and its schedule) if a failure was found.
    #[track_caller]
    pub fn assert_ok(&self) {
        if let Some(f) = &self.failure {
            panic!(
                "gcs-mc model '{}' failed after {} execution(s): {}\n  repro schedule: {}\n  \
                 artifact: {}",
                self.name,
                self.executions,
                f.kind,
                f.schedule,
                self.artifact
                    .as_ref()
                    .map(|p| p.display().to_string())
                    .unwrap_or_else(|| "<none>".into()),
            );
        }
    }

    /// The failure, or panic if the model unexpectedly passed.
    #[track_caller]
    pub fn expect_failure(&self) -> &Failure {
        match &self.failure {
            Some(f) => f,
            None => panic!(
                "gcs-mc model '{}' passed ({} executions) but a failure was expected",
                self.name, self.executions
            ),
        }
    }
}
