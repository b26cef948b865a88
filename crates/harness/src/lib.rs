//! The paper-experiment apparatus: every formal artifact and analytical
//! claim of the paper, regenerated as a measured table or series.
//!
//! Everything that exists only to run the paper's experiments lives
//! here, and nothing the deployable stack links does: [`Stack`] (the
//! Section 8 protocol hosted on the `gcs-netsim` discrete-event engine,
//! Figure 1 end to end), the Figure 11 checker ([`check_figure11`]),
//! trace statistics ([`TraceStats`]), the fixed-sequencer baseline of
//! E14 ([`SequencerNode`]), the failure [`scenarios`], the E-series
//! [`experiments`] and the checker-path [`micro`] timings.
//!
//! One front end, `exp_all`:
//!
//! ```text
//! exp_all [--quick] [--metrics ADDR] [e01 … e14 | micro | scenario <name> …]
//! ```
//!
//! No id runs every experiment ([`experiments::ALL`]). See `DESIGN.md`
//! for the experiment index (id → paper artifact) and `EXPERIMENTS.md`
//! for captured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod figure11;
pub mod micro;
pub mod scenarios;
pub mod sequencer;
pub mod stack;
pub mod stats;
pub mod table;

pub use figure11::{check_figure11, Figure11Params, Figure11Report};
pub use sequencer::{SeqWire, SequencerNode};
pub use stack::{Stack, StackConfig};
pub use stats::{stack_stats, TraceStats};
pub use table::Table;

/// The process-wide observability sink for harness runs. The fan-out
/// machinery and `run_all` record into it unconditionally (relaxed
/// atomics; negligible next to any experiment); `exp_all --metrics`
/// serves it over HTTP while the experiments run.
pub fn obs() -> &'static gcs_obs::Obs {
    static OBS: std::sync::OnceLock<gcs_obs::Obs> = std::sync::OnceLock::new();
    OBS.get_or_init(gcs_obs::Obs::new)
}
