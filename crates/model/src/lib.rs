//! Core types for the partitionable group communication service.
//!
//! This crate provides the mathematical foundation (Section 2 of the paper)
//! and the shared vocabulary used by every other crate in the workspace:
//!
//! - [`ProcId`] — processor identifiers, the totally ordered finite set *P*;
//! - [`ViewId`] and [`View`] — view identifiers *G* and views
//!   *views = G × 𝒫(P)*, with the distinguished initial view *v₀*;
//! - [`Label`] — the system-wide unique message labels
//!   *L = G × ℕ⁺ × P* used by the `VStoTO` algorithm (Figure 8);
//! - [`Value`] — opaque application data values (the set *A*);
//! - [`Summary`] — state-exchange summaries and the operations on them
//!   (`knowncontent`, `maxprimary`, `chosenrep`, `shortorder`, `fullorder`,
//!   `maxnextconfirm` — Figure 8);
//! - [`quorum`] — quorum systems used to distinguish primary views (Section 5);
//! - [`failure`] — the good/bad/ugly failure-status model (Figure 4) and
//!   timed failure scripts describing partition scenarios;
//! - [`seq`] — sequence utilities (prefix order, least upper bounds of
//!   consistent sets, `applyall`) from Section 2.
//!
//! # Example
//!
//! ```
//! use gcs_model::{ProcId, View, ViewId, Label};
//!
//! let members = ProcId::range(3); // {p0, p1, p2}
//! let v = View::new(ViewId::new(1, ProcId(0)), members);
//! assert!(v.contains(ProcId(1)));
//! let l = Label::new(v.id, 1, ProcId(1));
//! assert!(l < Label::new(v.id, 2, ProcId(0))); // lexicographic order
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod content;
pub mod failure;
pub mod ids;
pub mod label;
pub mod quorum;
pub mod seq;
pub mod summary;
pub mod value;
pub mod view;

pub use content::ContentMap;
pub use failure::{FailureEvent, FailureMap, Status, Subject};
pub use ids::{ProcId, ViewId};
pub use label::{Label, LabelSet};
pub use quorum::{Explicit, Majority, QuorumSystem, Weighted};
pub use summary::{GotState, Summary};
pub use value::{fnv1a, Value, FNV1A_OFFSET};
pub use view::View;

/// Virtual time, in abstract ticks.
///
/// All timing parameters of the paper (the channel delay δ, the token period
/// π, the merge-probe period μ, and the derived bounds *b* and *d*) are
/// expressed in this unit. Using an integer rather than a float keeps timed
/// traces exactly comparable and the discrete-event simulation deterministic.
pub type Time = u64;
