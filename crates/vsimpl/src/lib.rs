//! The Section 8 protocol: an implementation of the VS service and the
//! timed `VStoTO` layer providing totally ordered broadcast end to end.
//!
//! This crate is the protocol and nothing else. A [`VsNode`] is a
//! [`gcs_ioa::Process`]: an event-driven state machine written against
//! the host seam of `gcs-ioa`, which the discrete-event simulator
//! (`gcs-netsim`, via `gcs-harness`'s `Stack`), the TCP runtime
//! (`gcs-net`) and the deterministic harness (`gcs-sim`) each host
//! unchanged. It depends on `gcs-model`, `gcs-ioa` and `gcs-core` only.
//!
//! The implementation follows the paper's sketch:
//!
//! - **Membership** ([`node`]) is the 3-round protocol of Cristian and
//!   Schmuck: a processor that detects trouble (token loss, or contact
//!   from outside its view) broadcasts a *call for participation* with a
//!   fresh view identifier; processors reply with *accept* unless they
//!   have accepted a higher identifier; after 2δ the initiator announces
//!   the membership (*join*), and members install the view. A one-round
//!   variant (footnote 7 ablation) skips the call/accept exchange and
//!   forms the view from recently heard-from processors.
//! - **Ordered delivery and safe indications** ride a **token** that a
//!   deterministically chosen leader (the least member) launches every π:
//!   each member appends its buffered messages, delivers the prefix it
//!   has not yet delivered, and updates its delivered count in the token;
//!   a message is *safe* once every member's recorded count passes it.
//! - **The `VStoTO` layer** ([`timed_vstoto`]) is the *same*
//!   [`gcs_core::vstoto::VsToToProc`] state machine that is model-checked
//!   against `TO-machine`; here its locally controlled actions are
//!   performed eagerly, which is exactly the timed discipline of
//!   Section 7 ("a good processor takes any enabled step immediately").
//!
//! The analytical bounds of Section 8, for a stabilized group *Q* of size
//! *n*, are `b = 9δ + max{π + (n+3)δ, μ}` and `d = 2π + nδ`; they
//! live in `gcs_obs::BoundParams`, and experiments E2/E4 measure the
//! simulated stack against them.
//!
//! [`convert`] turns a recorded implementation trace into the three
//! shapes the checkers of `gcs-core` consume: raw `VS` actions (for the
//! Lemma 4.2 cause checker), `VsObs` (for `VS-property`), and `ToObs`
//! (for `TO-property` and `TO-machine` trace conformance).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convert;
pub mod detector;
pub mod node;
pub mod timed_vstoto;
pub mod wire;

pub use detector::{AccrualEstimator, AdaptiveDetector, DetectorPolicy};
pub use node::{MembershipMode, ProtoConfig, StableState, VsNode};
pub use timed_vstoto::TimedVsToTo;
pub use wire::{ImplEvent, Token, TokenMsg, Wire};
