//! Wire messages of the membership/token protocol and the trace events
//! the implementation emits.

use gcs_core::msg::AppMsg;
use gcs_model::{ProcId, Value, View, ViewId};
use std::collections::BTreeMap;
use std::fmt;

/// One group-multicast message riding the token: the sender, a globally
/// unique message identifier, and the payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TokenMsg {
    /// The original sender (`gpsnd` location).
    pub src: ProcId,
    /// Harness-level unique identifier (for matching in timed traces).
    pub mid: u64,
    /// The payload.
    pub msg: AppMsg,
}

/// The circulating token of Section 8, batched and pipelined: instead of
/// re-shipping the whole per-view message history each hop, a token
/// carries a *delta* of the leader-sequenced order (`entries`, placed at
/// absolute positions `seq_start..`), picks up members' pending sends in
/// `collect` for the leader to sequence on return, and prunes everyone's
/// retained log with the `acked` high-water cursor. Rounds are numbered
/// so the leader can keep several tokens (`PIPELINE_DEPTH` in `node`) in flight
/// at once; per-member counts still record receipt, and the safe prefix
/// is still their minimum.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Token {
    /// The view this token belongs to.
    pub view: ViewId,
    /// Round number: strictly increasing per launch within a view, so
    /// the leader can match returns to launches with several tokens in
    /// flight, and so duplicated tokens are absorbed idempotently.
    /// Launched rounds start at 1. Round 0 never circulates: a frame
    /// carrying it is a member's *round request* to the leader (it has
    /// sends pending and asks for a launch now rather than at the next
    /// π heartbeat); only `view` and `round` of such a frame are read.
    pub round: u64,
    /// Absolute sequence position of `entries[0]` in the per-view total
    /// order (equal to everything already shipped by earlier rounds).
    pub seq_start: u64,
    /// Newly sequenced messages, extending the total order at
    /// `seq_start..`.
    pub entries: Vec<TokenMsg>,
    /// Members' pending sends picked up this rotation, in ring order;
    /// the leader assigns them sequence positions when the token
    /// returns.
    pub collect: Vec<TokenMsg>,
    /// Acknowledgement cursor: every member had received (and reported
    /// safe) at least this prefix when the round carrying it launched,
    /// so members may discard retained log entries below it.
    pub acked: u64,
    /// Per-member receipt counts as of the leader's latest knowledge,
    /// updated in place as the token visits each member.
    pub delivered: BTreeMap<ProcId, u64>,
}

impl Token {
    /// A fresh token for a newly installed view. Its round is 0, which
    /// on the wire means a round request: give it a round ≥ 1 before
    /// using it as a ring token.
    pub fn new(view: &View) -> Self {
        Token {
            view: view.id,
            round: 0,
            seq_start: 0,
            entries: Vec::new(),
            collect: Vec::new(),
            acked: 0,
            delivered: view.set.iter().map(|&p| (p, 0)).collect(),
        }
    }

    /// The number of messages every member has delivered (the safe
    /// prefix length).
    pub fn safe_prefix(&self) -> u64 {
        self.delivered.values().copied().min().unwrap_or(0)
    }
}

/// A protocol packet.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Wire {
    /// Periodic contact attempt to processors outside the sender's view.
    Probe,
    /// Round 1 of membership: call for participation in `viewid`.
    Call {
        /// The proposed view identifier.
        viewid: ViewId,
    },
    /// Round 2: acceptance of a call.
    Accept {
        /// The accepted view identifier.
        viewid: ViewId,
    },
    /// Round 3: the initiator announces the membership.
    Join {
        /// The new view.
        view: View,
    },
    /// The rotating ordered-delivery token (`round ≥ 1`), or a member's
    /// round request to the leader (`round == 0`).
    Token(Box<Token>),
}

/// A trace event emitted by the implementation stack. The `VS`-interface
/// events carry both the unique message identifier (for the timed
/// property checkers) and the payload (for the Lemma 4.2 cause checker);
/// `Bcast`/`Brcv` are the `TO` client interface.
#[derive(Clone, PartialEq, Eq)]
pub enum ImplEvent {
    /// `newview(v)_p`.
    NewView {
        /// The installing processor.
        p: ProcId,
        /// The installed view.
        v: View,
    },
    /// `gpsnd(m)_p`.
    GpSnd {
        /// The sender.
        p: ProcId,
        /// Unique message identifier.
        mid: u64,
        /// The payload.
        m: AppMsg,
    },
    /// `gprcv(m)_{p,q}`.
    GpRcv {
        /// The original sender.
        src: ProcId,
        /// The receiver.
        dst: ProcId,
        /// Unique message identifier.
        mid: u64,
        /// The payload.
        m: AppMsg,
    },
    /// `safe(m)_{p,q}`.
    Safe {
        /// The original sender.
        src: ProcId,
        /// The receiver of the indication.
        dst: ProcId,
        /// Unique message identifier.
        mid: u64,
        /// The payload.
        m: AppMsg,
    },
    /// `bcast(a)_p` — the TO client submits a value.
    Bcast {
        /// Submitting location.
        p: ProcId,
        /// The data value.
        a: Value,
    },
    /// `brcv(a)_{q,p}` — the TO service delivers a value.
    Brcv {
        /// Origin of the value.
        src: ProcId,
        /// Receiving location.
        dst: ProcId,
        /// The data value.
        a: Value,
    },
}

impl fmt::Debug for ImplEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImplEvent::NewView { p, v } => write!(f, "newview({v})_{p}"),
            ImplEvent::GpSnd { p, mid, m } => write!(f, "gpsnd#{mid}({m:?})_{p}"),
            ImplEvent::GpRcv { src, dst, mid, m } => {
                write!(f, "gprcv#{mid}({m:?})_{src},{dst}")
            }
            ImplEvent::Safe { src, dst, mid, m } => {
                write!(f, "safe#{mid}({m:?})_{src},{dst}")
            }
            ImplEvent::Bcast { p, a } => write!(f, "bcast({a:?})_{p}"),
            ImplEvent::Brcv { src, dst, a } => write!(f, "brcv({a:?})_{src},{dst}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_has_zero_safe_prefix() {
        let v = View::new(ViewId::new(1, ProcId(0)), ProcId::range(3));
        let t = Token::new(&v);
        assert_eq!(t.safe_prefix(), 0);
        assert_eq!(t.delivered.len(), 3);
    }

    #[test]
    fn safe_prefix_is_the_minimum() {
        let v = View::new(ViewId::new(1, ProcId(0)), ProcId::range(2));
        let mut t = Token::new(&v);
        t.delivered.insert(ProcId(0), 5);
        t.delivered.insert(ProcId(1), 3);
        assert_eq!(t.safe_prefix(), 3);
    }
}
