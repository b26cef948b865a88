//! Protocol-level unit tests of the VS node, driving its handlers
//! directly with a [`CollectedEffects`] context: token handling across
//! view changes, membership races, and join refusal.

use gcs_ioa::{CollectedEffects, Process};
use gcs_model::{ProcId, View, ViewId};
use gcs_vsimpl::timed_vstoto::EchoClient;
use gcs_vsimpl::VsNode;
use gcs_vsimpl::{ImplEvent, ProtoConfig, Token, Wire};

type Fx = CollectedEffects<Wire, ImplEvent>;

fn make_node(id: u32) -> (VsNode<EchoClient>, Fx) {
    let cfg = ProtoConfig::standard(3, 5);
    let mut node = VsNode::new(ProcId(id), cfg, EchoClient::new(id));
    let mut fx = Fx::new(0);
    node.on_start(&mut fx.ctx());
    fx.sends.clear();
    fx.emits.clear();
    (node, fx)
}

fn join(node: &mut VsNode<EchoClient>, fx: &mut Fx, epoch: u64, origin: u32, members: &[u32]) {
    let v =
        View::new(ViewId::new(epoch, ProcId(origin)), members.iter().map(|&i| ProcId(i)).collect());
    node.on_message(ProcId(origin), Wire::Join { view: v }, &mut fx.ctx());
}

#[test]
fn stale_token_is_dropped() {
    let (mut node, mut fx) = make_node(1);
    // Move to a newer view, then deliver a token for the initial view.
    join(&mut node, &mut fx, 1, 0, &[0, 1]);
    assert!(node.current_view().is_some_and(|v| v.id.epoch == 1));
    fx.sends.clear();
    fx.emits.clear();
    let stale = Token::new(&View::initial(ProcId::range(3)));
    node.on_message(ProcId(0), Wire::Token(Box::new(stale)), &mut fx.ctx());
    assert!(fx.sends.is_empty(), "stale token must not be forwarded: {:?}", fx.sends);
    assert!(fx.emits.is_empty(), "stale token must not deliver anything");
}

#[test]
fn early_token_waits_for_join_then_processes() {
    let (mut node, mut fx) = make_node(2);
    // A token for a future view arrives before the join announcing it.
    let future = View::new(ViewId::new(1, ProcId(0)), ProcId::range(3));
    let tok = Token::new(&future);
    node.on_message(ProcId(0), Wire::Token(Box::new(tok)), &mut fx.ctx());
    assert!(fx.sends.is_empty(), "future token must be held, not forwarded");
    // The join arrives; the held token is processed and forwarded to the
    // ring successor (p0, wrapping around from p2).
    join(&mut node, &mut fx, 1, 0, &[0, 1, 2]);
    let forwarded = fx.sends.iter().any(|(to, m)| *to == ProcId(0) && matches!(m, Wire::Token(_)));
    assert!(forwarded, "held token must be processed on install: {:?}", fx.sends);
}

#[test]
fn join_below_accepted_is_refused() {
    let (mut node, mut fx) = make_node(1);
    // Accept a call for epoch 5.
    node.on_message(ProcId(0), Wire::Call { viewid: ViewId::new(5, ProcId(0)) }, &mut fx.ctx());
    assert!(
        fx.sends.iter().any(|(to, m)| *to == ProcId(0) && matches!(m, Wire::Accept { .. })),
        "call must be accepted: {:?}",
        fx.sends
    );
    // A join for a lower view must now be refused.
    let before = node.current_view().cloned();
    join(&mut node, &mut fx, 3, 2, &[1, 2]);
    assert_eq!(node.current_view().cloned(), before, "lower join must not install");
    // The accepted view's join is installed.
    join(&mut node, &mut fx, 5, 0, &[0, 1]);
    assert!(node.current_view().is_some_and(|v| v.id == ViewId::new(5, ProcId(0))));
}

#[test]
fn stale_calls_are_ignored() {
    let (mut node, mut fx) = make_node(1);
    node.on_message(ProcId(0), Wire::Call { viewid: ViewId::new(5, ProcId(0)) }, &mut fx.ctx());
    fx.sends.clear();
    // Same and lower viewids draw no accept.
    for viewid in [ViewId::new(5, ProcId(0)), ViewId::new(2, ProcId(2))] {
        node.on_message(ProcId(2), Wire::Call { viewid }, &mut fx.ctx());
    }
    assert!(fx.sends.is_empty(), "stale calls must not be accepted: {:?}", fx.sends);
}

#[test]
fn probe_from_member_does_not_trigger_formation() {
    let (mut node, mut fx) = make_node(1);
    // p0 is a member of the initial view {p0,p1,p2}: its probe is benign.
    node.on_message(ProcId(0), Wire::Probe, &mut fx.ctx());
    assert!(
        !fx.sends.iter().any(|(_, m)| matches!(m, Wire::Call { .. })),
        "member probe must not trigger a call: {:?}",
        fx.sends
    );
}

#[test]
fn probe_from_stranger_triggers_three_round_formation() {
    let (mut node, mut fx) = make_node(1);
    // Shrink to a view without p0, then probe from p0.
    join(&mut node, &mut fx, 1, 1, &[1, 2]);
    fx.sends.clear();
    fx.set_now(100);
    node.on_message(ProcId(0), Wire::Probe, &mut fx.ctx());
    let calls: Vec<&ProcId> =
        fx.sends.iter().filter(|(_, m)| matches!(m, Wire::Call { .. })).map(|(to, _)| to).collect();
    assert_eq!(calls.len(), 2, "call must go to every other processor: {:?}", fx.sends);
    // A deadline is scheduled (2δ + 1 = 11).
    assert!(fx.timers.iter().any(|(d, _)| *d == 11), "formation deadline: {:?}", fx.timers);
}

#[test]
fn newview_is_emitted_with_self_in_membership() {
    let (mut node, mut fx) = make_node(2);
    join(&mut node, &mut fx, 1, 0, &[0, 2]);
    let nv = fx.emits.iter().find_map(|e| match e {
        ImplEvent::NewView { p, v } => Some((*p, v.clone())),
        _ => None,
    });
    let (p, v) = nv.expect("newview emitted");
    assert_eq!(p, ProcId(2));
    assert!(v.contains(ProcId(2)));
    // A join that excludes us is ignored entirely.
    fx.emits.clear();
    join(&mut node, &mut fx, 9, 0, &[0, 1]);
    assert!(fx.emits.is_empty(), "foreign join must not install");
    assert_eq!(node.current_view().map(|v| v.id.epoch), Some(1));
}

#[test]
fn leader_launches_token_on_install() {
    // p0 is the leader of {0,1}: installing must emit a token launch
    // timer (delay 0) and hold the fresh token.
    let (mut node, mut fx) = make_node(0);
    fx.timers.clear();
    join(&mut node, &mut fx, 1, 1, &[0, 1]);
    assert!(
        fx.timers.iter().any(|(d, k)| *d == 0 && k & 0b111 == 2),
        "leader must schedule an immediate launch: {:?}",
        fx.timers
    );
    // Non-leader p1 installing the same view schedules no launch.
    let (mut n1, mut fx1) = make_node(1);
    fx1.timers.clear();
    join(&mut n1, &mut fx1, 1, 0, &[0, 1]);
    assert!(
        !fx1.timers.iter().any(|(_, k)| k & 0b111 == 2),
        "non-leader must not launch: {:?}",
        fx1.timers
    );
}
