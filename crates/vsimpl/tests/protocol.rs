//! Protocol-level unit tests of the VS node, driving its handlers
//! directly with a [`CollectedEffects`] context: token handling across
//! view changes, membership races, join refusal, and the round request
//! (a `round: 0` token frame a member with pending sends addresses to
//! the leader).

use gcs_core::msg::AppMsg;
use gcs_ioa::{CollectedEffects, Process};
use gcs_model::{Label, ProcId, Value, View, ViewId};
use gcs_vsimpl::timed_vstoto::EchoClient;
use gcs_vsimpl::VsNode;
use gcs_vsimpl::{ImplEvent, ProtoConfig, Token, TokenMsg, Wire};

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
    let mut stale = Token::new(&View::initial(ProcId::range(3)));
    stale.round = 1;
    node.on_message(ProcId(0), Wire::Token(Box::new(stale)), &mut fx.ctx());
    assert!(fx.sends.is_empty(), "stale token must not be forwarded: {:?}", fx.sends);
    assert!(fx.emits.is_empty(), "stale token must not deliver anything");
}

#[test]
fn early_token_waits_for_join_then_processes() {
    let (mut node, mut fx) = make_node(2);
    // A token for a future view arrives before the join announcing it.
    let future = View::new(ViewId::new(1, ProcId(0)), ProcId::range(3));
    let mut tok = Token::new(&future);
    tok.round = 1;
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

// --------------------------------------------------------------------
// The round request
// --------------------------------------------------------------------

/// A ring token of the initial view {p0,p1,p2} as its leader p0 would
/// launch it with nothing to ship.
fn ring_token(round: u64) -> Token {
    let mut tok = Token::new(&View::initial(ProcId::range(3)));
    tok.round = round;
    tok
}

/// Feeds `msg` to `node` and returns what the handler sent.
fn deliver(
    node: &mut VsNode<EchoClient>,
    fx: &mut Fx,
    from: u32,
    msg: Wire,
) -> Vec<(ProcId, Wire)> {
    fx.sends.clear();
    node.on_message(ProcId(from), msg, &mut fx.ctx());
    fx.take_sends()
}

fn input(node: &mut VsNode<EchoClient>, fx: &mut Fx, a: u64) -> Vec<(ProcId, Wire)> {
    fx.sends.clear();
    node.on_input(Value::from_u64(a), &mut fx.ctx());
    fx.take_sends()
}

fn tokens(sends: &[(ProcId, Wire)]) -> Vec<(ProcId, &Token)> {
    sends
        .iter()
        .filter_map(|(to, m)| match m {
            Wire::Token(t) => Some((*to, &**t)),
            _ => None,
        })
        .collect()
}

fn is_request(tok: &Token) -> bool {
    tok.round == 0 && tok.entries.is_empty() && tok.collect.is_empty() && tok.delivered.is_empty()
}

fn forged_entry(i: u64) -> TokenMsg {
    let l = Label::new(ViewId::new(9, ProcId(2)), i, ProcId(2));
    TokenMsg {
        src: ProcId(2),
        mid: (2 << 40) | (1000 + i),
        msg: AppMsg::Val(l, Value::from_u64(i)),
    }
}

#[test]
fn member_asks_once_per_token_visit() {
    let (mut node, mut fx) = make_node(2);
    // The first input asks the leader; further inputs before the next
    // token visit do not.
    let sends = input(&mut node, &mut fx, 1);
    let toks = tokens(&sends);
    assert_eq!(sends.len(), 1, "one frame: {sends:?}");
    assert_eq!(toks[0].0, ProcId(0), "the request goes to the leader");
    assert!(is_request(toks[0].1), "bare round-0 frame: {:?}", toks[0].1);
    assert_eq!(toks[0].1.view, ViewId::initial());
    for a in 2..6 {
        assert!(input(&mut node, &mut fx, a).is_empty(), "asked already");
    }
    // The visiting token takes all five entries; the visit itself draws
    // no request (nothing is pending when the handler finishes).
    let sends = deliver(&mut node, &mut fx, 1, Wire::Token(Box::new(ring_token(1))));
    let toks = tokens(&sends);
    assert_eq!(toks.len(), 1, "forward only: {sends:?}");
    assert_eq!((toks[0].0, toks[0].1.round, toks[0].1.collect.len()), (ProcId(0), 1, 5));
    let taken = toks[0].1.collect.clone();
    // While that batch is out, later sends wait for it: no request, and
    // a token passing by does not take them (one batch per source on
    // the ring, so a lost token cannot open a gap in p2's stream).
    assert!(input(&mut node, &mut fx, 6).is_empty(), "a batch is already on the ring");
    let sends = deliver(&mut node, &mut fx, 1, Wire::Token(Box::new(ring_token(2))));
    let toks = tokens(&sends);
    assert_eq!((toks[0].1.round, toks[0].1.collect.len()), (2, 0), "{sends:?}");
    // The round that brings the batch back sequenced takes what waited;
    // with nothing left pending, the next input asks again, once.
    let mut back = ring_token(3);
    back.entries = taken;
    let sends = deliver(&mut node, &mut fx, 1, Wire::Token(Box::new(back)));
    let toks = tokens(&sends);
    assert_eq!((toks[0].1.round, toks[0].1.collect.len()), (3, 1), "{sends:?}");
    let mut back = ring_token(4);
    (back.seq_start, back.entries) = (5, toks[0].1.collect.clone());
    deliver(&mut node, &mut fx, 1, Wire::Token(Box::new(back)));
    let sends = input(&mut node, &mut fx, 7);
    assert!(tokens(&sends).len() == 1 && is_request(tokens(&sends)[0].1), "{sends:?}");
    assert!(input(&mut node, &mut fx, 8).is_empty());
}

#[test]
fn member_offers_a_lost_batch_again() {
    let (mut node, mut fx) = make_node(2);
    input(&mut node, &mut fx, 1);
    let sends = deliver(&mut node, &mut fx, 1, Wire::Token(Box::new(ring_token(1))));
    let first = tokens(&sends)[0].1.collect.clone();
    assert_eq!(first.len(), 1);
    input(&mut node, &mut fx, 2);
    // Rounds 2–4 can have been launched before round 1 returned: they
    // prove nothing about it, and take nothing.
    for r in 2..=4 {
        let sends = deliver(&mut node, &mut fx, 1, Wire::Token(Box::new(ring_token(r))));
        assert!(tokens(&sends)[0].1.collect.is_empty(), "round {r} took a second batch");
    }
    // Round 5 was launched after the leader had round 1 back (at most
    // four are in flight), yet the batch is not in the log: round 1 was
    // lost. Everything unsequenced goes again, oldest first, so the
    // leader's per-source filter sees no gap.
    let sends = deliver(&mut node, &mut fx, 1, Wire::Token(Box::new(ring_token(5))));
    let again = &tokens(&sends)[0].1.collect;
    assert_eq!(again.len(), 2);
    assert_eq!(again[0], first[0]);
    assert!(again[1].mid > again[0].mid);
    // Round 5 now carries the batch: the next re-offer is four rounds on.
    for (r, want) in [(6, 0), (8, 0), (9, 2)] {
        let sends = deliver(&mut node, &mut fx, 1, Wire::Token(Box::new(ring_token(r))));
        assert_eq!(tokens(&sends)[0].1.collect.len(), want, "round {r}");
    }
}

#[test]
fn install_asks_for_the_view_change_sends_once() {
    // The view-change sends a client queues at `newview` are pending
    // sends like any other; with the echo client there are none, so an
    // install alone asks for nothing, and it re-arms a spent request.
    let (mut node, mut fx) = make_node(2);
    assert_eq!(input(&mut node, &mut fx, 1).len(), 1);
    fx.sends.clear();
    join(&mut node, &mut fx, 1, 0, &[0, 2]);
    assert!(tokens(&fx.sends).is_empty(), "install cleared the buffer: {:?}", fx.sends);
    let sends = input(&mut node, &mut fx, 2);
    let toks = tokens(&sends);
    assert_eq!(toks.len(), 1);
    assert!(is_request(toks[0].1));
    assert_eq!(toks[0].1.view, ViewId::new(1, ProcId(0)), "request names the sender's view");
}

#[test]
fn leader_launches_on_request_when_idle_and_at_next_return_when_full() {
    let (mut leader, mut fx) = make_node(0);
    let request =
        || Wire::Token(Box::new(Token { delivered: Default::default(), ..ring_token(0) }));
    // Idle ring, nothing to ship: a request alone launches round 1.
    let sends = deliver(&mut leader, &mut fx, 2, request());
    let toks = tokens(&sends);
    assert_eq!(toks.len(), 1, "one launch: {sends:?}");
    assert_eq!((toks[0].0, toks[0].1.round), (ProcId(1), 1));
    assert!(toks[0].1.entries.is_empty());
    // Three more fill the pipeline (depth 4) ...
    for r in 2..=4 {
        let sends = deliver(&mut leader, &mut fx, 2, request());
        assert_eq!(tokens(&sends).iter().map(|(_, t)| t.round).collect::<Vec<_>>(), [r]);
    }
    // ... so the next two are remembered (as one), not launched and not
    // lost,
    assert!(deliver(&mut leader, &mut fx, 2, request()).is_empty());
    assert!(deliver(&mut leader, &mut fx, 1, request()).is_empty());
    // and honoured when round 1 returns: exactly one launch.
    let mut back = ring_token(1);
    back.collect.push(forged_entry(1));
    let sends = deliver(&mut leader, &mut fx, 2, Wire::Token(Box::new(back)));
    let toks = tokens(&sends);
    assert_eq!(toks.iter().map(|(_, t)| t.round).collect::<Vec<_>>(), [5]);
    // What the return collected is sequenced and shipped in that round.
    assert_eq!(toks[0].1.entries.len(), 1);
    // The remembered request is spent: a plain return launches nothing
    // (round 5's entry is unacknowledged, but rounds are in flight).
    assert!(deliver(&mut leader, &mut fx, 2, Wire::Token(Box::new(ring_token(2)))).is_empty());
}

#[test]
fn non_leader_drops_a_round_request() {
    let (mut node, mut fx) = make_node(1);
    fx.set_now(7);
    let mut forged = ring_token(0);
    forged.entries.push(forged_entry(1));
    fx.timers.clear();
    fx.emits.clear();
    let sends = deliver(&mut node, &mut fx, 2, Wire::Token(Box::new(forged)));
    assert!(sends.is_empty(), "not forwarded: {sends:?}");
    assert!(fx.emits.is_empty(), "nothing delivered: {:?}", fx.emits);
    assert!(node.client().received.is_empty());
    // The token clock was not refreshed: installed at 0 with deadline
    // π + (n+3)δ + id = 61, the loss timer firing at 61 must still see a
    // silent ring and call a formation — as it would not had the request
    // at t = 7 counted as a token.
    fx.set_now(61);
    fx.sends.clear();
    node.on_timer(1, &mut fx.ctx());
    assert!(
        fx.sends.iter().any(|(_, m)| matches!(m, Wire::Call { .. })),
        "a request must not feed the token-loss clock: {:?}",
        fx.sends
    );
}

#[test]
fn forged_request_changes_nothing_but_one_launch() {
    let (mut leader, mut fx) = make_node(0);
    let (mut clean, mut fx2) = make_node(0);
    // One real entry so the log is not empty.
    input(&mut leader, &mut fx, 1);
    input(&mut clean, &mut fx2, 1);
    let mut forged = ring_token(0);
    forged.seq_start = 40;
    forged.entries = (1..4).map(forged_entry).collect();
    forged.collect = (4..7).map(forged_entry).collect();
    forged.acked = 1_000;
    for c in forged.delivered.values_mut() {
        *c = 1_000;
    }
    fx.emits.clear();
    let sends = deliver(&mut leader, &mut fx, 2, Wire::Token(Box::new(forged)));
    let bare = Token { delivered: Default::default(), ..ring_token(0) };
    let want = deliver(&mut clean, &mut fx2, 2, Wire::Token(Box::new(bare)));
    // Exactly the launch a bare request draws: an empty round 2 with the
    // leader's own counts and ack cursor, nothing of the forgery in it.
    assert_eq!(sends, want);
    let toks = tokens(&sends);
    assert_eq!(toks.len(), 1);
    assert_eq!((toks[0].1.round, toks[0].1.acked), (2, 0));
    assert!(toks[0].1.entries.is_empty() && toks[0].1.collect.is_empty());
    assert_eq!(toks[0].1.safe_prefix(), 0);
    // Nothing delivered, nothing reported safe, nothing sequenced.
    assert!(fx.emits.is_empty(), "{:?}", fx.emits);
    assert_eq!(leader.client().received.len(), 1);
    assert!(leader.client().safe.is_empty());
    // The forged mids did not poison the per-source high-water filter:
    // p2's genuine (lower-mid) send is still sequenced when collected.
    let mut back = ring_token(1);
    back.collect.push(TokenMsg { mid: (2 << 40) | 1, ..forged_entry(9) });
    deliver(&mut leader, &mut fx, 2, Wire::Token(Box::new(back)));
    assert_eq!(leader.client().received.len(), 2, "genuine send filtered out");
}
