//! The in-memory world of `core_inmem`: `n` `NodeCore`s on one thread
//! over a benchmark-owned [`Transport`] ([`MemTransport`], a FIFO of
//! `(from, to, Wire)`), under `Clock::manual()`.
//!
//! There are no sockets, no threads and — unless byte counting is asked
//! for — no codec, so what runs is `nodecore` + `vsimpl` + `vstoto` and
//! nothing else. The manual clock is advanced to the next pending timer
//! only when the FIFO is empty: virtual time passes exactly when the
//! protocol is waiting on a timer, so counts of wires, token entries,
//! bytes and virtual milliseconds are functions of the inputs alone and
//! repeat bit for bit.

use crate::span::{spanned_handle, spanned_tick, SpanLog, SpanTransport};
use gcs_model::{ProcId, Time, Value, View};
use gcs_net::codec::{encode_payload, Frame};
use gcs_net::runtime::Recorded;
use gcs_net::{Clock, Incoming, NodeCore, Transport};
use gcs_obs::Obs;
use gcs_vsimpl::{ProtoConfig, Wire};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// What the FIFO carried, counted where it is carried.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemCounts {
    /// Every wire accepted onto the FIFO.
    pub wires: u64,
    /// Of those, tokens.
    pub tokens: u64,
    /// Entries carried by those tokens.
    pub token_entries: u64,
    /// Of the wires, `Probe`/`Call`/`Accept`/`Join`.
    pub membership_wires: u64,
    /// Encoded size of every wire as a peer frame, length prefix
    /// included (0 unless byte counting is on).
    pub bytes: u64,
    /// Encoded size of the token frames that carried a state-exchange
    /// summary (0 unless byte counting is on).
    pub summary_bytes: u64,
    /// Wires dropped because an endpoint was isolated.
    pub dropped: u64,
}

/// The shared FIFO and fault state.
pub struct MemNet {
    queue: RefCell<VecDeque<(ProcId, ProcId, Wire)>>,
    isolated: RefCell<BTreeSet<ProcId>>,
    counts: Cell<MemCounts>,
    count_bytes: bool,
    /// Deliveries pushed at the node the client is attached to.
    client: Cell<ProcId>,
    inbox: RefCell<Vec<Value>>,
    views_pushed: Cell<u64>,
}

/// One node's endpoint onto the [`MemNet`].
pub struct MemTransport {
    me: ProcId,
    net: Rc<MemNet>,
}

impl Transport for MemTransport {
    fn send(&self, to: ProcId, wire: Wire) {
        let net = &self.net;
        let mut c = net.counts.get();
        {
            let cut = net.isolated.borrow();
            if cut.contains(&self.me) || cut.contains(&to) {
                c.dropped += 1;
                net.counts.set(c);
                return;
            }
        }
        c.wires += 1;
        let mut carries_summary = false;
        match &wire {
            Wire::Token(t) => {
                c.tokens += 1;
                c.token_entries += t.entries.len() as u64;
                carries_summary =
                    t.entries.iter().any(|e| matches!(e.msg, gcs_core::msg::AppMsg::Summary(_)));
            }
            _ => c.membership_wires += 1,
        }
        let wire = if net.count_bytes {
            let frame = Frame::Peer(wire);
            let bytes = 4 + encode_payload(&frame).len() as u64;
            c.bytes += bytes;
            if carries_summary {
                c.summary_bytes += bytes;
            }
            let Frame::Peer(wire) = frame else { unreachable!("built as Peer above") };
            wire
        } else {
            wire
        };
        net.counts.set(c);
        net.queue.borrow_mut().push_back((self.me, to, wire));
    }

    fn push_delivery(&self, _src: ProcId, a: &Value) {
        if self.me == self.net.client.get() {
            self.net.inbox.borrow_mut().push(a.clone());
        }
    }

    fn push_deliveries(&self, batch: &[(ProcId, Value)]) {
        if self.me == self.net.client.get() {
            self.net.inbox.borrow_mut().extend(batch.iter().map(|(_, a)| a.clone()));
        }
    }

    fn push_view(&self, _view: &View) {
        self.net.views_pushed.set(self.net.views_pushed.get() + 1);
    }
}

/// A handle onto something a `NodeCore` keeps appending to.
type Shared<T> = Arc<Mutex<Vec<T>>>;

struct MemNode {
    core: NodeCore,
    transport: Box<dyn Transport>,
    log: Option<Rc<RefCell<SpanLog>>>,
}

/// `n` cores, their FIFO and their manual clock.
pub struct MemWorld {
    pub clock: Arc<Clock>,
    pub obs: Obs,
    net: Rc<MemNet>,
    nodes: Vec<MemNode>,
    delivered: Vec<Shared<(ProcId, Value)>>,
    views: Vec<Shared<View>>,
    recorded: Vec<Shared<Recorded>>,
}

impl MemWorld {
    /// Builds and boots `n` nodes with protocol δ = `delta_ms`. With
    /// `traced`, every call into a core and out to the transport is
    /// recorded as a span; with `count_bytes`, every wire is encoded to
    /// be sized (which puts the codec back on the path).
    pub fn new(
        n: u32,
        delta_ms: Time,
        client: ProcId,
        traced: bool,
        count_bytes: bool,
    ) -> MemWorld {
        let clock = Clock::manual();
        let obs = Obs::with_manual_clock(1 << 16);
        let net = Rc::new(MemNet {
            queue: RefCell::new(VecDeque::new()),
            isolated: RefCell::new(BTreeSet::new()),
            counts: Cell::new(MemCounts::default()),
            count_bytes,
            client: Cell::new(client),
            inbox: RefCell::new(Vec::new()),
            views_pushed: Cell::new(0),
        });
        let proto = ProtoConfig::standard(n, delta_ms);
        let mut world = MemWorld {
            clock: clock.clone(),
            obs: obs.clone(),
            net: net.clone(),
            nodes: Vec::new(),
            delivered: Vec::new(),
            views: Vec::new(),
            recorded: Vec::new(),
        };
        for i in 0..n {
            let core = NodeCore::new(ProcId(i), proto.clone(), clock.clone(), &obs);
            world.delivered.push(core.delivered_handle());
            world.views.push(core.views_handle());
            world.recorded.push(core.recorded_handle());
            let endpoint = MemTransport { me: ProcId(i), net: net.clone() };
            let (transport, log): (Box<dyn Transport>, _) = if traced {
                let log = Rc::new(RefCell::new(SpanLog::new(i)));
                (Box::new(SpanTransport::new(endpoint, log.clone())), Some(log))
            } else {
                (Box::new(endpoint), None)
            };
            world.nodes.push(MemNode { core, transport, log });
        }
        for node in &mut world.nodes {
            node.core.boot(&*node.transport);
        }
        world
    }

    fn handle(&mut self, p: ProcId, ev: Incoming) {
        let Some(node) = self.nodes.get_mut(p.index()) else { return };
        match &node.log {
            Some(log) => {
                spanned_handle(&mut node.core, ev, &*node.transport, log);
            }
            None => {
                node.core.handle(ev, &*node.transport);
            }
        }
    }

    /// Submits a batch at node `p`, as a client connection would.
    pub fn submit(&mut self, p: ProcId, batch: Vec<Value>) {
        self.handle(p, Incoming::Submit { batch });
    }

    /// Delivers wires until the FIFO is empty.
    pub fn drain(&mut self) {
        loop {
            let next = self.net.queue.borrow_mut().pop_front();
            let Some((from, to, wire)) = next else { return };
            self.handle(to, Incoming::Wire { from, wire });
        }
    }

    /// Advances the manual clock to the earliest pending timer and fires
    /// every timer due then. Returns `false` when no timer is pending.
    pub fn fire_next_timer(&mut self) -> bool {
        let Some(due) = self.nodes.iter().filter_map(|n| n.core.next_timer_due()).min() else {
            return false;
        };
        self.clock.advance_to(due);
        self.obs.trace.set_now_ms(self.clock.now_ms());
        for node in &mut self.nodes {
            if node.core.next_timer_due().is_some_and(|d| d <= due) {
                match &node.log {
                    Some(log) => spanned_tick(&mut node.core, &*node.transport, log),
                    None => node.core.tick(&*node.transport),
                }
            }
        }
        true
    }

    /// Takes what was delivered at the client's node since the last call.
    pub fn take_deliveries(&mut self) -> Vec<Value> {
        std::mem::take(&mut *self.net.inbox.borrow_mut())
    }

    /// Cuts every link to and from `p`.
    pub fn isolate(&mut self, p: ProcId) {
        self.net.isolated.borrow_mut().insert(p);
    }

    /// Ends the cut of `p`.
    pub fn heal(&mut self, p: ProcId) {
        self.net.isolated.borrow_mut().remove(&p);
    }

    pub fn counts(&self) -> MemCounts {
        self.net.counts.get()
    }

    pub fn now_ms(&self) -> Time {
        self.clock.now_ms()
    }

    /// Views installed across all nodes (the initial view is not
    /// pushed, so this counts changes).
    pub fn views_pushed(&self) -> u64 {
        self.net.views_pushed.get()
    }

    /// Each node's delivered sequence.
    pub fn delivered(&self) -> Vec<Vec<Value>> {
        self.delivered
            .iter()
            .map(|h| {
                h.lock().map_or_else(|_| Vec::new(), |d| d.iter().map(|(_, a)| a.clone()).collect())
            })
            .collect()
    }

    /// The size of the current view at each node.
    pub fn view_sizes(&self) -> Vec<usize> {
        self.nodes.iter().map(|n| n.core.current_view().map_or(0, |v| v.size())).collect()
    }

    /// Each node's recorded protocol events (for the trace checkers).
    pub fn recorded(&self) -> Vec<Vec<Recorded>> {
        self.recorded.iter().map(|h| h.lock().map_or_else(|_| Vec::new(), |r| r.clone())).collect()
    }

    /// The span logs, taken out of the world (traced worlds only).
    pub fn take_logs(&mut self) -> Vec<SpanLog> {
        self.nodes
            .iter_mut()
            .filter_map(|n| n.log.as_ref().map(|l| std::mem::take(&mut *l.borrow_mut())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(ops: u64, client: u32) -> (MemCounts, Time, Vec<Vec<Value>>) {
        let mut w = MemWorld::new(5, 20, ProcId(client), false, true);
        let mut got = 0u64;
        let mut next = 0u64;
        while got < ops {
            if next < ops {
                let batch: Vec<Value> = (next..(next + 64).min(ops)).map(Value::from_u64).collect();
                next += batch.len() as u64;
                w.submit(ProcId(client), batch);
            }
            w.drain();
            let d = w.take_deliveries();
            got += d.len() as u64;
            if d.is_empty() && next >= ops {
                assert!(
                    w.fire_next_timer(),
                    "a pending timer must exist while ops are outstanding"
                );
            }
        }
        (w.counts(), w.now_ms(), w.delivered())
    }

    #[test]
    fn every_node_delivers_the_same_order_and_counts_repeat_exactly() {
        let (c1, t1, d1) = run(500, 0);
        let (c2, t2, d2) = run(500, 0);
        assert_eq!(c1, c2, "wire, entry and byte counts are functions of the inputs");
        assert_eq!(t1, t2, "so is virtual time");
        assert_eq!(d1, d2);
        assert!(d1.iter().all(|d| d.len() >= 500));
        assert!(c1.tokens > 0 && c1.token_entries >= 500 && c1.bytes > 0);
    }

    #[test]
    fn a_follower_waits_for_the_token_in_virtual_time() {
        let (_, leader_ms, _) = run(200, 0);
        let (_, follower_ms, d) = run(200, 2);
        assert!(d.iter().all(|x| x.len() >= 200));
        // The leader sequences its own submissions on the next launch;
        // a follower's wait for the token to come by and go back.
        assert!(follower_ms >= leader_ms, "{follower_ms} < {leader_ms}");
    }
}
