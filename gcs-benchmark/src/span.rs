//! Spans recorded by the benchmark's own files around the calls into
//! each layer, and the `Transport` decorator that records them.
//!
//! A node thread owns one [`SpanLog`]. The node loop opens a span around
//! every `recv`, `handle` and `tick`; the [`SpanTransport`] it hands to
//! `NodeCore` opens child spans around every `send`, `push_deliveries`
//! and `push_view`. A span's **self time** is its duration minus the
//! part its children cover, so `handle` self time is protocol work
//! (`nodecore` + `vsimpl` + `vstoto`) and the children are time the core
//! thread spent inside the transport. Totals are folded as spans close;
//! the first [`RETAINED_SPANS`] spans per node are also kept verbatim
//! for `trace.jsonl`.

use crate::gen::now_ns;
use gcs_core::msg::AppMsg;
use gcs_model::{ProcId, Value, View, ViewId};
use gcs_net::codec::{encode_payload, Frame};
use gcs_net::{Incoming, NodeCore, Transport};
use gcs_vsimpl::Wire;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::rc::Rc;

/// Spans kept verbatim per node; later ones only feed the totals.
pub const RETAINED_SPANS: usize = 40_000;
/// Per-call samples kept per node for percentiles.
const RETAINED_SAMPLES: usize = 1_000_000;

/// One recorded span. `parent` is the index of the enclosing span in
/// the same node's log, plus one (0 = none).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Fingerprint of the first value the call carried, if any.
    pub op: u64,
}

/// Count, total and self time of every span of one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    children_ns: u64,
    retained: u32,
}

/// The membership-level events of one node, in time order. They are
/// rare, so every one is kept.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeEvent {
    SentCall,
    SentAccept,
    SentJoin,
    SentProbe,
    PushedView(ViewId),
}

/// Everything one node thread recorded.
#[derive(Default)]
pub struct SpanLog {
    pub node: u32,
    pub spans: Vec<Span>,
    pub totals: BTreeMap<&'static str, SpanTotal>,
    stack: Vec<Open>,
    /// Duration of each `send` call, ns.
    pub send_call_ns: Vec<u32>,
    /// Instant of each token send, ns.
    pub token_sent_at: Vec<u64>,
    /// Entries carried by all tokens sent.
    pub token_entries: u64,
    /// Encoded bytes of the token frames that carried a state-exchange
    /// summary, with the instant they were sent.
    pub summary_token_bytes: Vec<(u64, u64)>,
    /// Instant of each `push_deliveries`, ns, and operations pushed.
    pub delivery_pushes: Vec<u64>,
    pub deliveries_pushed: u64,
    pub events: Vec<(u64, NodeEvent)>,
    /// Submit → this node's next token send, µs.
    pub token_wait_us: Vec<u32>,
    pending_submit_at: Option<u64>,
}

impl SpanLog {
    pub fn new(node: u32) -> Self {
        SpanLog { node, ..SpanLog::default() }
    }

    /// Opens a span; close it with [`SpanLog::close`] in LIFO order.
    pub fn open(&mut self, name: &'static str, op: u64) {
        let start_ns = now_ns();
        let retained = if self.spans.len() < RETAINED_SPANS {
            let parent = self.stack.last().map_or(0, |o| o.retained);
            self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
            self.spans.len() as u32
        } else {
            0
        };
        self.stack.push(Open { name, start_ns, children_ns: 0, retained });
    }

    /// Closes the innermost open span and returns its duration.
    pub fn close(&mut self) -> u64 {
        let Some(o) = self.stack.pop() else { return 0 };
        let end_ns = now_ns();
        let dur = end_ns.saturating_sub(o.start_ns);
        let t = self.totals.entry(o.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(o.children_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += dur;
        }
        if o.retained != 0 {
            if let Some(s) = self.spans.get_mut(o.retained as usize - 1) {
                s.end_ns = end_ns;
            }
        }
        dur
    }

    /// Notes that a client submission reached this node's `handle`.
    pub fn note_submit(&mut self) {
        self.pending_submit_at.get_or_insert_with(now_ns);
    }

    pub fn total(&self, name: &str) -> SpanTotal {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Writes the retained spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"node\":{},\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                self.node,
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.op
            )?;
        }
        Ok(())
    }
}

fn push_capped<T>(v: &mut Vec<T>, x: T) {
    if v.len() < RETAINED_SAMPLES {
        v.push(x);
    }
}

/// A [`Transport`] that records a span around every call into the
/// transport it wraps, classifies what is sent, and counts token
/// entries. It lives on the node thread, next to the loop that owns the
/// same [`SpanLog`].
pub struct SpanTransport<T> {
    inner: T,
    log: Rc<RefCell<SpanLog>>,
}

impl<T: Transport> SpanTransport<T> {
    pub fn new(inner: T, log: Rc<RefCell<SpanLog>>) -> Self {
        SpanTransport { inner, log }
    }
}

fn wire_span_name(wire: &Wire) -> &'static str {
    match wire {
        Wire::Token(_) => "transport.send.token",
        Wire::Probe => "transport.send.probe",
        Wire::Call { .. } => "transport.send.call",
        Wire::Accept { .. } => "transport.send.accept",
        Wire::Join { .. } => "transport.send.join",
    }
}

impl<T: Transport> Transport for SpanTransport<T> {
    fn send(&self, to: ProcId, wire: Wire) {
        let at = now_ns();
        let name = wire_span_name(&wire);
        let carries_summary = match &wire {
            Wire::Token(t) => t.entries.iter().any(|e| matches!(e.msg, AppMsg::Summary(_))),
            _ => false,
        };
        // State exchange is rare, so its tokens can afford an extra
        // encode to be sized.
        let (wire, summary_bytes) = if carries_summary {
            let frame = Frame::Peer(wire);
            let bytes = encode_payload(&frame).len() as u64;
            let Frame::Peer(wire) = frame else { unreachable!("built as Peer above") };
            (wire, Some(bytes))
        } else {
            (wire, None)
        };
        {
            let mut log = self.log.borrow_mut();
            match &wire {
                Wire::Token(t) => {
                    log.token_entries += t.entries.len() as u64;
                    push_capped(&mut log.token_sent_at, at);
                    if let Some(since) = log.pending_submit_at.take() {
                        push_capped(
                            &mut log.token_wait_us,
                            (at.saturating_sub(since) / 1000) as u32,
                        );
                    }
                    if let Some(bytes) = summary_bytes {
                        log.summary_token_bytes.push((at, bytes));
                    }
                }
                Wire::Probe => log.events.push((at, NodeEvent::SentProbe)),
                Wire::Call { .. } => log.events.push((at, NodeEvent::SentCall)),
                Wire::Accept { .. } => log.events.push((at, NodeEvent::SentAccept)),
                Wire::Join { .. } => log.events.push((at, NodeEvent::SentJoin)),
            }
            log.open(name, 0);
        }
        self.inner.send(to, wire);
        let mut log = self.log.borrow_mut();
        let dur = log.close();
        push_capped(&mut log.send_call_ns, dur.min(u64::from(u32::MAX)) as u32);
    }

    fn push_delivery(&self, src: ProcId, a: &Value) {
        self.push_deliveries(&[(src, a.clone())]);
    }

    fn push_deliveries(&self, batch: &[(ProcId, Value)]) {
        {
            let mut log = self.log.borrow_mut();
            log.deliveries_pushed += batch.len() as u64;
            push_capped(&mut log.delivery_pushes, now_ns());
            log.open(
                "transport.push_deliveries",
                batch.first().map_or(0, |(_, a)| a.fingerprint()),
            );
        }
        self.inner.push_deliveries(batch);
        self.log.borrow_mut().close();
    }

    fn push_view(&self, view: &View) {
        {
            let mut log = self.log.borrow_mut();
            log.events.push((now_ns(), NodeEvent::PushedView(view.id)));
            log.open("transport.push_view", 0);
        }
        self.inner.push_view(view);
        self.log.borrow_mut().close();
    }
}

/// `NodeCore::handle` under a span named for the event it carries.
/// Returns `false` on [`Incoming::Stop`], like `handle` itself.
pub fn spanned_handle(
    core: &mut NodeCore,
    ev: Incoming,
    transport: &dyn Transport,
    log: &RefCell<SpanLog>,
) -> bool {
    let (name, op) = match &ev {
        Incoming::Stop => return false,
        Incoming::Wire { .. } => ("nodecore.handle_wire", 0),
        Incoming::Submit { batch } => {
            log.borrow_mut().note_submit();
            ("nodecore.handle_submit", batch.first().map_or(0, Value::fingerprint))
        }
    };
    log.borrow_mut().open(name, op);
    let go = core.handle(ev, transport);
    log.borrow_mut().close();
    go
}

/// `NodeCore::tick` under a span.
pub fn spanned_tick(core: &mut NodeCore, transport: &dyn Transport, log: &RefCell<SpanLog>) {
    log.borrow_mut().open("nodecore.tick", 0);
    core.tick(transport);
    log.borrow_mut().close();
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sink(RefCell<Vec<&'static str>>);
    impl Transport for Sink {
        fn send(&self, _to: ProcId, wire: Wire) {
            self.0.borrow_mut().push(wire_span_name(&wire));
        }
        fn push_delivery(&self, _src: ProcId, _a: &Value) {}
        fn push_deliveries(&self, _batch: &[(ProcId, Value)]) {
            self.0.borrow_mut().push("deliveries");
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let log = Rc::new(RefCell::new(SpanLog::new(3)));
        let t = SpanTransport::new(Sink(RefCell::new(Vec::new())), log.clone());
        log.borrow_mut().open("nodecore.handle_wire", 7);
        t.send(ProcId(1), Wire::Probe);
        t.push_deliveries(&[(ProcId(0), Value::from_u64(9))]);
        log.borrow_mut().close();

        let log = log.borrow();
        let handle = log.total("nodecore.handle_wire");
        let send = log.total("transport.send.probe");
        let push = log.total("transport.push_deliveries");
        assert_eq!((handle.count, send.count, push.count), (1, 1, 1));
        assert_eq!(handle.self_ns, handle.total_ns - send.total_ns - push.total_ns);
        assert_eq!(send.self_ns, send.total_ns, "leaf spans are all self time");

        // Parent links: both children point at the handle span.
        assert_eq!(log.spans.len(), 3);
        assert_eq!(log.spans[0].parent, 0);
        assert_eq!(log.spans[1].parent, 1);
        assert_eq!(log.spans[2].parent, 1);
        assert_eq!(log.spans[2].op, 9);
        assert_eq!(log.events, vec![(log.events[0].0, NodeEvent::SentProbe)]);
        assert_eq!(log.deliveries_pushed, 1);
        assert_eq!(t.inner.0.borrow().as_slice(), ["transport.send.probe", "deliveries"]);

        let mut out = Vec::new();
        log.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text
            .lines()
            .next()
            .unwrap()
            .starts_with("{\"node\":3,\"id\":1,\"name\":\"nodecore.handle_wire\""));
    }
}
