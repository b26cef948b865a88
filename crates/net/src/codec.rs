//! The binary wire codec: length-prefixed frames, LEB128 varints, and
//! explicit enum tags for every message the TCP transport carries.
//!
//! The encoding is hand-rolled and dependency-free so the crate builds in
//! the offline vendored-stub workspace. The layout is specified normatively
//! in `docs/PROTOCOL.md` (appendix "Wire encoding"); the summary:
//!
//! ```text
//! frame   := len:u32be payload              len = |payload|, ≤ MAX_FRAME
//! payload := version:u8 tag:u8 body         version = WIRE_VERSION
//! ```
//!
//! Integers are unsigned LEB128 varints; sequences are a varint count
//! followed by the elements; options are a presence byte (0/1) followed by
//! the value. Decoding is total: any truncated, oversized, or corrupted
//! input yields a [`CodecError`], never a panic, and every frame must
//! consume its payload exactly (trailing bytes are an error).

use gcs_core::msg::AppMsg;
use gcs_model::{ContentMap, Label, ProcId, Summary, Value, View, ViewId};
use gcs_vsimpl::{Token, TokenMsg, Wire};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// The wire format version carried in every frame's first payload byte.
/// Version 2 changed the token body to the batched/pipelined layout
/// (`seq_start`/`entries`/`collect`/`acked` instead of the cumulative
/// `msgs` history and `clean_rounds`).
pub const WIRE_VERSION: u8 = 2;

/// Maximum accepted frame payload (64 MiB): large enough for a token or
/// state-exchange summary carrying a long view history, small enough that
/// a corrupted length prefix cannot trigger an absurd allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// A decoding failure. Every variant is a clean error — the decoder never
/// panics on hostile input.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// The input ended before the value was complete.
    Truncated,
    /// The frame announced a payload longer than [`MAX_FRAME`].
    Oversized(usize),
    /// The version byte did not match [`WIRE_VERSION`].
    BadVersion(u8),
    /// An enum tag byte was not one of the defined values.
    BadTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A varint ran longer than ten bytes (it cannot fit in a `u64`).
    VarintOverflow,
    /// A structurally invalid value (e.g. a zero label seqno).
    Invalid(&'static str),
    /// The frame decoded successfully but left unconsumed bytes.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated input"),
            CodecError::Oversized(n) => write!(f, "frame of {n} bytes exceeds MAX_FRAME"),
            CodecError::BadVersion(v) => write!(f, "unknown wire version {v}"),
            CodecError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            CodecError::VarintOverflow => write!(f, "varint does not fit in u64"),
            CodecError::Invalid(what) => write!(f, "invalid value: {what}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Result alias for decoding.
pub type DecodeResult<T> = Result<T, CodecError>;

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// Who a connection belongs to, announced in the first frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HelloKind {
    /// A node-to-node link; subsequent frames are [`Frame::Peer`].
    Peer,
    /// A client connection; it submits values and receives deliveries.
    Client,
}

/// A transport frame: everything that crosses a socket.
#[derive(Clone, PartialEq, Debug)]
pub enum Frame {
    /// Connection preamble: the sender's identity, its connection
    /// generation (monotonically increasing per reconnect, so receivers
    /// can discard frames from stale sockets), and the connection kind.
    Hello {
        /// The sending node (for peers) or a client-chosen id squeezed
        /// into a `ProcId`-shaped integer (for clients).
        node: ProcId,
        /// Connection generation number.
        generation: u64,
        /// Peer link or client session.
        kind: HelloKind,
    },
    /// A protocol packet from the peer named in the preceding `Hello`.
    Peer(Wire),
    /// A client submits a value for totally ordered broadcast.
    Submit(Value),
    /// A burst of submissions in one frame, in submission order — the
    /// closed-loop generator refills its whole window in one frame, so
    /// the per-frame constants are paid once per refill rather than once
    /// per operation.
    SubmitBatch(Vec<Value>),
    /// The node reports a delivery (`brcv`) to a subscribed client.
    Deliver {
        /// The originating node.
        src: ProcId,
        /// The delivered value.
        a: Value,
    },
    /// A burst of deliveries in one frame: everything one batched token
    /// round handed the client at once crosses the socket under a single
    /// header and is decoded in a single dispatch, instead of paying the
    /// per-frame constants once per operation.
    DeliverBatch(Vec<(ProcId, Value)>),
    /// A protocol packet addressed to one group instance on the peer.
    /// Nodes hosting several `NodeCore`s behind a single transport tag
    /// every inter-node frame with the group it belongs to; an untagged
    /// [`Frame::Peer`] is equivalent to group 0.
    PeerGroup {
        /// The destination group instance.
        group: u32,
        /// The protocol packet.
        wire: Wire,
    },
    /// A client submits a burst of values to one group instance. The
    /// untagged [`Frame::SubmitBatch`] is equivalent to group 0.
    SubmitGroup {
        /// The destination group instance.
        group: u32,
        /// The submitted values, in submission order.
        batch: Vec<Value>,
    },
    /// A burst of deliveries from one group instance to a subscribed
    /// client. The untagged [`Frame::DeliverBatch`] is equivalent to
    /// group 0.
    DeliverGroup {
        /// The originating group instance.
        group: u32,
        /// The delivered `(source, value)` pairs, in delivery order.
        batch: Vec<(ProcId, Value)>,
    },
    /// A view-change notification for one group instance, pushed to
    /// subscribed clients. Shard routers refresh their cached shard map
    /// (group → member set) from these instead of polling.
    View {
        /// The group whose view changed.
        group: u32,
        /// The newly installed view.
        view: View,
    },
}

const TAG_HELLO: u8 = 0;
const TAG_PEER: u8 = 1;
const TAG_SUBMIT: u8 = 2;
const TAG_DELIVER: u8 = 3;
const TAG_DELIVER_BATCH: u8 = 4;
const TAG_SUBMIT_BATCH: u8 = 5;
const TAG_PEER_GROUP: u8 = 6;
const TAG_SUBMIT_GROUP: u8 = 7;
const TAG_DELIVER_GROUP: u8 = 8;
const TAG_VIEW: u8 = 9;

const WIRE_PROBE: u8 = 0;
const WIRE_CALL: u8 = 1;
const WIRE_ACCEPT: u8 = 2;
const WIRE_JOIN: u8 = 3;
const WIRE_TOKEN: u8 = 4;

const APP_VAL: u8 = 0;
const APP_SUMMARY: u8 = 1;

// ---------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn put_proc(out: &mut Vec<u8>, p: ProcId) {
    put_varint(out, p.0 as u64);
}

fn put_viewid(out: &mut Vec<u8>, g: ViewId) {
    put_varint(out, g.epoch);
    put_proc(out, g.origin);
}

fn put_view(out: &mut Vec<u8>, v: &View) {
    put_viewid(out, v.id);
    put_varint(out, v.set.len() as u64);
    for &p in &v.set {
        put_proc(out, p);
    }
}

fn put_value(out: &mut Vec<u8>, a: &Value) {
    put_bytes(out, a.as_bytes());
}

fn put_label(out: &mut Vec<u8>, l: &Label) {
    put_viewid(out, l.view);
    put_varint(out, l.seqno);
    put_proc(out, l.origin);
}

fn put_summary(out: &mut Vec<u8>, x: &Summary) {
    // The pairs travel in label order, so equal summaries have equal
    // bytes however their content stores were filled.
    let mut con: Vec<(Label, &Value)> = x.con.iter().collect();
    con.sort_unstable_by_key(|&(l, _)| l);
    put_varint(out, con.len() as u64);
    for (l, a) in con {
        put_label(out, &l);
        put_value(out, a);
    }
    put_varint(out, x.ord.len() as u64);
    for l in &x.ord {
        put_label(out, l);
    }
    put_varint(out, x.next);
    match x.high {
        None => out.push(0),
        Some(g) => {
            out.push(1);
            put_viewid(out, g);
        }
    }
}

fn put_appmsg(out: &mut Vec<u8>, m: &AppMsg) {
    match m {
        AppMsg::Val(l, a) => {
            out.push(APP_VAL);
            put_label(out, l);
            put_value(out, a);
        }
        AppMsg::Summary(x) => {
            out.push(APP_SUMMARY);
            put_summary(out, x);
        }
    }
}

fn put_token_msg(out: &mut Vec<u8>, tm: &TokenMsg) {
    put_proc(out, tm.src);
    put_varint(out, tm.mid);
    put_appmsg(out, &tm.msg);
}

fn put_token(out: &mut Vec<u8>, t: &Token) {
    put_viewid(out, t.view);
    put_varint(out, t.round);
    put_varint(out, t.seq_start);
    put_varint(out, t.entries.len() as u64);
    for tm in &t.entries {
        put_token_msg(out, tm);
    }
    put_varint(out, t.collect.len() as u64);
    for tm in &t.collect {
        put_token_msg(out, tm);
    }
    put_varint(out, t.acked);
    put_varint(out, t.delivered.len() as u64);
    for (&p, &c) in &t.delivered {
        put_proc(out, p);
        put_varint(out, c);
    }
}

fn put_wire(out: &mut Vec<u8>, w: &Wire) {
    match w {
        Wire::Probe => out.push(WIRE_PROBE),
        Wire::Call { viewid } => {
            out.push(WIRE_CALL);
            put_viewid(out, *viewid);
        }
        Wire::Accept { viewid } => {
            out.push(WIRE_ACCEPT);
            put_viewid(out, *viewid);
        }
        Wire::Join { view } => {
            out.push(WIRE_JOIN);
            put_view(out, view);
        }
        Wire::Token(t) => {
            out.push(WIRE_TOKEN);
            put_token(out, t);
        }
    }
}

// ---------------------------------------------------------------------
// Primitive readers
// ---------------------------------------------------------------------

/// A bounds-checked cursor over a frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn u8(&mut self) -> DecodeResult<u8> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> DecodeResult<u64> {
        let mut x = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            let chunk = (b & 0x7f) as u64;
            // The 10th byte may only contribute the single remaining bit.
            if shift == 63 && chunk > 1 {
                return Err(CodecError::VarintOverflow);
            }
            x |= chunk << shift;
            if b & 0x80 == 0 {
                return Ok(x);
            }
        }
        Err(CodecError::VarintOverflow)
    }

    fn len(&mut self, what: &'static str) -> DecodeResult<usize> {
        let n = self.varint()?;
        let n = usize::try_from(n).map_err(|_| CodecError::Oversized(usize::MAX))?;
        // A collection cannot have more elements than remaining bytes
        // (every element is at least one byte); checking up front keeps a
        // corrupted count from provoking a huge pre-allocation.
        if n > self.remaining() {
            return Err(CodecError::Invalid(what));
        }
        Ok(n)
    }

    fn proc(&mut self) -> DecodeResult<ProcId> {
        let x = self.varint()?;
        u32::try_from(x).map(ProcId).map_err(|_| CodecError::Invalid("processor id exceeds u32"))
    }

    fn group(&mut self) -> DecodeResult<u32> {
        let x = self.varint()?;
        u32::try_from(x).map_err(|_| CodecError::Invalid("group id exceeds u32"))
    }

    fn viewid(&mut self) -> DecodeResult<ViewId> {
        let epoch = self.varint()?;
        let origin = self.proc()?;
        Ok(ViewId { epoch, origin })
    }

    fn view(&mut self) -> DecodeResult<View> {
        let id = self.viewid()?;
        let n = self.len("view member count")?;
        let mut set = BTreeSet::new();
        for _ in 0..n {
            set.insert(self.proc()?);
        }
        if set.len() != n {
            return Err(CodecError::Invalid("duplicate view member"));
        }
        Ok(View { id, set })
    }

    /// A decoded value owns a copy of its bytes, so it never keeps the
    /// frame it came in alive.
    fn value(&mut self) -> DecodeResult<Value> {
        let n = self.len("byte string length")?;
        let (start, end) = (self.pos, self.pos + n);
        self.pos = end;
        Ok(Value::from(&self.buf[start..end]))
    }

    fn label(&mut self) -> DecodeResult<Label> {
        let view = self.viewid()?;
        let seqno = self.varint()?;
        let origin = self.proc()?;
        if seqno == 0 {
            return Err(CodecError::Invalid("label seqno must be positive"));
        }
        Ok(Label { view, seqno, origin })
    }

    fn summary(&mut self) -> DecodeResult<Summary> {
        let ncon = self.len("summary con count")?;
        let mut con = ContentMap::new();
        for _ in 0..ncon {
            let l = self.label()?;
            let a = self.value()?;
            con.insert(l, a);
        }
        if con.len() != ncon {
            return Err(CodecError::Invalid("duplicate summary con label"));
        }
        let nord = self.len("summary ord count")?;
        let mut ord = Vec::with_capacity(nord);
        for _ in 0..nord {
            ord.push(self.label()?);
        }
        let next = self.varint()?;
        if next == 0 {
            return Err(CodecError::Invalid("summary next must be positive"));
        }
        let high = match self.u8()? {
            0 => None,
            1 => Some(self.viewid()?),
            tag => return Err(CodecError::BadTag { what: "summary high option", tag }),
        };
        Ok(Summary { con, ord, next, high })
    }

    fn appmsg(&mut self) -> DecodeResult<AppMsg> {
        match self.u8()? {
            APP_VAL => {
                let l = self.label()?;
                let a = self.value()?;
                Ok(AppMsg::Val(l, a))
            }
            APP_SUMMARY => Ok(AppMsg::Summary(Arc::new(self.summary()?))),
            tag => Err(CodecError::BadTag { what: "app message", tag }),
        }
    }

    fn token_msg(&mut self) -> DecodeResult<TokenMsg> {
        let src = self.proc()?;
        let mid = self.varint()?;
        let msg = self.appmsg()?;
        Ok(TokenMsg { src, mid, msg })
    }

    fn token(&mut self) -> DecodeResult<Token> {
        let view = self.viewid()?;
        let round = self.varint()?;
        let seq_start = self.varint()?;
        let nentries = self.len("token entry count")?;
        let mut entries = Vec::with_capacity(nentries);
        for _ in 0..nentries {
            entries.push(self.token_msg()?);
        }
        let ncollect = self.len("token collect count")?;
        let mut collect = Vec::with_capacity(ncollect);
        for _ in 0..ncollect {
            collect.push(self.token_msg()?);
        }
        let acked = self.varint()?;
        let ndel = self.len("token delivered count")?;
        let mut delivered = BTreeMap::new();
        for _ in 0..ndel {
            let p = self.proc()?;
            let c = self.varint()?;
            delivered.insert(p, c);
        }
        if delivered.len() != ndel {
            return Err(CodecError::Invalid("duplicate token delivered entry"));
        }
        Ok(Token { view, round, seq_start, entries, collect, acked, delivered })
    }

    fn wire(&mut self) -> DecodeResult<Wire> {
        match self.u8()? {
            WIRE_PROBE => Ok(Wire::Probe),
            WIRE_CALL => Ok(Wire::Call { viewid: self.viewid()? }),
            WIRE_ACCEPT => Ok(Wire::Accept { viewid: self.viewid()? }),
            WIRE_JOIN => Ok(Wire::Join { view: self.view()? }),
            WIRE_TOKEN => Ok(Wire::Token(Box::new(self.token()?))),
            tag => Err(CodecError::BadTag { what: "wire packet", tag }),
        }
    }

    fn frame(&mut self) -> DecodeResult<Frame> {
        let version = self.u8()?;
        if version != WIRE_VERSION {
            return Err(CodecError::BadVersion(version));
        }
        match self.u8()? {
            TAG_HELLO => {
                let node = self.proc()?;
                let generation = self.varint()?;
                let kind = match self.u8()? {
                    0 => HelloKind::Peer,
                    1 => HelloKind::Client,
                    tag => return Err(CodecError::BadTag { what: "hello kind", tag }),
                };
                Ok(Frame::Hello { node, generation, kind })
            }
            TAG_PEER => Ok(Frame::Peer(self.wire()?)),
            TAG_SUBMIT => Ok(Frame::Submit(self.value()?)),
            TAG_DELIVER => {
                let src = self.proc()?;
                let a = self.value()?;
                Ok(Frame::Deliver { src, a })
            }
            TAG_SUBMIT_BATCH => {
                let n = self.len("submit batch count")?;
                let mut batch = Vec::with_capacity(n);
                for _ in 0..n {
                    batch.push(self.value()?);
                }
                Ok(Frame::SubmitBatch(batch))
            }
            TAG_DELIVER_BATCH => {
                let n = self.len("deliver batch count")?;
                let mut batch = Vec::with_capacity(n);
                for _ in 0..n {
                    let src = self.proc()?;
                    let a = self.value()?;
                    batch.push((src, a));
                }
                Ok(Frame::DeliverBatch(batch))
            }
            TAG_PEER_GROUP => {
                let group = self.group()?;
                let wire = self.wire()?;
                Ok(Frame::PeerGroup { group, wire })
            }
            TAG_SUBMIT_GROUP => {
                let group = self.group()?;
                let n = self.len("submit group count")?;
                let mut batch = Vec::with_capacity(n);
                for _ in 0..n {
                    batch.push(self.value()?);
                }
                Ok(Frame::SubmitGroup { group, batch })
            }
            TAG_DELIVER_GROUP => {
                let group = self.group()?;
                let n = self.len("deliver group count")?;
                let mut batch = Vec::with_capacity(n);
                for _ in 0..n {
                    let src = self.proc()?;
                    let a = self.value()?;
                    batch.push((src, a));
                }
                Ok(Frame::DeliverGroup { group, batch })
            }
            TAG_VIEW => {
                let group = self.group()?;
                let view = self.view()?;
                Ok(Frame::View { group, view })
            }
            tag => Err(CodecError::BadTag { what: "frame", tag }),
        }
    }
}

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

/// Encodes a frame payload (version byte + tag + body, without the length
/// prefix).
pub fn encode_payload(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    encode_payload_into(&mut out, frame);
    out
}

/// Encodes a frame payload into a caller-supplied buffer, appending to
/// whatever it already holds. This is the allocation-free form for hot
/// send paths: the caller keeps one scratch buffer and reuses its
/// capacity across frames.
pub fn encode_payload_into(out: &mut Vec<u8>, frame: &Frame) {
    out.push(WIRE_VERSION);
    match frame {
        Frame::Hello { node, generation, kind } => {
            out.push(TAG_HELLO);
            put_proc(out, *node);
            put_varint(out, *generation);
            out.push(match kind {
                HelloKind::Peer => 0,
                HelloKind::Client => 1,
            });
        }
        Frame::Peer(w) => {
            out.push(TAG_PEER);
            put_wire(out, w);
        }
        Frame::Submit(a) => {
            out.push(TAG_SUBMIT);
            put_value(out, a);
        }
        Frame::SubmitBatch(batch) => {
            out.push(TAG_SUBMIT_BATCH);
            put_varint(out, batch.len() as u64);
            for a in batch {
                put_value(out, a);
            }
        }
        Frame::Deliver { src, a } => {
            out.push(TAG_DELIVER);
            put_proc(out, *src);
            put_value(out, a);
        }
        Frame::DeliverBatch(batch) => put_deliveries(out, None, batch),
        Frame::PeerGroup { group, wire } => {
            out.push(TAG_PEER_GROUP);
            put_varint(out, u64::from(*group));
            put_wire(out, wire);
        }
        Frame::SubmitGroup { group, batch } => {
            out.push(TAG_SUBMIT_GROUP);
            put_varint(out, u64::from(*group));
            put_varint(out, batch.len() as u64);
            for a in batch {
                put_value(out, a);
            }
        }
        Frame::DeliverGroup { group, batch } => put_deliveries(out, Some(*group), batch),
        Frame::View { group, view } => {
            out.push(TAG_VIEW);
            put_varint(out, u64::from(*group));
            put_view(out, view);
        }
    }
}

/// Encodes the payload of a delivery push from a borrowed batch:
/// `DeliverBatch` when `group` is `None`, `DeliverGroup` otherwise. The
/// bytes are exactly [`encode_payload`]'s for the same frame, and it is
/// the one encoder of both: the transport pushes a batch with it without
/// first copying the batch into a [`Frame`].
pub(crate) fn encode_deliveries_into(
    out: &mut Vec<u8>,
    group: Option<u32>,
    batch: &[(ProcId, Value)],
) {
    out.push(WIRE_VERSION);
    put_deliveries(out, group, batch);
}

/// The tag and body of `DeliverBatch` (`group` `None`) or `DeliverGroup`.
fn put_deliveries(out: &mut Vec<u8>, group: Option<u32>, batch: &[(ProcId, Value)]) {
    match group {
        None => out.push(TAG_DELIVER_BATCH),
        Some(group) => {
            out.push(TAG_DELIVER_GROUP);
            put_varint(out, u64::from(group));
        }
    }
    put_varint(out, batch.len() as u64);
    for (src, a) in batch {
        put_proc(out, *src);
        put_value(out, a);
    }
}

/// Decodes a frame payload produced by [`encode_payload`]. The payload
/// must be consumed exactly.
pub fn decode_payload(buf: &[u8]) -> DecodeResult<Frame> {
    let mut c = Cursor::new(buf);
    let frame = c.frame()?;
    if c.remaining() != 0 {
        return Err(CodecError::TrailingBytes(c.remaining()));
    }
    Ok(frame)
}

/// The payload of the complete frame at the start of `buf`, or `None`
/// while `buf` holds less than one whole frame. A reader asks this of
/// the bytes it has already buffered, so taking that frame cannot block
/// on the socket.
pub(crate) fn buffered_payload(buf: &[u8]) -> Option<&[u8]> {
    let len = u32::from_be_bytes(buf.get(..4)?.try_into().ok()?) as usize;
    buf.get(4..4usize.checked_add(len)?)
}

/// Writes one frame to a stream: the 4-byte big-endian payload length,
/// then the payload.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let mut out = Vec::new();
    frame_into(&mut out, |out| encode_payload_into(out, frame));
    w.write_all(&out)
}

/// Appends one whole frame to `out`: a 4-byte big-endian length, then
/// the payload `encode` appends after it.
pub(crate) fn frame_into(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    encode(out);
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_be_bytes());
}

/// A reusable writer for batches of frames.
///
/// Frames are laid back-to-back into one retained buffer, each with its
/// length header, by the same `frame_into` every other framing path uses
/// (no per-frame allocation once the buffer is warm);
/// [`FrameWriter::write_to`] then writes the whole batch with one
/// `write_all`.
#[derive(Default)]
pub struct FrameWriter {
    buf: Vec<u8>,
    frames: usize,
}

impl FrameWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        FrameWriter::default()
    }

    /// Drops all batched frames, retaining buffer capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.frames = 0;
    }

    /// Number of batched frames.
    pub fn len(&self) -> usize {
        self.frames
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.frames == 0
    }

    /// Total batched payload bytes (excluding length headers).
    pub fn payload_bytes(&self) -> usize {
        self.buf.len() - 4 * self.frames
    }

    /// Encodes one frame onto the batch.
    pub fn push(&mut self, frame: &Frame) {
        frame_into(&mut self.buf, |out| encode_payload_into(out, frame));
        self.frames += 1;
    }

    /// Writes the whole batch. The batch is left intact; call
    /// [`FrameWriter::clear`] afterwards to reuse the buffer.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.buf)
    }
}

/// Reads one frame from a stream. Returns `Ok(None)` when the stream
/// ends at a frame boundary; a stream that ends inside a frame (its
/// length header included) is [`io::ErrorKind::UnexpectedEof`], and a
/// payload that does not decode is [`io::ErrorKind::InvalidData`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut len = [0u8; 4];
    loop {
        match r.read(&mut len[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    r.read_exact(&mut len[1..])?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, CodecError::Oversized(len)));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    decode_payload(&payload).map(Some).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: &Frame) {
        let bytes = encode_payload(f);
        assert_eq!(&decode_payload(&bytes).expect("decodes"), f);
    }

    #[test]
    fn varint_boundaries_roundtrip() {
        for x in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, x);
            let mut c = Cursor::new(&buf);
            assert_eq!(c.varint().unwrap(), x);
            assert_eq!(c.remaining(), 0);
        }
    }

    #[test]
    fn simple_frames_roundtrip() {
        roundtrip(&Frame::Hello { node: ProcId(3), generation: 9, kind: HelloKind::Peer });
        roundtrip(&Frame::Hello { node: ProcId(0), generation: 0, kind: HelloKind::Client });
        roundtrip(&Frame::Peer(Wire::Probe));
        roundtrip(&Frame::Peer(Wire::Call { viewid: ViewId::new(4, ProcId(2)) }));
        roundtrip(&Frame::Submit(Value::from_u64(17)));
        roundtrip(&Frame::Deliver { src: ProcId(1), a: Value::from("hello") });
    }

    #[test]
    fn token_frame_roundtrips() {
        let v = View::new(ViewId::new(2, ProcId(0)), ProcId::range(3));
        let mut t = Token::new(&v);
        t.round = 7;
        t.seq_start = 3;
        t.acked = 2;
        let l = Label::new(v.id, 1, ProcId(1));
        t.entries.push(TokenMsg {
            src: ProcId(1),
            mid: 42,
            msg: AppMsg::Val(l, Value::from_u64(5)),
        });
        t.collect.push(TokenMsg {
            src: ProcId(2),
            mid: 77,
            msg: AppMsg::Val(l, Value::from_u64(6)),
        });
        t.delivered.insert(ProcId(1), 1);
        roundtrip(&Frame::Peer(Wire::Token(Box::new(t))));
    }

    /// Equal summaries have equal bytes: the con pairs travel in label
    /// order whatever order (and whichever of the store's two regions)
    /// they were inserted in.
    #[test]
    fn summary_encoding_is_canonical() {
        let g = ViewId::new(1, ProcId(0));
        // 4100 is past `ContentMap`'s dense gap (4096) from an empty
        // group and inside it from a group of 39.
        let far = Label::new(g, 4100, ProcId(0));
        // Ascending: `far` lands last, in its group's dense vector.
        let mut asc: Vec<(Label, Value)> = (1..=40)
            .map(|s| (Label::new(g, s, ProcId((s % 3) as u32)), Value::from_u64(s)))
            .collect();
        asc.push((far, Value::from_u64(0)));
        // Descending: `far` lands first, in the sparse fallback, and
        // every dense group is filled back to front.
        let mut desc = asc.clone();
        desc.reverse();
        let frame = |con: Vec<(Label, Value)>| {
            let x = Summary { con: con.into_iter().collect(), ord: vec![far], next: 1, high: None };
            let mut t = Token::new(&View::new(g, ProcId::range(3)));
            t.entries.push(TokenMsg { src: ProcId(0), mid: 1, msg: AppMsg::Summary(Arc::new(x)) });
            Frame::Peer(Wire::Token(Box::new(t)))
        };
        let (a, b) = (frame(asc), frame(desc));
        assert_eq!(a, b);
        let bytes = encode_payload(&a);
        assert_eq!(bytes, encode_payload(&b));
        // And a decoded copy (a third insertion order: the wire's)
        // re-encodes to the same bytes.
        assert_eq!(encode_payload(&decode_payload(&bytes).expect("decodes")), bytes);
    }

    /// What an untrusted summary can say that a correct one never does:
    /// a con label twice is a clean error; an ord label with no con
    /// binding decodes (VStoTO holds delivery until the value arrives).
    #[test]
    fn summary_with_duplicate_con_label_is_rejected_and_unbound_ord_label_decodes() {
        let g = ViewId::new(1, ProcId(0));
        let l = Label::new(g, 1, ProcId(0));
        let body = |con: &[(Label, u64)], ord: &[Label]| {
            let mut out = vec![];
            put_varint(&mut out, con.len() as u64);
            for (l, a) in con {
                put_label(&mut out, l);
                put_value(&mut out, &Value::from_u64(*a));
            }
            put_varint(&mut out, ord.len() as u64);
            for l in ord {
                put_label(&mut out, l);
            }
            put_varint(&mut out, 1);
            out.push(0);
            out
        };
        let dup = body(&[(l, 1), (l, 2)], &[]);
        assert_eq!(
            Cursor::new(&dup).summary(),
            Err(CodecError::Invalid("duplicate summary con label"))
        );
        let unbound = body(&[], &[l]);
        let x = Cursor::new(&unbound).summary().expect("decodes");
        assert!(x.con.is_empty());
        assert_eq!(x.ord, vec![l]);
    }

    #[test]
    fn frame_writer_matches_sequential_write_frame() {
        let frames = vec![
            Frame::Peer(Wire::Probe),
            Frame::Submit(Value::from_u64(1)),
            Frame::Deliver { src: ProcId(2), a: Value::from("abc") },
        ];
        let mut expect = Vec::new();
        for f in &frames {
            write_frame(&mut expect, f).unwrap();
        }
        let mut fw = FrameWriter::new();
        for f in &frames {
            fw.push(f);
        }
        assert_eq!(fw.len(), 3);
        let payloads: usize = frames.iter().map(|f| encode_payload(f).len()).sum();
        assert_eq!(fw.payload_bytes(), payloads);
        let mut got = Vec::new();
        fw.write_to(&mut got).unwrap();
        assert_eq!(got, expect);
        fw.clear();
        assert!(fw.is_empty());
        assert_eq!(fw.payload_bytes(), 0);
    }

    #[test]
    fn a_delivery_push_is_the_batch_frame_byte_for_byte() {
        let batch = vec![
            (ProcId(2), Value::from_u64(7)),
            (ProcId(0), Value::from(vec![9u8; 40])),
            (ProcId(300), Value::from("abc")),
        ];
        for (group, frame) in [
            (None, Frame::DeliverBatch(batch.clone())),
            (Some(0), Frame::DeliverGroup { group: 0, batch: batch.clone() }),
            (Some(300), Frame::DeliverGroup { group: 300, batch: batch.clone() }),
        ] {
            let mut push = Vec::new();
            encode_deliveries_into(&mut push, group, &batch);
            assert_eq!(push, encode_payload(&frame), "{group:?}");
            let mut framed = Vec::new();
            frame_into(&mut framed, |out| encode_deliveries_into(out, group, &batch));
            let mut written = Vec::new();
            write_frame(&mut written, &frame).unwrap();
            assert_eq!(framed, written, "{group:?}");
        }
    }

    /// A writer that accepts at most `cap` bytes per call, to force the
    /// partial-write continuation path.
    struct Dribble {
        out: Vec<u8>,
        cap: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_writer_survives_partial_writes() {
        let frames = vec![
            Frame::Submit(Value::from_u64(7)),
            Frame::Peer(Wire::Call { viewid: ViewId::new(3, ProcId(1)) }),
        ];
        let mut expect = Vec::new();
        let mut fw = FrameWriter::new();
        for f in &frames {
            write_frame(&mut expect, f).unwrap();
            fw.push(f);
        }
        for cap in 1..8 {
            let mut d = Dribble { out: Vec::new(), cap };
            fw.write_to(&mut d).unwrap();
            assert_eq!(d.out, expect, "cap {cap}");
        }
    }

    #[test]
    fn stream_roundtrip_and_clean_eof() {
        let frames = vec![
            Frame::Peer(Wire::Probe),
            Frame::Submit(Value::from_u64(1)),
            Frame::Peer(Wire::Join {
                view: View::new(ViewId::new(1, ProcId(0)), ProcId::range(2)),
            }),
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut r = &buf[..];
        for f in &frames {
            assert_eq!(&read_frame(&mut r).unwrap().unwrap(), f);
        }
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    /// Only a stream that ends before a frame's first byte ends cleanly;
    /// one that ends inside the length header is torn.
    #[test]
    fn torn_header_is_an_error_and_an_empty_stream_is_not() {
        assert_eq!(read_frame(&mut &[][..]).unwrap(), None);
        for cut in 1..4 {
            let err = read_frame(&mut &[0u8, 0, 1][..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{cut} header bytes");
        }
    }

    #[test]
    fn buffered_payload_needs_the_whole_frame() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Submit(Value::from("abc"))).unwrap();
        let payload = buf[4..].to_vec();
        for cut in 0..buf.len() {
            assert_eq!(buffered_payload(&buf[..cut]), None, "prefix {cut}");
        }
        assert_eq!(buffered_payload(&buf), Some(&payload[..]));
        buf.push(0xff);
        assert_eq!(
            buffered_payload(&buf),
            Some(&payload[..]),
            "the next frame's byte is not part of it"
        );
    }

    #[test]
    fn bad_version_and_tags_error_cleanly() {
        assert_eq!(decode_payload(&[9, 0]), Err(CodecError::BadVersion(9)));
        assert_eq!(
            decode_payload(&[WIRE_VERSION, 200]),
            Err(CodecError::BadTag { what: "frame", tag: 200 })
        );
        assert!(decode_payload(&[]).is_err());
    }

    #[test]
    fn truncation_errors_never_panic() {
        let full = encode_payload(&Frame::Peer(Wire::Join {
            view: View::new(ViewId::new(3, ProcId(1)), ProcId::range(4)),
        }));
        for cut in 0..full.len() {
            assert!(decode_payload(&full[..cut]).is_err(), "prefix {cut} decoded");
        }
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        buf.extend_from_slice(&[0; 16]);
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn corrupt_collection_count_rejected_without_allocation() {
        // A Submit frame whose value claims u64::MAX bytes.
        let mut buf = vec![WIRE_VERSION, TAG_SUBMIT];
        put_varint(&mut buf, u64::MAX);
        assert!(decode_payload(&buf).is_err());
    }

    #[test]
    fn group_tagged_frames_roundtrip() {
        roundtrip(&Frame::PeerGroup { group: 3, wire: Wire::Probe });
        roundtrip(&Frame::PeerGroup {
            group: u32::MAX,
            wire: Wire::Call { viewid: ViewId::new(7, ProcId(2)) },
        });
        roundtrip(&Frame::SubmitGroup {
            group: 0,
            batch: vec![Value::from_u64(1), Value::from("kv")],
        });
        roundtrip(&Frame::SubmitGroup { group: 2, batch: Vec::new() });
        roundtrip(&Frame::DeliverGroup {
            group: 1,
            batch: vec![(ProcId(4), Value::from_u64(9)), (ProcId(0), Value::default())],
        });
        roundtrip(&Frame::View {
            group: 5,
            view: View::new(ViewId::new(2, ProcId(1)), ProcId::range(3)),
        });
    }
}
