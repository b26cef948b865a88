//! Property tests for the wire codec: every `Frame`/`Wire`/`AppMsg`
//! variant round-trips bit-exactly through encode/decode, and decoding
//! any truncated or corrupted byte string returns a clean error — never
//! a panic, never an allocation blow-up.
//!
//! The vendored proptest stub has no `prop_oneof`, so variant selection
//! is an integer-range strategy dispatched in `prop_map`/`prop_flat_map`.

use gcs_core::msg::AppMsg;
use gcs_model::{Label, ProcId, Summary, Value, View, ViewId};
use gcs_net::codec::{decode_payload, encode_frame, encode_payload, Frame, HelloKind};
use gcs_vsimpl::{Token, TokenMsg, Wire};
use proptest::prelude::*;
use proptest::{collection, option, BoxedStrategy};
use std::io::Write as _;

/// The vendored proptest has no failure persistence, so we provide our
/// own: any input that breaks a property is appended to the regression
/// corpus, which `corpus_replay.rs` replays as a plain test on every
/// run from then on. `tag` is the corpus entry kind (`ok` for payloads
/// that must decode canonically, `raw` for must-not-panic bytes).
fn persist_failure(tag: &str, bytes: &[u8]) {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
        .join("regressions.hex");
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    if let Ok(mut f) = std::fs::OpenOptions::new().append(true).create(true).open(&path) {
        let _ = writeln!(f, "{tag} {hex}");
        eprintln!("persisted failing input to {}", path.display());
    }
}

/// Runs the decoder under `catch_unwind` so a panicking input can be
/// persisted before the property fails.
fn decode_guarded(bytes: &[u8]) -> Result<(), ()> {
    std::panic::catch_unwind(|| {
        let _ = decode_payload(bytes);
    })
    .map_err(|_| ())
}

fn proc_strategy() -> impl Strategy<Value = ProcId> {
    (0u32..1000).prop_map(ProcId)
}

fn viewid_strategy() -> impl Strategy<Value = ViewId> {
    ((0u64..1 << 40), proc_strategy()).prop_map(|(epoch, origin)| ViewId::new(epoch, origin))
}

fn view_strategy() -> impl Strategy<Value = View> {
    (viewid_strategy(), collection::btree_set(proc_strategy(), 1..8))
        .prop_map(|(id, set)| View::new(id, set))
}

fn value_strategy() -> BoxedStrategy<Value> {
    (0u8..3)
        .prop_flat_map(|variant| -> BoxedStrategy<Value> {
            match variant {
                0 => any::<u64>().prop_map(Value::from_u64).boxed(),
                1 => collection::vec(any::<u8>(), 0..64).prop_map(Value::from).boxed(),
                _ => (0usize..1).prop_map(|_| Value::default()).boxed(),
            }
        })
        .boxed()
}

fn label_strategy() -> impl Strategy<Value = Label> {
    // Label::new rejects seqno 0, and the codec rejects it on decode.
    (viewid_strategy(), 1u64..1 << 30, proc_strategy())
        .prop_map(|(view, seqno, origin)| Label::new(view, seqno, origin))
}

fn summary_strategy() -> impl Strategy<Value = Summary> {
    (
        collection::btree_map(label_strategy(), value_strategy(), 0..8),
        collection::vec(label_strategy(), 0..8),
        1u64..1 << 30,
        option::of(viewid_strategy()),
    )
        .prop_map(|(con, ord, next, high)| Summary {
            con: con.into_iter().collect(),
            ord,
            next,
            high,
        })
}

fn appmsg_strategy() -> BoxedStrategy<AppMsg> {
    (0u8..2)
        .prop_flat_map(|variant| -> BoxedStrategy<AppMsg> {
            match variant {
                0 => (label_strategy(), value_strategy())
                    .prop_map(|(l, a)| AppMsg::Val(l, a))
                    .boxed(),
                _ => summary_strategy().prop_map(|x| AppMsg::Summary(Box::new(x))).boxed(),
            }
        })
        .boxed()
}

fn token_msg_strategy() -> impl Strategy<Value = TokenMsg> {
    (proc_strategy(), any::<u64>(), appmsg_strategy()).prop_map(|(src, mid, msg)| TokenMsg {
        src,
        mid,
        msg,
    })
}

fn token_strategy() -> impl Strategy<Value = Token> {
    (
        viewid_strategy(),
        any::<u64>(),
        any::<u64>(),
        collection::vec(token_msg_strategy(), 0..6),
        collection::vec(token_msg_strategy(), 0..4),
        any::<u64>(),
        collection::btree_map(proc_strategy(), any::<u64>(), 0..8),
    )
        .prop_map(|(view, round, seq_start, entries, collect, acked, delivered)| Token {
            view,
            round,
            seq_start,
            entries,
            collect,
            acked,
            delivered,
        })
}

fn wire_strategy() -> BoxedStrategy<Wire> {
    (0u8..5)
        .prop_flat_map(|variant| -> BoxedStrategy<Wire> {
            match variant {
                0 => (0usize..1).prop_map(|_| Wire::Probe).boxed(),
                1 => viewid_strategy().prop_map(|viewid| Wire::Call { viewid }).boxed(),
                2 => viewid_strategy().prop_map(|viewid| Wire::Accept { viewid }).boxed(),
                3 => view_strategy().prop_map(|view| Wire::Join { view }).boxed(),
                _ => token_strategy().prop_map(|t| Wire::Token(Box::new(t))).boxed(),
            }
        })
        .boxed()
}

fn group_strategy() -> impl Strategy<Value = u32> {
    // Group ids skew small in practice but the codec must take any u32.
    (0u8..2).prop_flat_map(|wide| -> BoxedStrategy<u32> {
        match wide {
            0 => (0u32..8).boxed(),
            _ => any::<u32>().boxed(),
        }
    })
}

fn frame_strategy() -> BoxedStrategy<Frame> {
    (0u8..10)
        .prop_flat_map(|variant| -> BoxedStrategy<Frame> {
            match variant {
                0 => (proc_strategy(), any::<u64>(), any::<bool>())
                    .prop_map(|(node, generation, peer)| Frame::Hello {
                        node,
                        generation,
                        kind: if peer { HelloKind::Peer } else { HelloKind::Client },
                    })
                    .boxed(),
                1 => wire_strategy().prop_map(Frame::Peer).boxed(),
                2 => value_strategy().prop_map(Frame::Submit).boxed(),
                3 => (proc_strategy(), value_strategy())
                    .prop_map(|(src, a)| Frame::Deliver { src, a })
                    .boxed(),
                4 => collection::vec((proc_strategy(), value_strategy()), 0..16)
                    .prop_map(Frame::DeliverBatch)
                    .boxed(),
                5 => collection::vec(value_strategy(), 0..16).prop_map(Frame::SubmitBatch).boxed(),
                6 => (group_strategy(), wire_strategy())
                    .prop_map(|(group, wire)| Frame::PeerGroup { group, wire })
                    .boxed(),
                7 => (group_strategy(), collection::vec(value_strategy(), 0..16))
                    .prop_map(|(group, batch)| Frame::SubmitGroup { group, batch })
                    .boxed(),
                8 => {
                    (group_strategy(), collection::vec((proc_strategy(), value_strategy()), 0..16))
                        .prop_map(|(group, batch)| Frame::DeliverGroup { group, batch })
                        .boxed()
                }
                _ => (group_strategy(), view_strategy())
                    .prop_map(|(group, view)| Frame::View { group, view })
                    .boxed(),
            }
        })
        .boxed()
}

/// A token mid-rotation under load: a large `entries` delta (hundreds of
/// messages) with realistic monotone cursors. The small `token_strategy`
/// above keeps the general frame tests fast; this one exists so the
/// batched hot-path shape gets direct roundtrip/truncation coverage.
fn batched_token_strategy() -> impl Strategy<Value = Token> {
    (
        viewid_strategy(),
        any::<u64>(),
        0u64..1 << 40,
        collection::vec(token_msg_strategy(), 64..384),
        collection::vec(token_msg_strategy(), 0..8),
        any::<u64>(),
        collection::btree_map(proc_strategy(), any::<u64>(), 1..8),
    )
        .prop_map(|(view, round, seq_start, entries, collect, acked, delivered)| Token {
            view,
            round,
            seq_start,
            entries,
            collect,
            acked,
            delivered,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Every frame round-trips bit-exactly through the payload codec.
    #[test]
    fn frame_roundtrips(frame in frame_strategy()) {
        let bytes = encode_payload(&frame);
        let back = decode_payload(&bytes);
        if back.as_ref().ok() != Some(&frame) {
            persist_failure("ok", &bytes);
        }
        prop_assert!(back.is_ok(), "decode failed: {:?}", back);
        prop_assert_eq!(back.unwrap(), frame);
    }

    /// Every `Wire` variant round-trips inside a `Peer` frame (the hot
    /// path between nodes).
    #[test]
    fn wire_roundtrips(wire in wire_strategy()) {
        let frame = Frame::Peer(wire);
        let back = decode_payload(&encode_payload(&frame));
        prop_assert_eq!(back.ok(), Some(frame));
    }

    /// Encoding is deterministic: equal frames produce equal bytes.
    #[test]
    fn encoding_is_deterministic(frame in frame_strategy()) {
        prop_assert_eq!(encode_payload(&frame), encode_payload(&frame));
        prop_assert_eq!(encode_frame(&frame), encode_frame(&frame));
    }

    /// The length prefix in `encode_frame` matches the payload exactly.
    #[test]
    fn length_prefix_matches_payload(frame in frame_strategy()) {
        let framed = encode_frame(&frame);
        prop_assert!(framed.len() >= 4);
        let len = u32::from_be_bytes([framed[0], framed[1], framed[2], framed[3]]) as usize;
        prop_assert_eq!(len, framed.len() - 4);
        prop_assert_eq!(decode_payload(&framed[4..]).ok(), Some(frame));
    }

    /// Every strict prefix of a valid payload fails to decode with a
    /// clean error — no panic, no success on partial data.
    #[test]
    fn truncations_error_cleanly(frame in frame_strategy()) {
        let bytes = encode_payload(&frame);
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_payload(&bytes[..cut]).is_err(),
                "truncation at {} decoded successfully", cut
            );
        }
    }

    /// Flipping any single byte either fails cleanly or decodes to some
    /// frame — it never panics. (A flip inside an opaque value payload
    /// legitimately decodes to a different frame.)
    #[test]
    fn corruption_never_panics(
        frame in frame_strategy(),
        pos in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = encode_payload(&frame);
        let i = (pos % bytes.len() as u64) as usize;
        bytes[i] ^= flip;
        let returned = decode_guarded(&bytes);
        if returned.is_err() {
            persist_failure("raw", &bytes);
        }
        prop_assert!(returned.is_ok(), "decoder panicked on single-byte corruption");
    }

    /// Garbage of any shape never panics the decoder.
    #[test]
    fn random_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..256)) {
        let returned = decode_guarded(&bytes);
        if returned.is_err() {
            persist_failure("raw", &bytes);
        }
        prop_assert!(returned.is_ok(), "decoder panicked on random bytes");
    }
}

proptest! {
    // Large tokens are expensive to generate; fewer cases keep the suite
    // interactive while still sweeping hundreds of batch shapes.
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// A heavily batched token round-trips bit-exactly.
    #[test]
    fn batched_token_roundtrips(t in batched_token_strategy()) {
        let frame = Frame::Peer(Wire::Token(Box::new(t)));
        let bytes = encode_payload(&frame);
        let back = decode_payload(&bytes);
        if back.as_ref().ok() != Some(&frame) {
            persist_failure("ok", &bytes);
        }
        prop_assert_eq!(back.ok(), Some(frame));
    }

    /// Truncating a batched token anywhere — including mid-entry — fails
    /// cleanly. Cuts sweep the whole payload at a stride so every region
    /// (header, entries, collect, counts) is hit without O(len) decodes
    /// per case.
    #[test]
    fn batched_token_truncations_error_cleanly(t in batched_token_strategy(), seed in any::<u64>()) {
        let frame = Frame::Peer(Wire::Token(Box::new(t)));
        let bytes = encode_payload(&frame);
        let stride = (bytes.len() / 64).max(1);
        let offset = (seed % stride as u64) as usize;
        let mut cut = offset;
        while cut < bytes.len() {
            prop_assert!(
                decode_payload(&bytes[..cut]).is_err(),
                "truncation at {} of {} decoded successfully", cut, bytes.len()
            );
            cut += stride;
        }
    }

    /// Corrupting a single byte of a batched token never panics.
    #[test]
    fn batched_token_corruption_never_panics(
        t in batched_token_strategy(),
        pos in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let frame = Frame::Peer(Wire::Token(Box::new(t)));
        let mut bytes = encode_payload(&frame);
        let i = (pos % bytes.len() as u64) as usize;
        bytes[i] ^= flip;
        let returned = decode_guarded(&bytes);
        if returned.is_err() {
            persist_failure("raw", &bytes);
        }
        prop_assert!(returned.is_ok(), "decoder panicked on corrupted batched token");
    }
}

/// Pipeline-rotation-sized tokens (the `bench_token_codec` shapes, up to
/// 4096 entries) round-trip; a plain test because proptest generation at
/// this size would dominate the suite's runtime.
#[test]
fn rotation_sized_tokens_roundtrip() {
    for batch in [1usize, 16, 256, 4096] {
        let view = View::new(ViewId::new(3, ProcId(0)), ProcId::range(5));
        let mut t = Token::new(&view);
        t.round = 42;
        t.seq_start = 10_000;
        t.acked = 9_000;
        for i in 0..batch {
            let l = Label::new(view.id, t.seq_start + i as u64, ProcId((i % 5) as u32));
            t.entries.push(TokenMsg {
                src: ProcId((i % 5) as u32),
                mid: i as u64,
                msg: AppMsg::Val(l, Value::from_u64(i as u64)),
            });
        }
        let frame = Frame::Peer(Wire::Token(Box::new(t)));
        let bytes = encode_payload(&frame);
        assert_eq!(decode_payload(&bytes).ok(), Some(frame), "batch size {batch}");
    }
}
