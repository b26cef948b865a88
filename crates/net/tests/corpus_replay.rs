//! Replays the codec regression corpus as a plain `#[test]` — no
//! proptest involved, so every entry runs on every `cargo test`
//! invocation and a once-found decoder bug can never quietly regress.
//!
//! Corpus format (`tests/corpus/*.hex`): one entry per line,
//! `#`-comments and blank lines ignored. Two entry kinds:
//!
//! - `ok <hex>` — a canonical payload: must decode, and re-encoding the
//!   decoded frame must reproduce the bytes bit-exactly.
//! - `raw <hex>` — arbitrary bytes: the decoder must return (ok or a
//!   clean error), never panic. Failing proptest cases land here via
//!   the persist-on-failure hook in `codec_roundtrip.rs`.

use gcs_core::msg::AppMsg;
use gcs_model::{ContentMap, Label, ProcId, Summary, Value, View, ViewId};
use gcs_net::codec::{decode_payload, encode_payload, Frame, HelloKind};
use gcs_vsimpl::{Token, TokenMsg, Wire};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("corpus")
}

fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err(format!("odd hex length {}", s.len()));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).map_err(|e| e.to_string()))
        .collect()
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn corpus_replays_cleanly() {
    let dir = corpus_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("missing corpus dir {}: {e}", dir.display()))
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "hex"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no .hex corpus files in {}", dir.display());

    let (mut canonical, mut raw) = (0usize, 0usize);
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable corpus file");
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let at = || format!("{}:{}", path.display(), lineno + 1);
            let (tag, hex) = line.split_once(' ').unwrap_or_else(|| panic!("{}: no tag", at()));
            let bytes = from_hex(hex.trim()).unwrap_or_else(|e| panic!("{}: {e}", at()));
            match tag {
                "ok" => {
                    let frame = decode_payload(&bytes)
                        .unwrap_or_else(|e| panic!("{}: canonical entry failed: {e:?}", at()));
                    assert_eq!(
                        encode_payload(&frame),
                        bytes,
                        "{}: re-encode is not bit-exact for {frame:?}",
                        at()
                    );
                    canonical += 1;
                }
                "raw" => {
                    // Must return — a panic aborts the test run here, at
                    // the exact offending entry.
                    let _ = decode_payload(&bytes);
                    raw += 1;
                }
                other => panic!("{}: unknown tag {other:?}", at()),
            }
        }
    }
    assert!(canonical >= 10, "seed corpus too small: {canonical} canonical entries");
    assert!(raw >= 5, "seed corpus too small: {raw} raw entries");
}

/// Every `Frame` variant (and every `Wire` variant inside `Peer`), built
/// deterministically — the seed half of the corpus. Values are chosen to
/// exercise field-width edges: zero, single-byte, and >7-bit varint
/// territory.
fn seed_frames() -> Vec<Frame> {
    let vid = |e: u64, o: u32| ViewId::new(e, ProcId(o));
    let view = |e: u64, o: u32, members: &[u32]| {
        View::new(vid(e, o), members.iter().map(|&p| ProcId(p)).collect::<BTreeSet<_>>())
    };
    let label = |e: u64, s: u64, o: u32| Label::new(vid(e, o), s, ProcId(o));
    let summary = Summary {
        con: ContentMap::from_iter([
            (label(1, 1, 0), Value::from_u64(7)),
            (label(1, 2, 1), Value::from(vec![0u8, 255, 128])),
        ]),
        ord: vec![label(1, 1, 0), label(1, 2, 1), label(2, 1, 2)],
        next: 3,
        high: Some(vid(2, 2)),
    };
    let token = Token {
        view: vid(3, 0),
        round: 130,
        seq_start: 7,
        entries: vec![
            TokenMsg {
                src: ProcId(0),
                mid: 1,
                msg: AppMsg::Val(label(3, 1, 0), Value::from_u64(0)),
            },
            TokenMsg {
                src: ProcId(4),
                mid: u64::MAX,
                msg: AppMsg::Summary(Box::new(summary.clone())),
            },
        ],
        collect: vec![TokenMsg {
            src: ProcId(3),
            mid: (3 << 40) | 9,
            msg: AppMsg::Val(label(3, 2, 3), Value::from(vec![1u8, 2, 3])),
        }],
        acked: 5,
        delivered: BTreeMap::from([(ProcId(0), 2), (ProcId(4), 0)]),
    };
    vec![
        Frame::Hello { node: ProcId(0), generation: 0, kind: HelloKind::Peer },
        Frame::Hello { node: ProcId(999), generation: 1 << 33, kind: HelloKind::Client },
        Frame::Peer(Wire::Probe),
        Frame::Peer(Wire::Call { viewid: vid(0, 0) }),
        Frame::Peer(Wire::Call { viewid: vid(1 << 39, 31) }),
        Frame::Peer(Wire::Accept { viewid: vid(200, 4) }),
        Frame::Peer(Wire::Join { view: view(9, 2, &[0, 1, 2, 3, 4]) }),
        Frame::Peer(Wire::Join { view: view(1, 7, &[7]) }),
        Frame::Peer(Wire::Token(Box::new(token))),
        Frame::Peer(Wire::Token(Box::new(Token {
            view: vid(1, 0),
            round: 0,
            seq_start: 0,
            entries: vec![],
            collect: vec![],
            acked: 0,
            delivered: BTreeMap::new(),
        }))),
        Frame::Submit(Value::default()),
        Frame::Submit(Value::from_u64(u64::MAX)),
        Frame::Submit(Value::from((0u8..=63).collect::<Vec<u8>>())),
        Frame::Deliver { src: ProcId(2), a: Value::from_u64(42) },
        Frame::Deliver { src: ProcId(0), a: Value::from(vec![]) },
    ]
}

/// The seed corpus stays in lockstep with the encoder: each committed
/// `ok` line in `seed_frames.hex` is exactly `encode_payload` of the
/// corresponding frame above. If the wire format changes intentionally,
/// regenerate with
/// `cargo test -p gcs-net --test corpus_replay -- --ignored`.
#[test]
fn seed_corpus_matches_current_encoder() {
    let path = corpus_dir().join("seed_frames.hex");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
    let committed: Vec<Vec<u8>> = text
        .lines()
        .filter_map(|l| l.trim().strip_prefix("ok "))
        .map(|hex| from_hex(hex.trim()).expect("valid hex in seed corpus"))
        .collect();
    let current: Vec<Vec<u8>> = seed_frames().iter().map(encode_payload).collect();
    assert_eq!(
        committed, current,
        "seed corpus is stale — the wire format changed; regenerate with --ignored"
    );
}

#[test]
#[ignore = "writes tests/corpus/seed_frames.hex; run on intentional wire-format changes"]
fn regenerate_seed_corpus() {
    let mut out = String::from(
        "# Canonical codec corpus: one `ok <hex>` payload per seed frame in\n\
         # corpus_replay.rs::seed_frames(). Regenerated, never hand-edited.\n",
    );
    for frame in seed_frames() {
        out.push_str("ok ");
        out.push_str(&to_hex(&encode_payload(&frame)));
        out.push('\n');
    }
    let path = corpus_dir().join("seed_frames.hex");
    std::fs::write(&path, out).expect("write seed corpus");
}
