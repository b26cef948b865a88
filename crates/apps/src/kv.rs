//! The key-value store: the crate's one command language ([`KvCmd`]) and
//! its one state machine ([`KvStore`]), used by the multi-group
//! deployment as its application workload and by the replicated memories
//! of [`crate::seqmem`].
//!
//! Commands (`Put`/`Get`/`Cas`) ride inside opaque broadcast [`Value`]s
//! through one VS/TO group per shard; every replica of a shard applies
//! its group's delivered stream in the common total order, so the
//! per-key histories of any two replicas are prefix-related and `Cas`
//! gets true compare-and-swap semantics without any extra coordination.
//!
//! Each command carries a client-chosen `tag` uniquifier: the trace
//! checkers and the token-round monitor assume broadcast values are
//! unique per run, and two logically identical writes (`Put x=1` twice)
//! must still be distinct payloads.
//!
//! [`check_per_key_linearizable`] is the per-key consistency checker the
//! cross-shard scenarios use: given the delivered streams of a shard's
//! replicas it verifies that every key's command subsequence is
//! prefix-related across replicas, that no command was delivered twice,
//! and it returns the final store state reached by the longest history.

use crate::rsm::StateMachine;
use crate::wire::{WireReader, WireWriter};
use gcs_model::Value;
use std::collections::BTreeMap;

/// A key-value store command.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum KvCmd {
    /// Set `key` to `value`.
    Put {
        /// The key.
        key: String,
        /// The value.
        value: i64,
        /// Uniquifier (see the module docs).
        tag: u64,
    },
    /// Read `key`. Reads go through the broadcast so they are serialized
    /// against writes — the atomic-register discipline of the paper's
    /// footnote 3, not the local-read sequentially consistent one.
    Get {
        /// The key.
        key: String,
        /// Uniquifier.
        tag: u64,
    },
    /// Set `key` to `value` iff its current value equals `expect`
    /// (`None` = key absent).
    Cas {
        /// The key.
        key: String,
        /// The expected current value (`None` expects absence).
        expect: Option<i64>,
        /// The new value on success.
        value: i64,
        /// Uniquifier.
        tag: u64,
    },
}

/// Magic prefix for key-value commands, distinct from `LockOp`'s `Lk`.
const MAGIC: [u8; 2] = *b"KS";

impl KvCmd {
    /// Encodes the command into an opaque broadcast value.
    pub fn encode(&self) -> Value {
        // `Cas` uses two opcodes instead of an option flag so the codec
        // helpers stay field-shaped: 2 expects a present value, 3 expects
        // absence.
        let bytes = match self {
            KvCmd::Put { key, value, tag } => {
                WireWriter::new(MAGIC, 0).str(key).i64(*value).u64(*tag)
            }
            KvCmd::Get { key, tag } => WireWriter::new(MAGIC, 1).str(key).u64(*tag),
            KvCmd::Cas { key, expect: Some(e), value, tag } => {
                WireWriter::new(MAGIC, 2).str(key).i64(*e).i64(*value).u64(*tag)
            }
            KvCmd::Cas { key, expect: None, value, tag } => {
                WireWriter::new(MAGIC, 3).str(key).i64(*value).u64(*tag)
            }
        };
        Value::from(bytes.finish())
    }

    /// Decodes a broadcast value back into a command. Returns `None` for
    /// payloads that are not key-value commands.
    pub fn decode(v: &Value) -> Option<KvCmd> {
        let (opcode, mut r) = WireReader::open(v.as_bytes(), MAGIC)?;
        let cmd = match opcode {
            0 => KvCmd::Put { key: r.str()?, value: r.i64()?, tag: r.u64()? },
            1 => KvCmd::Get { key: r.str()?, tag: r.u64()? },
            2 => {
                KvCmd::Cas { key: r.str()?, expect: Some(r.i64()?), value: r.i64()?, tag: r.u64()? }
            }
            3 => KvCmd::Cas { key: r.str()?, expect: None, value: r.i64()?, tag: r.u64()? },
            _ => return None,
        };
        r.end()?;
        Some(cmd)
    }

    /// The key this command operates on.
    pub fn key(&self) -> &str {
        match self {
            KvCmd::Put { key, .. } | KvCmd::Get { key, .. } | KvCmd::Cas { key, .. } => key,
        }
    }

    /// The command's uniquifier tag.
    pub fn tag(&self) -> u64 {
        match self {
            KvCmd::Put { tag, .. } | KvCmd::Get { tag, .. } | KvCmd::Cas { tag, .. } => *tag,
        }
    }

    /// The deterministic seed → command mapping shared by the simulator
    /// and the load generator: `seed` picks the key (modulo `keys`) and
    /// the operation kind, and doubles as the uniquifier, so the same
    /// submitted seed always denotes the same command on every replica.
    pub fn from_seed(seed: u64, keys: u64) -> KvCmd {
        let keys = keys.max(1);
        let key = format!("k{:03}", seed % keys);
        match (seed / keys) % 4 {
            0 => KvCmd::Put { key, value: seed as i64, tag: seed },
            1 => KvCmd::Get { key, tag: seed },
            2 => KvCmd::Cas { key, expect: None, value: seed as i64, tag: seed },
            _ => KvCmd::Cas {
                key,
                expect: Some((seed as i64).wrapping_sub(1)),
                value: seed as i64,
                tag: seed,
            },
        }
    }
}

/// What applying one [`KvCmd`] observed or did.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum KvOutcome {
    /// A `Put` happened; `prev` is the overwritten value.
    Put {
        /// The previous value, if the key existed.
        prev: Option<i64>,
    },
    /// A `Get` read the key.
    Get {
        /// The value read, if the key existed.
        value: Option<i64>,
    },
    /// A `Cas` resolved.
    Cas {
        /// Whether the swap happened.
        ok: bool,
        /// The value actually found before the operation.
        actual: Option<i64>,
    },
}

/// The replicated store: one map per replica, fed by its group's totally
/// ordered delivered stream via the [`StateMachine`] interface.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KvStore {
    map: BTreeMap<String, i64>,
}

impl KvStore {
    /// Reads a key.
    pub fn get(&self, key: &str) -> Option<i64> {
        self.map.get(key).copied()
    }

    /// The number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Applies one decoded command; the sequential per-key semantics the
    /// checker replays.
    pub fn apply_cmd(&mut self, cmd: &KvCmd) -> KvOutcome {
        match cmd {
            KvCmd::Put { key, value, .. } => {
                KvOutcome::Put { prev: self.map.insert(key.clone(), *value) }
            }
            KvCmd::Get { key, .. } => KvOutcome::Get { value: self.get(key) },
            KvCmd::Cas { key, expect, value, .. } => {
                let actual = self.get(key);
                let ok = actual == *expect;
                if ok {
                    self.map.insert(key.clone(), *value);
                }
                KvOutcome::Cas { ok, actual }
            }
        }
    }
}

impl StateMachine for KvStore {
    type Output = KvOutcome;

    fn apply(&mut self, payload: &Value) -> Option<KvOutcome> {
        let cmd = KvCmd::decode(payload)?;
        Some(self.apply_cmd(&cmd))
    }
}

/// Per-key consistency check over the delivered streams of one shard's
/// replicas (the per-key linearizability obligation the TO order
/// discharges).
///
/// For every key: each replica's subsequence of commands on that key
/// must be a prefix of the longest replica's, and no tag may appear
/// twice (duplicate delivery). On success, returns the store state
/// reached by replaying, for each key, the longest observed history —
/// i.e. the most advanced consistent state of the shard.
pub fn check_per_key_linearizable(streams: &[Vec<Value>]) -> Result<KvStore, String> {
    // Decode each replica's stream and split it into per-key
    // subsequences (non-command payloads are not part of the workload).
    let mut per_key: BTreeMap<String, Vec<Vec<KvCmd>>> = BTreeMap::new();
    for (node, stream) in streams.iter().enumerate() {
        for v in stream {
            if let Some(cmd) = KvCmd::decode(v) {
                let seqs = per_key.entry(cmd.key().to_string()).or_default();
                if seqs.len() <= node {
                    seqs.resize(node + 1, Vec::new());
                }
                seqs[node].push(cmd);
            }
        }
    }

    let mut store = KvStore::default();
    for (key, seqs) in &per_key {
        // The longest history is the reference; every other replica must
        // hold a literal prefix of it.
        let longest = seqs.iter().max_by_key(|s| s.len()).expect("key implies a sequence");
        for (node, s) in seqs.iter().enumerate() {
            if s.len() > longest.len() || s[..] != longest[..s.len()] {
                return Err(format!(
                    "key {key:?}: replica {node}'s history is not a prefix of the longest"
                ));
            }
        }
        let mut tags: Vec<u64> = longest.iter().map(KvCmd::tag).collect();
        tags.sort_unstable();
        tags.dedup();
        if tags.len() != longest.len() {
            return Err(format!("key {key:?}: a command tag was delivered twice"));
        }
        for cmd in longest {
            store.apply_cmd(cmd);
        }
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_roundtrip() {
        for cmd in [
            KvCmd::Put { key: "a".into(), value: -3, tag: 1 },
            KvCmd::Get { key: "b".into(), tag: 2 },
            KvCmd::Cas { key: "c".into(), expect: Some(7), value: 8, tag: 3 },
            KvCmd::Cas { key: "d".into(), expect: None, value: 9, tag: 4 },
        ] {
            assert_eq!(KvCmd::decode(&cmd.encode()), Some(cmd));
        }
        assert_eq!(KvCmd::decode(&Value::from_u64(5)), None);
        // Another command type's payload must not decode as this one.
        let lock = crate::LockOp::Release { name: "k".into(), who: 1 }.encode();
        assert_eq!(KvCmd::decode(&lock), None);
    }

    /// The bytes `shard2_sat` sends: one command per opcode, pinned
    /// literally so the layout cannot drift with the codec helpers.
    #[test]
    fn encoded_bytes_are_pinned_per_opcode() {
        let pinned: [(KvCmd, &[u8]); 4] = [
            (
                KvCmd::Put { key: "k".into(), value: -2, tag: 7 },
                b"KS\x00\x01\x00\x00\x00k\xfe\xff\xff\xff\xff\xff\xff\xff\x07\0\0\0\0\0\0\0",
            ),
            (
                KvCmd::Get { key: "k".into(), tag: 0x0102 },
                b"KS\x01\x01\x00\x00\x00k\x02\x01\0\0\0\0\0\0",
            ),
            (
                KvCmd::Cas { key: "k".into(), expect: Some(3), value: 4, tag: 5 },
                b"KS\x02\x01\x00\x00\x00k\x03\0\0\0\0\0\0\0\x04\0\0\0\0\0\0\0\x05\0\0\0\0\0\0\0",
            ),
            (
                KvCmd::Cas { key: "k".into(), expect: None, value: 4, tag: 5 },
                b"KS\x03\x01\x00\x00\x00k\x04\0\0\0\0\0\0\0\x05\0\0\0\0\0\0\0",
            ),
        ];
        for (cmd, bytes) in pinned {
            assert_eq!(cmd.encode().as_bytes(), bytes, "{cmd:?}");
            assert_eq!(KvCmd::decode(&Value::from(bytes.to_vec())), Some(cmd));
        }
    }

    #[test]
    fn cas_swaps_only_on_match() {
        let mut s = KvStore::default();
        let out = s.apply_cmd(&KvCmd::Cas { key: "x".into(), expect: None, value: 1, tag: 0 });
        assert_eq!(out, KvOutcome::Cas { ok: true, actual: None });
        let out = s.apply_cmd(&KvCmd::Cas { key: "x".into(), expect: Some(9), value: 2, tag: 1 });
        assert_eq!(out, KvOutcome::Cas { ok: false, actual: Some(1) });
        assert_eq!(s.get("x"), Some(1));
        let out = s.apply_cmd(&KvCmd::Cas { key: "x".into(), expect: Some(1), value: 2, tag: 2 });
        assert_eq!(out, KvOutcome::Cas { ok: true, actual: Some(1) });
        assert_eq!(s.get("x"), Some(2));
    }

    #[test]
    fn seed_mapping_is_deterministic_and_unique() {
        for seed in 0..64 {
            let a = KvCmd::from_seed(seed, 8);
            let b = KvCmd::from_seed(seed, 8);
            assert_eq!(a, b);
            assert_eq!(a.tag(), seed);
        }
        let payloads: std::collections::BTreeSet<Value> =
            (0..64).map(|s| KvCmd::from_seed(s, 8).encode()).collect();
        assert_eq!(payloads.len(), 64, "seeds must map to distinct payloads");
    }

    #[test]
    fn checker_accepts_prefix_related_histories() {
        let cmds: Vec<Value> = (0..12).map(|s| KvCmd::from_seed(s, 3).encode()).collect();
        let full = cmds.clone();
        let partial = cmds[..7].to_vec();
        let store = check_per_key_linearizable(&[full.clone(), partial]).expect("consistent");
        let mut reference = KvStore::default();
        for v in &full {
            reference.apply_cmd(&KvCmd::decode(v).unwrap());
        }
        assert_eq!(store, reference);
    }

    #[test]
    fn checker_rejects_divergent_per_key_order() {
        let a = KvCmd::Put { key: "k".into(), value: 1, tag: 1 }.encode();
        let b = KvCmd::Put { key: "k".into(), value: 2, tag: 2 }.encode();
        let err = check_per_key_linearizable(&[vec![a.clone(), b.clone()], vec![b, a]])
            .expect_err("divergent order");
        assert!(err.contains("not a prefix"), "{err}");
    }

    #[test]
    fn checker_rejects_duplicate_delivery() {
        let a = KvCmd::Put { key: "k".into(), value: 1, tag: 1 }.encode();
        let err =
            check_per_key_linearizable(&[vec![a.clone(), a]]).expect_err("duplicate delivery");
        assert!(err.contains("delivered twice"), "{err}");
    }

    #[test]
    fn unrelated_keys_do_not_constrain_each_other() {
        let a = KvCmd::Put { key: "a".into(), value: 1, tag: 1 }.encode();
        let b = KvCmd::Put { key: "b".into(), value: 2, tag: 2 }.encode();
        // Different interleavings of commands on different keys are fine.
        let store = check_per_key_linearizable(&[vec![a.clone(), b.clone()], vec![b, a]])
            .expect("per-key independence");
        assert_eq!(store.get("a"), Some(1));
        assert_eq!(store.get("b"), Some(2));
    }
}
