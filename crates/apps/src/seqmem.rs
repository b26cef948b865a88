//! Sequentially consistent and atomic replicated memory over totally
//! ordered broadcast (Section 3, footnote 3).
//!
//! Both memories are a [`Replica`] of the one [`KvStore`] fed the
//! delivered stream; they differ only in where a read happens.
//! *Sequentially consistent memory*: reads are performed immediately on
//! the local replica; updates are sent to all replicas through the
//! totally ordered broadcast and applied on delivery. *Atomic memory*:
//! all operations, including reads, go through the broadcast; a read's
//! return value is determined when the read is delivered.

use crate::kv::{KvCmd, KvOutcome, KvStore};
use crate::rsm::Replica;
use gcs_model::Value;

/// A sequentially consistent memory replica: local reads against the
/// replica, writes encoded for the broadcast.
#[derive(Clone, Debug, Default)]
pub struct SeqMemory {
    replica: Replica<KvStore>,
    reads: Vec<(String, Option<i64>, usize)>, // (key, result, applied-at)
}

impl SeqMemory {
    /// Creates an empty replica.
    pub fn new() -> Self {
        SeqMemory::default()
    }

    /// A *read* operation: performed immediately on the local copy.
    /// The result and the local prefix length are logged for the
    /// consistency check.
    pub fn read(&mut self, key: &str) -> Option<i64> {
        let out = self.replica.state().get(key);
        self.reads.push((key.to_string(), out, self.replica.applied()));
        out
    }

    /// Encodes a *write* for submission through the broadcast; the caller
    /// hands the returned value to `bcast`. `tag` keeps two writes of the
    /// same value distinct payloads.
    pub fn write(key: impl Into<String>, value: i64, tag: u64) -> Value {
        KvCmd::Put { key: key.into(), value, tag }.encode()
    }

    /// Applies one delivered update.
    pub fn deliver(&mut self, payload: &Value) {
        self.replica.apply_payload(payload);
    }

    /// The local replica: its store and how many updates it has applied.
    pub fn replica(&self) -> &Replica<KvStore> {
        &self.replica
    }

    /// The local read log.
    pub fn reads(&self) -> &[(String, Option<i64>, usize)] {
        &self.reads
    }
}

/// Verifies sequential consistency of a set of replicas given the common
/// delivered order (the longest delivered stream): each logged read must
/// equal the value of its key after the prefix of updates the replica had
/// applied when the read happened. Combined with the TO-level guarantee
/// that all streams are prefixes of one order, this witnesses a single
/// serialization of all operations consistent with each process's program
/// order.
pub fn check_sequential_consistency(
    replicas: &[SeqMemory],
    common_order: &[Value],
) -> Result<(), String> {
    for (i, r) in replicas.iter().enumerate() {
        for (key, result, applied_at) in r.reads() {
            let mut serial = Replica::<KvStore>::default();
            serial.apply_stream(&common_order[..(*applied_at).min(common_order.len())]);
            let expect = serial.state().get(key);
            if expect != *result {
                return Err(format!(
                    "replica {i}: read({key}) after {applied_at} updates returned \
                     {result:?}, expected {expect:?}"
                ));
            }
        }
    }
    Ok(())
}

/// An atomic memory replica: *all* operations (including reads) are
/// serialized through the broadcast; outputs are produced at delivery.
#[derive(Clone, Debug, Default)]
pub struct AtomicMemory {
    replica: Replica<KvStore>,
    /// The value each delivered `Get` read, in delivery order.
    outputs: Vec<Option<i64>>,
}

impl AtomicMemory {
    /// Creates an empty replica.
    pub fn new() -> Self {
        AtomicMemory::default()
    }

    /// Encodes a read for submission through the broadcast; `tag` keeps
    /// two reads of the same key distinct payloads.
    pub fn read_op(key: impl Into<String>, tag: u64) -> Value {
        KvCmd::Get { key: key.into(), tag }.encode()
    }

    /// Applies one delivered operation, recording read outputs.
    pub fn deliver(&mut self, payload: &Value) {
        if let Some(KvOutcome::Get { value }) = self.replica.apply_payload(payload) {
            self.outputs.push(value);
        }
    }

    /// The replica state.
    pub fn replica(&self) -> &Replica<KvStore> {
        &self.replica
    }

    /// Read outputs in delivery order — identical at every replica that
    /// has applied the same prefix, which is what makes this memory
    /// atomic.
    pub fn outputs(&self) -> &[Option<i64>] {
        &self.outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::check_per_key_linearizable;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn kv_semantics() {
        // The memory's state is the one store's: a `Cas` lands only on a
        // match, and a payload that is no command counts but changes
        // nothing.
        let mut m = SeqMemory::new();
        m.deliver(&SeqMemory::write("x", 5, 1));
        m.deliver(&KvCmd::Cas { key: "x".into(), expect: Some(4), value: 9, tag: 2 }.encode());
        assert_eq!(m.read("x"), Some(5));
        m.deliver(&KvCmd::Cas { key: "x".into(), expect: Some(5), value: 3, tag: 3 }.encode());
        m.deliver(&Value::from_u64(7));
        assert_eq!(m.read("x"), Some(3));
        assert_eq!(m.replica().applied(), 4);
    }

    #[test]
    fn seqmem_reads_see_local_prefix() {
        let w1 = SeqMemory::write("x", 1, 1);
        let w2 = SeqMemory::write("x", 2, 2);
        let mut r = SeqMemory::new();
        assert_eq!(r.read("x"), None);
        r.deliver(&w1);
        assert_eq!(r.read("x"), Some(1));
        r.deliver(&w2);
        assert_eq!(r.read("x"), Some(2));
        check_sequential_consistency(&[r], &[w1, w2]).unwrap();
    }

    #[test]
    fn consistency_check_catches_stale_log() {
        let w1 = SeqMemory::write("x", 1, 1);
        let mut r = SeqMemory::new();
        r.deliver(&w1);
        r.read("x");
        // Corrupt the log: claim the read happened before the delivery.
        let mut bad = r.clone();
        bad.reads = vec![("x".into(), Some(1), 0)];
        assert!(check_sequential_consistency(&[bad], std::slice::from_ref(&w1)).is_err());
        check_sequential_consistency(&[r], &[w1]).unwrap();
    }

    #[test]
    fn atomic_reads_are_serialized() {
        let ops = vec![
            SeqMemory::write("x", 1, 1),
            AtomicMemory::read_op("x", 2),
            SeqMemory::write("x", 2, 3),
            AtomicMemory::read_op("x", 4),
        ];
        let mut a = AtomicMemory::new();
        let mut b = AtomicMemory::new();
        for op in &ops {
            a.deliver(op);
            b.deliver(op);
        }
        assert_eq!(a.outputs(), b.outputs());
        assert_eq!(a.outputs(), &[Some(1), Some(2)]);
    }

    /// One store, three consumers, one answer: over seeded `from_seed`
    /// streams, a sequential replay through `Replica<KvStore>`, the state
    /// `check_per_key_linearizable` returns for the single stream, and
    /// `AtomicMemory`'s outputs all say the same thing.
    #[test]
    fn one_store_three_consumers_one_answer() {
        let (mut hits, mut swaps, mut refusals) = (0, 0, 0);
        for run in 0..64u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(run);
            let keys = rng.gen_range(1..=4u64);
            // A shuffled seed range: `Cas { expect: Some(seed - 1) }`
            // chains on the previous seed, so order decides what lands.
            let mut seeds: Vec<u64> = (0..48).collect();
            for i in (1..seeds.len()).rev() {
                seeds.swap(i, rng.gen_range(0..=i));
            }
            let stream: Vec<Value> =
                seeds.iter().map(|&s| KvCmd::from_seed(s, keys).encode()).collect();

            let mut replica = Replica::<KvStore>::default();
            let mut gets = Vec::new();
            for v in &stream {
                match replica.apply_payload(v).expect("every payload is a command") {
                    KvOutcome::Get { value } => {
                        hits += usize::from(value.is_some());
                        gets.push(value);
                    }
                    KvOutcome::Cas { ok: true, .. } => swaps += 1,
                    KvOutcome::Cas { ok: false, .. } => refusals += 1,
                    KvOutcome::Put { .. } => {}
                }
            }

            let per_key = check_per_key_linearizable(std::slice::from_ref(&stream))
                .expect("one stream is trivially consistent");
            assert_eq!(&per_key, replica.state(), "run {run}: per-key replay disagrees");

            let mut atomic = AtomicMemory::new();
            for v in &stream {
                atomic.deliver(v);
            }
            assert_eq!(atomic.outputs(), &gets[..], "run {run}: atomic outputs disagree");
            assert_eq!(atomic.replica().state(), replica.state());
        }
        assert!(hits > 0 && swaps > 0 && refusals > 0, "{hits} hits, {swaps} swaps, {refusals}");
    }
}
