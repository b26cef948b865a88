//! A fault-tolerant distributed lock service over totally ordered
//! broadcast — the classic state-machine-replication example after
//! replicated memory: because every replica sees the same request order,
//! all replicas agree on the lock holder and on the FIFO wait queue
//! without any further coordination.
//!
//! Requests (`acquire`/`release`) are broadcast through TO; each replica
//! applies them to its [`LockTable`]. Grants are deterministic: a replica
//! *knows* locally whether its processor holds a lock, and fairness is
//! exactly the order the TO service assigned.

use crate::rsm::StateMachine;
use crate::wire::{WireReader, WireWriter};
use gcs_model::{ProcId, Value};
use std::collections::{BTreeMap, VecDeque};

/// A lock request, broadcast through the TO service.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LockOp {
    /// Request the named lock for a processor; queues FIFO if held.
    Acquire {
        /// Lock name.
        name: String,
        /// Requesting processor (its id number).
        who: u32,
        /// Request tag, to keep payloads unique and correlate grants.
        tag: u64,
    },
    /// Release the named lock (only the holder's release has effect).
    Release {
        /// Lock name.
        name: String,
        /// Releasing processor.
        who: u32,
    },
}

/// Magic prefix distinguishing encoded lock requests from other payloads.
const MAGIC: [u8; 2] = *b"Lk";

impl LockOp {
    /// Encodes for broadcast.
    pub fn encode(&self) -> Value {
        let bytes = match self {
            LockOp::Acquire { name, who, tag } => {
                WireWriter::new(MAGIC, 0).str(name).u32(*who).u64(*tag)
            }
            LockOp::Release { name, who } => WireWriter::new(MAGIC, 1).str(name).u32(*who),
        };
        Value::from(bytes.finish())
    }

    /// Decodes a broadcast payload.
    pub fn decode(v: &Value) -> Option<LockOp> {
        let (opcode, mut r) = WireReader::open(v.as_bytes(), MAGIC)?;
        let op = match opcode {
            0 => LockOp::Acquire { name: r.str()?, who: r.u32()?, tag: r.u64()? },
            1 => LockOp::Release { name: r.str()?, who: r.u32()? },
            _ => return None,
        };
        r.end()?;
        Some(op)
    }
}

/// A grant event produced when a lock changes hands.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Grant {
    /// Lock name.
    pub name: String,
    /// New holder.
    pub holder: ProcId,
    /// The tag from the acquire request.
    pub tag: u64,
}

#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct LockState {
    holder: Option<(ProcId, u64)>,
    waiters: VecDeque<(ProcId, u64)>,
}

/// The replicated lock table.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LockTable {
    locks: BTreeMap<String, LockState>,
    grants: Vec<Grant>,
}

impl LockTable {
    /// The current holder of `name`, if any.
    pub fn holder(&self, name: &str) -> Option<ProcId> {
        self.locks.get(name).and_then(|l| l.holder.map(|(p, _)| p))
    }

    /// The FIFO wait queue of `name`.
    pub fn waiters(&self, name: &str) -> Vec<ProcId> {
        self.locks
            .get(name)
            .map(|l| l.waiters.iter().map(|(p, _)| *p).collect())
            .unwrap_or_default()
    }

    /// Every grant ever issued, in service order — identical at every
    /// replica that applied the same prefix.
    pub fn grants(&self) -> &[Grant] {
        &self.grants
    }

    fn apply_op(&mut self, op: &LockOp) -> Option<Grant> {
        match op {
            LockOp::Acquire { name, who, tag } => {
                let lock = self.locks.entry(name.clone()).or_default();
                let req = (ProcId(*who), *tag);
                if lock.holder.is_none() {
                    lock.holder = Some(req);
                    let g = Grant { name: name.clone(), holder: req.0, tag: req.1 };
                    self.grants.push(g.clone());
                    Some(g)
                } else {
                    lock.waiters.push_back(req);
                    None
                }
            }
            LockOp::Release { name, who } => {
                let lock = self.locks.entry(name.clone()).or_default();
                if lock.holder.map(|(p, _)| p) != Some(ProcId(*who)) {
                    return None; // stale or malicious release: ignored
                }
                lock.holder = lock.waiters.pop_front();
                lock.holder.map(|(p, tag)| {
                    let g = Grant { name: name.clone(), holder: p, tag };
                    self.grants.push(g.clone());
                    g
                })
            }
        }
    }
}

impl StateMachine for LockTable {
    type Output = Grant;

    fn apply(&mut self, payload: &Value) -> Option<Grant> {
        let op = LockOp::decode(payload)?;
        self.apply_op(&op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsm::replay_and_check;

    fn acq(name: &str, who: u32, tag: u64) -> Value {
        LockOp::Acquire { name: name.into(), who, tag }.encode()
    }
    fn rel(name: &str, who: u32) -> Value {
        LockOp::Release { name: name.into(), who }.encode()
    }

    #[test]
    fn fifo_handoff() {
        let mut t = LockTable::default();
        t.apply(&acq("m", 0, 1));
        t.apply(&acq("m", 1, 2));
        t.apply(&acq("m", 2, 3));
        assert_eq!(t.holder("m"), Some(ProcId(0)));
        assert_eq!(t.waiters("m"), vec![ProcId(1), ProcId(2)]);
        t.apply(&rel("m", 0));
        assert_eq!(t.holder("m"), Some(ProcId(1)));
        t.apply(&rel("m", 1));
        assert_eq!(t.holder("m"), Some(ProcId(2)));
        t.apply(&rel("m", 2));
        assert_eq!(t.holder("m"), None);
        let holders: Vec<ProcId> = t.grants().iter().map(|g| g.holder).collect();
        assert_eq!(holders, vec![ProcId(0), ProcId(1), ProcId(2)]);
    }

    #[test]
    fn stale_release_is_ignored() {
        let mut t = LockTable::default();
        t.apply(&acq("m", 0, 1));
        t.apply(&rel("m", 5)); // not the holder
        assert_eq!(t.holder("m"), Some(ProcId(0)));
        t.apply(&rel("m", 0));
        t.apply(&rel("m", 0)); // double release
        assert_eq!(t.holder("m"), None);
        assert_eq!(t.grants().len(), 1);
    }

    #[test]
    fn independent_locks_do_not_interact() {
        let mut t = LockTable::default();
        t.apply(&acq("a", 0, 1));
        t.apply(&acq("b", 1, 2));
        assert_eq!(t.holder("a"), Some(ProcId(0)));
        assert_eq!(t.holder("b"), Some(ProcId(1)));
    }

    #[test]
    fn replicas_agree_on_grants() {
        let ops = vec![acq("m", 0, 1), acq("m", 1, 2), rel("m", 0), acq("n", 2, 3), rel("m", 1)];
        let replicas = replay_and_check(LockTable::default(), &[ops.clone(), ops[..3].to_vec()])
            .expect("consistent");
        assert_eq!(replicas[0].state().grants().len(), 3);
        assert_eq!(replicas[1].state().grants().len(), 2);
        // Common prefix of grants agrees.
        assert_eq!(&replicas[0].state().grants()[..2], replicas[1].state().grants());
    }
}
