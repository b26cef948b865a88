//! Applications over the totally ordered broadcast service.
//!
//! The paper motivates `TO` as the foundation of the *replicated state
//! machine* approach (Section 3, footnote 3): each processor keeps a
//! replica; updates go through the totally ordered broadcast; replicas
//! apply delivered updates in the common order. This crate provides:
//!
//! - [`rsm`] — a generic replicated-state-machine layer: any
//!   [`rsm::StateMachine`] replicated over a delivered command stream,
//!   with convergence checking;
//! - [`kv`] — the key-value store: one command language (`Put`/`Get`/
//!   `Cas`, carried inside opaque [`gcs_model::Value`] payloads) and one
//!   store, run by the multi-group deployment as its application
//!   workload, with a per-key consistency checker over replica delivered
//!   streams;
//! - [`seqmem`] — the sequentially consistent memory of footnote 3
//!   (local reads, writes through TO) and its atomic-memory variant
//!   (all operations through TO), both a replica of the [`kv`] store;
//! - [`workload`] — deterministic workload generators (uniform, bursty,
//!   skewed senders) producing unique values, as the trace checkers
//!   require;
//! - [`lock`] — a fault-tolerant FIFO lock service, the classic
//!   state-machine-replication example after replicated memory.
//!
//! # Example
//!
//! ```
//! use gcs_apps::kv::{KvCmd, KvStore};
//! use gcs_apps::rsm::Replica;
//!
//! let mut replica = Replica::new(KvStore::default());
//! replica.apply_payload(&KvCmd::Put { key: "x".into(), value: 3, tag: 1 }.encode());
//! let swap = KvCmd::Cas { key: "x".into(), expect: Some(3), value: 7, tag: 2 };
//! replica.apply_payload(&swap.encode());
//! assert_eq!(replica.state().get("x"), Some(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kv;
pub mod lock;
pub mod rsm;
pub mod seqmem;
mod wire;
pub mod workload;

pub use kv::{check_per_key_linearizable, KvCmd, KvOutcome, KvStore};
pub use lock::{LockOp, LockTable};
pub use rsm::{Replica, StateMachine};
pub use seqmem::{AtomicMemory, SeqMemory};
pub use workload::{Workload, WorkloadKind};

#[cfg(test)]
mod ops {
    //! The operations the crate carries inside broadcast payloads: every
    //! command type ([`KvCmd`](crate::KvCmd), [`LockOp`](crate::LockOp))
    //! shares one payload space, so each must decode its own payloads and
    //! refuse everything else.
    mod tests {
        use crate::{KvCmd, LockOp};
        use gcs_model::Value;

        #[test]
        fn roundtrip() {
            for cmd in [
                KvCmd::Put { key: "a".into(), value: -3, tag: 1 },
                KvCmd::Get { key: "b".into(), tag: 2 },
                KvCmd::Cas { key: "c".into(), expect: Some(7), value: 8, tag: 3 },
                KvCmd::Cas { key: "d".into(), expect: None, value: 9, tag: 4 },
            ] {
                assert_eq!(KvCmd::decode(&cmd.encode()), Some(cmd.clone()));
                assert_eq!(LockOp::decode(&cmd.encode()), None, "{cmd:?}");
            }
            for op in [
                LockOp::Acquire { name: "m".into(), who: 2, tag: 5 },
                LockOp::Release { name: "m".into(), who: 2 },
            ] {
                assert_eq!(LockOp::decode(&op.encode()), Some(op.clone()));
                assert_eq!(KvCmd::decode(&op.encode()), None, "{op:?}");
            }
        }

        #[test]
        fn non_command_payload_decodes_to_none() {
            for v in [Value::from_u64(5), Value::from(Vec::new()), Value::from(b"KS".to_vec())] {
                assert_eq!(KvCmd::decode(&v), None, "{v:?}");
                assert_eq!(LockOp::decode(&v), None, "{v:?}");
            }
        }

        #[test]
        fn distinct_ops_have_distinct_payloads() {
            let a = KvCmd::Put { key: "x".into(), value: 1, tag: 1 }.encode();
            let b = KvCmd::Put { key: "x".into(), value: 2, tag: 1 }.encode();
            let c = KvCmd::Put { key: "x".into(), value: 1, tag: 2 }.encode();
            assert!(a != b && a != c && b != c);
            let d = LockOp::Acquire { name: "x".into(), who: 1, tag: 1 }.encode();
            let e = LockOp::Acquire { name: "x".into(), who: 1, tag: 2 }.encode();
            assert_ne!(d, e);
        }
    }
}
