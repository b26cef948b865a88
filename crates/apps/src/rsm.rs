//! The replicated state machine layer (Lamport/Schneider, via the
//! paper's footnote 3).

use gcs_model::Value;
use std::fmt;

/// A deterministic state machine replicated via totally ordered
/// broadcast.
pub trait StateMachine: Clone + fmt::Debug {
    /// The output of applying one command.
    type Output: fmt::Debug;

    /// Applies one delivered payload. Unrecognized payloads should be
    /// ignored (return `None`).
    fn apply(&mut self, payload: &Value) -> Option<Self::Output>;
}

/// One replica: a state machine plus the count of applied commands.
#[derive(Clone, Debug, Default)]
pub struct Replica<S> {
    state: S,
    applied: usize,
}

impl<S: StateMachine> Replica<S> {
    /// Creates a replica from an initial state.
    pub fn new(state: S) -> Self {
        Replica { state, applied: 0 }
    }

    /// The replica state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// How many commands have been applied.
    pub fn applied(&self) -> usize {
        self.applied
    }

    /// Applies one delivered payload.
    pub fn apply_payload(&mut self, payload: &Value) -> Option<S::Output> {
        self.applied += 1;
        self.state.apply(payload)
    }

    /// Applies a whole delivered stream (ignoring origins).
    pub fn apply_stream<'a>(&mut self, stream: impl IntoIterator<Item = &'a Value>) {
        for v in stream {
            self.apply_payload(v);
        }
    }
}

/// Replays per-processor delivered streams into replicas of `initial` and
/// verifies convergence: any two replicas agree on the state reached
/// after their common applied prefix. Because TO guarantees the streams
/// are prefixes of one order, it suffices to check that shorter streams
/// are literal prefixes of longer ones and that equal-length replicas
/// have equal states.
///
/// Returns the replicas on success, or a description of the divergence.
pub fn replay_and_check<S>(initial: S, streams: &[Vec<Value>]) -> Result<Vec<Replica<S>>, String>
where
    S: StateMachine + PartialEq,
{
    for (i, a) in streams.iter().enumerate() {
        for (j, b) in streams.iter().enumerate().skip(i + 1) {
            if !gcs_model::seq::is_prefix(a, b) && !gcs_model::seq::is_prefix(b, a) {
                return Err(format!("streams {i} and {j} are not prefix-related"));
            }
        }
    }
    let replicas: Vec<Replica<S>> = streams
        .iter()
        .map(|s| {
            let mut r = Replica::new(initial.clone());
            r.apply_stream(s);
            r
        })
        .collect();
    for (i, a) in replicas.iter().enumerate() {
        for (j, b) in replicas.iter().enumerate().skip(i + 1) {
            if a.applied == b.applied && a.state != b.state {
                return Err(format!(
                    "replicas {i} and {j} applied {} commands but diverged",
                    a.applied
                ));
            }
        }
    }
    Ok(replicas)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter machine: payloads are `u64` deltas encoded with
    /// [`Value::from_u64`].
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    struct Counter {
        total: u64,
    }

    impl StateMachine for Counter {
        type Output = u64;

        fn apply(&mut self, payload: &Value) -> Option<u64> {
            let delta = payload.as_u64()?;
            self.total += delta;
            Some(self.total)
        }
    }

    #[test]
    fn counter_applies_in_order() {
        let mut r = Replica::new(Counter::default());
        assert_eq!(r.apply_payload(&Value::from_u64(3)), Some(3));
        assert_eq!(r.apply_payload(&Value::from_u64(4)), Some(7));
        assert_eq!(r.applied(), 2);
    }

    #[test]
    fn unknown_payloads_count_but_do_nothing() {
        let mut r = Replica::new(Counter::default());
        assert_eq!(r.apply_payload(&Value::from("junk")), None);
        assert_eq!(r.applied(), 1);
        assert_eq!(r.state().total, 0);
    }

    #[test]
    fn replay_detects_divergence() {
        let a = vec![Value::from_u64(1), Value::from_u64(2)];
        let b = vec![Value::from_u64(1), Value::from_u64(3)];
        let err = replay_and_check(Counter::default(), &[a, b]).unwrap_err();
        assert!(err.contains("not prefix-related"));
    }

    #[test]
    fn replay_accepts_consistent_prefixes() {
        let long = vec![Value::from_u64(1), Value::from_u64(2), Value::from_u64(3)];
        let short = long[..1].to_vec();
        let replicas = replay_and_check(Counter::default(), &[long, short]).expect("consistent");
        assert_eq!(replicas[0].state().total, 6);
        assert_eq!(replicas[1].state().total, 1);
    }
}
