//! Quorum systems (Section 5).
//!
//! The `VStoTO` algorithm fixes a set 𝒬 of quorums, pairwise intersecting,
//! and calls a view *primary* when its membership contains a quorum. The
//! paper notes that 𝒬 "need not necessarily be precomputed, for example, we
//! can define 𝒬 to be the set of majorities"; this module provides the
//! majority system, explicit quorum lists, and weighted-vote systems.

use crate::ProcId;
use std::collections::BTreeSet;
use std::fmt;

/// A quorum system over the ambient processor set.
///
/// Implementations must guarantee pairwise intersection: any two quorums
/// share at least one processor. This is what makes the `highprimary`
/// information flow of the algorithm work (Lemma 6.18 picks an element of
/// `w.set ∩ v.set`).
pub trait QuorumSystem: fmt::Debug + Send + Sync {
    /// Whether `set` contains a quorum (the primary-view test:
    /// *∃Q ∈ 𝒬 : Q ⊆ set*).
    fn is_quorum(&self, set: &BTreeSet<ProcId>) -> bool;

    /// A short human-readable name for experiment tables.
    fn name(&self) -> &str;
}

/// The majority quorum system over `n` processors: any set with more than
/// `n/2` members contains a quorum.
///
/// # Example
///
/// ```
/// use gcs_model::{Majority, ProcId, QuorumSystem};
/// let q = Majority::new(5);
/// assert!(q.is_quorum(&ProcId::range(3)));
/// assert!(!q.is_quorum(&ProcId::range(2)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Majority {
    n: usize,
}

impl Majority {
    /// Creates the majority system for an ambient set of `n` processors.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "majority quorum system needs at least one processor");
        Majority { n }
    }
}

impl QuorumSystem for Majority {
    fn is_quorum(&self, set: &BTreeSet<ProcId>) -> bool {
        2 * set.len() > self.n
    }

    fn name(&self) -> &str {
        "majority"
    }
}

/// An error constructing an explicit quorum system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvalidQuorumError {
    /// Two listed quorums do not intersect; they are returned for diagnosis.
    DisjointPair(BTreeSet<ProcId>, BTreeSet<ProcId>),
    /// The quorum list is empty, so no view could ever be primary —
    /// almost certainly a configuration mistake.
    Empty,
}

impl fmt::Display for InvalidQuorumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidQuorumError::DisjointPair(a, b) => {
                write!(f, "quorums {a:?} and {b:?} do not intersect")
            }
            InvalidQuorumError::Empty => write!(f, "quorum list is empty"),
        }
    }
}

impl std::error::Error for InvalidQuorumError {}

/// An explicitly enumerated quorum system.
///
/// # Example
///
/// ```
/// use gcs_model::{Explicit, ProcId, QuorumSystem};
/// use std::collections::BTreeSet;
/// let q = Explicit::new(vec![
///     [ProcId(0), ProcId(1)].into_iter().collect(),
///     [ProcId(0), ProcId(2)].into_iter().collect(),
/// ])?;
/// assert!(q.is_quorum(&ProcId::range(2)));
/// assert!(!q.is_quorum(&[ProcId(1), ProcId(2)].into_iter().collect()));
/// # Ok::<(), gcs_model::quorum::InvalidQuorumError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Explicit {
    quorums: Vec<BTreeSet<ProcId>>,
}

impl Explicit {
    /// Creates an explicit quorum system, validating pairwise intersection.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidQuorumError`] if the list is empty or two quorums
    /// are disjoint.
    pub fn new(quorums: Vec<BTreeSet<ProcId>>) -> Result<Self, InvalidQuorumError> {
        if quorums.is_empty() {
            return Err(InvalidQuorumError::Empty);
        }
        for (i, a) in quorums.iter().enumerate() {
            for b in &quorums[i + 1..] {
                if a.is_disjoint(b) {
                    return Err(InvalidQuorumError::DisjointPair(a.clone(), b.clone()));
                }
                // A quorum disjoint from itself is empty.
            }
            if a.is_empty() {
                return Err(InvalidQuorumError::DisjointPair(a.clone(), a.clone()));
            }
        }
        Ok(Explicit { quorums })
    }

    /// The listed quorums.
    pub fn quorums(&self) -> &[BTreeSet<ProcId>] {
        &self.quorums
    }
}

impl QuorumSystem for Explicit {
    fn is_quorum(&self, set: &BTreeSet<ProcId>) -> bool {
        self.quorums.iter().any(|q| q.is_subset(set))
    }

    fn name(&self) -> &str {
        "explicit"
    }
}

/// A weighted-vote quorum system: a set is a quorum when its total weight
/// strictly exceeds half the total weight of all processors.
///
/// # Example
///
/// ```
/// use gcs_model::{ProcId, QuorumSystem, Weighted};
/// // p0 carries 3 votes out of 5: it is a quorum by itself.
/// let q = Weighted::new([(ProcId(0), 3), (ProcId(1), 1), (ProcId(2), 1)]);
/// assert!(q.is_quorum(&[ProcId(0)].into_iter().collect()));
/// assert!(!q.is_quorum(&[ProcId(1), ProcId(2)].into_iter().collect()));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Weighted {
    weights: std::collections::BTreeMap<ProcId, u64>,
    total: u64,
}

impl Weighted {
    /// Creates a weighted-vote system from per-processor weights.
    ///
    /// # Panics
    ///
    /// Panics if the total weight is zero.
    pub fn new(weights: impl IntoIterator<Item = (ProcId, u64)>) -> Self {
        let weights: std::collections::BTreeMap<ProcId, u64> = weights.into_iter().collect();
        let total: u64 = weights.values().sum();
        assert!(total > 0, "weighted quorum system needs positive total weight");
        Weighted { weights, total }
    }
}

impl QuorumSystem for Weighted {
    fn is_quorum(&self, set: &BTreeSet<ProcId>) -> bool {
        let w: u64 = set.iter().filter_map(|p| self.weights.get(p)).sum();
        2 * w > self.total
    }

    fn name(&self) -> &str {
        "weighted"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> BTreeSet<ProcId> {
        ids.iter().map(|&i| ProcId(i)).collect()
    }

    #[test]
    fn majority_threshold_is_strict() {
        let q = Majority::new(4);
        assert!(!q.is_quorum(&set(&[0, 1])));
        assert!(q.is_quorum(&set(&[0, 1, 2])));
        let q = Majority::new(1);
        assert!(q.is_quorum(&set(&[0])));
        assert!(!q.is_quorum(&set(&[])));
    }

    #[test]
    fn any_two_majorities_intersect() {
        // Sanity: for n = 5 every pair of 3-subsets intersects, so the
        // primary views chosen by Majority can never be concurrent in
        // disjoint partitions.
        let q = Majority::new(5);
        let a = set(&[0, 1, 2]);
        let b = set(&[2, 3, 4]);
        assert!(q.is_quorum(&a) && q.is_quorum(&b));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn explicit_rejects_disjoint_quorums() {
        let err = Explicit::new(vec![set(&[0]), set(&[1])]).unwrap_err();
        assert!(matches!(err, InvalidQuorumError::DisjointPair(..)));
        assert!(Explicit::new(vec![]).is_err());
        assert!(Explicit::new(vec![set(&[])]).is_err());
    }

    #[test]
    fn explicit_subset_test() {
        let q = Explicit::new(vec![set(&[0, 1]), set(&[1, 2])]).unwrap();
        assert!(q.is_quorum(&set(&[0, 1, 3])));
        assert!(!q.is_quorum(&set(&[0, 2])));
    }

    #[test]
    fn weighted_counts_only_listed_members() {
        let q = Weighted::new([(ProcId(0), 2), (ProcId(1), 2)]);
        // p9 has no weight.
        assert!(!q.is_quorum(&set(&[9, 0])) || q.is_quorum(&set(&[0])));
        assert!(q.is_quorum(&set(&[0, 1])));
        assert!(!q.is_quorum(&set(&[0])));
    }
}
