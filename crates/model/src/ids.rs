//! Processor and view identifiers.

use std::collections::BTreeSet;
use std::fmt;

/// A processor identifier, an element of the totally ordered finite set *P*.
///
/// The paper fixes *P* once and for all (Section 3); here a `ProcId` is a
/// small integer and the ambient set *P* is carried explicitly by the
/// components that need it (e.g. the network simulator and the initial view).
///
/// # Example
///
/// ```
/// use gcs_model::ProcId;
/// let p = ProcId(2);
/// assert_eq!(p.to_string(), "p2");
/// assert!(ProcId(1) < ProcId(2));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u32);

impl ProcId {
    /// Returns the set `{p0, p1, …, p(n-1)}`, a convenient ambient *P*.
    ///
    /// ```
    /// use gcs_model::ProcId;
    /// let ps = ProcId::range(3);
    /// assert_eq!(ps.len(), 3);
    /// assert!(ps.contains(&ProcId(0)));
    /// ```
    pub fn range(n: u32) -> BTreeSet<ProcId> {
        (0..n).map(ProcId).collect()
    }

    /// The numeric index of this processor.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for ProcId {
    fn from(i: u32) -> Self {
        ProcId(i)
    }
}

/// A view identifier, an element of the totally ordered set *⟨G, <_G, g₀⟩*.
///
/// View identifiers are ordered lexicographically by `(epoch, origin)`. This
/// is exactly the structure used by the Cristian–Schmuck membership protocol
/// (Section 8): "viewids … have a procid as low-order part and a stable
/// sequence number as high-order part", which makes identifiers unique
/// without coordination. The distinguished initial identifier *g₀* is
/// [`ViewId::initial`], the minimum of the order among identifiers the
/// system generates (all generated identifiers use `epoch ≥ 1`).
///
/// # Example
///
/// ```
/// use gcs_model::{ProcId, ViewId};
/// let g0 = ViewId::initial();
/// let g1 = ViewId::new(1, ProcId(4));
/// let g2 = ViewId::new(2, ProcId(0));
/// assert!(g0 < g1 && g1 < g2);
/// ```
///
/// Packed to 4-byte alignment: 12 bytes instead of 16, which makes every
/// [`crate::Label`] 24 bytes instead of 32. Read `epoch` by value
/// (`{ g.epoch }`); a reference to it may be unaligned.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(C, packed(4))]
pub struct ViewId {
    /// High-order part: a monotonically increasing epoch number.
    pub epoch: u64,
    /// Low-order part: the processor that coined the identifier
    /// (tie-breaker guaranteeing global uniqueness).
    pub origin: ProcId,
}

impl ViewId {
    /// Creates a view identifier from an epoch and the coining processor.
    pub fn new(epoch: u64, origin: ProcId) -> Self {
        ViewId { epoch, origin }
    }

    /// The distinguished initial view identifier *g₀*.
    ///
    /// `g₀` is minimal among all identifiers the membership service coins,
    /// because coined identifiers always use a strictly positive epoch.
    pub fn initial() -> Self {
        ViewId { epoch: 0, origin: ProcId(0) }
    }

    /// Returns the next identifier this processor would coin, strictly
    /// greater than `self` (and than every identifier with the same or a
    /// smaller epoch).
    pub fn successor(self, origin: ProcId) -> Self {
        ViewId { epoch: self.epoch + 1, origin }
    }
}

impl fmt::Display for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}.{}", { self.epoch }, self.origin.0)
    }
}

impl fmt::Debug for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_range_is_dense_and_sorted() {
        let ps = ProcId::range(4);
        let v: Vec<_> = ps.iter().copied().collect();
        assert_eq!(v, vec![ProcId(0), ProcId(1), ProcId(2), ProcId(3)]);
    }

    #[test]
    fn initial_viewid_is_minimal_among_coined() {
        let g0 = ViewId::initial();
        for epoch in 1..5 {
            for origin in 0..5 {
                assert!(g0 < ViewId::new(epoch, ProcId(origin)));
            }
        }
    }

    #[test]
    fn viewid_order_is_lexicographic() {
        assert!(ViewId::new(1, ProcId(9)) < ViewId::new(2, ProcId(0)));
        assert!(ViewId::new(2, ProcId(0)) < ViewId::new(2, ProcId(1)));
    }

    #[test]
    fn successor_is_strictly_greater() {
        let g = ViewId::new(3, ProcId(7));
        let s = g.successor(ProcId(0));
        assert!(s > g);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ProcId(3).to_string(), "p3");
        assert_eq!(ViewId::new(2, ProcId(1)).to_string(), "g2.1");
    }
}
