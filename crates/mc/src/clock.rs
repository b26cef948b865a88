//! Vector clocks: the happens-before lattice used by the checker.
//!
//! One component per model thread. Every visible operation a thread
//! performs bumps its own component; synchronizing operations (spawn,
//! join, mutex hand-off) join clocks.
//! `a` happened-before `b` iff `a`'s thread component at the time of
//! `a` is covered by `b`'s thread's clock at the time of `b`.

/// A grow-on-demand vector clock. Missing components read as zero, so
/// clones taken before a thread is spawned stay valid.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct VClock(Vec<u32>);

impl VClock {
    /// The component for thread `t` (zero if never touched).
    pub(crate) fn get(&self, t: usize) -> u32 {
        self.0.get(t).copied().unwrap_or(0)
    }

    /// Increment thread `t`'s own component (a new epoch for `t`).
    pub(crate) fn bump(&mut self, t: usize) {
        if self.0.len() <= t {
            self.0.resize(t + 1, 0);
        }
        self.0[t] += 1;
    }

    /// Pointwise maximum: fold `other`'s knowledge into `self`.
    pub(crate) fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &v) in other.0.iter().enumerate() {
            if self.0[i] < v {
                self.0[i] = v;
            }
        }
    }

    /// Does this clock cover epoch `epoch` of thread `t`? True means
    /// the event `(t, epoch)` happened-before whoever holds `self`.
    pub(crate) fn covers(&self, t: usize, epoch: u32) -> bool {
        self.get(t) >= epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_is_pointwise_max_and_covers_tracks_epochs() {
        let mut a = VClock::default();
        a.bump(0);
        a.bump(0); // a = [2]
        let mut b = VClock::default();
        b.bump(2); // b = [0,0,1]
        b.join(&a);
        assert_eq!(b.get(0), 2);
        assert_eq!(b.get(2), 1);
        assert!(b.covers(0, 2));
        assert!(!b.covers(0, 3));
        assert!(b.covers(7, 0)); // unknown threads read as epoch 0
    }
}
