//! Timed traces (Section 2 of the paper; Lynch–Vaandrager timed automata).
//!
//! A *timed trace* is a sequence of actions paired with non-decreasing
//! times of occurrence. The conditional performance properties
//! (`TO-property`, `VS-property`) quantify over suffixes of timed traces
//! after a stabilization point; this module provides the bookkeeping those
//! checkers need: ordered insertion, time windows, and searches for the
//! last event satisfying a predicate.

use gcs_model::Time;
use std::fmt;

/// An action paired with its time of occurrence.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TimedEvent<A> {
    /// The time of occurrence.
    pub time: Time,
    /// The action.
    pub action: A,
}

impl<A> TimedEvent<A> {
    /// Convenience constructor.
    pub fn new(time: Time, action: A) -> Self {
        TimedEvent { time, action }
    }
}

/// A timed trace: time-stamped actions with non-decreasing times.
///
/// # Example
///
/// ```
/// use gcs_ioa::TimedTrace;
/// let mut t = TimedTrace::new();
/// t.push(1, "a");
/// t.push(3, "b");
/// t.push(3, "c");
/// assert_eq!(t.len(), 3);
/// assert_eq!(t.events_at_or_after(3).count(), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct TimedTrace<A> {
    events: Vec<TimedEvent<A>>,
}

impl<A> Default for TimedTrace<A> {
    fn default() -> Self {
        TimedTrace { events: Vec::new() }
    }
}

impl<A> TimedTrace<A> {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    ///
    /// # Panics
    ///
    /// Panics if `time` is smaller than the time of the last event; timed
    /// traces have non-decreasing times.
    pub fn push(&mut self, time: Time, action: A) {
        if let Some(last) = self.events.last() {
            assert!(
                time >= last.time,
                "timed trace times must be non-decreasing ({time} < {})",
                last.time
            );
        }
        self.events.push(TimedEvent { time, action });
    }

    /// The number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All events in order.
    pub fn events(&self) -> &[TimedEvent<A>] {
        &self.events
    }

    /// Iterates over `(time, action)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Time, &A)> {
        self.events.iter().map(|e| (&e.time, &e.action))
    }

    /// The time of the last event, or 0 for an empty trace.
    pub fn last_time(&self) -> Time {
        self.events.last().map(|e| e.time).unwrap_or(0)
    }

    /// Events with `time ≥ t`, in order.
    pub fn events_at_or_after(&self, t: Time) -> impl Iterator<Item = &TimedEvent<A>> {
        self.events.iter().skip_while(move |e| e.time < t)
    }

    /// Maps actions, preserving times.
    pub fn map<B>(&self, mut f: impl FnMut(&A) -> B) -> TimedTrace<B> {
        TimedTrace {
            events: self
                .events
                .iter()
                .map(|e| TimedEvent { time: e.time, action: f(&e.action) })
                .collect(),
        }
    }

    /// Keeps only events whose action satisfies `pred`, preserving times.
    pub fn filtered(&self, mut pred: impl FnMut(&A) -> bool) -> TimedTrace<A>
    where
        A: Clone,
    {
        TimedTrace { events: self.events.iter().filter(|e| pred(&e.action)).cloned().collect() }
    }

    /// The untimed action sequence.
    pub fn untimed(&self) -> Vec<A>
    where
        A: Clone,
    {
        self.events.iter().map(|e| e.action.clone()).collect()
    }
}

impl<A: fmt::Debug> fmt::Debug for TimedTrace<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TimedTrace[{} events]", self.events.len())?;
        for e in &self.events {
            writeln!(f, "  t={:<8} {:?}", e.time, e.action)?;
        }
        Ok(())
    }
}

impl<A> FromIterator<(Time, A)> for TimedTrace<A> {
    fn from_iter<I: IntoIterator<Item = (Time, A)>>(iter: I) -> Self {
        let mut t = TimedTrace::new();
        for (time, action) in iter {
            t.push(time, action);
        }
        t
    }
}

impl<A> Extend<(Time, A)> for TimedTrace<A> {
    fn extend<I: IntoIterator<Item = (Time, A)>>(&mut self, iter: I) {
        for (time, action) in iter {
            self.push(time, action);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_time_rejected() {
        let mut t = TimedTrace::new();
        t.push(5, 'a');
        t.push(4, 'b');
    }

    #[test]
    fn equal_times_allowed() {
        let mut t = TimedTrace::new();
        t.push(5, 'a');
        t.push(5, 'b');
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn map_and_filter_preserve_times() {
        let t: TimedTrace<u32> = [(1, 10), (2, 11)].into_iter().collect();
        let m = t.map(|x| x * 2);
        assert_eq!(m.events()[1], TimedEvent::new(2, 22));
        let f = t.filtered(|x| x % 2 == 0);
        assert_eq!(f.len(), 1);
        assert_eq!(f.events()[0].time, 1);
    }

    #[test]
    fn untimed_drops_times() {
        let t: TimedTrace<char> = [(1, 'x'), (2, 'y')].into_iter().collect();
        assert_eq!(t.untimed(), vec!['x', 'y']);
    }
}
