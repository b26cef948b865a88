//! Schedule sources: where scheduling decisions come from.
//!
//! Every multi-option decision point (which thread runs next; which
//! store a weak load reads) asks the execution's [`Source`] for a
//! choice. Two sources exist:
//!
//! - [`Dfs`]: systematic depth-first enumeration with a preemption
//!   bound (CHESS-style). The driver replays the recorded prefix,
//!   takes the default at the frontier, and backtracks the deepest
//!   decision with an unexplored alternative after each execution.
//! - `Replay`: a fixed byte string (one byte per multi-option
//!   decision) — the repro format every failure ships.
//!
//! Decisions are positional: byte `i` answers the `i`-th multi-option
//! decision of the execution. Single-option points consume nothing,
//! which keeps schedules short and replay robust.

/// A replayable schedule: the byte string of choices taken at each
/// multi-option decision point, rendered as hex (the same artifact
/// style as gcs-sim's scenario `.hex` corpus).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule(pub Vec<u8>);

impl Schedule {
    /// Render as lowercase hex (empty schedule ⇒ empty string).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(self.0.len() * 2);
        for b in &self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).unwrap_or('?'));
            s.push(char::from_digit((b & 0xf) as u32, 16).unwrap_or('?'));
        }
        s
    }

    /// Parse a hex string produced by [`Schedule::to_hex`].
    pub fn from_hex(s: &str) -> Option<Schedule> {
        let s = s.trim();
        if !s.len().is_multiple_of(2) {
            return None;
        }
        let mut out = Vec::with_capacity(s.len() / 2);
        let bytes = s.as_bytes();
        for pair in bytes.chunks(2) {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            out.push(((hi << 4) | lo) as u8);
        }
        Some(Schedule(out))
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Why a source could not produce a choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DecideErr {
    /// Replay bytes ran out or named an option that does not exist.
    Diverged,
    /// A DFS prefix replay saw a different option set than the run
    /// that recorded it — the model itself is nondeterministic.
    Nondeterminism,
}

/// One recorded multi-option decision in a DFS prefix.
#[derive(Clone, Debug)]
pub(crate) struct Decision {
    /// The option bytes, default (non-preemptive) first.
    options: Vec<u8>,
    /// Whether picking option `i` preempts a still-runnable thread.
    preemptive: Vec<bool>,
    /// Index into `options` chosen on the current path.
    chosen: usize,
    /// Preemptions already spent before this decision.
    preemptions_before: usize,
}

/// Depth-first systematic exploration with a preemption bound.
#[derive(Debug)]
pub(crate) struct Dfs {
    prefix: Vec<Decision>,
    cursor: usize,
    bound: usize,
}

impl Dfs {
    pub(crate) fn new(bound: usize) -> Dfs {
        Dfs { prefix: Vec::new(), cursor: 0, bound }
    }

    /// Reset the replay cursor before an execution.
    pub(crate) fn begin(&mut self) {
        self.cursor = 0;
    }

    /// Advance to the next unexplored path: bump the deepest decision
    /// with a bound-allowed alternative, popping exhausted ones.
    /// Returns false when the space (at this bound) is exhausted.
    pub(crate) fn backtrack(&mut self) -> bool {
        loop {
            let bound = self.bound;
            let Some(d) = self.prefix.last_mut() else {
                return false;
            };
            let mut next = d.chosen + 1;
            while next < d.options.len() && d.preemptive[next] && d.preemptions_before >= bound {
                next += 1;
            }
            if next < d.options.len() {
                d.chosen = next;
                return true;
            }
            self.prefix.pop();
        }
    }
}

/// A decision source for one (or a sequence of) executions.
#[derive(Debug)]
pub(crate) enum Source {
    /// Systematic DFS (persists across executions; driver backtracks).
    Dfs(Dfs),
    /// Fixed byte string replay.
    Replay { bytes: Vec<u8>, pos: usize },
}

impl Source {
    pub(crate) fn replay(schedule: &Schedule) -> Source {
        Source::Replay { bytes: schedule.0.clone(), pos: 0 }
    }

    /// Answer a multi-option decision. `options` lists the candidate
    /// bytes with the non-preemptive default first; `preemptive[i]`
    /// says whether option `i` would preempt a runnable thread;
    /// `preemptions_now` is the count already spent this execution.
    /// Returns the chosen byte and whether it was a preemption.
    pub(crate) fn decide(
        &mut self,
        options: &[u8],
        preemptive: &[bool],
        preemptions_now: usize,
    ) -> Result<(u8, bool), DecideErr> {
        debug_assert!(options.len() >= 2);
        match self {
            Source::Dfs(dfs) => {
                if dfs.cursor < dfs.prefix.len() {
                    let d = &dfs.prefix[dfs.cursor];
                    if d.options != options {
                        return Err(DecideErr::Nondeterminism);
                    }
                    let idx = d.chosen;
                    dfs.cursor += 1;
                    Ok((options[idx], preemptive[idx]))
                } else {
                    // Frontier: take the default. Option 0 is always
                    // bound-allowed (it is only preemptive when no
                    // non-preemptive option exists, which cannot
                    // happen: a preemption requires the previous
                    // thread to still be runnable, and then that
                    // thread is itself option 0).
                    dfs.prefix.push(Decision {
                        options: options.to_vec(),
                        preemptive: preemptive.to_vec(),
                        chosen: 0,
                        preemptions_before: preemptions_now,
                    });
                    dfs.cursor += 1;
                    Ok((options[0], preemptive[0]))
                }
            }
            Source::Replay { bytes, pos } => {
                let Some(&b) = bytes.get(*pos) else {
                    return Err(DecideErr::Diverged);
                };
                let Some(idx) = options.iter().position(|&o| o == b) else {
                    return Err(DecideErr::Diverged);
                };
                *pos += 1;
                Ok((b, preemptive[idx]))
            }
        }
    }

    /// The byte string of every decision taken so far this execution
    /// — the repro schedule attached to failures.
    pub(crate) fn taken(&self) -> Schedule {
        match self {
            Source::Dfs(dfs) => {
                Schedule(dfs.prefix[..dfs.cursor].iter().map(|d| d.options[d.chosen]).collect())
            }
            Source::Replay { bytes, pos } => Schedule(bytes[..*pos].to_vec()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips() {
        let s = Schedule(vec![0x00, 0x1f, 0xab]);
        assert_eq!(s.to_hex(), "001fab");
        assert_eq!(Schedule::from_hex("001fab"), Some(s));
        assert_eq!(Schedule::from_hex("0"), None);
        assert_eq!(Schedule::from_hex("zz"), None);
    }

    #[test]
    fn dfs_enumerates_binary_tree_within_bound() {
        // Two back-to-back binary decisions where the second option is
        // always a preemption: bound 0 explores only the default path,
        // bound 1 explores paths with at most one '1'.
        let run = |bound: usize| {
            let mut dfs = Dfs::new(bound);
            let mut paths = Vec::new();
            loop {
                dfs.begin();
                let mut src = Source::Dfs(dfs);
                let mut path = Vec::new();
                let mut preempts = 0;
                for _ in 0..2 {
                    let (b, p) = src.decide(&[0, 1], &[false, true], preempts).unwrap();
                    if p {
                        preempts += 1;
                    }
                    path.push(b);
                }
                paths.push(path);
                let Source::Dfs(d) = src else { unreachable!() };
                dfs = d;
                if !dfs.backtrack() {
                    break;
                }
            }
            paths
        };
        assert_eq!(run(0), vec![vec![0, 0]]);
        assert_eq!(run(1), vec![vec![0, 0], vec![0, 1], vec![1, 0]]);
        assert_eq!(run(2), vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn replay_diverges_on_unknown_option_or_exhaustion() {
        let mut src = Source::replay(&Schedule(vec![1]));
        assert_eq!(src.decide(&[0, 1], &[false, true], 0), Ok((1, true)));
        assert_eq!(src.decide(&[0, 1], &[false, true], 1), Err(DecideErr::Diverged));
        let mut src = Source::replay(&Schedule(vec![7]));
        assert_eq!(src.decide(&[0, 1], &[false, true], 0), Err(DecideErr::Diverged));
    }
}
