//! Scenarios: the complete, replayable description of one simulated run.
//!
//! A [`Scenario`] is a [`SimConfig`] plus an explicit client-submission
//! schedule and an explicit fault schedule. Random scenarios are
//! *generated* from a seed ([`Scenario::generate`]), but the run itself
//! only ever consumes the explicit schedules — so the shrinker can
//! remove fault operations one by one and replay, and a failing schedule
//! can be written to a plain text file ([`Scenario::render`]) and
//! replayed later ([`Scenario::parse`]) without the generating seed.
//!
//! Every fault operation is **self-compensating**: a `Split` carries its
//! own heal time, a `Crash` its own restart delay, a `Stall` its own
//! resume delay. Removing any single operation therefore leaves a
//! schedule that still returns the network to full connectivity before
//! the settle phase — which is what makes shrink-by-removal sound.

use crate::world::settle_ms;
use gcs_model::Time;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;

/// Parameters of one simulated cluster run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of nodes (all of them form the initial membership *P₀*).
    pub n: u32,
    /// The good-channel delay bound δ, in virtual milliseconds. Every
    /// delivered frame takes between 1 and δ ms (exactly δ when
    /// [`SimConfig::fixed_delay`] is set), so the paper's timing
    /// assumption holds by construction and the b/d monitors apply.
    pub delta_ms: Time,
    /// Length of the active window (submits and faults are scheduled
    /// inside it); the run then settles for [`settle_ms`] more.
    pub active_ms: Time,
    /// How many client values to submit (values are `1..=submits`,
    /// globally unique as the TO trace checker requires).
    pub submits: u32,
    /// How many fault operations to generate.
    pub fault_budget: u32,
    /// Per-directed-link in-flight frame capacity; sends beyond it are
    /// dropped and counted, modeling the TCP transport's bounded queue.
    pub send_queue: usize,
    /// The run seed: drives schedule generation and in-run randomness
    /// (frame delays).
    pub seed: u64,
    /// Deliver every frame after exactly δ (the boundary case for the
    /// b/d monitors) instead of uniformly in `[1, δ]`.
    pub fixed_delay: bool,
    /// With the `bug-hook` feature: `Dup` operations duplicate a *live*
    /// Token frame (both copies processed) instead of a stale one — a
    /// real safety bug the checkers must catch. Ignored (and harmless)
    /// without the feature.
    pub bug_dup_token: bool,
    /// Run the nodes under the adaptive accrual failure detector
    /// (`DetectorPolicy::Adaptive`) instead of the fixed δ/π timeouts.
    /// The settle phase is stretched to cover the widest adaptive
    /// deadline (see [`settle_ms`]).
    pub adaptive_detector: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            n: 5,
            delta_ms: 10,
            active_ms: 5_000,
            submits: 40,
            fault_budget: 6,
            send_queue: 256,
            seed: 0,
            fixed_delay: false,
            bug_dup_token: false,
            adaptive_detector: false,
        }
    }
}

/// One fault operation. Durations are part of the operation, so every
/// operation compensates itself (see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultOp {
    /// Partition the nodes into the given components for `dur_ms`.
    /// Overlapping splits compose as the intersection of their
    /// equivalence relations, so connectivity always stays
    /// component-structured (the paper's partitionable network model).
    Split {
        /// The components (a partition of `0..n`).
        groups: Vec<Vec<u32>>,
        /// How long until the split heals.
        dur_ms: Time,
    },
    /// Block both directions of one link for `dur_ms` (a short
    /// transient, unlike `Split`).
    SeverPair {
        /// One endpoint.
        p: u32,
        /// The other endpoint.
        q: u32,
        /// Window length.
        dur_ms: Time,
    },
    /// Block only the `p → q` direction for `dur_ms` (asymmetric fault).
    SeverOneWay {
        /// The muted sender.
        p: u32,
        /// The unreachable receiver.
        q: u32,
        /// Window length.
        dur_ms: Time,
    },
    /// Drop every in-flight frame between `p` and `q` (both directions)
    /// at this instant — the simulated analog of killing live sockets.
    Kick {
        /// One endpoint.
        p: u32,
        /// The other endpoint.
        q: u32,
    },
    /// Crash node `p` (volatile state lost, stable storage kept) and
    /// restart it `down_ms` later.
    Crash {
        /// The crashing node.
        p: u32,
        /// Downtime before the restart.
        down_ms: Time,
    },
    /// Stall node `p` for `dur_ms`: it processes nothing (deliveries,
    /// submissions, and timers all wait), while frames aimed at it pile
    /// up against the bounded link queues — the slow-consumer fault.
    Stall {
        /// The stalled node.
        p: u32,
        /// Pause length.
        dur_ms: Time,
    },
    /// Flap the `p ↔ q` link: block it for `period_ms`, restore it for
    /// `period_ms`, `count` times — a link oscillating at the detection
    /// threshold, the canonical regime where fixed timeouts thrash views.
    Flap {
        /// One endpoint.
        p: u32,
        /// The other endpoint.
        q: u32,
        /// Length of each down (and each up) half-cycle.
        period_ms: Time,
        /// Number of down/up cycles.
        count: u32,
    },
    /// Stretch delivery delays on the `p → q` direction by `factor`
    /// for `dur_ms` (the reverse direction stays at δ) — an asymmetric
    /// one-way slowdown, not a partition: every frame still arrives.
    SlowOneWay {
        /// The slowed sender.
        p: u32,
        /// The receiver seeing late frames.
        q: u32,
        /// Delay multiplier (≥ 2).
        factor: u32,
        /// Window length.
        dur_ms: Time,
    },
    /// WAN-like bimodal delays on *every* link for `dur_ms`: each frame
    /// independently takes the slow mode (delay × `factor`) with
    /// probability `prob_pct`%, the fast mode (≤ δ) otherwise.
    Bimodal {
        /// Percent of frames taking the slow mode.
        prob_pct: u32,
        /// Slow-mode delay multiplier (≥ 2).
        factor: u32,
        /// Window length.
        dur_ms: Time,
    },
    /// Arm the `p → q` link to duplicate its next frame. Without the
    /// `bug-hook` feature the duplicate arrives as a *stale* copy and
    /// must be rejected by the receiver (exercising the transport's
    /// stale-connection filter semantics); with it, see
    /// [`SimConfig::bug_dup_token`].
    Dup {
        /// The duplicating sender.
        p: u32,
        /// The receiver.
        q: u32,
    },
}

impl FaultOp {
    /// When the operation's effect is fully compensated, relative to its
    /// application time (0 for instantaneous operations).
    pub fn span_ms(&self) -> Time {
        match self {
            FaultOp::Split { dur_ms, .. }
            | FaultOp::SeverPair { dur_ms, .. }
            | FaultOp::SeverOneWay { dur_ms, .. }
            | FaultOp::SlowOneWay { dur_ms, .. }
            | FaultOp::Bimodal { dur_ms, .. }
            | FaultOp::Stall { dur_ms, .. } => *dur_ms,
            FaultOp::Crash { down_ms, .. } => *down_ms,
            FaultOp::Flap { period_ms, count, .. } => 2 * period_ms * *count as Time,
            FaultOp::Kick { .. } | FaultOp::Dup { .. } => 0,
        }
    }
}

/// A fault operation with its application time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Virtual time at which the operation is applied.
    pub at: Time,
    /// The operation.
    pub op: FaultOp,
}

/// A scheduled client submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduledSubmit {
    /// Virtual time of the submission.
    pub at: Time,
    /// The submitting node.
    pub node: u32,
    /// The (globally unique) value.
    pub value: u64,
}

/// A complete replayable run description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Run parameters.
    pub config: SimConfig,
    /// Client submissions, in time order.
    pub submits: Vec<ScheduledSubmit>,
    /// Fault operations, in time order.
    pub faults: Vec<ScheduledFault>,
}

/// Fisher–Yates shuffle driven by the scenario RNG (the vendored `rand`
/// subset has no `SliceRandom`).
fn shuffle<T>(xs: &mut [T], rng: &mut ChaCha8Rng) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
}

impl Scenario {
    /// The virtual time at which the run ends: every fault compensated
    /// and every submission made, then a full settle phase.
    pub fn horizon_ms(&self) -> Time {
        let mut last = self.config.active_ms;
        for f in &self.faults {
            last = last.max(f.at + f.op.span_ms());
        }
        for s in &self.submits {
            last = last.max(s.at);
        }
        last + settle_ms(&self.config)
    }

    /// Generates the random scenario for `config` (schedules are drawn
    /// from `config.seed`; the run draws its own delays from the same
    /// seed via a different stream).
    pub fn generate(config: &SimConfig) -> Scenario {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x05ca_1ab1_e0dd_ba11);
        let n = config.n;
        let b = gcs_obs::BoundParams::standard(n, config.delta_ms).b_ms();
        let lo: Time = 50;
        let hi: Time = config.active_ms.max(lo + 1);

        // Fault operations. `busy` tracks per-node crash/stall windows so
        // no node carries two whole-node faults at once, and `crashes`
        // remembers windows a submission must avoid.
        let mut faults: Vec<ScheduledFault> = Vec::new();
        let mut busy: Vec<Vec<(Time, Time)>> = vec![Vec::new(); n as usize];
        let mut crashes: Vec<(u32, Time, Time)> = Vec::new();
        let free = |busy: &[Vec<(Time, Time)>], p: u32, from: Time, to: Time| {
            busy[p as usize].iter().all(|&(s, e)| to < s || from > e)
        };
        for _ in 0..config.fault_budget {
            let at = rng.gen_range(lo..hi);
            let op = match rng.gen_range(0u32..10) {
                0..=2 => {
                    let mut ids: Vec<u32> = (0..n).collect();
                    shuffle(&mut ids, &mut rng);
                    let cut = rng.gen_range(1..n) as usize;
                    let groups = vec![ids[..cut].to_vec(), ids[cut..].to_vec()];
                    FaultOp::Split { groups, dur_ms: rng.gen_range(b..2 * b) }
                }
                3 | 4 => {
                    let p = rng.gen_range(0..n);
                    let q = (p + rng.gen_range(1..n)) % n;
                    let dur_ms = rng.gen_range(config.delta_ms..=3 * config.delta_ms);
                    if rng.gen_bool(0.5) {
                        FaultOp::SeverPair { p, q, dur_ms }
                    } else {
                        FaultOp::SeverOneWay { p, q, dur_ms }
                    }
                }
                5 => {
                    let p = rng.gen_range(0..n);
                    FaultOp::Kick { p, q: (p + rng.gen_range(1..n)) % n }
                }
                6 | 7 => {
                    let p = rng.gen_range(0..n);
                    let down_ms = rng.gen_range(b / 2..=3 * b / 2);
                    if free(&busy, p, at, at + down_ms + b) {
                        busy[p as usize].push((at, at + down_ms + b));
                        crashes.push((p, at, at + down_ms + b));
                        FaultOp::Crash { p, down_ms }
                    } else {
                        FaultOp::Kick { p, q: (p + 1) % n }
                    }
                }
                8 => {
                    let p = rng.gen_range(0..n);
                    let dur_ms = rng.gen_range(config.delta_ms..=b / 2);
                    if free(&busy, p, at, at + dur_ms) {
                        busy[p as usize].push((at, at + dur_ms));
                        FaultOp::Stall { p, dur_ms }
                    } else {
                        FaultOp::Kick { p, q: (p + 1) % n }
                    }
                }
                _ => {
                    let p = rng.gen_range(0..n);
                    FaultOp::Dup { p, q: (p + rng.gen_range(1..n)) % n }
                }
            };
            faults.push(ScheduledFault { at, op });
        }
        faults.sort_by_key(|f| (f.at, render_op(&f.op)));

        // Submissions: unique values, spread over the active window,
        // never aimed at a node inside a crash window (the value would
        // die with the incarnation before being broadcast).
        let mut submits = Vec::new();
        for v in 1..=config.submits as u64 {
            let at = rng.gen_range(10..hi);
            let mut node = rng.gen_range(0..n);
            for _ in 0..n {
                let crashed = crashes.iter().any(|&(p, s, e)| p == node && at >= s && at <= e);
                if !crashed {
                    break;
                }
                node = (node + 1) % n;
            }
            submits.push(ScheduledSubmit { at, node, value: v });
        }
        submits.sort_by_key(|s| (s.at, s.value));

        Scenario { config: config.clone(), submits, faults }
    }

    /// Renders the scenario as the plain-text artifact format (one
    /// header line, then one line per submission and per fault).
    pub fn render(&self) -> String {
        let c = &self.config;
        let mut out = String::from("# gcs-sim scenario v1\n");
        let _ = writeln!(
            out,
            "config n={} delta_ms={} active_ms={} submits={} fault_budget={} \
             send_queue={} seed={} fixed_delay={} bug_dup_token={} adaptive_detector={}",
            c.n,
            c.delta_ms,
            c.active_ms,
            c.submits,
            c.fault_budget,
            c.send_queue,
            c.seed,
            c.fixed_delay as u8,
            c.bug_dup_token as u8,
            c.adaptive_detector as u8,
        );
        for s in &self.submits {
            let _ = writeln!(out, "submit at={} node={} value={}", s.at, s.node, s.value);
        }
        for f in &self.faults {
            let _ = writeln!(out, "fault at={} {}", f.at, render_op(&f.op));
        }
        out
    }

    /// Parses the format produced by [`Scenario::render`].
    pub fn parse(text: &str) -> Result<Scenario, String> {
        let mut config: Option<SimConfig> = None;
        let mut submits = Vec::new();
        let mut faults = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |m: &str| format!("line {}: {m}: {line:?}", lineno + 1);
            let mut words = line.split_whitespace();
            match words.next() {
                Some("config") => {
                    let mut c = SimConfig::default();
                    for kv in words {
                        let (k, v) = kv.split_once('=').ok_or_else(|| err("expected k=v"))?;
                        let u = || v.parse::<u64>().map_err(|_| err("bad number"));
                        match k {
                            "n" => c.n = u()? as u32,
                            "delta_ms" => c.delta_ms = u()?,
                            "active_ms" => c.active_ms = u()?,
                            "submits" => c.submits = u()? as u32,
                            "fault_budget" => c.fault_budget = u()? as u32,
                            "send_queue" => c.send_queue = u()? as usize,
                            "seed" => c.seed = u()?,
                            "fixed_delay" => c.fixed_delay = u()? != 0,
                            "bug_dup_token" => c.bug_dup_token = u()? != 0,
                            "adaptive_detector" => c.adaptive_detector = u()? != 0,
                            _ => return Err(err("unknown config key")),
                        }
                    }
                    config = Some(c);
                }
                Some("submit") => {
                    let kv = parse_kv(words.collect(), &err)?;
                    submits.push(ScheduledSubmit {
                        at: field(&kv, "at", &err)?,
                        node: field(&kv, "node", &err)? as u32,
                        value: field(&kv, "value", &err)?,
                    });
                }
                Some("fault") => {
                    let mut rest: Vec<&str> = words.collect();
                    if rest.len() < 2 {
                        return Err(err("fault needs at= and an op"));
                    }
                    let at_kv = rest.remove(0);
                    let at = at_kv
                        .strip_prefix("at=")
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err("expected at=<ms>"))?;
                    let opname = rest.remove(0);
                    let op = parse_op(opname, rest, &err)?;
                    faults.push(ScheduledFault { at, op });
                }
                _ => return Err(err("unknown directive")),
            }
        }
        let config = config.ok_or_else(|| "missing config line".to_string())?;
        Ok(Scenario { config, submits, faults })
    }
}

fn render_op(op: &FaultOp) -> String {
    match op {
        FaultOp::Split { groups, dur_ms } => {
            let gs: Vec<String> = groups
                .iter()
                .map(|g| g.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(","))
                .collect();
            format!("split groups={} dur={dur_ms}", gs.join("|"))
        }
        FaultOp::SeverPair { p, q, dur_ms } => format!("sever p={p} q={q} dur={dur_ms}"),
        FaultOp::SeverOneWay { p, q, dur_ms } => format!("sever1 p={p} q={q} dur={dur_ms}"),
        FaultOp::Flap { p, q, period_ms, count } => {
            format!("flap p={p} q={q} period={period_ms} count={count}")
        }
        FaultOp::SlowOneWay { p, q, factor, dur_ms } => {
            format!("slow1 p={p} q={q} factor={factor} dur={dur_ms}")
        }
        FaultOp::Bimodal { prob_pct, factor, dur_ms } => {
            format!("bimodal prob={prob_pct} factor={factor} dur={dur_ms}")
        }
        FaultOp::Kick { p, q } => format!("kick p={p} q={q}"),
        FaultOp::Crash { p, down_ms } => format!("crash p={p} down={down_ms}"),
        FaultOp::Stall { p, dur_ms } => format!("stall p={p} dur={dur_ms}"),
        FaultOp::Dup { p, q } => format!("dup p={p} q={q}"),
    }
}

type Kv<'a> = Vec<(&'a str, &'a str)>;

fn parse_kv<'a>(words: Vec<&'a str>, err: &dyn Fn(&str) -> String) -> Result<Kv<'a>, String> {
    words.into_iter().map(|w| w.split_once('=').ok_or_else(|| err("expected k=v"))).collect()
}

fn field(kv: &Kv<'_>, key: &str, err: &dyn Fn(&str) -> String) -> Result<u64, String> {
    kv.iter()
        .find(|(k, _)| *k == key)
        .ok_or_else(|| err(&format!("missing {key}=")))?
        .1
        .parse()
        .map_err(|_| err("bad number"))
}

fn parse_op(name: &str, rest: Vec<&str>, err: &dyn Fn(&str) -> String) -> Result<FaultOp, String> {
    let kv = parse_kv(rest, err)?;
    Ok(match name {
        "split" => {
            let groups_raw =
                kv.iter().find(|(k, _)| *k == "groups").ok_or_else(|| err("missing groups="))?.1;
            let groups: Result<Vec<Vec<u32>>, String> = groups_raw
                .split('|')
                .map(|g| {
                    g.split(',')
                        .map(|p| p.parse::<u32>().map_err(|_| err("bad group member")))
                        .collect()
                })
                .collect();
            FaultOp::Split { groups: groups?, dur_ms: field(&kv, "dur", err)? }
        }
        "sever" => FaultOp::SeverPair {
            p: field(&kv, "p", err)? as u32,
            q: field(&kv, "q", err)? as u32,
            dur_ms: field(&kv, "dur", err)?,
        },
        "sever1" => FaultOp::SeverOneWay {
            p: field(&kv, "p", err)? as u32,
            q: field(&kv, "q", err)? as u32,
            dur_ms: field(&kv, "dur", err)?,
        },
        "flap" => FaultOp::Flap {
            p: field(&kv, "p", err)? as u32,
            q: field(&kv, "q", err)? as u32,
            period_ms: field(&kv, "period", err)?,
            count: field(&kv, "count", err)? as u32,
        },
        "slow1" => FaultOp::SlowOneWay {
            p: field(&kv, "p", err)? as u32,
            q: field(&kv, "q", err)? as u32,
            factor: field(&kv, "factor", err)? as u32,
            dur_ms: field(&kv, "dur", err)?,
        },
        "bimodal" => FaultOp::Bimodal {
            prob_pct: field(&kv, "prob", err)? as u32,
            factor: field(&kv, "factor", err)? as u32,
            dur_ms: field(&kv, "dur", err)?,
        },
        "kick" => {
            FaultOp::Kick { p: field(&kv, "p", err)? as u32, q: field(&kv, "q", err)? as u32 }
        }
        "crash" => {
            FaultOp::Crash { p: field(&kv, "p", err)? as u32, down_ms: field(&kv, "down", err)? }
        }
        "stall" => {
            FaultOp::Stall { p: field(&kv, "p", err)? as u32, dur_ms: field(&kv, "dur", err)? }
        }
        "dup" => FaultOp::Dup { p: field(&kv, "p", err)? as u32, q: field(&kv, "q", err)? as u32 },
        _ => return Err(err("unknown fault op")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic() {
        let cfg = SimConfig { seed: 7, ..Default::default() };
        assert_eq!(Scenario::generate(&cfg), Scenario::generate(&cfg));
    }

    #[test]
    fn render_parse_round_trips() {
        for seed in 0..20 {
            let cfg = SimConfig { seed, fault_budget: 10, ..Default::default() };
            let sc = Scenario::generate(&cfg);
            let back = Scenario::parse(&sc.render()).expect("parse rendered scenario");
            assert_eq!(sc, back, "seed {seed}");
        }
    }

    #[test]
    fn splits_partition_the_node_set() {
        for seed in 0..50 {
            let cfg = SimConfig { seed, fault_budget: 12, ..Default::default() };
            let sc = Scenario::generate(&cfg);
            for f in &sc.faults {
                if let FaultOp::Split { groups, .. } = &f.op {
                    let mut all: Vec<u32> = groups.iter().flatten().copied().collect();
                    all.sort_unstable();
                    assert_eq!(all, (0..cfg.n).collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn submissions_carry_unique_values() {
        let cfg = SimConfig { seed: 3, submits: 100, ..Default::default() };
        let sc = Scenario::generate(&cfg);
        let mut vals: Vec<u64> = sc.submits.iter().map(|s| s.value).collect();
        vals.sort_unstable();
        vals.dedup();
        assert_eq!(vals.len(), 100);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Scenario::parse("nonsense").is_err());
        assert!(Scenario::parse("config n=oops").is_err());
        assert!(Scenario::parse("").is_err(), "missing config line");
    }
}
