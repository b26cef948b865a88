//! `gcs-sim` — drive the deterministic simulation harness.
//!
//! ```text
//! gcs-sim run --seeds 200 [--workers W] [--n 5] [--delta 10]
//!             [--duration 5000] [--submits 40] [--faults 6]
//!             [--queue 256] [--fixed-delay] [--out DIR]
//! gcs-sim run --seed 42 --verbose
//! gcs-sim replay scenario.txt [--verbose]
//! ```
//!
//! `run --seeds N` fans N seeded scenarios out over a worker pool
//! (deterministic results at any worker count) and prints one digest
//! line per seed. On the first failing seed it minimizes the fault
//! schedule and writes a replayable scenario artifact.
//!
//! ```text
//! gcs-sim hostile [--seeds N] [--workers W] [--kinds flap,bimodal,...] [--verbose]
//! ```
//!
//! `hostile` runs the hostile-network corpus: every (kind, seed) entry
//! under **both** detector policies, printing view-change and
//! availability comparisons, and failing if any run violates a checker
//! or monitor — or if, summed over a regime's seeds, the adaptive
//! detector does not install strictly fewer views than fixed timeouts on
//! the flapping/bimodal regimes (printed on the regime's summary line).
//!
//! ```text
//! gcs-sim follower
//! ```
//!
//! `follower` runs the follower-latency scenario twice — round requests
//! delivered, then every one of them lost — and fails unless each value
//! submitted at node 2 is back there within `(2n + 3)δ` in the first
//! run and within `d` in the second, with every checker and both bound
//! monitors silent in both.

use gcs_ioa::par_seeds_with;
use gcs_sim::{follower, hostile, shrink, world, HostileKind, RegimeTotals, Scenario, SimConfig};
use std::process::ExitCode;

struct Args {
    seeds: u64,
    seed: Option<u64>,
    workers: usize,
    verbose: bool,
    out_dir: String,
    config: SimConfig,
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: gcs-sim run [--seeds N | --seed X] [--workers W] [--n N] [--delta MS]\n\
         \u{20}                  [--duration MS] [--submits K] [--faults F] [--queue Q]\n\
         \u{20}                  [--fixed-delay] [--verbose] [--out DIR]\n\
         \u{20}      gcs-sim hostile [--seeds N] [--workers W] [--kinds a,b,..] [--verbose]\n\
         \u{20}      gcs-sim follower\n\
         \u{20}      gcs-sim replay FILE [--verbose]"
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seeds: 10,
        seed: None,
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        verbose: false,
        out_dir: ".".to_string(),
        config: SimConfig::default(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().map(|s| s.as_str()).ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--seeds" => args.seeds = num(val("--seeds")?)?,
            "--seed" => args.seed = Some(num(val("--seed")?)?),
            "--workers" => args.workers = num(val("--workers")?)? as usize,
            "--n" => args.config.n = num(val("--n")?)? as u32,
            "--delta" => args.config.delta_ms = num(val("--delta")?)?,
            "--duration" => args.config.active_ms = num(val("--duration")?)?,
            "--submits" => args.config.submits = num(val("--submits")?)? as u32,
            "--faults" => args.config.fault_budget = num(val("--faults")?)? as u32,
            "--queue" => args.config.send_queue = num(val("--queue")?)? as usize,
            "--fixed-delay" => args.config.fixed_delay = true,
            "--verbose" => args.verbose = true,
            "--out" => args.out_dir = val("--out")?.to_string(),
            #[cfg(feature = "bug-hook")]
            "--bug-dup-token" => args.config.bug_dup_token = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn num(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("not a number: {s}"))
}

fn print_report(r: &world::RunReport, verbose: bool) {
    println!(
        "seed {:>6}  digest {:016x}  events {:>6}  frames {:>6} (-{})  views {:>3}  \
         delivered {:>4}  faults {}  {}",
        r.seed,
        r.digest,
        r.events,
        r.frames_sent,
        r.frames_dropped,
        r.views_installed,
        r.delivered,
        r.faults_applied,
        if r.ok() { "ok" } else { "FAIL" },
    );
    if verbose || !r.ok() {
        for v in &r.violations {
            println!("  violation: {v}");
        }
    }
}

fn run_one(sc: &Scenario, verbose: bool) -> ExitCode {
    if verbose {
        print!("{}", sc.render());
    }
    let (report, events) = world::run_traced(sc);
    if verbose {
        use gcs_obs::EventKind;
        for e in &events {
            match &e.kind {
                EventKind::Fault { node, peer, kind } => {
                    println!("t={:>6}  fault {kind:?} node={node} peer={peer}", e.t_ms);
                }
                EventKind::ViewChange { node, epoch, size } => {
                    println!("t={:>6}  view epoch={epoch} size={size} at node {node}", e.t_ms);
                }
                _ => {}
            }
        }
    }
    print_report(&report, verbose);
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn shrink_and_dump(sc: &Scenario, out_dir: &str) {
    let Some(result) = shrink::shrink(sc) else {
        println!("shrink: scenario no longer fails?");
        return;
    };
    println!(
        "shrink: {} fault ops -> {} in {} replays",
        result.original_ops,
        result.scenario.faults.len(),
        result.replays
    );
    let path = format!("{}/gcs-sim-seed{}.scenario", out_dir, sc.config.seed);
    let text = result.scenario.render();
    match std::fs::write(&path, &text) {
        Ok(()) => println!("shrink: wrote replayable scenario to {path}"),
        Err(e) => println!("shrink: could not write {path}: {e}"),
    }
    println!("--- minimized scenario (replay with: gcs-sim replay {path}) ---");
    print!("{text}");
    for v in &result.report.violations {
        println!("violation: {v}");
    }
}

fn cmd_run(args: &Args) -> ExitCode {
    if let Some(seed) = args.seed {
        let config = SimConfig { seed, ..args.config.clone() };
        let sc = Scenario::generate(&config);
        let code = run_one(&sc, args.verbose);
        if code != ExitCode::SUCCESS {
            shrink_and_dump(&sc, &args.out_dir);
        }
        return code;
    }
    let seeds: Vec<u64> = (0..args.seeds).collect();
    let base = args.config.clone();
    let reports = par_seeds_with(&seeds, args.workers, |seed| {
        world::run(&Scenario::generate(&SimConfig { seed, ..base.clone() }))
    });
    let mut failed = Vec::new();
    let (mut frames, mut faults, mut events) = (0u64, 0usize, 0usize);
    for r in &reports {
        print_report(r, args.verbose);
        frames += r.frames_sent;
        faults += r.faults_applied;
        events += r.events;
        if !r.ok() {
            failed.push(r.seed);
        }
    }
    println!(
        "ran {} seeds ({} workers): {} frames, {} fault ops, {} trace events, {} failing",
        reports.len(),
        args.workers,
        frames,
        faults,
        events,
        failed.len()
    );
    if let Some(&seed) = failed.first() {
        println!("minimizing first failing seed {seed}");
        let sc = Scenario::generate(&SimConfig { seed, ..args.config.clone() });
        shrink_and_dump(&sc, &args.out_dir);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

struct HostileArgs {
    seeds: u64,
    workers: usize,
    kinds: Vec<HostileKind>,
    verbose: bool,
}

fn parse_hostile_args(argv: &[String]) -> Result<HostileArgs, String> {
    let mut args = HostileArgs {
        seeds: 10,
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        kinds: HostileKind::ALL.to_vec(),
        verbose: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().map(|s| s.as_str()).ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--seeds" => args.seeds = num(val("--seeds")?)?,
            "--workers" => args.workers = num(val("--workers")?)? as usize,
            "--kinds" => {
                args.kinds = val("--kinds")?
                    .split(',')
                    .map(|s| {
                        HostileKind::from_name(s.trim())
                            .ok_or_else(|| format!("unknown hostile kind {s:?}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--verbose" => args.verbose = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn cmd_hostile(args: &HostileArgs) -> ExitCode {
    let seeds: Vec<u64> = (0..args.seeds).collect();
    let (mut failing, mut failing_regimes) = (0usize, 0usize);
    for &kind in &args.kinds {
        let outcomes = par_seeds_with(&seeds, args.workers, |seed| hostile::run_pair(kind, seed));
        for o in &outcomes {
            let pass = o.pass();
            if args.verbose || !pass {
                println!(
                    "{:<11} seed {:>4}  views fixed={:>3} adaptive={:>3}  \
                     avail fixed={:>3} adaptive={:>3}  {}",
                    kind.name(),
                    o.seed,
                    o.fixed.views_installed,
                    o.adaptive.views_installed,
                    o.fixed.delivered_during_disturbance,
                    o.adaptive.delivered_during_disturbance,
                    if pass { "ok" } else { "FAIL" },
                );
            }
            if !pass {
                failing += 1;
                for v in o.violations() {
                    println!("  violation: {v}");
                }
            }
        }
        let t = RegimeTotals::of(kind, &outcomes);
        if !t.pass() {
            failing_regimes += 1;
        }
        println!(
            "{:<11} {} seeds: views fixed={} adaptive={}  avail fixed={} adaptive={}{}",
            kind.name(),
            outcomes.len(),
            t.fixed_views,
            t.adaptive_views,
            t.fixed_avail,
            t.adaptive_avail,
            match (kind.strict(), t.pass()) {
                (false, _) => "",
                (true, true) => "  [strict: ok]",
                (true, false) => "  [strict: FAIL, adaptive views not fewer]",
            },
        );
    }
    if failing + failing_regimes > 0 {
        println!("hostile corpus: {failing} failing entries, {failing_regimes} failing regimes");
        return ExitCode::FAILURE;
    }
    println!("hostile corpus: all entries passed");
    ExitCode::SUCCESS
}

fn cmd_follower() -> ExitCode {
    let mut failing = 0usize;
    for (requests, what) in [(true, "requests delivered"), (false, "requests lost")] {
        let run = follower::run_follower(requests);
        let (delta, hops, d) = follower::bounds();
        let bound = if requests { hops } else { d };
        let max = |xs: &[u64]| xs.iter().copied().max().unwrap_or(0);
        let failures = run.failures(bound);
        println!(
            "follower  {what:<18}  {} values  bcast→brcv at node 2: min {} max {} ms  \
             first anywhere: max {} ms  bound {bound} ms (δ = {delta})  {}",
            run.own_ms.len(),
            run.own_ms.iter().copied().min().unwrap_or(0),
            max(&run.own_ms),
            max(&run.first_ms),
            if failures.is_empty() { "ok" } else { "FAIL" },
        );
        for f in &failures {
            println!("  violation: {f}");
        }
        failing += failures.len();
    }
    if failing > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_replay(path: &str, verbose: bool) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match Scenario::parse(&text) {
        Ok(sc) => run_one(&sc, verbose),
        Err(e) => {
            eprintln!("error: {path}: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(|s| s.as_str()) {
        Some("run") => match parse_args(&argv[1..]) {
            Ok(args) => cmd_run(&args),
            Err(e) => usage(&e),
        },
        Some("hostile") => match parse_hostile_args(&argv[1..]) {
            Ok(args) => cmd_hostile(&args),
            Err(e) => usage(&e),
        },
        Some("follower") => cmd_follower(),
        Some("replay") => {
            let Some(path) = argv.get(1) else {
                return usage("replay needs a scenario file");
            };
            let verbose = argv.iter().any(|a| a == "--verbose");
            cmd_replay(path, verbose)
        }
        _ => usage("expected a subcommand: run | hostile | follower | replay"),
    }
}
