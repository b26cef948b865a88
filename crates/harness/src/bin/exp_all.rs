//! The one front end of the paper-experiment apparatus; `USAGE` below is the
//! reference. `--metrics` serves the harness's live counters
//! (per-experiment wall times, parallel fan-out activity) as
//! Prometheus-style text while the experiments run and prints the final
//! rendering when they finish; `scenario` prints the delivery report and
//! the specification checks of one run and exits 1 on a violation.

use gcs_core::cause::check_trace;
use gcs_core::to_trace::check_to_trace;
use gcs_harness::experiments::{run_timed, ExperimentFn, ALL};
use gcs_harness::{micro, scenarios};
use gcs_ioa::TraceEvent;
use gcs_vsimpl::{ImplEvent, MembershipMode};

const USAGE: &str = "\
usage: exp_all [--quick] [--metrics ADDR] [e01 … e14 | micro] …
       exp_all scenario stable|partition|merge|crash|cascade
               [--n N] [--delta D] [--seed S] [--msgs M]
               [--one-round] [--safe-delivery] [--timeline]

no id            every experiment, in id order
--quick          reduced experiment sizes
--metrics ADDR   serve live harness counters on ADDR while running
micro            checker-path and observability timings
scenario NAME    run the stack under a failure scenario and check its traces
  --n N            processors, 2..=16 (default 4)
  --delta D        channel delay δ (default 5)
  --seed S         RNG seed (default 1)
  --msgs M         client submissions (default 10)
  --one-round      use the 1-round membership variant
  --safe-delivery  use Totem-style safe delivery
  --timeline       print the full event timeline";

fn usage_error(msg: &str) -> ! {
    eprintln!("exp_all: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut metrics_addr: Option<std::net::SocketAddr> = None;
    let mut selected: Vec<(&str, ExperimentFn)> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--metrics" => {
                let addr =
                    args.next().unwrap_or_else(|| usage_error("missing value for --metrics"));
                metrics_addr =
                    Some(addr.parse().unwrap_or_else(|_| {
                        usage_error(&format!("bad --metrics address {addr:?}"))
                    }));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "scenario" => return scenario(args),
            "micro" => selected.push(("micro", |quick| vec![micro::run(quick)])),
            id => match ALL.iter().find(|(name, _)| *name == id) {
                Some(&experiment) => selected.push(experiment),
                None => usage_error(&format!("unknown experiment {id:?}")),
            },
        }
    }
    if selected.is_empty() {
        selected = ALL.to_vec();
    }

    let server = metrics_addr.map(|addr| {
        let listener = std::net::TcpListener::bind(addr).expect("bind metrics address");
        let server = gcs_obs::serve(listener, gcs_harness::obs().registry.clone())
            .expect("start metrics server");
        eprintln!("exp_all: metrics on http://{}", server.addr());
        server
    });

    for (name, run) in selected {
        for table in run_timed(name, run, quick) {
            println!("{table}");
        }
    }

    if let Some(server) = server {
        println!("{}", gcs_harness::obs().registry.render_text());
        server.stop();
    }
}

fn num<T: std::str::FromStr>(flag: &str, v: String) -> T {
    v.parse().unwrap_or_else(|_| usage_error(&format!("{flag}: bad number {v:?}")))
}

/// `exp_all scenario <name> …`: `args` is what follows the word
/// `scenario`.
fn scenario(mut args: impl Iterator<Item = String>) {
    let Some(name) = args.next() else { usage_error("scenario needs a name") };
    let (mut n, mut delta, mut seed, mut msgs) = (4u32, 5u64, 1u64, 10usize);
    let (mut one_round, mut safe_delivery, mut timeline) = (false, false, false);
    while let Some(flag) = args.next() {
        let mut val =
            || args.next().unwrap_or_else(|| usage_error(&format!("missing value for {flag}")));
        match flag.as_str() {
            "--n" => n = num(&flag, val()),
            "--delta" => delta = num(&flag, val()),
            "--seed" => seed = num(&flag, val()),
            "--msgs" => msgs = num(&flag, val()),
            "--one-round" => one_round = true,
            "--safe-delivery" => safe_delivery = true,
            "--timeline" => timeline = true,
            other => usage_error(&format!("unknown scenario flag {other}")),
        }
    }
    if !(2..=16).contains(&n) {
        usage_error("--n must be in 2..=16");
    }
    let Some(mut sc) = scenarios::by_name(&name, n, delta, msgs, seed) else {
        usage_error(&format!("unknown scenario {name:?}"))
    };
    sc.config.proto.mode =
        if one_round { MembershipMode::OneRound } else { MembershipMode::ThreeRound };
    sc.config.proto.safe_delivery = safe_delivery;

    let proto = &sc.config.proto;
    println!(
        "scenario {} | n={} δ={} π={} μ={} seed={} msgs={} horizon={}",
        sc.name,
        sc.config.n(),
        proto.delta,
        proto.pi,
        proto.mu,
        sc.config.seed,
        msgs,
        sc.horizon
    );
    let stack = sc.run();

    if timeline {
        println!("\ntimeline:");
        for ev in stack.trace().events() {
            match &ev.action {
                TraceEvent::App(ImplEvent::NewView { p, v }) => {
                    println!("  t={:<7} newview {v} at {p}", ev.time)
                }
                TraceEvent::App(ImplEvent::Bcast { p, a }) => {
                    println!("  t={:<7} bcast {a:?} at {p}", ev.time)
                }
                TraceEvent::App(ImplEvent::Brcv { src, dst, a }) => {
                    println!("  t={:<7} brcv {a:?} ({src}) at {dst}", ev.time)
                }
                TraceEvent::Fail { subject, status } => {
                    println!("  t={:<7} fail {subject} → {status}", ev.time)
                }
                _ => {}
            }
        }
    }

    println!("\nfinal views:");
    for &p in &proto.procs {
        match stack.view_of(p) {
            Some(v) => println!("  {p}: {v}  ({} delivered)", stack.delivered(p).len()),
            None => println!("  {p}: ⊥"),
        }
    }

    let to = check_to_trace(&stack.to_obs().untimed());
    println!("\nTO-machine conformance: {to}");
    let vs = check_trace(&stack.vs_actions(), &proto.p0);
    println!("VS Lemma 4.2 conformance: {vs}");
    if safe_delivery && !vs.ok() {
        println!(
            "  (expected with --safe-delivery: Totem-style delivery does not \
             satisfy the VS safe-notification contract; see EXPERIMENTS.md E9)"
        );
    }
    let ok = to.ok() && (vs.ok() || safe_delivery);
    std::process::exit(if ok { 0 } else { 1 });
}
