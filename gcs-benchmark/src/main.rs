//! `gcs-benchmark`: the repository benchmark.
//!
//! ```text
//! gcs-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//! gcs-benchmark suite [--seed N] [--runs R] [--traced] [--smoke] [--twice] [--out FILE]
//! gcs-benchmark agree A.json B.json
//! gcs-benchmark spec                                            prints BENCHMARK.json
//! ```
//!
//! A single run is one fresh process (started by a supervising parent
//! that starts it over if it ends without a result), confined to one
//! CPU: it sets the system up (several times, timed), measures one
//! workload for `--seconds`, checks that
//! every node delivered every operation exactly once in one order, and
//! prints one JSON object as its last line — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The traced
//! run measures the workload on a benchmark-owned node with spans
//! around every call into a layer, and runs the layer probes, an
//! untraced reference and the trace-checker pass in child processes of
//! its own. See `README.md` next to this package.

mod affinity;
mod check;
mod deploy;
mod gen;
mod json;
mod mem;
mod probes;
mod procstat;
mod span;
mod spec;
mod stats;
mod suite;
mod workloads;

use json::Json;
use spec::{MetricSpec, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Measured, RunConfig, SETUPS};

/// Arguments after the subcommand, as `--key value` pairs and flags.
pub struct Args(Vec<String>);

impl Args {
    pub fn value(&self, key: &str) -> Option<&str> {
        self.0.iter().position(|a| a == key).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }
    pub fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
    pub fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{key}: cannot read {v:?}")),
        }
    }
    pub fn positional(&self) -> Vec<&str> {
        self.0.iter().filter(|a| !a.starts_with("--")).map(String::as_str).collect()
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: gcs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      gcs-benchmark suite [--seed <n>] [--runs <r>] [--traced] [--smoke] [--twice] [--out <file>]\n\
         \x20      gcs-benchmark agree <a.json> <b.json>\n\
         \x20      gcs-benchmark spec\n\
         workloads: {}",
        spec::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    );
    ExitCode::from(2)
}

/// The result line of one run.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(MetricSpec, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                json::number(*v),
                json::quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Runs this executable again with `args`; returns the last line of its
/// standard output and that line parsed. The child's diagnostics go to
/// our stderr.
fn run_child_line(args: &[String]) -> Result<(String, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {:?} ended with {}", args, out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().rev().find(|l| !l.trim().is_empty()).ok_or("child printed nothing")?;
    let parsed = Json::parse(last).map_err(|e| format!("child {args:?} printed no result: {e}"))?;
    Ok((last.to_string(), parsed))
}

pub fn run_child(args: &[String]) -> Result<Json, String> {
    run_child_line(args).map(|(_, parsed)| parsed)
}

/// Exit code of a run whose system did not stay in the state the
/// workload is about: see [`supervise`].
const INVALID_RUN: u8 = 4;
/// A run is started over while it has used less than this of the 180 s
/// the driver allows it.
const RETRY_WITHIN: std::time::Duration = std::time::Duration::from_secs(70);

/// One run as the driver asks for it: the run itself is a child process,
/// started again (same seed, same inputs) if it ends without a result.
/// That happens when a host stall longer than the token timeout breaks
/// the view of a workload that has none in its script: the state
/// exchange over the history of a saturation run takes gigabytes and
/// the memory watchdog ends the process, and even if it did not, the
/// numbers would not be those of a steady ring. About one saturation run
/// in sixty on the landing box.
fn supervise(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    if workloads::workload(name).is_none() {
        return Err(format!("unknown workload {name:?}"));
    }
    let started = std::time::Instant::now();
    let child_args: Vec<String> =
        args.0.iter().cloned().chain(["--attempt".to_string(), String::new()]).collect();
    let mut attempt = 1;
    loop {
        let mut a = child_args.clone();
        *a.last_mut().expect("--attempt has a value") = attempt.to_string();
        match run_child_line(&a) {
            Ok((line, _)) => {
                println!("{line}");
                return Ok(ExitCode::SUCCESS);
            }
            Err(e) if attempt < 3 && started.elapsed() < RETRY_WITHIN => {
                eprintln!("gcs-benchmark: {e}; starting the run over");
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

fn child_metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// The single-node baseline and the leader's latency ladder: the
/// workload procedure itself, in a fresh process per step, at another
/// cluster size or offered rate.
fn client_probes(
    seed: u64,
    scale: f64,
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let seconds = (0.75 * scale).max(0.2);
    let step = |workload: &str, rate: Option<u64>| {
        let mut args: Vec<String> =
            ["--workload", workload, "--trace", "0", "--setups", "1", "--all-metrics"]
                .map(String::from)
                .to_vec();
        args.extend(["--seed".into(), seed.to_string(), "--seconds".into(), seconds.to_string()]);
        if let Some(r) = rate {
            args.extend(["--rate".into(), r.to_string()]);
        }
        run_child(&args)
    };
    let n1 = step("ring1_sat", None)?;
    out.insert("client.n1_throughput_ops_s", child_metric(&n1, "throughput_ops_s").unwrap_or(0.0));
    let steps: [(&'static str, u64); 5] = [
        ("client.ladder_p95_us.r20k", 20_000),
        ("client.ladder_p95_us.r40k", 40_000),
        ("client.ladder_p95_us.r80k", 80_000),
        ("client.ladder_p95_us.r120k", 120_000),
        ("client.ladder_p95_us.r160k", 160_000),
    ];
    let mut knee = 0.0;
    for (name, rate) in steps {
        let r = step("ring5_leader_open", Some(rate))?;
        let p95 = child_metric(&r, "client.latency_p95_us").unwrap_or(f64::MAX);
        out.insert(name, p95);
        // The step holds if its tail is within 5 ms and what the window
        // left undelivered is under 10 ms of offered load.
        let delivered = child_metric(&r, "throughput_ops_s").unwrap_or(0.0) * seconds;
        if p95 <= 5_000.0 && rate as f64 * seconds - delivered <= rate as f64 / 100.0 {
            knee = rate as f64;
        }
    }
    out.insert("client.knee_rate_ops_s", knee);
    Ok(())
}

/// Prints where a traced run's CPU went, layer by layer.
fn print_budget(name: &str, v: &BTreeMap<&'static str, f64>) {
    let get = |k: &str| v.get(k).copied().unwrap_or(0.0);
    let handle = get("budget.nodecore_self_us_per_op");
    let calls = get("budget.transport_calls_us_per_op");
    let total = get("proc.cpu_us_per_op");
    eprintln!("budget for {name} (us of CPU per delivered op; n = 5 nodes share every op)");
    eprintln!(
        "  {:<52} {:>9.3}",
        "client      generator threads",
        get("proc.client_cpu_us_per_op")
    );
    eprintln!(
        "  {:<52} {:>9.3}",
        "transport   accept/reader/writer threads (codec inside)",
        get("proc.io_cpu_us_per_op")
    );
    eprintln!("  {:<52} {:>9.3}", "transport   send/push calls on the core threads", calls);
    eprintln!(
        "  {:<52} {:>9.3}",
        "nodecore    handle/tick self time (vsimpl+vstoto inside)", handle
    );
    eprintln!(
        "  {:<52} {:>9.3}",
        "  of which vstoto, from the probe (5 x ns_per_op)",
        5.0 * get("vstoto.ns_per_op") / 1000.0
    );
    eprintln!(
        "  {:<52} {:>9.3}",
        "  codec, from the probes (4 hops x encode+decode)",
        4.0 * (get("codec.token_encode_ns_per_entry") + get("codec.token_decode_ns_per_entry"))
            / 1000.0
    );
    eprintln!("  {:<52} {:>9.3}", "proc.cpu_us_per_op", total);
    eprintln!("  {:<52} {:>9.3}", "budget.unattributed_share", get("budget.unattributed_share"));
}

fn print_phases(m: &Measured) {
    let Some(p) = m.phases else { return };
    let sum = p.detect_ms + p.form_ms + p.resume_ms;
    eprintln!("split view change, phase by phase (ms)");
    eprintln!("  detect  isolate -> first Call                 {:>9.1}", p.detect_ms);
    eprintln!("  form    first Call -> view at every survivor  {:>9.1}", p.form_ms);
    eprintln!("  resume  view -> first delivery push           {:>9.1}", p.resume_ms);
    eprintln!(
        "  sum {:.1} vs client.split_outage_ms {:.1} ({:+.1}%)",
        sum,
        p.outage_ms,
        (sum / p.outage_ms.max(1e-9) - 1.0) * 100.0
    );
}

fn write_trace(m: &Measured) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(dir.join("trace.jsonl"))?);
        for c in &m.cores {
            c.log.write_jsonl(&mut out)?;
        }
        out.flush()
    });
    if let Err(e) = written {
        eprintln!("gcs-benchmark: cannot write {}: {e}", dir.join("trace.jsonl").display());
    }
}

/// One run of one workload.
fn single(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    let mut w = workloads::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    if let Some(rate) = args.value("--rate") {
        // The latency ladder: the same workload at another offered rate.
        w.set_open_rate(rate.parse().map_err(|_| format!("--rate: cannot read {rate:?}"))?);
    }
    let seed: u64 = args.parsed("--seed", 1)?;
    let seconds: f64 = args.parsed("--seconds", f64::from(spec::RUN_SECONDS))?;
    let traced = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
    };
    let scale: f64 = args.parsed("--scale", 1.0)?;
    let setups: usize = args.parsed("--setups", if traced { 1 } else { SETUPS })?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    procstat::start_rss_watchdog();
    let started = std::time::Instant::now();

    let mut extra: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut problems: Vec<String> = Vec::new();
    if traced {
        // Probes, the untraced reference and the checker pass each get a
        // fresh process, so their memory and threads stay out of the
        // traced measurement.
        let common =
            ["--seed".to_string(), seed.to_string(), "--scale".to_string(), scale.to_string()];
        // The suite measures the probes and the untraced throughput once
        // and hands them to each traced run; alone, a traced run
        // measures them itself.
        let probes = match args.value("--probes-from") {
            Some(path) => std::fs::read_to_string(path)
                .map_err(|e| format!("{path}: {e}"))
                .and_then(|t| Json::parse(&t))?,
            None => run_child(&[&["probes".to_string()], &common[..]].concat())?,
        };
        for m in PER_LAYER {
            if let Some(x) = probes.get(m.name).and_then(Json::as_f64) {
                extra.insert(m.name, x);
            }
        }
        let untraced = match args.value("--untraced-throughput") {
            Some(x) => {
                x.parse().map_err(|_| format!("--untraced-throughput: cannot read {x:?}"))?
            }
            None => {
                let reference = run_child(&[
                    "--workload".into(),
                    name.into(),
                    "--seed".into(),
                    seed.to_string(),
                    "--seconds".into(),
                    (seconds / 2.0).to_string(),
                    "--trace".into(),
                    "0".into(),
                    "--setups".into(),
                    "1".into(),
                ])?;
                child_metric(&reference, "throughput_ops_s").unwrap_or(0.0)
            }
        };
        extra.insert("trace.untraced_throughput_ops_s", untraced);
        let checked = run_child(
            &[&["check".to_string(), "--workload".into(), name.into()], &common[..]].concat(),
        )?;
        problems.extend(
            checked
                .get("problems")
                .map_or(&[][..], Json::as_arr)
                .iter()
                .filter_map(|p| p.as_str().map(String::from)),
        );
    }

    // (The run pins itself only now, after the children, which each
    // choose a CPU for themselves.)
    let mut m = workloads::run(&w, RunConfig { seed, seconds, traced, setups })
        .map_err(|e| format!("{name}: {e}"))?;
    for p in &problems {
        eprintln!("gcs-benchmark: {p}");
    }
    m.correct &= problems.is_empty();
    m.values.extend(extra);

    if traced {
        let v = &mut m.values;
        let get = |v: &BTreeMap<&'static str, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);
        let calls = get(v, "budget.transport_calls_us_per_op");
        let attributed = get(v, "proc.client_cpu_us_per_op")
            + get(v, "proc.io_cpu_us_per_op")
            + calls
            + get(v, "budget.nodecore_self_us_per_op");
        let total = get(v, "proc.cpu_us_per_op");
        v.insert(
            "budget.unattributed_share",
            if total > 0.0 { 1.0 - attributed / total } else { 0.0 },
        );
        let untraced = get(v, "trace.untraced_throughput_ops_s");
        let traced_thr = get(v, "throughput_ops_s");
        v.insert(
            "trace.overhead_share",
            if untraced > 0.0 { 1.0 - traced_thr / untraced } else { 0.0 },
        );
        write_trace(&m);
        print_budget(name, &m.values);
        print_phases(&m);
    }

    let wanted = if traced { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for spec in wanted {
        match m.values.get(spec.name).copied() {
            Some(x) if x.is_finite() => metrics.push((*spec, x)),
            other => {
                return Err(format!("{name}: metric {} was not measured ({other:?})", spec.name))
            }
        }
    }
    if !w.has_fault() && m.values.get("vsimpl.view_changes").is_some_and(|v| *v > 0.0) {
        eprintln!("gcs-benchmark: {name}: a view broke on a steady workload; the run is invalid");
        return Ok(ExitCode::from(INVALID_RUN));
    }
    if args.flag("--all-metrics") {
        // For the ladder: an untraced run's client-side numbers too.
        let rest =
            END_TO_END.iter().chain(PER_LAYER).filter(|s| !wanted.iter().any(|w| w.name == s.name));
        metrics.extend(
            rest.filter_map(|s| m.values.get(s.name).filter(|x| x.is_finite()).map(|x| (*s, *x))),
        );
    }
    eprintln!(
        "gcs-benchmark: {name} seed {seed}: {} operations, {} failed, peak RSS {} MiB, {:.1} s",
        m.attempted,
        m.failed,
        procstat::sample().hwm_bytes >> 20,
        started.elapsed().as_secs_f64()
    );
    println!("{}", result_line(m.correct, m.attempted.max(1), m.failed, &metrics));
    let _ = std::io::stdout().flush();
    // The clusters' threads are not worth joining (stopping a stock
    // cluster merges its whole recorded trace first): leave at once.
    std::process::exit(0);
}

fn probes_cmd(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.parsed("--seed", 1)?;
    let scale: f64 = args.parsed("--scale", 1.0)?;
    affinity::move_to_fastest_cpu();
    let mut out =
        probes::run_all(probes::Scale(scale), seed).map_err(|e| format!("probes: {e}"))?;
    client_probes(seed, scale, &mut out)?;
    let obj: BTreeMap<String, Json> =
        out.into_iter().map(|(k, v)| (k.to_string(), Json::Num(v))).collect();
    println!("{}", Json::Obj(obj).render());
    let _ = std::io::stdout().flush();
    std::process::exit(0);
}

fn check_cmd(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    let w = workloads::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let problems = check::run(&w, args.parsed("--seed", 1)?, args.parsed("--scale", 1.0)?)
        .map_err(|e| format!("check: {e}"))?;
    let obj = BTreeMap::from([(
        "problems".to_string(),
        Json::Arr(problems.into_iter().map(Json::Str).collect()),
    )]);
    println!("{}", Json::Obj(obj).render());
    let _ = std::io::stdout().flush();
    std::process::exit(0);
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c.to_string(), argv[1..].to_vec()),
        _ if argv.iter().any(|a| a == "--workload") => ("run".to_string(), argv),
        _ if argv.iter().any(|a| a == "--help" || a == "-h") => return usage(),
        // No subcommand and no workload: the whole suite.
        _ => ("suite".to_string(), argv),
    };
    let args = Args(rest);
    let done = match cmd.as_str() {
        "run" if args.value("--attempt").is_some() => single(&args),
        "run" => supervise(&args),
        "suite" => suite::suite(&args),
        "agree" => suite::agree(&args),
        "probes" => probes_cmd(&args),
        "check" => check_cmd(&args),
        "spec" => {
            print!("{}", spec::render_benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => return usage(),
    };
    done.unwrap_or_else(|e| {
        eprintln!("gcs-benchmark: {e}");
        ExitCode::FAILURE
    })
}
