//! Every workload, several runs each, with medians and quartiles; and
//! the comparison of two such result sets against the benchmark's own
//! bounds.

use crate::json::{number, quote, Json};
use crate::spec::{
    Better, MetricSpec, WorkloadSpec, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use crate::stats::{median, quartiles, spread};
use crate::{run_child, Args};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Runs per workload of a full set; `partition_heal` and `core_inmem`
/// repeat well enough for three.
fn default_runs(workload: &str) -> usize {
    match workload {
        "partition_heal" | "core_inmem" => 3,
        _ => 5,
    }
}

/// `workload → metric → values`, one value per run.
type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

struct SuiteConfig {
    /// Where the probes' results are kept for the traced runs.
    probes_file: Option<String>,
    seed: u64,
    runs: Option<usize>,
    traced: bool,
    seconds: f64,
    scale: f64,
    setups: Option<usize>,
}

fn one_run(
    workload: &str,
    seed: u64,
    trace: Option<f64>,
    cfg: &SuiteConfig,
) -> Result<Json, String> {
    let mut args = vec![
        "--workload".to_string(),
        workload.to_string(),
        "--seed".into(),
        seed.to_string(),
        "--seconds".into(),
        cfg.seconds.to_string(),
        "--trace".into(),
        if trace.is_some() { "1" } else { "0" }.into(),
        "--scale".into(),
        cfg.scale.to_string(),
    ];
    if let Some(s) = cfg.setups {
        args.extend(["--setups".to_string(), s.to_string()]);
    }
    if let (Some(untraced), Some(file)) = (trace, &cfg.probes_file) {
        args.extend(["--probes-from".to_string(), file.clone()]);
        args.extend(["--untraced-throughput".to_string(), untraced.to_string()]);
    }
    let result = run_child(&args)?;
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed}: the run's outputs were not correct"));
    }
    let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(-1.0);
    if failed != 0.0 {
        return Err(format!("{workload} seed {seed}: {failed} operations failed"));
    }
    Ok(result)
}

fn record(
    into: &mut BTreeMap<String, Vec<f64>>,
    result: &Json,
    specs: &[MetricSpec],
) -> Result<(), String> {
    for m in specs {
        let x = result
            .get("metrics")
            .and_then(|ms| ms.get(m.name))
            .and_then(|e| e.get("value"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("metric {} is missing from a result", m.name))?;
        into.entry(m.name.to_string()).or_default().push(x);
    }
    Ok(())
}

fn print_metrics(values: &BTreeMap<String, Vec<f64>>, specs: &[MetricSpec]) {
    for m in specs {
        let Some(v) = values.get(m.name) else { continue };
        let (q1, q3) = quartiles(v);
        println!(
            "  {:<40} {:>16} {:<6} [q1 {}, q3 {}, n {}]",
            m.name,
            number(median(v)),
            m.unit,
            number(q1),
            number(q3),
            v.len()
        );
    }
}

fn run_set(cfg: &SuiteConfig) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    for workload in WORKLOADS.iter().map(|w| w.name) {
        let runs = cfg.runs.unwrap_or_else(|| default_runs(workload));
        let values = set.entry(workload.to_string()).or_default();
        for i in 0..runs {
            let result = one_run(workload, cfg.seed + i as u64, None, cfg)?;
            record(values, &result, END_TO_END)?;
        }
        values.insert("failed_share".into(), vec![0.0]);
        println!("{workload}  (median of {runs} runs, {} s each)", cfg.seconds);
        print_metrics(values, END_TO_END);
        println!("  {:<40} {:>16} {:<6}", "failed_share", 0, "ratio");
        if cfg.traced {
            let untraced = median(&values["throughput_ops_s"]);
            let result = one_run(workload, cfg.seed, Some(untraced), cfg)?;
            record(values, &result, PER_LAYER)?;
            print_metrics(values, PER_LAYER);
        }
    }
    Ok(set)
}

fn render_set(set: &ResultSet, seed: u64) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"gcs-benchmark/v1\",\n  \"seed\": {seed},\n  \"workloads\": {{\n"
    );
    let unit = |name: &str| {
        END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name).map_or("ratio", |m| m.unit)
    };
    for (wi, (workload, metrics)) in set.iter().enumerate() {
        out.push_str(&format!("    {}: {{\n", quote(workload)));
        for (mi, (name, v)) in metrics.iter().enumerate() {
            let (q1, q3) = quartiles(v);
            out.push_str(&format!(
                "      {}: {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"unit\": {}, \"values\": [{}]}}{}\n",
                quote(name),
                number(median(v)),
                number(q1),
                number(q3),
                v.len(),
                quote(unit(name)),
                v.iter().map(|x| number(*x)).collect::<Vec<_>>().join(", "),
                if mi + 1 < metrics.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!("    }}{}\n", if wi + 1 < set.len() { "," } else { "" }));
    }
    out.push_str("  }\n}\n");
    out
}

fn parse_set(text: &str) -> Result<ResultSet, String> {
    let v = Json::parse(text)?;
    let mut set = ResultSet::new();
    let workloads = v.get("workloads").and_then(Json::as_obj).ok_or("no \"workloads\" object")?;
    for (w, metrics) in workloads {
        let into = set.entry(w.clone()).or_default();
        for (name, entry) in metrics.as_obj().ok_or("a workload is not an object")? {
            let values: Vec<f64> = entry
                .get("values")
                .map_or(&[][..], Json::as_arr)
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            into.insert(name.clone(), values);
        }
    }
    Ok(set)
}

/// `gcs-benchmark suite`.
pub fn suite(args: &Args) -> Result<ExitCode, String> {
    let smoke = args.flag("--smoke");
    let mut cfg = SuiteConfig {
        probes_file: None,
        seed: args.parsed("--seed", 1)?,
        runs: if smoke {
            Some(1)
        } else {
            args.value("--runs")
                .map(|r| r.parse().map_err(|_| "--runs: not a number"))
                .transpose()?
        },
        traced: args.flag("--traced") || smoke,
        seconds: args.parsed("--seconds", if smoke { 0.4 } else { f64::from(RUN_SECONDS) })?,
        scale: if smoke { 0.02 } else { 1.0 },
        setups: smoke.then_some(1),
    };
    println!(
        "gcs-benchmark: n=5, delta={} ms (pi=200, mu=400), loopback TCP with no injected delay, {} CPUs",
        crate::workloads::DELTA_MS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    if cfg.traced {
        // The probes do not depend on the workload: measure them once.
        let probes = run_child(&[
            "probes".into(),
            "--seed".into(),
            cfg.seed.to_string(),
            "--scale".into(),
            cfg.scale.to_string(),
        ])?;
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let file = dir.join("probes.json");
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&file, probes.render()))
            .map_err(|e| format!("{}: {e}", file.display()))?;
        cfg.probes_file = Some(file.to_string_lossy().into_owned());
    }
    let first = run_set(&cfg)?;
    if let Some(path) = args.value("--out") {
        std::fs::write(path, render_set(&first, cfg.seed)).map_err(|e| format!("{path}: {e}"))?;
    }
    if args.flag("--twice") {
        let second_cfg = SuiteConfig { seed: cfg.seed + 1000, ..cfg };
        println!("\nsecond set, seeds from {}", second_cfg.seed);
        let second = run_set(&second_cfg)?;
        if let Some(path) = args.value("--out") {
            let path = format!("{path}.2");
            std::fs::write(&path, render_set(&second, second_cfg.seed))
                .map_err(|e| format!("{path}: {e}"))?;
        }
        println!();
        return Ok(compare(&first, &second));
    }
    Ok(ExitCode::SUCCESS)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(m: &MetricSpec, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn compare(a: &ResultSet, b: &ResultSet) -> ExitCode {
    let (mut breaches, mut unresolved) = (0, 0);
    for WorkloadSpec { name: workload, gated, .. } in WORKLOADS {
        let (Some(ma), Some(mb)) = (a.get(*workload), b.get(*workload)) else {
            println!("{workload}: missing from a result set");
            breaches += 1;
            continue;
        };
        println!(
            "{workload}{}",
            if *gated { "" } else { "  (not gated: reported, never a breach)" }
        );
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (ma.get(m.name), mb.get(m.name)) else {
                println!("  {:<24} missing", m.name);
                breaches += 1;
                continue;
            };
            let worse = worsening(m, median(va), median(vb));
            let wide = spread(va).max(spread(vb));
            // Set-up time is bounded on its medians only: it is a few
            // milliseconds of thread spawning and its spread is not
            // the system's.
            let verdict = if wide > m.bound && m.name != "setup_s" {
                unresolved += u32::from(*gated);
                "unresolved"
            } else if worse > m.bound {
                breaches += u32::from(*gated);
                "BREACH"
            } else {
                "ok"
            };
            println!(
                "  {:<24} {:>14} -> {:>14} {:<5} {:>+7.2}%  spread {:>5.2}%/{:>5.2}%  bound {:>4.1}%  {verdict}",
                m.name,
                number(median(va)),
                number(median(vb)),
                m.unit,
                worse * 100.0,
                spread(va) * 100.0,
                spread(vb) * 100.0,
                m.bound * 100.0
            );
        }
    }
    println!("{breaches} breaches, {unresolved} unresolved");
    match (breaches, unresolved) {
        (0, 0) => ExitCode::SUCCESS,
        (0, _) => ExitCode::from(2),
        _ => ExitCode::FAILURE,
    }
}

/// `gcs-benchmark agree A.json B.json`.
pub fn agree(args: &Args) -> Result<ExitCode, String> {
    let files = args.positional();
    let [a, b] = files[..] else { return Err("agree takes two result files".into()) };
    let read = |p: &str| {
        std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}")).and_then(|t| parse_set(&t))
    };
    Ok(compare(&read(a)?, &read(b)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_with(throughput: &[f64]) -> ResultSet {
        let mut set = ResultSet::new();
        for w in WORKLOADS {
            let m = set.entry(w.name.to_string()).or_default();
            for spec in END_TO_END {
                m.insert(spec.name.to_string(), vec![100.0, 100.5, 101.0]);
            }
            m.insert("throughput_ops_s".into(), throughput.to_vec());
        }
        set
    }

    #[test]
    fn result_sets_round_trip_and_compare() {
        let a = set_with(&[1000.0, 1001.0, 1002.0]);
        let text = render_set(&a, 7);
        assert_eq!(parse_set(&text).unwrap(), a);
        assert_eq!(compare(&a, &a), ExitCode::SUCCESS);
        // Three tenths less throughput is a breach; a wide spread is
        // unresolved, not agreement.
        assert_eq!(compare(&a, &set_with(&[700.0, 701.0, 702.0])), ExitCode::FAILURE);
        assert_eq!(compare(&a, &set_with(&[700.0, 1000.0, 1300.0])), ExitCode::from(2));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = END_TO_END.iter().find(|m| m.better == Better::Lower).unwrap();
        let higher = END_TO_END.iter().find(|m| m.better == Better::Higher).unwrap();
        assert!((worsening(lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 110.0) + 0.10).abs() < 1e-12);
    }
}
