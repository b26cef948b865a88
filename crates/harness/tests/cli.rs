//! The `exp_all` front end, driven as a process: experiment selection by
//! id, the default (everything, in id order), the usage error, the
//! `micro` table and the `scenario` subcommand.

use gcs_harness::experiments::ALL;
use std::process::{Command, Output};

fn exp_all(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp_all")).args(args).output().expect("run exp_all")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 output")
}

/// What the binary prints for one experiment: each table, `println!`ed.
fn rendered(id: &str) -> String {
    let (_, run) = ALL.iter().find(|(name, _)| *name == id).expect("known id");
    run(true).iter().map(|t| format!("{t}\n")).collect()
}

#[test]
fn an_id_selects_exactly_that_experiment() {
    let out = exp_all(&["--quick", "e03"]);
    assert!(out.status.success());
    assert_eq!(stdout(&out), rendered("e03"));
}

#[test]
fn no_id_runs_every_experiment_in_id_order() {
    let out = exp_all(&["--quick"]);
    assert!(out.status.success());
    let all: String = ALL.iter().map(|(id, _)| rendered(id)).collect();
    assert_eq!(stdout(&out), all);
}

#[test]
fn unknown_id_is_a_usage_error() {
    let out = exp_all(&["--quick", "e15"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing runs before the ids are checked");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment \"e15\"") && err.contains("usage: exp_all"), "{err}");
}

#[test]
fn micro_prints_every_cited_row_with_a_positive_time() {
    let out = exp_all(&["micro", "--quick"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for row in [
        "invariant_suite_one_state",
        "simulation_abstraction_one_state",
        "abstract_scheduler_steps/3",
        "abstract_scheduler_steps/5",
        "derived_state_snapshot",
        "to_trace_checker",
        "cause_checker",
        "obs_overhead/frame_path_bare",
        "obs_overhead/frame_path_instrumented",
        "obs_overhead/counter_inc",
        "obs_overhead/histogram_record",
        "obs_overhead/trace_record",
        "obs_overhead/counter_labeled_lookup",
    ] {
        let line = text
            .lines()
            .find(|l| l.split('|').nth(1).is_some_and(|cell| cell.trim() == row))
            .unwrap_or_else(|| panic!("no row {row} in:\n{text}"));
        let time = line.split('|').nth(3).expect("time column").trim();
        let (number, unit) = time.split_once(' ').expect("number and unit");
        assert!(["ns", "µs", "ms"].contains(&unit), "{row}: {time}");
        assert!(number.parse::<f64>().expect("a number") > 0.0, "{row}: {time}");
    }
}

#[test]
fn scenario_runs_the_stack_and_checks_its_traces() {
    let out = exp_all(&["scenario", "merge", "--n", "4", "--msgs", "5"]);
    assert!(out.status.success(), "checker violations: {}", stdout(&out));
    let text = stdout(&out);
    assert!(text.starts_with("scenario merge | n=4 "), "{text}");
    assert!(text.contains("TO-machine conformance: to-trace check: 5 bcast, 20 brcv, 0 violations"));
    let vs = text.lines().find(|l| l.starts_with("VS Lemma 4.2 conformance:")).expect("VS line");
    assert!(vs.ends_with(" 0 violations"), "{vs}");

    let out = exp_all(&["scenario", "no-such-scenario"]);
    assert_eq!(out.status.code(), Some(2));
}
