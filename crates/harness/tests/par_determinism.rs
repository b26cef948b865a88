//! Regression: the parallel seed fan-out must be invisible in the
//! results. For a fixed 16-seed set, the per-seed E5 (simulation
//! relation) and E6 (invariant suite) counts — and hence the aggregated
//! experiment tables — are bit-for-bit identical whether the seeds run
//! sequentially or sharded across any number of workers.

use gcs_core::adversary::SystemAdversary;
use gcs_harness::experiments::{e02, e03, e04, e05, e06, e07, e08, e09, e10, e11, e12, e13, e14};
use gcs_harness::Table;
use gcs_ioa::par_seeds_with;
use gcs_model::{Majority, QuorumSystem};
use std::sync::Arc;

const SEEDS: std::ops::Range<u64> = 0..16;

#[test]
fn e5_simulation_counts_identical_across_worker_counts() {
    let seeds: Vec<u64> = SEEDS.collect();
    let quorums: Arc<dyn QuorumSystem> = Arc::new(Majority::new(3));
    let adv = SystemAdversary::default();
    let f = |seed: u64| e05::seed_counts(3, &quorums, &adv, seed, 120);
    let sequential = par_seeds_with(&seeds, 1, f);
    assert!(sequential.iter().all(|&(checked, _)| checked > 0));
    for workers in [2, 5, 16] {
        assert_eq!(par_seeds_with(&seeds, workers, f), sequential, "{workers} workers");
    }
}

#[test]
fn e6_invariant_counts_identical_across_worker_counts() {
    let seeds: Vec<u64> = SEEDS.collect();
    let f = |seed: u64| e06::seed_counts(3, seed, 80);
    let sequential = par_seeds_with(&seeds, 1, f);
    assert!(sequential.iter().all(|counts| counts.iter().all(|&(checked, _)| checked > 0)));
    for workers in [2, 5, 16] {
        assert_eq!(par_seeds_with(&seeds, workers, f), sequential, "{workers} workers");
    }
}

/// E12's two variants (independent stacks with per-variant configs) must
/// produce byte-identical rows whether they run sequentially or sharded
/// across workers.
#[test]
fn e12_variant_rows_identical_across_worker_counts() {
    let which: Vec<u64> = vec![0, 1];
    let f = |w: u64| e12::variant_row(w, true);
    let sequential = par_seeds_with(&which, 1, f);
    assert_eq!(sequential.len(), 2);
    assert_eq!(sequential[0][3], "✓");
    assert_eq!(sequential[1][3], "✓");
    for workers in [2, 8] {
        assert_eq!(par_seeds_with(&which, workers, f), sequential, "{workers} workers");
    }
}

/// Every experiment whose row computation now fans out through
/// `par_seeds` must produce the same table on every run: parallelism may
/// change scheduling but never content or row order.
#[test]
fn parallel_experiment_tables_are_stable_across_runs() {
    type TableRun = fn(bool) -> Vec<Table>;
    let runs: &[(&str, TableRun)] = &[
        ("e02", e02::run),
        ("e03", e03::run),
        ("e04", e04::run),
        ("e07", e07::run),
        ("e08", e08::run),
        ("e09", e09::run),
        ("e10", e10::run),
        ("e11", e11::run),
        ("e12", e12::run),
        ("e13", e13::run),
        ("e14", e14::run),
    ];
    for (name, run) in runs {
        let first = run(true);
        let second = run(true);
        assert_eq!(first.len(), second.len(), "{name}: table count changed");
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.rows(), b.rows(), "{name}: rows differ between runs");
        }
    }
}
