//! Partition and heal: the scenario the paper is about.
//!
//! Five processors split 3 | 2. The majority side keeps confirming new
//! values (its view is primary); the minority side installs its own view
//! but cannot confirm — its submissions wait. When the network heals, the
//! membership protocol merges the group, the `VStoTO` state exchange
//! reconciles the two histories, and the minority's values finally reach
//! every client, still in one agreed total order.
//!
//! Run with: `cargo run --example partition_heal`

use pgcs::harness::{Stack, StackConfig};
use pgcs::model::failure::FailureScript;
use pgcs::model::ProcId;
use pgcs::spec::to_trace::check_to_trace;
use std::collections::BTreeSet;

fn show_views(stack: &Stack, label: &str) {
    println!("{label}");
    for i in 0..5 {
        let p = ProcId(i);
        match stack.view_of(p) {
            Some(v) => println!("  {p}: view {v}, delivered {}", stack.delivered(p).len()),
            None => println!("  {p}: no view"),
        }
    }
}

fn main() {
    let mut stack = Stack::new(StackConfig::standard(5, 5, 7));
    let pi = stack.config().proto.pi;
    let ambient = ProcId::range(5);
    let majority = ProcId::range(3);
    let minority: BTreeSet<ProcId> = ambient.difference(&majority).copied().collect();

    let t_part = 8 * pi;
    let t_heal = t_part + 80 * pi;
    let mut script = FailureScript::new();
    script.partition(t_part, &[majority.clone(), minority.clone()], &ambient);
    script.heal(t_heal, &ambient);
    stack.load_failures(&script);

    // Traffic during the partition, from both sides.
    for i in 0..4u64 {
        stack.schedule_bcast(t_part + 100 + i * 50, ProcId(i as u32 % 3)); // majority
    }
    stack.schedule_bcast(t_part + 150, ProcId(3)); // minority
    stack.schedule_bcast(t_part + 250, ProcId(4)); // minority

    stack.run_until(t_part + 40 * pi);
    show_views(&stack, &format!("\nduring the partition (t={}):", stack.now()));
    let majority_count = stack.delivered(ProcId(0)).len();
    let minority_count = stack.delivered(ProcId(3)).len();
    println!(
        "\n  majority side confirmed {majority_count} values; \
         minority confirmed {minority_count} (no quorum → no primary view)"
    );
    assert_eq!(majority_count, 4);
    assert_eq!(minority_count, 0);

    stack.run_until(t_heal + 100 * pi);
    show_views(&stack, &format!("\nafter the heal (t={}):", stack.now()));
    for &p in &ambient {
        let v = stack.view_of(p).expect("view installed");
        assert_eq!(v.set, ambient, "everyone must converge to the full group");
    }

    // All six values are now delivered everywhere, identically ordered.
    let d0 = stack.delivered(ProcId(0)).to_vec();
    assert_eq!(d0.len(), 6, "reconciliation must recover the minority values");
    for i in 1..5 {
        assert_eq!(stack.delivered(ProcId(i)), &d0[..]);
    }
    println!("\nfinal agreed order:");
    for (src, v) in &d0 {
        println!("  {src} → {v:?}");
    }

    let report = check_to_trace(&stack.to_obs().untimed());
    assert!(report.ok(), "{:?}", report.violations.first());
    println!("\npartition_heal OK: {report}");
}
