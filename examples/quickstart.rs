//! Quickstart: totally ordered broadcast among three processors.
//!
//! Builds the full stack (VStoTO over the token-ring VS service over the
//! simulated network), broadcasts a handful of values from different
//! processors, and shows that every client receives the same total order
//! — then verifies the run against the `TO-machine` and `VS-machine`
//! trace checkers.
//!
//! Run with: `cargo run --example quickstart`

use pgcs::harness::{Stack, StackConfig};
use pgcs::model::ProcId;
use pgcs::spec::cause::check_trace;
use pgcs::spec::to_trace::check_to_trace;

fn main() {
    // Three processors, channel delay δ = 5 ticks, seeded determinism.
    let mut stack = Stack::new(StackConfig::standard(3, 5, 42));
    let t0 = 4 * stack.config().proto.pi;

    println!("submitting 6 values from alternating processors…");
    for i in 0..6u64 {
        let p = ProcId((i % 3) as u32);
        let v = stack.schedule_bcast(t0 + i * 10, p);
        println!("  t={:<4} bcast({v:?}) at {p}", t0 + i * 10);
    }

    stack.run_until(t0 + 2_000);

    println!("\ndelivered sequences (src, value):");
    for i in 0..3 {
        let p = ProcId(i);
        println!("  {p}: {:?}", stack.delivered(p));
    }

    let d0 = stack.delivered(ProcId(0)).to_vec();
    assert_eq!(d0.len(), 6, "all six values must be delivered");
    for i in 1..3 {
        assert_eq!(stack.delivered(ProcId(i)), &d0[..], "total order must agree");
    }

    // Verify the run against the paper's specifications.
    let to_report = check_to_trace(&stack.to_obs().untimed());
    println!("\nTO-machine conformance: {to_report}");
    assert!(to_report.ok());

    let vs_report = check_trace(&stack.vs_actions(), &ProcId::range(3));
    println!("VS Lemma 4.2 conformance: {vs_report}");
    assert!(vs_report.ok());

    println!("\nquickstart OK: one agreed total order, both specifications satisfied.");
}
