//! Workload-shape coverage over the implementation stack: bursty, skewed
//! and random arrival patterns all deliver completely, in one order, with
//! latency statistics that make sense.

use pgcs::apps::{Workload, WorkloadKind};
use pgcs::harness::{stack_stats, Stack, StackConfig, TraceStats};
use pgcs::spec::to_trace::check_to_trace;

fn run_workload(kind: WorkloadKind, count: usize, seed: u64) -> (Stack, TraceStats) {
    let n = 3u32;
    let mut stack = Stack::new(StackConfig::standard(n, 5, seed));
    let pi = stack.config().proto.pi;
    let w = Workload { kind, n, count, start: 4 * pi, mean_gap: 8, seed };
    let end = w.end_time();
    for (t, p, a) in w.schedule() {
        stack.schedule_value(t, p, a);
    }
    stack.run_until(end + 80 * pi);
    let stats = stack_stats(&stack);
    (stack, stats)
}

#[test]
fn every_workload_shape_delivers_completely() {
    for (kind, seed) in [
        (WorkloadKind::Uniform, 1u64),
        (WorkloadKind::Random, 2),
        (WorkloadKind::Bursty { burst: 7 }, 3),
        (WorkloadKind::Skewed, 4),
    ] {
        let count = 30;
        let (stack, stats) = run_workload(kind, count, seed);
        assert_eq!(stats.bcasts, count, "{kind:?}");
        assert_eq!(stats.brcvs, count * 3, "{kind:?}: incomplete delivery");
        assert_eq!(stats.delivery_latencies.len(), count, "{kind:?}");
        let to = check_to_trace(&stack.to_obs().untimed());
        assert!(to.ok(), "{kind:?}: {:?}", to.violations.first());
    }
}

#[test]
fn burst_traffic_rides_one_token_pass() {
    // A burst submitted back-to-back is picked up together: the spread of
    // its delivery latencies stays within roughly two token periods.
    let (_, stats) = run_workload(WorkloadKind::Bursty { burst: 10 }, 20, 9);
    let p100 = TraceStats::percentile(&stats.delivery_latencies, 100.0);
    let pi = 2 * 3 * 5; // standard π for n=3, δ=5
    assert!(p100 <= 4 * pi as u64, "worst-case burst latency {p100} exceeds 4π = {}", 4 * pi);
}

#[test]
fn stats_are_internally_consistent() {
    let (_, stats) = run_workload(WorkloadKind::Uniform, 25, 11);
    // First-delivery latency can never exceed full-delivery latency.
    let mean_first = TraceStats::mean(&stats.first_delivery_latencies);
    let mean_full = TraceStats::mean(&stats.delivery_latencies);
    assert!(mean_first <= mean_full, "{mean_first} > {mean_full}");
    assert_eq!(stats.newviews, 0);
    assert_eq!(stats.summaries_sent, 0, "no view change, no exchange");
}
