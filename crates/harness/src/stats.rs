//! Trace statistics: aggregate metrics extracted from a recorded
//! implementation trace, shared by the experiments.

use gcs_core::msg::AppMsg;
use gcs_ioa::{TimedTrace, TraceEvent};
#[cfg(test)]
use gcs_model::ProcId;
use gcs_model::{Time, Value};
use gcs_vsimpl::ImplEvent;
use std::collections::BTreeMap;

/// Aggregate metrics of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceStats {
    /// Client submissions.
    pub bcasts: usize,
    /// Client deliveries (across all processors).
    pub brcvs: usize,
    /// View installations.
    pub newviews: usize,
    /// Distinct views installed anywhere.
    pub distinct_views: usize,
    /// Group messages delivered (`gprcv`).
    pub gprcvs: usize,
    /// Safe indications.
    pub safes: usize,
    /// State-exchange summaries sent.
    pub summaries_sent: usize,
    /// Total labels carried in state-exchange summaries.
    pub summary_payload: usize,
    /// Per-value full-delivery latency (bcast → last brcv), for values
    /// delivered to every processor that delivered anything.
    pub delivery_latencies: Vec<Time>,
    /// bcast → first brcv anywhere, per delivered value.
    pub first_delivery_latencies: Vec<Time>,
}

impl TraceStats {
    /// Computes the statistics of a trace. `n` is the processor count
    /// (full delivery = delivery at all `n`).
    pub fn from_trace(trace: &TimedTrace<TraceEvent<ImplEvent>>, n: u32) -> Self {
        let mut s = TraceStats::default();
        let mut views = std::collections::BTreeSet::new();
        let mut sent: BTreeMap<Value, Time> = BTreeMap::new();
        let mut first: BTreeMap<Value, Time> = BTreeMap::new();
        let mut last: BTreeMap<Value, Time> = BTreeMap::new();
        let mut count: BTreeMap<Value, u32> = BTreeMap::new();
        for ev in trace.events() {
            match &ev.action {
                TraceEvent::App(ImplEvent::Bcast { a, .. }) => {
                    s.bcasts += 1;
                    sent.insert(a.clone(), ev.time);
                }
                TraceEvent::App(ImplEvent::Brcv { a, .. }) => {
                    s.brcvs += 1;
                    first.entry(a.clone()).or_insert(ev.time);
                    last.insert(a.clone(), ev.time);
                    *count.entry(a.clone()).or_insert(0) += 1;
                }
                TraceEvent::App(ImplEvent::NewView { v, .. }) => {
                    s.newviews += 1;
                    views.insert(v.id);
                }
                TraceEvent::App(ImplEvent::GpRcv { .. }) => s.gprcvs += 1,
                TraceEvent::App(ImplEvent::Safe { .. }) => s.safes += 1,
                TraceEvent::App(ImplEvent::GpSnd { m: AppMsg::Summary(x), .. }) => {
                    s.summaries_sent += 1;
                    s.summary_payload += x.con.len();
                }
                _ => {}
            }
        }
        s.distinct_views = views.len() + 1; // plus the initial view
        for (a, &t0) in &sent {
            if let Some(&tf) = first.get(a) {
                s.first_delivery_latencies.push(tf.saturating_sub(t0));
            }
            if count.get(a) == Some(&n) {
                s.delivery_latencies.push(last[a].saturating_sub(t0));
            }
        }
        s
    }

    /// Mean of a latency series (0 when empty).
    pub fn mean(series: &[Time]) -> f64 {
        if series.is_empty() {
            0.0
        } else {
            series.iter().sum::<Time>() as f64 / series.len() as f64
        }
    }

    /// A percentile (nearest-rank) of a latency series (0 when empty).
    pub fn percentile(series: &[Time], p: f64) -> Time {
        if series.is_empty() {
            return 0;
        }
        let mut sorted = series.to_vec();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }
}

/// Convenience over a [`crate::Stack`] after a run.
pub fn stack_stats(stack: &crate::Stack) -> TraceStats {
    TraceStats::from_trace(stack.trace(), stack.config().n())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Stack, StackConfig};

    #[test]
    fn stats_of_a_stable_run() {
        let mut stack = Stack::new(StackConfig::standard(3, 5, 3));
        let pi = stack.config().proto.pi;
        for i in 0..5u64 {
            stack.schedule_bcast(4 * pi + i * 10, ProcId((i % 3) as u32));
        }
        stack.run_until(4 * pi + 60 * pi);
        let s = stack_stats(&stack);
        assert_eq!(s.bcasts, 5);
        assert_eq!(s.brcvs, 15);
        assert_eq!(s.newviews, 0, "stable run installs no views");
        assert_eq!(s.distinct_views, 1);
        assert_eq!(s.delivery_latencies.len(), 5);
        assert!(TraceStats::mean(&s.delivery_latencies) > 0.0);
        assert!(
            TraceStats::percentile(&s.delivery_latencies, 100.0)
                >= TraceStats::percentile(&s.delivery_latencies, 50.0)
        );
    }

    #[test]
    fn percentile_nearest_rank() {
        let series = vec![10, 20, 30, 40];
        assert_eq!(TraceStats::percentile(&series, 50.0), 20);
        assert_eq!(TraceStats::percentile(&series, 100.0), 40);
        assert_eq!(TraceStats::percentile(&series, 1.0), 10);
        assert_eq!(TraceStats::percentile(&[], 50.0), 0);
    }
}
