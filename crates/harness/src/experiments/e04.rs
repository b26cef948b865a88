//! E4 — `VS-property(b, d, Q)` (Figure 7) against the Section 8 bounds.
//!
//! Series over the group size *n* and the channel delay δ: after a
//! scripted partition isolates a group *Q*, the VS implementation must
//! converge to the view ⟨g, Q⟩ within `b = 9δ + max{π+(n+3)δ, μ}` and
//! make messages sent in that view safe within `d = 2π + nδ`. The series
//! shows the *shape* of the bounds: both grow linearly in n and δ, and
//! the measured values stay below them.

use crate::scenarios;
use crate::{row, Table};
use gcs_core::properties::{check_vs_property, PropertyParams};
use gcs_ioa::par_seeds;
use gcs_obs::BoundParams;

fn series_row(n: u32, left: u32, delta: u64, msgs: usize, seed: u64) -> Vec<String> {
    let sc = scenarios::partition(n, left, delta, msgs, seed);
    let nq = sc.q.len();
    let cfg = &sc.config.proto;
    let bp = BoundParams { n: nq as u32, delta_ms: cfg.delta, pi_ms: cfg.pi, mu_ms: cfg.mu };
    let (b, d) = (bp.b_ms(), bp.d_ms());
    let stack = sc.run();
    let r = check_vs_property(
        &stack.vs_obs(),
        &PropertyParams { b, d, q: sc.q.clone(), ambient: cfg.procs.clone() },
    );
    row![
        n,
        nq,
        delta,
        cfg.pi,
        cfg.mu,
        b,
        r.measured_l_prime,
        d,
        r.measured_d,
        r.resolved,
        if r.holds && r.applicable { "✓" } else { "✗" }
    ]
    .to_vec()
}

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let headers = [
        "n",
        "|Q|",
        "δ",
        "π",
        "μ",
        "bound b",
        "measured l'",
        "bound d",
        "measured d",
        "safe msgs",
        "holds",
    ];
    let msgs = if quick { 5 } else { 15 };

    let mut by_n =
        Table::new("E4a — VS-property vs Section 8 bounds, varying group size (δ = 5)", &headers);
    let sizes: &[(u32, u32)] =
        if quick { &[(3, 2), (5, 3)] } else { &[(3, 2), (5, 3), (7, 4), (9, 5)] };
    let idx: Vec<u64> = (0..sizes.len() as u64).collect();
    for cells in par_seeds(&idx, |i| {
        let (n, left) = sizes[i as usize];
        series_row(n, left, 5, msgs, 40 + n as u64)
    }) {
        by_n.row(&cells);
    }
    by_n.note("b and d grow linearly in n (π = 2nδ, μ = 4nδ scale with n here).");

    let mut by_delta = Table::new(
        "E4b — VS-property vs Section 8 bounds, varying channel delay (n = 5, |Q| = 3)",
        &headers,
    );
    let deltas: &[u64] = if quick { &[2, 10] } else { &[2, 5, 10, 20] };
    for cells in par_seeds(deltas, |delta| series_row(5, 3, delta, msgs, 60 + delta)) {
        by_delta.row(&cells);
    }
    by_delta.note("Both bounds and measurements scale linearly in δ.");

    vec![by_n, by_delta]
}

#[cfg(test)]
mod tests {
    #[test]
    fn vs_property_holds_quick() {
        for t in super::run(true) {
            for r in t.rows() {
                assert_eq!(r.last().unwrap(), "✓", "VS-property failed: {r:?}");
            }
        }
    }
}
