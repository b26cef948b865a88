//! The invariants of Lemma 4.1 and Section 6.1, as executable predicates
//! over the global state of `VStoTO-system`.
//!
//! Each lemma of the paper's safety proof becomes a named check returning
//! `Err` with an explanation on violation. The experiment harness installs
//! all of them on randomly scheduled executions (experiment E6); a
//! transcription error in the algorithm of Figures 8–10 or the machine of
//! Figure 6 would surface here as a violation.
//!
//! Every check takes the state **and** a [`DerivedState`] snapshot, so the
//! derived variables (`allstate`, `allcontent`, `allconfirm`, the quorum
//! views) are computed once per state and shared across the whole suite
//! instead of being rebuilt inside each lemma.
//!
//! Notes on the handful of places where the paper's statement needs a
//! side condition to be checkable:
//!
//! - Lemma 6.16 is checked for summaries with `high ≠ ⊥`; for `high = ⊥`
//!   we check the (implicit) base fact that the tentative order is empty.
//! - Lemma 6.22(1) is checked for summaries with a nonempty confirmed
//!   prefix; the empty prefix carries no information (and the initial view
//!   `P₀` need not contain a quorum in general).
//! - Lemmas 6.18/6.19 quantify over all prefixes σ; we check the largest
//!   applicable σ (the longest common prefix of the relevant
//!   `buildorder`s), which implies the property for every shorter prefix.

use crate::derived::DerivedState;
use crate::msg::AppMsg;
use crate::system::SysState;
use crate::vstoto::ProcStatus;
use gcs_model::seq::{common_prefix, is_prefix};
use gcs_model::{Label, ProcId, ViewId};

/// A named invariant over the composed system state plus its derived-state
/// snapshot.
pub type Invariant = (&'static str, fn(&SysState, &DerivedState<'_>) -> Result<(), String>);

/// Every invariant in this module, in paper order.
pub fn all_invariants() -> Vec<Invariant> {
    vec![
        ("L4.1.1 unique view per id", lemma_4_1_1),
        ("L4.1.2-3 current view created, self inclusion", lemma_4_1_2_3),
        ("L4.1.4-6 pending implies created/known/monotone", lemma_4_1_4_6),
        ("L4.1.7-9 queue implies created/known/monotone", lemma_4_1_7_9),
        ("L4.1.10-12 next pointers within queue", lemma_4_1_10_12),
        ("L4.1.13-14 nonunit pointers only for members", lemma_4_1_13_14),
        ("L6.1 layer agreement on current view", lemma_6_1),
        ("L6.2 no exchange before a view is known", lemma_6_2),
        ("L6.3 labels match their residence view", lemma_6_3),
        ("L6.4 labels below the next label", lemma_6_4),
        ("L6.5 allcontent is a function", lemma_6_5),
        ("L6.6 buffered labels have content", lemma_6_6),
        ("L6.7 nothing from the future", lemma_6_7),
        ("L6.8 send status means nothing sent yet", lemma_6_8),
        ("L6.9 collect status freezes the summary", lemma_6_9),
        ("L6.10 established implies reached", lemma_6_10),
        ("L6.11 highprimary upper bounds", lemma_6_11),
        ("L6.12 summary high bounded by view", lemma_6_12),
        ("L6.13 established primaries persist in highprimary", lemma_6_13),
        ("L6.14 established primaries persist in summaries", lemma_6_14),
        ("L6.15 no self-high before establishment", lemma_6_15),
        ("L6.16 orders trace to an establisher", lemma_6_16),
        ("L6.17 establishment implies members reached", lemma_6_17),
        ("L6.18-19 established-primary prefixes propagate", lemma_6_18_19),
        ("L6.20 safe labels are ordered everywhere", lemma_6_20),
        ("L6.21 orders closed under sent-before", lemma_6_21),
        ("L6.22 confirms have quorum support", lemma_6_22),
        ("C6.23 confirm below ord across summaries", corollary_6_23),
        ("C6.24 confirms are consistent", corollary_6_24),
    ]
}

/// Checks every invariant against one shared snapshot, reporting the first
/// violation as `"name: explanation"`.
pub fn check_all(s: &SysState, d: &DerivedState<'_>) -> Result<(), String> {
    for (name, check) in all_invariants() {
        check(s, d).map_err(|e| format!("{name}: {e}"))?;
    }
    Ok(())
}

/// Installs the invariant suite on a runner for the composed system, as a
/// single check that builds the [`DerivedState`] snapshot once per state.
pub fn install_invariants<E>(runner: &mut gcs_ioa::Runner<crate::system::VsToToSystem, E>)
where
    E: gcs_ioa::Environment<crate::system::VsToToSystem>,
{
    runner.add_invariant("invariant suite", |s| {
        let d = DerivedState::new(s);
        check_all(s, &d)
    });
}

fn fail(msg: String) -> Result<(), String> {
    Err(msg)
}

// ---------------------------------------------------------------------
// Lemma 4.1 — VS-machine state invariants
// ---------------------------------------------------------------------

fn lemma_4_1_1(s: &SysState, _d: &DerivedState<'_>) -> Result<(), String> {
    let mut seen = std::collections::BTreeMap::new();
    for v in &s.vs.created {
        if let Some(other) = seen.insert(v.id, &v.set) {
            return fail(format!("view id {} created with sets {:?} and {:?}", v.id, other, v.set));
        }
    }
    Ok(())
}

fn lemma_4_1_2_3(s: &SysState, _d: &DerivedState<'_>) -> Result<(), String> {
    for (&p, cv) in &s.vs.current_viewid {
        if let Some(g) = cv {
            let Some(view) = s.vs.created_view(*g) else {
                return fail(format!("current-viewid[{p}] = {g} not created"));
            };
            if !view.contains(p) {
                return fail(format!("{p} not a member of its current view {g}"));
            }
        }
    }
    Ok(())
}

fn lemma_4_1_4_6(s: &SysState, d: &DerivedState<'_>) -> Result<(), String> {
    for ((p, g), pend) in &s.vs.pending {
        if pend.is_empty() {
            continue;
        }
        if !d.created_ids.contains(g) {
            return fail(format!("pending[{p},{g}] nonempty but {g} not created"));
        }
        match s.vs.current_viewid(*p) {
            None => return fail(format!("pending[{p},{g}] nonempty but current-viewid = ⊥")),
            Some(cur) if *g > cur => {
                return fail(format!("pending[{p},{g}] nonempty but current-viewid = {cur} < {g}"))
            }
            _ => {}
        }
    }
    Ok(())
}

fn lemma_4_1_7_9(s: &SysState, d: &DerivedState<'_>) -> Result<(), String> {
    for (g, queue) in &s.vs.queue {
        if queue.is_empty() {
            continue;
        }
        if !d.created_ids.contains(g) {
            return fail(format!("queue[{g}] nonempty but {g} not created"));
        }
        for (_, p) in queue {
            match s.vs.current_viewid(*p) {
                None => return fail(format!("⟨m,{p}⟩ in queue[{g}] but current-viewid = ⊥")),
                Some(cur) if *g > cur => {
                    return fail(format!("⟨m,{p}⟩ in queue[{g}] but current-viewid = {cur} < {g}"))
                }
                _ => {}
            }
        }
    }
    Ok(())
}

fn lemma_4_1_10_12(s: &SysState, _d: &DerivedState<'_>) -> Result<(), String> {
    for (&(p, g), &n) in &s.vs.next_map {
        let len = s.vs.queue_of(g).len() as u64;
        if n > len + 1 {
            return fail(format!("next[{p},{g}] = {n} > |queue|+1 = {}", len + 1));
        }
    }
    for (&(p, g), &ns) in &s.vs.next_safe_map {
        let len = s.vs.queue_of(g).len() as u64;
        if ns > len + 1 {
            return fail(format!("next-safe[{p},{g}] = {ns} > |queue|+1 = {}", len + 1));
        }
        if ns > s.vs.next(p, g) {
            return fail(format!("next-safe[{p},{g}] = {ns} > next = {}", s.vs.next(p, g)));
        }
    }
    Ok(())
}

fn lemma_4_1_13_14(s: &SysState, _d: &DerivedState<'_>) -> Result<(), String> {
    let check = |map: &std::collections::BTreeMap<(ProcId, ViewId), u64>,
                 name: &str|
     -> Result<(), String> {
        for (&(p, g), &n) in map {
            if n != 1 {
                if let Some(view) = s.vs.created_view(g) {
                    if !view.contains(p) {
                        return fail(format!("{name}[{p},{g}] = {n} but {p} ∉ membership"));
                    }
                }
            }
        }
        Ok(())
    };
    check(&s.vs.next_map, "next")?;
    check(&s.vs.next_safe_map, "next-safe")
}

// ---------------------------------------------------------------------
// Section 6.1 — invariants of the composed system
// ---------------------------------------------------------------------

fn lemma_6_1(s: &SysState, _d: &DerivedState<'_>) -> Result<(), String> {
    for (&p, proc) in &s.procs {
        let vs_cur = s.vs.current_viewid(p);
        match (&proc.current, vs_cur) {
            (None, None) => {}
            (Some(v), Some(g)) => {
                if v.id != g {
                    return fail(format!("current.id_{p} = {} but VS has {g}", v.id));
                }
                if !s.vs.created.contains(v) {
                    return fail(format!("current_{p} = {v} not in created"));
                }
            }
            (a, b) => {
                return fail(format!("⊥-disagreement at {p}: proc {a:?} vs VS {b:?}"));
            }
        }
    }
    Ok(())
}

fn lemma_6_2(s: &SysState, _d: &DerivedState<'_>) -> Result<(), String> {
    for (&p, proc) in &s.procs {
        if proc.current.is_none() && proc.status != ProcStatus::Normal {
            return fail(format!("{p} has status {:?} at ⊥", proc.status));
        }
    }
    Ok(())
}

fn lemma_6_3(s: &SysState, _d: &DerivedState<'_>) -> Result<(), String> {
    // Part 1: buffer labels carry the owner and its current view.
    for (&p, proc) in &s.procs {
        for l in &proc.buffer {
            let Some(cur) = proc.current_id() else {
                return fail(format!("{p} buffers {l} at ⊥"));
            };
            if l.origin != p || l.view != cur {
                return fail(format!("{p} buffers foreign/stale label {l} (current {cur})"));
            }
        }
    }
    // Parts 2–3: ordinary messages in pending/queue match sender and view.
    let check_val = |l: &Label, p: ProcId, g: ViewId, whr: &str| -> Result<(), String> {
        if l.origin != p || l.view != g {
            return fail(format!("label {l} from {p} in {whr}[{g}]"));
        }
        if s.procs[&p].current.is_none() {
            return fail(format!("label {l} in {whr} but {p} at ⊥"));
        }
        Ok(())
    };
    for ((p, g), pend) in &s.vs.pending {
        for m in pend {
            if let AppMsg::Val(l, _) = m {
                check_val(l, *p, *g, "pending")?;
            }
        }
    }
    for (g, queue) in &s.vs.queue {
        for (m, p) in queue {
            if let AppMsg::Val(l, _) = m {
                check_val(l, *p, *g, "queue")?;
            }
        }
    }
    Ok(())
}

fn lemma_6_4(s: &SysState, d: &DerivedState<'_>) -> Result<(), String> {
    let ac = d.allcontent.as_ref().map_err(|l| format!("allcontent not a function at {l}"))?;
    for l in ac.keys() {
        let proc = &s.procs[&l.origin];
        match proc.current_id() {
            None => {
                return fail(format!("{l} exists but origin {} is at ⊥", l.origin));
            }
            Some(cur) => {
                let bound = Label::new(cur, proc.nextseqno, l.origin);
                if *l >= bound {
                    return fail(format!("{l} ≥ next label {bound} of {}", l.origin));
                }
            }
        }
    }
    Ok(())
}

fn lemma_6_5(_s: &SysState, d: &DerivedState<'_>) -> Result<(), String> {
    d.allcontent.as_ref().map(|_| ()).map_err(|l| format!("two values for label {l}"))
}

fn lemma_6_6(s: &SysState, _d: &DerivedState<'_>) -> Result<(), String> {
    for (&p, proc) in &s.procs {
        for l in &proc.buffer {
            if !proc.content().contains_key(l) {
                return fail(format!("{p} buffers {l} without content"));
            }
        }
    }
    Ok(())
}

fn lemma_6_7(s: &SysState, d: &DerivedState<'_>) -> Result<(), String> {
    for (&p, proc) in &s.procs {
        for &g in &d.created_ids {
            let future = match proc.current_id() {
                None => true,
                Some(cur) => cur < g,
            };
            if !future {
                continue;
            }
            if !d.for_pg(p, g).is_empty() {
                return fail(format!("allstate[{p},{g}] nonempty before {p} reached {g}"));
            }
        }
        // Parts 5–6: no labels of a view the origin has not reached.
        for (_, _, x) in &d.entries {
            for l in x.con.keys() {
                if l.origin == p {
                    let reached = proc.current_id().is_some_and(|cur| cur >= l.view);
                    if !reached {
                        return fail(format!(
                            "label {l} exists but {p} has not reached {}",
                            l.view
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

fn lemma_6_8(s: &SysState, _d: &DerivedState<'_>) -> Result<(), String> {
    for (&p, proc) in &s.procs {
        if proc.status != ProcStatus::Send {
            continue;
        }
        let Some(g) = proc.current_id() else { continue };
        if s.vs.pending.get(&(p, g)).is_some_and(|q| !q.is_empty()) {
            return fail(format!("{p} in send status but pending[{p},{g}] nonempty"));
        }
        if s.vs.queue_of(g).iter().any(|(_, sender)| *sender == p) {
            return fail(format!("{p} in send status but queue[{g}] has its message"));
        }
        for (&q, other) in &s.procs {
            if other.current_id() == Some(g) && other.gotstate.contains_key(&p) {
                return fail(format!("{p} in send status but gotstate_{q} has its summary"));
            }
        }
    }
    Ok(())
}

fn lemma_6_9(s: &SysState, d: &DerivedState<'_>) -> Result<(), String> {
    for (&p, proc) in &s.procs {
        if proc.status != ProcStatus::Collect {
            continue;
        }
        let Some(g) = proc.current_id() else { continue };
        for (_, _, x) in d.for_pg(p, g) {
            if !x.con.keys().all(|l| proc.content().contains_key(&l)) {
                return fail(format!("collect at {p}: summary con ⊄ content"));
            }
            if x.ord != proc.order() {
                return fail(format!("collect at {p}: summary ord differs from order"));
            }
            if x.next != proc.nextconfirm {
                return fail(format!("collect at {p}: summary next differs"));
            }
            if x.high != proc.highprimary {
                return fail(format!("collect at {p}: summary high differs"));
            }
        }
    }
    Ok(())
}

fn lemma_6_10(s: &SysState, _d: &DerivedState<'_>) -> Result<(), String> {
    for &(p, g) in &s.established {
        match s.procs[&p].current_id() {
            None => return fail(format!("established[{p},{g}] but current = ⊥")),
            Some(cur) if cur < g => {
                return fail(format!("established[{p},{g}] but current {cur} < {g}"))
            }
            _ => {}
        }
    }
    for (&p, proc) in &s.procs {
        if let Some(cur) = proc.current_id() {
            let est = s.is_established(p, cur);
            let normal = proc.status == ProcStatus::Normal;
            if est != normal {
                return fail(format!(
                    "established[{p},{cur}] = {est} but status = {:?}",
                    proc.status
                ));
            }
        }
    }
    Ok(())
}

fn lemma_6_11(s: &SysState, _d: &DerivedState<'_>) -> Result<(), String> {
    for (&p, proc) in &s.procs {
        if let Some(cur) = proc.current_id() {
            let est = s.is_established(p, cur);
            if est && proc.primary() && proc.highprimary != Some(cur) {
                return fail(format!(
                    "{p} established primary {cur} but highprimary = {:?}",
                    proc.highprimary
                ));
            }
            if est && !proc.primary() && (proc.highprimary >= Some(cur)) {
                return fail(format!(
                    "{p} established non-primary {cur} but highprimary = {:?}",
                    proc.highprimary
                ));
            }
            if !est && (proc.highprimary >= Some(cur)) {
                return fail(format!(
                    "{p} not established in {cur} but highprimary = {:?}",
                    proc.highprimary
                ));
            }
            // Part 4: recorded summaries are strictly older than the view.
            for (q, x) in &proc.gotstate {
                if x.high >= Some(cur) {
                    return fail(format!(
                        "gotstate_{p}({q}).high = {:?} not below current {cur}",
                        x.high
                    ));
                }
            }
        }
    }
    // Parts 5–6: in-flight summaries are strictly older than their view.
    for (g, queue) in &s.vs.queue {
        for (m, q) in queue {
            if let AppMsg::Summary(x) = m {
                if x.high >= Some(*g) {
                    return fail(format!("queue[{g}] summary from {q} has high {:?}", x.high));
                }
            }
        }
    }
    for ((q, g), pend) in &s.vs.pending {
        for m in pend {
            if let AppMsg::Summary(x) = m {
                if x.high >= Some(*g) {
                    return fail(format!("pending[{q},{g}] summary has high {:?}", x.high));
                }
            }
        }
    }
    Ok(())
}

fn lemma_6_12(s: &SysState, d: &DerivedState<'_>) -> Result<(), String> {
    for &(p, g, x) in &d.entries {
        if x.high > Some(g) {
            return fail(format!("allstate[{p},{g}] has high {:?} > {g}", x.high));
        }
        if let Some(cur) = s.procs[&p].current_id() {
            if x.high > Some(cur) {
                return fail(format!("allstate[{p},{g}].high {:?} > current {cur}", x.high));
            }
        }
    }
    Ok(())
}

fn lemma_6_13(s: &SysState, d: &DerivedState<'_>) -> Result<(), String> {
    for v in &d.quorum_views {
        for (&p, proc) in &s.procs {
            if s.is_established(p, v.id)
                && proc.current_id().is_some_and(|cur| cur > v.id)
                && (proc.highprimary < Some(v.id))
            {
                return fail(format!(
                    "{p} established primary {} and moved on, but highprimary = {:?}",
                    v.id, proc.highprimary
                ));
            }
        }
    }
    Ok(())
}

fn lemma_6_14(s: &SysState, d: &DerivedState<'_>) -> Result<(), String> {
    for v in &d.quorum_views {
        for &p in s.procs.keys() {
            if !s.is_established(p, v.id) {
                continue;
            }
            for &(q, g, x) in &d.entries {
                if q == p && g > v.id && (x.high < Some(v.id)) {
                    return fail(format!(
                        "allstate[{p},{g}] has high {:?} < established primary {}",
                        x.high, v.id
                    ));
                }
            }
        }
    }
    Ok(())
}

fn lemma_6_15(s: &SysState, d: &DerivedState<'_>) -> Result<(), String> {
    for (&p, proc) in &s.procs {
        if let Some(g) = proc.current_id() {
            if !s.is_established(p, g) {
                for (_, _, x) in d.for_pg(p, g) {
                    if x.high == Some(g) {
                        return fail(format!(
                            "allstate[{p},{g}] has high = {g} before establishment"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

fn lemma_6_16(s: &SysState, d: &DerivedState<'_>) -> Result<(), String> {
    for &(p, g, x) in &d.entries {
        match x.high {
            None => {
                if !x.ord.is_empty() {
                    return fail(format!("allstate[{p},{g}] has high = ⊥ but nonempty ord"));
                }
            }
            Some(h) => {
                let Some(v) = s.vs.created_view(h) else {
                    return fail(format!("allstate[{p},{g}].high = {h} not created"));
                };
                let witness = v.set.iter().any(|&q| {
                    s.is_established(q, h)
                        && s.buildorder(q, h) == x.ord
                        && (h == g || s.procs[&q].current_id().is_some_and(|cur| cur > h))
                });
                if !witness {
                    return fail(format!(
                        "allstate[{p},{g}] (high {h}, |ord| {}) has no establishing witness",
                        x.ord.len()
                    ));
                }
            }
        }
    }
    Ok(())
}

fn lemma_6_17(s: &SysState, _d: &DerivedState<'_>) -> Result<(), String> {
    for v in &s.vs.created {
        let someone = s.procs.keys().any(|&p| s.is_established(p, v.id));
        if !someone {
            continue;
        }
        for &q in &v.set {
            if s.procs[&q].current_id().is_none_or(|cur| cur < v.id) {
                return fail(format!(
                    "{} established by someone but member {q} has not reached it",
                    v.id
                ));
            }
        }
    }
    Ok(())
}

fn lemma_6_18_19(s: &SysState, d: &DerivedState<'_>) -> Result<(), String> {
    for v in &d.quorum_views {
        // Corollary 6.19 instance: all members established v.
        if v.set.iter().all(|&p| s.is_established(p, v.id)) {
            let mut sigma: Option<Vec<Label>> = None;
            for &p in &v.set {
                let b = s.buildorder(p, v.id).to_vec();
                sigma = Some(match sigma {
                    None => b,
                    Some(acc) => common_prefix(&acc, &b),
                });
            }
            let sigma = sigma.unwrap_or_default();
            for &(p, g, x) in &d.entries {
                if x.high >= Some(v.id) && !is_prefix(&sigma, x.ord) {
                    return fail(format!(
                        "σ of established primary {} (len {}) not a prefix of \
                         allstate[{p},{g}].ord (high {:?})",
                        v.id,
                        sigma.len(),
                        x.high
                    ));
                }
            }
        }
        // Lemma 6.18 instance: members that moved past v all established it.
        let movers: Vec<ProcId> = v
            .set
            .iter()
            .copied()
            .filter(|&p| s.procs[&p].current_id().is_some_and(|cur| cur > v.id))
            .collect();
        if !movers.is_empty() && movers.iter().all(|&p| s.is_established(p, v.id)) {
            let mut sigma: Option<Vec<Label>> = None;
            for &p in &movers {
                let b = s.buildorder(p, v.id).to_vec();
                sigma = Some(match sigma {
                    None => b,
                    Some(acc) => common_prefix(&acc, &b),
                });
            }
            let sigma = sigma.unwrap_or_default();
            for &(p, g, x) in &d.entries {
                if x.high > Some(v.id) && !is_prefix(&sigma, x.ord) {
                    return fail(format!(
                        "σ of left primary {} (len {}) not a prefix of \
                         allstate[{p},{g}].ord (high {:?})",
                        v.id,
                        sigma.len(),
                        x.high
                    ));
                }
            }
        }
    }
    Ok(())
}

fn lemma_6_20(s: &SysState, _d: &DerivedState<'_>) -> Result<(), String> {
    for (&p, proc) in &s.procs {
        if proc.safe_labels.is_empty() {
            continue;
        }
        if !proc.primary() {
            return fail(format!("{p} has safe labels in a non-primary view"));
        }
        let view = proc.current.as_ref().expect("primary implies a view");
        for l in proc.safe_labels.iter() {
            let Some(idx) = proc.order().iter().position(|x| x == l) else {
                // A safe label not yet in the local order carries no prefix
                // obligation; confirm only fires for ordered labels.
                continue;
            };
            let sigma = &proc.order()[..=idx];
            for &q in &view.set {
                if !is_prefix(sigma, s.buildorder(q, view.id)) {
                    return fail(format!(
                        "safe label {l} at {p}: prefix (len {}) not in buildorder[{q},{}]",
                        sigma.len(),
                        view.id
                    ));
                }
            }
        }
    }
    Ok(())
}

fn lemma_6_21(_s: &SysState, d: &DerivedState<'_>) -> Result<(), String> {
    let ac = d.allcontent.as_ref().map_err(|l| format!("allcontent not a function at {l}"))?;
    let labels: Vec<Label> = ac.keys().copied().collect();
    for &(p, g, x) in &d.entries {
        let pos: std::collections::BTreeMap<Label, usize> =
            x.ord.iter().enumerate().map(|(i, l)| (*l, i)).collect();
        for (i_prime, l_prime) in x.ord.iter().enumerate() {
            for l in &labels {
                if l.origin == l_prime.origin && l < l_prime {
                    match pos.get(l) {
                        Some(&i) if i < i_prime => {}
                        _ => {
                            return fail(format!(
                                "allstate[{p},{g}].ord has {l_prime} without prior {l}"
                            ))
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

fn lemma_6_22(s: &SysState, d: &DerivedState<'_>) -> Result<(), String> {
    for &(p, g, x) in &d.entries {
        // Part 2.
        if x.next > x.ord.len() as u64 + 1 {
            return fail(format!(
                "allstate[{p},{g}].next = {} > |ord|+1 = {}",
                x.next,
                x.ord.len() + 1
            ));
        }
        // Part 1, for nonempty confirmed prefixes.
        let confirm = x.confirm();
        if confirm.is_empty() {
            continue;
        }
        let supported = d.quorum_views.iter().any(|v| {
            Some(v.id) <= x.high
                && v.set.iter().all(|&q| {
                    s.is_established(q, v.id) && is_prefix(confirm, s.buildorder(q, v.id))
                })
        });
        if !supported {
            return fail(format!(
                "allstate[{p},{g}].confirm (len {}) lacks quorum-view support",
                confirm.len()
            ));
        }
    }
    Ok(())
}

fn corollary_6_23(_s: &SysState, d: &DerivedState<'_>) -> Result<(), String> {
    for &(p1, g1, x1) in &d.entries {
        for &(p2, g2, x2) in &d.entries {
            if x1.high <= x2.high && !is_prefix(x1.confirm(), x2.ord) {
                return fail(format!(
                    "confirm of allstate[{p1},{g1}] not a prefix of allstate[{p2},{g2}].ord"
                ));
            }
        }
    }
    Ok(())
}

fn corollary_6_24(_s: &SysState, d: &DerivedState<'_>) -> Result<(), String> {
    match &d.allconfirm {
        Some(_) => Ok(()),
        None => fail("confirm prefixes are not pairwise consistent".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::SystemAdversary;
    use crate::system::VsToToSystem;
    use gcs_ioa::{Automaton, Runner};
    use gcs_model::Majority;
    use std::sync::Arc;

    fn system(n: u32) -> VsToToSystem {
        let procs = ProcId::range(n);
        VsToToSystem::new(procs.clone(), procs, Arc::new(Majority::new(n as usize)))
    }

    #[test]
    fn all_invariants_hold_on_initial_state() {
        let s = system(3).initial();
        let d = DerivedState::new(&s);
        for (name, check) in all_invariants() {
            check(&s, &d).unwrap_or_else(|e| panic!("{name} on initial state: {e}"));
        }
    }

    #[test]
    fn all_invariants_hold_under_random_churn() {
        for seed in 0..4 {
            let mut runner = Runner::new(system(3), SystemAdversary::default(), seed);
            install_invariants(&mut runner);
            runner.run(700).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn invariants_hold_with_non_majority_quorums() {
        use gcs_model::Explicit;
        let procs = ProcId::range(3);
        let q = Explicit::new(vec![
            [ProcId(0), ProcId(1)].into(),
            [ProcId(0), ProcId(2)].into(),
            [ProcId(1), ProcId(2)].into(),
        ])
        .unwrap();
        let sys = VsToToSystem::new(procs.clone(), procs, Arc::new(q));
        let mut runner = Runner::new(sys, SystemAdversary::default(), 99);
        install_invariants(&mut runner);
        runner.run(600).unwrap_or_else(|e| panic!("{e}"));
    }

    /// A deliberately corrupted state must be caught: claiming an
    /// establishment for a view the processor never reached violates
    /// Lemma 6.10.
    #[test]
    fn corrupted_state_is_detected() {
        let sys = system(3);
        let mut s = sys.initial();
        s.established.insert((ProcId(0), gcs_model::ViewId::new(9, ProcId(0))));
        let d = DerivedState::new(&s);
        assert!(lemma_6_10(&s, &d).is_err());
    }
}
