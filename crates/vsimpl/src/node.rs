//! The VS service node: Cristian–Schmuck membership plus the token ring
//! (Section 8), as a [`gcs_ioa::Process`].

use crate::detector::{AdaptiveDetector, DetectorPolicy};
use crate::timed_vstoto::{ClientEffects, VsClient};
use crate::wire::{ImplEvent, Token, TokenMsg, Wire};
use gcs_ioa::{Context, Process};
use gcs_model::{ProcId, Time, Value, View, ViewId};
use std::collections::{BTreeMap, BTreeSet};

/// Which membership protocol to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MembershipMode {
    /// The 3-round protocol of Section 8: call → accept → join.
    ThreeRound,
    /// The 1-round variant (footnote 7): the initiator announces a
    /// membership built from recently heard-from processors, with no
    /// call/accept exchange. Forms views faster but from staler
    /// information, so it stabilizes less quickly.
    OneRound,
}

/// Protocol parameters.
#[derive(Clone, Debug)]
pub struct ProtoConfig {
    /// The ambient processor set *P*.
    pub procs: BTreeSet<ProcId>,
    /// The initial membership *P₀* (these processors start in *v₀*).
    pub p0: BTreeSet<ProcId>,
    /// The (maximum) good-channel delay δ; must match the network config.
    pub delta: Time,
    /// The token launch period π (must exceed `n·δ`).
    pub pi: Time,
    /// The merge-probe period μ.
    pub mu: Time,
    /// Membership protocol variant.
    pub mode: MembershipMode,
    /// Totem-style *safe delivery* (ablation E9, cf. introduction
    /// difference #5): when true, a message is delivered to the client
    /// only once every member is known to have received it, so the
    /// `gprcv` and `safe` indications coincide; when false (the paper's
    /// VS), delivery happens as soon as the token brings the message and
    /// the safe indication follows separately.
    pub safe_delivery: bool,
    /// Failure-detection policy: the paper's fixed `π + (n+3)δ` token
    /// timeout, or the adaptive accrual detector whose timeout tracks
    /// measured inter-arrival gaps (see [`crate::detector`]). Fixed is
    /// the default and keeps wire behavior byte-identical.
    pub detector: DetectorPolicy,
}

impl ProtoConfig {
    /// A sensible configuration for `n` processors all starting in the
    /// group, with the given δ: `π = 2nδ`, `μ = 4nδ`.
    pub fn standard(n: u32, delta: Time) -> Self {
        let procs = ProcId::range(n);
        ProtoConfig {
            p0: procs.clone(),
            procs,
            delta,
            pi: 2 * n as Time * delta,
            mu: 4 * n as Time * delta,
            mode: MembershipMode::ThreeRound,
            safe_delivery: false,
            detector: DetectorPolicy::Fixed,
        }
    }
}

/// Maximum number of token rounds the leader keeps in flight at once, so
/// newly sequenced batches ship without waiting for the previous
/// rotation to complete.
const PIPELINE_DEPTH: u64 = 4;

// Timer kinds: low 3 bits tag, rest the install generation (the
// formation deadline timer carries the formation attempt instead).
const TAG_PROBE: u64 = 0;
const TAG_TOKEN: u64 = 1;
const TAG_LAUNCH: u64 = 2;
const TAG_FORM: u64 = 3;
const TAG_MASK: u64 = 0b111;

/// Upper bound on entries a member will hold from rounds that overtook a
/// gap. At most [`PIPELINE_DEPTH`] rounds are ever in flight, so a healthy ring
/// never comes close; the cap only guards memory against a hostile peer.
const STASH_MAX: usize = 4096;

fn timer_kind(tag: u64, gen: u64) -> u64 {
    tag | (gen << 3)
}

/// The two indications the VS service gives its client about a log entry.
#[derive(Clone, Copy)]
enum Indication {
    GpRcv,
    Safe,
}

/// The VS service node hosting a [`VsClient`] (usually the
/// [`crate::TimedVsToTo`] layer).
pub struct VsNode<C> {
    id: ProcId,
    cfg: ProtoConfig,
    client: C,
    // --- membership state ---
    view: Option<View>,
    /// Bumped at every install; timers carry the generation they were set
    /// in and stale ones are ignored.
    gen: u64,
    /// Highest view identifier ever seen anywhere.
    max_seen: ViewId,
    /// Highest view identifier accepted (replied to, or installed).
    accepted: ViewId,
    /// In-progress formation: proposed id and responders so far.
    forming: Option<(ViewId, BTreeSet<ProcId>)>,
    /// Bumped at every formation attempt; the formation deadline timer
    /// carries the attempt it was set for. The view generation is not
    /// enough: a superseded attempt leaves its timer pending, and if a
    /// fresh attempt starts before it fires (no install in between, so
    /// `gen` is unchanged), the stale timer would close the new
    /// attempt's accept window after ~1 ms and install a spurious
    /// near-singleton view.
    form_seq: u64,
    last_form: Option<Time>,
    /// Last time each processor was heard from (any packet).
    heard: BTreeMap<ProcId, Time>,
    // --- token state (per current view) ---
    out_buf: Vec<TokenMsg>,
    /// A member's sends a token has taken (in round `offered_round`) and
    /// that have not come back sequenced yet. A token lost on its way to
    /// the leader takes its `collect` with it while later rounds keep
    /// the view alive, and the leader's per-source `seq_mids` filter
    /// would turn a later batch sequenced past the lost one into a gap
    /// in this sender's stream. So there is one batch per source on the
    /// ring at a time: newer sends wait in `out_buf` until this one
    /// shows up in the log, and the batch is offered again once a round
    /// visits that the leader can only have launched after giving up on
    /// the round that took it.
    offered: Vec<TokenMsg>,
    offered_round: u64,
    /// Retained suffix of the per-view total order: `log[0]` sits at
    /// absolute sequence position `log_start`. The prefix below the
    /// token's `acked` cursor has been delivered and reported safe
    /// everywhere and is discarded.
    log: std::collections::VecDeque<TokenMsg>,
    log_start: u64,
    /// Absolute cursors into the total order (client delivery and safe
    /// indication respectively); receipt is `log_start + log.len()`.
    delivered_count: u64,
    safe_count: u64,
    /// Tokens for a view above the current one, held until that view is
    /// installed (several can race ahead of a join when pipelined).
    /// Tokens arrive already boxed inside `Wire::Token`; keeping the box
    /// means holding and later replaying one is a pointer move.
    #[allow(clippy::vec_box)]
    pending_tokens: Vec<Box<Token>>,
    /// Entries from rounds that arrived ahead of a gap (links may
    /// reorder), keyed by absolute sequence position; spliced into the
    /// log as soon as the missing prefix shows up.
    stash: BTreeMap<u64, TokenMsg>,
    last_token: Time,
    mid_counter: u64,
    /// A round request (see [`VsNode::request_round`]) has been sent
    /// since the last token visit; the next visit takes whatever has
    /// accumulated, so a second request would buy nothing.
    asked: bool,
    // --- leader state (meaningful only while leading the current view) ---
    /// Round number of the next launch (rounds start at 1 per view).
    next_round: u64,
    /// Highest round that has completed its rotation.
    last_returned: u64,
    /// Absolute sequence position up to which entries have been shipped.
    sent_high: u64,
    /// Ack cursor: launch-time safe prefix of the last returned round.
    acked: u64,
    /// Latest per-member receipt counts (entrywise max over returns).
    last_counts: BTreeMap<ProcId, u64>,
    /// Launch records `(round, safe prefix at launch)`: when round r
    /// returns, every member has processed r and therefore reported safe
    /// at least r's launch prefix, which then becomes the ack cursor.
    launch_sps: std::collections::VecDeque<(u64, u64)>,
    /// A member asked for a round that has not been launched yet (the
    /// pipeline was full); honoured at the next return, cleared by the
    /// next launch.
    round_wanted: bool,
    /// Per-source high-water message ids already sequenced from token
    /// `collect` fields; mids are strictly increasing per source, so
    /// this deduplicates pickups carried by duplicated tokens.
    seq_mids: BTreeMap<ProcId, u64>,
    /// Accrual detector state (`Some` only under
    /// [`DetectorPolicy::Adaptive`]). Volatile, like the heard-from map:
    /// a recovered incarnation re-learns the network from scratch.
    detector: Option<AdaptiveDetector>,
}

/// The part of a node's state assumed to live on stable storage, for
/// crash/recovery: the highest view identifiers ever seen or agreed to
/// (so a recovered node never proposes or installs below something its
/// previous incarnation committed to — which would violate view
/// monotonicity), the message-identifier counter (so recovered `gpsnd`s
/// never reuse a mid), and the client layer itself (the `VStoTO` state
/// holding everything the TO client has been shown — re-delivering it
/// after a restart would violate TO's no-duplication).
///
/// Everything else — the installed view, the token, in-progress
/// formations, out-buffered messages, who was heard from when — is
/// volatile and lost in a crash; the membership protocol rebuilds it.
#[derive(Clone, Debug)]
pub struct StableState<C> {
    /// Highest view identifier ever seen anywhere.
    pub max_seen: ViewId,
    /// Highest view identifier accepted (replied to, or installed).
    pub accepted: ViewId,
    /// The message-identifier counter.
    pub mid_counter: u64,
    /// The hosted client layer (e.g. [`crate::TimedVsToTo`]).
    pub client: C,
}

impl<C: VsClient> VsNode<C> {
    /// Creates the node for processor `id` hosting `client`.
    pub fn new(id: ProcId, cfg: ProtoConfig, client: C) -> Self {
        assert!(cfg.procs.contains(&id), "{id} not in the ambient set");
        assert!(cfg.pi > cfg.procs.len() as Time * cfg.delta, "token period π must exceed n·δ");
        let in_p0 = cfg.p0.contains(&id);
        let view = in_p0.then(|| View::initial(cfg.p0.clone()));
        let detector = (cfg.detector == DetectorPolicy::Adaptive).then(AdaptiveDetector::default);
        VsNode {
            id,
            cfg,
            client,
            view,
            gen: 0,
            max_seen: ViewId::initial(),
            accepted: ViewId::initial(),
            forming: None,
            form_seq: 0,
            last_form: None,
            heard: BTreeMap::new(),
            out_buf: Vec::new(),
            offered: Vec::new(),
            offered_round: 0,
            log: std::collections::VecDeque::new(),
            log_start: 0,
            delivered_count: 0,
            safe_count: 0,
            pending_tokens: Vec::new(),
            stash: BTreeMap::new(),
            last_token: 0,
            mid_counter: 0,
            asked: false,
            next_round: 1,
            last_returned: 0,
            sent_high: 0,
            acked: 0,
            last_counts: BTreeMap::new(),
            launch_sps: std::collections::VecDeque::new(),
            round_wanted: false,
            seq_mids: BTreeMap::new(),
            detector,
        }
    }

    /// Snapshots the stable-storage portion of the state (see
    /// [`StableState`]). A crash may be modeled by dropping the node and
    /// later passing this snapshot to [`VsNode::recover`].
    pub fn stable_state(&self) -> StableState<C>
    where
        C: Clone,
    {
        StableState {
            max_seen: self.max_seen,
            accepted: self.accepted,
            mid_counter: self.mid_counter,
            client: self.client.clone(),
        }
    }

    /// Reconstructs a node from stable storage after a crash. The
    /// recovered node starts with **no installed view** (its previous
    /// view's volatile state — token, buffers, formation — is gone); it
    /// rejoins via the normal probe/call/join path, and because
    /// `max_seen`/`accepted` survived, every view it subsequently
    /// installs is above anything its previous incarnation committed to.
    pub fn recover(id: ProcId, cfg: ProtoConfig, stable: StableState<C>) -> Self {
        VsNode {
            view: None,
            max_seen: stable.max_seen,
            accepted: stable.accepted,
            mid_counter: stable.mid_counter,
            ..Self::new(id, cfg, stable.client)
        }
    }

    /// The hosted client.
    pub fn client(&self) -> &C {
        &self.client
    }

    /// The currently installed view, if any.
    pub fn current_view(&self) -> Option<&View> {
        self.view.as_ref()
    }

    fn current_id(&self) -> Option<ViewId> {
        self.view.as_ref().map(|v| v.id)
    }

    fn is_leader(&self) -> bool {
        self.view.as_ref().and_then(|v| v.leader()) == Some(self.id)
    }

    /// The paper's fixed token-loss deadline `π + (n+3)δ` (stagger
    /// excluded): π between launches plus up to (n+3)δ in flight.
    fn fixed_token_deadline(&self) -> Time {
        let n = self.view.as_ref().map(|v| v.size()).unwrap_or(1) as Time;
        self.cfg.pi + (n + 3) * self.cfg.delta
    }

    fn token_timeout(&self) -> Time {
        let fixed = self.fixed_token_deadline();
        // Under the adaptive policy the deadline tracks the measured
        // token inter-arrival tail, clamped to [fixed, cap × fixed]; a
        // cold detector behaves exactly like the fixed one.
        let core = match &self.detector {
            Some(d) => d.token_timeout(fixed),
            None => fixed,
        };
        // Per-id stagger so simultaneous expiry does not cause call
        // storms.
        core + self.id.0 as Time
    }

    /// The effective channel-delay bound δ̂ the current detection
    /// deadline implies, for the gcs-obs monitors; `None` under the
    /// fixed policy (the configured bounds apply unchanged).
    pub fn detector_bounds(&self) -> Option<Time> {
        let d = self.detector.as_ref()?;
        let n = self.view.as_ref().map(|v| v.size()).unwrap_or(1) as u32;
        Some(d.delta_hat(self.fixed_token_deadline(), self.cfg.pi, n, self.cfg.delta))
    }

    fn next_mid(&mut self) -> u64 {
        self.mid_counter += 1;
        ((self.id.0 as u64) << 40) | self.mid_counter
    }

    fn queue_effects(&mut self, effects: ClientEffects, ctx: &mut Context<'_, Wire, ImplEvent>) {
        for m in effects.gpsnd {
            // A send while no view is installed is ignored, matching
            // VS-machine's treatment of gpsnd at ⊥ — but the event is
            // still emitted so traces reflect the attempt.
            let mid = self.next_mid();
            ctx.emit(ImplEvent::GpSnd { p: self.id, mid, m: m.clone() });
            if self.view.is_some() {
                self.out_buf.push(TokenMsg { src: self.id, mid, msg: m });
            }
        }
        for (src, a) in effects.brcv {
            ctx.emit(ImplEvent::Brcv { src, dst: self.id, a });
        }
    }

    // ----------------------------------------------------------------
    // Membership
    // ----------------------------------------------------------------

    fn trigger_formation(&mut self, ctx: &mut Context<'_, Wire, ImplEvent>) {
        self.last_form = Some(ctx.now());
        let base =
            self.max_seen.max(self.accepted).max(self.current_id().unwrap_or_else(ViewId::initial));
        let vid = base.successor(self.id);
        self.max_seen = vid;
        match self.cfg.mode {
            MembershipMode::ThreeRound => {
                self.accepted = vid;
                self.forming = Some((vid, [self.id].into()));
                self.form_seq += 1;
                for &q in &self.cfg.procs.clone() {
                    if q != self.id {
                        ctx.send(q, Wire::Call { viewid: vid });
                    }
                }
                // Strictly more than the 2δ round trip: with the
                // deterministic simulator a call + accept can take exactly
                // 2δ, and the deadline must not tie with (and beat) the
                // last accept's delivery. Keyed by the attempt, not the
                // view generation: a timer left over from a superseded
                // attempt must not close this attempt's accept window.
                ctx.set_timer(2 * self.cfg.delta + 1, timer_kind(TAG_FORM, self.form_seq));
            }
            MembershipMode::OneRound => {
                let horizon = ctx.now().saturating_sub(2 * self.cfg.mu);
                let members: BTreeSet<ProcId> = self
                    .cfg
                    .procs
                    .iter()
                    .copied()
                    .filter(|&q| q == self.id || self.heard.get(&q).is_some_and(|&t| t >= horizon))
                    .collect();
                self.accepted = vid;
                self.install_and_announce(View::new(vid, members), ctx);
            }
        }
    }

    fn install_and_announce(&mut self, v: View, ctx: &mut Context<'_, Wire, ImplEvent>) {
        for &q in &v.set {
            if q != self.id {
                ctx.send(q, Wire::Join { view: v.clone() });
            }
        }
        self.install(v, ctx);
    }

    fn install(&mut self, v: View, ctx: &mut Context<'_, Wire, ImplEvent>) {
        debug_assert!(v.set.contains(&self.id));
        self.gen += 1;
        self.max_seen = self.max_seen.max(v.id);
        self.accepted = self.accepted.max(v.id);
        self.view = Some(v.clone());
        self.forming = None;
        self.out_buf.clear();
        self.offered.clear();
        self.log.clear();
        self.log_start = 0;
        self.delivered_count = 0;
        self.safe_count = 0;
        self.stash.clear();
        self.asked = false;
        self.last_token = ctx.now();
        if let Some(d) = &mut self.detector {
            // Formation time is not an inter-arrival gap: re-anchor so
            // the estimator only ever sees in-view token pacing.
            d.reanchor_token(ctx.now());
        }
        self.next_round = 1;
        self.last_returned = 0;
        self.sent_high = 0;
        self.acked = 0;
        self.last_counts = v.set.iter().map(|&p| (p, 0)).collect();
        self.launch_sps.clear();
        self.round_wanted = false;
        self.seq_mids.clear();
        ctx.emit(ImplEvent::NewView { p: self.id, v: v.clone() });
        let mut effects = ClientEffects::default();
        self.client.on_newview(&v, &mut effects);
        self.queue_effects(effects, ctx);
        if self.is_leader() {
            // Launch promptly on installation, then pace by π.
            ctx.set_timer(0, timer_kind(TAG_LAUNCH, self.gen));
        }
        ctx.set_timer(self.token_timeout(), timer_kind(TAG_TOKEN, self.gen));
        // Tokens that raced ahead of our join can be processed now, in
        // arrival (= round) order.
        let pending = std::mem::take(&mut self.pending_tokens);
        for tok in pending {
            if Some(tok.view) == self.current_id() {
                self.process_token(tok, ctx);
            }
        }
        // The view-change sends `on_newview` queued are pending now.
        self.request_round(ctx);
    }

    // ----------------------------------------------------------------
    // Token (batched, pipelined: the leader sequences, rounds ship
    // deltas, members collect and acknowledge)
    // ----------------------------------------------------------------

    fn log_end(&self) -> u64 {
        self.log_start + self.log.len() as u64
    }

    /// Discards retained log entries below `acked`. Clamped to what has
    /// already been delivered *and* reported safe locally, so a hostile
    /// or corrupted ack cursor can never discard undelivered entries
    /// (which would break the delivery cursors' indexing).
    fn prune_log(&mut self, acked: u64) {
        let limit = acked.min(self.safe_count).min(self.delivered_count);
        while self.log_start < limit {
            self.log.pop_front();
            self.log_start += 1;
        }
    }

    /// Hands log entries to the client, as `gprcv` or as `safe`
    /// indications, from that indication's cursor up to absolute position
    /// `target` (callers keep `target ≤ log_end`). The entry stays in the
    /// log and is only borrowed: the one clone per indication is the
    /// message copy the emitted event owns.
    fn indicate(
        &mut self,
        kind: Indication,
        target: u64,
        ctx: &mut Context<'_, Wire, ImplEvent>,
    ) -> bool {
        let mut progressed = false;
        loop {
            let cursor = match kind {
                Indication::GpRcv => &mut self.delivered_count,
                Indication::Safe => &mut self.safe_count,
            };
            if *cursor >= target {
                break;
            }
            let tm = &self.log[(*cursor - self.log_start) as usize];
            *cursor += 1;
            let (src, dst, mid, m) = (tm.src, self.id, tm.mid, tm.msg.clone());
            let mut effects = ClientEffects::default();
            match kind {
                Indication::GpRcv => {
                    ctx.emit(ImplEvent::GpRcv { src, dst, mid, m });
                    self.client.on_gprcv(src, &tm.msg, &mut effects);
                }
                Indication::Safe => {
                    ctx.emit(ImplEvent::Safe { src, dst, mid, m });
                    self.client.on_safe(src, &tm.msg, &mut effects);
                }
            }
            self.queue_effects(effects, ctx);
            progressed = true;
        }
        progressed
    }

    /// Runs client delivery and safe indication given the safe prefix
    /// `sp` (callers keep `sp ≤ log_end`). Under safe delivery the
    /// client sees a message only once it is safe; otherwise delivery
    /// runs ahead to everything received and safe follows separately.
    fn advance_client(&mut self, sp: u64, ctx: &mut Context<'_, Wire, ImplEvent>) -> bool {
        let deliver_to = if self.cfg.safe_delivery { sp } else { self.log_end() };
        let delivered = self.indicate(Indication::GpRcv, deliver_to, ctx);
        let reported_safe = self.indicate(Indication::Safe, sp, ctx);
        delivered || reported_safe
    }

    /// Asks the leader for a round, if this member has sends pending and
    /// has not asked since a token last visited it. The request is a
    /// `Token` frame with `round: 0` (launched rounds start at 1) and
    /// nothing else in it: the pending entries still ride the next
    /// token's `collect`, so each source has one carrier and the
    /// leader's per-source `seq_mids` high-water filter can never
    /// discard a batch that a faster path overtook. It is a hint to do
    /// now what the π heartbeat would do anyway: lost, duplicated, stale
    /// or forged, it costs one π of waiting or one empty rotation.
    fn request_round(&mut self, ctx: &mut Context<'_, Wire, ImplEvent>) {
        // While a batch is on the ring the next visit cannot take more:
        // the round that brings the batch back takes what is waiting.
        if self.asked || self.out_buf.is_empty() || !self.offered.is_empty() {
            return;
        }
        let Some(view) = &self.view else { return };
        let Some(leader) = view.leader().filter(|&l| l != self.id) else { return };
        self.asked = true;
        let request = Token {
            view: view.id,
            round: 0,
            seq_start: 0,
            entries: Vec::new(),
            collect: Vec::new(),
            acked: 0,
            delivered: BTreeMap::new(),
        };
        ctx.send(leader, Wire::Token(Box::new(request)));
    }

    fn process_token(&mut self, tok: Box<Token>, ctx: &mut Context<'_, Wire, ImplEvent>) {
        if tok.round == 0 {
            // A round request, not a ring token: only its round number
            // and (already matched) view id are read. It refreshes no
            // token clock and is never forwarded; a non-leader drops it.
            if self.is_leader() {
                self.round_wanted = true;
                self.leader_progress(ctx);
                self.maybe_launch(ctx, false);
            }
            return;
        }
        if self.is_leader() {
            self.leader_absorb_token(*tok, ctx);
        } else {
            self.member_process_token(tok, ctx);
        }
    }

    /// Extends a member's log by one sequenced entry; seeing one of its
    /// own sends come back retires the offered batch up to it. Over a
    /// wire the entry is a decoded copy of what this member offered, so
    /// when the two are equal the original is kept (one allocation of
    /// its own summary, not two); a differing entry is kept as
    /// sequenced, since that is what every member delivers.
    fn member_append(&mut self, mut tm: TokenMsg) {
        if tm.src == self.id {
            let done = self.offered.iter().take_while(|o| o.mid <= tm.mid).count();
            // `Arc<Summary>`'s `==` compares pointers before contents.
            if let Some(own) = self.offered.drain(..done).find(|o| o.mid == tm.mid) {
                if own.msg == tm.msg {
                    tm.msg = own.msg;
                }
            }
        }
        self.log.push_back(tm);
    }

    /// A member's visit: extend the log with the round's delta, hand
    /// pending sends to the token, update the receipt count, deliver and
    /// report safe, and forward along the ring.
    fn member_process_token(
        &mut self,
        mut tok: Box<Token>,
        ctx: &mut Context<'_, Wire, ImplEvent>,
    ) {
        // Only the ring neighbours are read; the view stays installed
        // for the whole visit.
        let view = self.view.as_ref().expect("token processed only inside a view");
        let succ = view.ring_successor(self.id).expect("member of own view");
        let leader = view.leader();
        self.asked = false;
        self.prune_log(tok.acked);
        if tok.seq_start <= self.log_end() {
            // Contiguous round: append the unseen part of the delta.
            // Overlap with what earlier (possibly duplicated or
            // retransmitted) rounds already shipped is skipped, which
            // makes re-processing idempotent. Only a contiguous round
            // refreshes the token clock: if an earlier round was truly
            // lost, later rounds keep the ring spinning but the clock
            // stales out and the loss timeout reforms the view — unless
            // the leader's floor retransmission heals the hole first.
            self.last_token = ctx.now();
            if let Some(d) = &mut self.detector {
                d.observe_token(ctx.now());
            }
            let skip = (self.log_end() - tok.seq_start) as usize;
            for tm in tok.entries.iter().skip(skip) {
                self.member_append(tm.clone());
            }
        } else {
            // This round overtook one still in flight (links may
            // reorder). Its entries sit at fixed absolute positions, so
            // stash them for splicing once the missing prefix shows up.
            for (i, tm) in tok.entries.iter().enumerate() {
                let pos = tok.seq_start + i as u64;
                if pos >= self.log_end() && self.stash.len() < STASH_MAX {
                    self.stash.insert(pos, tm.clone());
                }
            }
        }
        // Splice any stashed entries that have become contiguous, then
        // drop stale stash positions the log has since covered.
        while let Some(tm) = self.stash.remove(&self.log_end()) {
            self.member_append(tm);
        }
        let end = self.log_end();
        while let Some((&pos, _)) = self.stash.iter().next() {
            if pos < end {
                self.stash.remove(&pos);
            } else {
                break;
            }
        }
        // With at most `PIPELINE_DEPTH` rounds in flight, a round this far
        // past the one that took the offered batch was launched after the
        // leader counted that round as returned; had it really returned,
        // its `collect` was sequenced before this launch and is in the
        // log by now. It is not, so the round was lost: offer the batch
        // again. (If it was only overtaken, the leader's high-water
        // filter drops the copy.)
        let offering = self.offered.is_empty() || tok.round >= self.offered_round + PIPELINE_DEPTH;
        // `offered[carried..]` is what this token has yet to be given.
        let mut carried = if offering { 0 } else { self.offered.len() };
        loop {
            let mut progressed = false;
            if offering {
                self.offered.append(&mut self.out_buf);
            }
            if carried < self.offered.len() {
                tok.collect.extend(self.offered[carried..].iter().cloned());
                carried = self.offered.len();
                self.offered_round = tok.round;
                progressed = true;
            }
            tok.delivered.insert(self.id, self.log_end());
            // Min over own receipt too, so sp ≤ log_end even if a
            // corrupted token inflates other members' counts.
            let sp = tok.safe_prefix().min(self.log_end());
            progressed |= self.advance_client(sp, ctx);
            if !progressed {
                break;
            }
        }
        if succ != self.id {
            if Some(succ) == leader {
                // The hop back to the leader never needs the round's
                // entries — the leader sequenced them itself and absorbs
                // only `collect`, the receipt counts, and the round
                // number. Dropping them here saves re-encoding (and the
                // leader re-decoding) the whole batch once per rotation.
                tok.entries.clear();
            }
            ctx.send(succ, Wire::Token(tok));
        }
    }

    /// A round returned to the leader: sequence what the ring collected,
    /// fold in the receipt counts, advance the ack cursor, and keep the
    /// pipeline full.
    fn leader_absorb_token(&mut self, tok: Token, ctx: &mut Context<'_, Wire, ImplEvent>) {
        self.last_token = ctx.now();
        if let Some(d) = &mut self.detector {
            d.observe_token(ctx.now());
        }
        // Sequence collected sends from *any* arriving copy — a
        // duplicated token instance can carry pickups the original
        // never saw. Mids are strictly increasing per source, so the
        // high-water filter keeps this idempotent.
        for tm in tok.collect {
            let high = self.seq_mids.entry(tm.src).or_insert(0);
            if tm.mid > *high {
                *high = tm.mid;
                self.log.push_back(tm);
            }
        }
        // Fold in receipt counts from every current-view return, even
        // reordered or duplicated ones: counts are genuine monotone
        // receipts, so a max-merge (clamped to our own log end) is
        // always sound and keeps the floor fresh when rounds overtake
        // each other on non-FIFO links.
        let end = self.log_end();
        for (p, c) in tok.delivered {
            if let Some(e) = self.last_counts.get_mut(&p) {
                *e = (*e).max(c.min(end));
            }
        }
        // Ack bookkeeping for returns of rounds we actually launched
        // (rounds may return out of order; the high-water keeps it
        // monotone).
        if tok.round < self.next_round {
            self.last_returned = self.last_returned.max(tok.round);
            // Every member processed each round up to `last_returned`,
            // so each has reported safe at least that round's
            // launch-time prefix: that prefix is now a valid ack cursor.
            while let Some(&(r, sp)) = self.launch_sps.front() {
                if r > self.last_returned {
                    break;
                }
                self.acked = self.acked.max(sp);
                self.launch_sps.pop_front();
            }
        }
        self.leader_progress(ctx);
        self.maybe_launch(ctx, false);
    }

    /// Sequences the leader's own pending sends and advances its client
    /// delivery/safe cursors from the latest counts.
    fn leader_progress(&mut self, ctx: &mut Context<'_, Wire, ImplEvent>) {
        loop {
            let mut progressed = false;
            if !self.out_buf.is_empty() {
                for tm in self.out_buf.drain(..) {
                    self.log.push_back(tm);
                }
                progressed = true;
            }
            self.last_counts.insert(self.id, self.log_end());
            let sp = self.last_counts.values().copied().min().unwrap_or(0).min(self.log_end());
            progressed |= self.advance_client(sp, ctx);
            if !progressed {
                break;
            }
        }
        if self.view.as_ref().is_some_and(|v| v.size() == 1) {
            // Singleton view: there is no ring, everything sequenced is
            // immediately safe and acknowledged.
            self.acked = self.log_end();
        }
        self.prune_log(self.acked);
    }

    /// Launches the next round if the pipeline has room and there is a
    /// reason to: unshipped entries or a member's round request always
    /// warrant a launch; with nothing in flight, unacknowledged work or
    /// a π heartbeat does too.
    fn maybe_launch(&mut self, ctx: &mut Context<'_, Wire, ImplEvent>, heartbeat: bool) {
        let Some(view) = &self.view else { return };
        let (vid, succ) = (view.id, view.ring_successor(self.id));
        if view.size() <= 1 {
            // No ring to launch into; keep the token clock fresh so the
            // loss timeout stays quiet.
            self.last_token = ctx.now();
            return;
        }
        let in_flight = (self.next_round - 1).saturating_sub(self.last_returned);
        if in_flight >= PIPELINE_DEPTH {
            return;
        }
        let unsent = self.log_end() > self.sent_high;
        let busy = self.acked < self.log_end();
        if !(unsent || self.round_wanted || (in_flight == 0 && (busy || heartbeat))) {
            return;
        }
        self.round_wanted = false;
        // With the pipeline drained, ship from the lowest receipt count
        // instead of the send high-water: if a round was lost in transit,
        // this retransmits its entries and heals member gaps without a
        // view reformation. (The floor never precedes the log: counts
        // are clamped ≥ acked ≥ log_start by pruning.)
        let start = if in_flight == 0 {
            self.last_counts.values().copied().min().unwrap_or(0).max(self.log_start)
        } else {
            self.sent_high
        };
        let skip = (start - self.log_start) as usize;
        let tok = Token {
            view: vid,
            round: self.next_round,
            seq_start: start,
            entries: self.log.iter().skip(skip).cloned().collect(),
            collect: Vec::new(),
            acked: self.acked,
            delivered: self.last_counts.clone(),
        };
        let sp_now = self.last_counts.values().copied().min().unwrap_or(0);
        self.launch_sps.push_back((self.next_round, sp_now));
        self.next_round += 1;
        self.sent_high = self.log_end();
        let succ = succ.expect("member of own view");
        ctx.send(succ, Wire::Token(Box::new(tok)));
    }

    fn hold_pending(&mut self, tok: Box<Token>) {
        // Bounded: anything beyond a full pipeline of raced-ahead rounds
        // is recoverable through the loss timeout anyway.
        if self.pending_tokens.len() < 16 {
            self.pending_tokens.push(tok);
        }
    }
}

impl<C: VsClient> Process for VsNode<C> {
    type Msg = Wire;
    type Input = Value;
    type Event = ImplEvent;

    fn id(&self) -> ProcId {
        self.id
    }

    fn on_start(&mut self, ctx: &mut Context<'_, Wire, ImplEvent>) {
        // Stagger probes per id to avoid synchronized storms.
        ctx.set_timer(self.cfg.mu + self.id.0 as Time, timer_kind(TAG_PROBE, 0));
        if let Some(view) = &self.view {
            self.last_counts = view.set.iter().map(|&p| (p, 0)).collect();
            if self.is_leader() {
                ctx.set_timer(self.cfg.pi, timer_kind(TAG_LAUNCH, self.gen));
            }
            ctx.set_timer(self.token_timeout(), timer_kind(TAG_TOKEN, self.gen));
        }
    }

    fn on_message(&mut self, from: ProcId, msg: Wire, ctx: &mut Context<'_, Wire, ImplEvent>) {
        self.heard.insert(from, ctx.now());
        match msg {
            Wire::Probe => {
                let stranger = match &self.view {
                    None => true,
                    Some(v) => !v.set.contains(&from),
                };
                let recently = self
                    .last_form
                    .is_some_and(|t| ctx.now().saturating_sub(t) < 2 * self.cfg.delta);
                if stranger && self.forming.is_none() && !recently {
                    self.trigger_formation(ctx);
                }
            }
            Wire::Call { viewid } => {
                self.max_seen = self.max_seen.max(viewid);
                let above_current = match self.current_id() {
                    None => true,
                    Some(cur) => viewid > cur,
                };
                if viewid > self.accepted && above_current {
                    self.accepted = viewid;
                    // Accepting a fresher call supersedes our own attempt.
                    if self.forming.as_ref().is_some_and(|(vid, _)| *vid < viewid) {
                        self.forming = None;
                    }
                    ctx.send(from, Wire::Accept { viewid });
                }
            }
            Wire::Accept { viewid } => {
                if let Some((vid, responders)) = &mut self.forming {
                    if *vid == viewid {
                        responders.insert(from);
                    }
                }
            }
            Wire::Join { view } => {
                self.max_seen = self.max_seen.max(view.id);
                if !view.set.contains(&self.id) {
                    return;
                }
                let above_current = match self.current_id() {
                    None => true,
                    Some(cur) => view.id > cur,
                };
                // Do not install below something we already agreed to.
                if above_current && view.id >= self.accepted {
                    self.install(view, ctx);
                }
            }
            Wire::Token(tok) => {
                match self.current_id() {
                    Some(cur) if tok.view == cur => self.process_token(tok, ctx),
                    Some(cur) if tok.view > cur => self.hold_pending(tok),
                    None => self.hold_pending(tok),
                    _ => {} // stale token from a dead view: drop
                }
            }
        }
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Context<'_, Wire, ImplEvent>) {
        let tag = kind & TAG_MASK;
        let gen = kind >> 3;
        match tag {
            TAG_PROBE => {
                let outside: Vec<ProcId> = self
                    .cfg
                    .procs
                    .iter()
                    .copied()
                    .filter(|&q| {
                        q != self.id
                            && match &self.view {
                                None => true,
                                Some(v) => !v.set.contains(&q),
                            }
                    })
                    .collect();
                for q in outside {
                    ctx.send(q, Wire::Probe);
                }
                ctx.set_timer(self.cfg.mu, timer_kind(TAG_PROBE, 0));
            }
            TAG_TOKEN => {
                if gen != self.gen || self.view.is_none() {
                    return;
                }
                let elapsed = ctx.now().saturating_sub(self.last_token);
                let timeout = self.token_timeout();
                if elapsed >= timeout && self.forming.is_none() {
                    if let Some(d) = &mut self.detector {
                        // The silence that tripped the detector is a
                        // censored gap observation: feeding it back
                        // widens the next deadline (RTO-style backoff)
                        // instead of tripping at the same threshold
                        // through a sustained disturbance.
                        d.observe_timeout(elapsed);
                    }
                    self.trigger_formation(ctx);
                    // Keep watching in case the formation stalls.
                    ctx.set_timer(timeout, timer_kind(TAG_TOKEN, self.gen));
                } else {
                    ctx.set_timer(
                        timeout.saturating_sub(elapsed).max(1),
                        timer_kind(TAG_TOKEN, self.gen),
                    );
                }
            }
            TAG_LAUNCH => {
                if gen != self.gen {
                    return;
                }
                if self.view.is_some() && self.is_leader() {
                    self.leader_progress(ctx);
                    self.maybe_launch(ctx, true);
                    ctx.set_timer(self.cfg.pi, timer_kind(TAG_LAUNCH, self.gen));
                }
            }
            TAG_FORM => {
                if gen != self.form_seq {
                    return;
                }
                if let Some((vid, responders)) = self.forming.take() {
                    if self.accepted > vid {
                        return; // a higher formation superseded ours
                    }
                    self.install_and_announce(View::new(vid, responders), ctx);
                }
            }
            _ => unreachable!("unknown timer tag {tag}"),
        }
    }

    fn on_input(&mut self, a: Value, ctx: &mut Context<'_, Wire, ImplEvent>) {
        ctx.emit(ImplEvent::Bcast { p: self.id, a: a.clone() });
        let mut effects = ClientEffects::default();
        self.client.on_input(a, &mut effects);
        self.queue_effects(effects, ctx);
        // The leader sequences its own sends immediately and ships them
        // without waiting for a rotation; a member's sends wait for the
        // next token visit, which it asks the leader for.
        if self.view.is_some() && self.is_leader() {
            self.leader_progress(ctx);
            self.maybe_launch(ctx, false);
        } else {
            self.request_round(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed_vstoto::{EchoClient, TimedVsToTo};
    use gcs_core::msg::AppMsg;
    use gcs_ioa::CollectedEffects;
    use gcs_model::{Majority, Summary};
    use std::collections::VecDeque;
    use std::sync::Arc;

    type Fx = CollectedEffects<Wire, ImplEvent>;

    /// Three nodes in the initial view over per-link FIFO queues, driven
    /// one handler at a time by a seeded schedule. Time stands still: no
    /// timer ever fires unless the schedule fires the leader's heartbeat
    /// itself, so whatever gets delivered was moved by requests alone.
    struct Ring<C = EchoClient> {
        nodes: Vec<VsNode<C>>,
        links: BTreeMap<(u32, u32), VecDeque<Wire>>,
        /// Every event the handlers emitted, in handler order.
        events: Vec<ImplEvent>,
        rng: u64,
        inputs: u64,
        /// Deep-copy every summary a token carries on delivery, the way
        /// a decode on the receiving end would.
        decode: bool,
    }

    impl Ring {
        fn new(seed: u64) -> Ring {
            Ring::with_clients(seed, EchoClient::new)
        }
    }

    impl<C: VsClient> Ring<C> {
        fn with_clients(seed: u64, client: impl Fn(u32) -> C) -> Ring<C> {
            let nodes = (0..3)
                .map(|i| {
                    let mut node = VsNode::new(ProcId(i), ProtoConfig::standard(3, 5), client(i));
                    node.on_start(&mut Fx::new(0).ctx());
                    node
                })
                .collect();
            Ring {
                nodes,
                links: BTreeMap::new(),
                events: Vec::new(),
                rng: seed | 1,
                inputs: 0,
                decode: false,
            }
        }

        fn draw(&mut self, below: u64) -> u64 {
            self.rng = self.rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (self.rng >> 33) % below
        }

        /// Runs one handler on node `p`, routes what it sent, and checks
        /// the leader invariant: sequenced-but-unshipped entries with
        /// nothing in flight is a state no handler may leave behind (it
        /// would sit there until the π heartbeat).
        fn step(&mut self, p: u32, f: impl FnOnce(&mut VsNode<C>, &mut Fx)) {
            let mut fx = Fx::new(0);
            f(&mut self.nodes[p as usize], &mut fx);
            for (to, wire) in fx.take_sends() {
                self.links.entry((p, to.0)).or_default().push_back(wire);
            }
            self.events.append(&mut fx.emits);
            let n = &self.nodes[p as usize];
            if n.is_leader() {
                let in_flight = (n.next_round - 1).saturating_sub(n.last_returned);
                assert!(
                    !(n.log_end() > n.sent_high && in_flight == 0),
                    "leader left {} unshipped entries behind an idle ring",
                    n.log_end() - n.sent_high
                );
            }
        }

        fn busy_link(&mut self) -> Option<(u32, u32)> {
            let busy: Vec<(u32, u32)> =
                self.links.iter().filter(|(_, q)| !q.is_empty()).map(|(&k, _)| k).collect();
            (!busy.is_empty()).then(|| busy[self.draw(busy.len() as u64) as usize])
        }

        fn deliver(&mut self, (from, to): (u32, u32), dup: bool) {
            let q = self.links.get_mut(&(from, to)).expect("a busy link");
            let mut wire = if dup { q[0].clone() } else { q.pop_front().expect("a busy link") };
            if let (true, Wire::Token(tok)) = (self.decode, &mut wire) {
                for tm in tok.entries.iter_mut().chain(&mut tok.collect) {
                    if let AppMsg::Summary(x) = &mut tm.msg {
                        *x = Arc::new(Summary::clone(x));
                    }
                }
            }
            self.step(to, |n, fx| n.on_message(ProcId(from), wire, &mut fx.ctx()));
        }

        fn input(&mut self) {
            self.inputs += 1;
            let (p, a) = (self.draw(3) as u32, Value::from_u64(self.inputs));
            self.step(p, |n, fx| n.on_input(a, &mut fx.ctx()));
        }

        fn drain(&mut self) {
            while let Some(link) = self.busy_link() {
                self.deliver(link, false);
            }
        }
    }

    #[test]
    fn requests_alone_move_every_send_and_no_handler_strands_the_leader() {
        for seed in 0..40 {
            let mut ring = Ring::new(seed);
            for _ in 0..400 {
                match (ring.draw(10), ring.busy_link()) {
                    (0..=2, _) | (_, None) => ring.input(),
                    (3, Some(link)) => ring.deliver(link, true),
                    (_, Some(link)) => ring.deliver(link, false),
                }
            }
            ring.drain();
            // No heartbeat ever fired, yet everything was collected,
            // sequenced and delivered everywhere in one order.
            let want = ring.inputs as usize;
            for n in &ring.nodes {
                assert_eq!(n.client.received.len(), want, "seed {seed}: {} stalled", n.id);
                assert_eq!(n.client.received, ring.nodes[0].client.received, "seed {seed}");
                assert_eq!(n.client.safe.len(), want, "seed {seed}: {} not safe", n.id);
            }
        }
    }

    #[test]
    fn lossy_ring_keeps_every_stream_gap_free_and_never_strands_the_leader() {
        for seed in 0..40 {
            let mut ring = Ring::new(seed);
            for _ in 0..600 {
                match (ring.draw(12), ring.busy_link()) {
                    (0..=2, _) | (_, None) => ring.input(),
                    (3, Some(link)) => {
                        ring.links.get_mut(&link).expect("a busy link").pop_front();
                    }
                    (4, _) => ring.step(0, |n, fx| {
                        n.on_timer(timer_kind(TAG_LAUNCH, 0), &mut fx.ctx());
                    }),
                    (_, Some(link)) => ring.deliver(link, false),
                }
            }
            // Whatever was lost on the way, nobody was shown a source's
            // k-th send without its first k−1 (mids count sends per
            // source): a token lost with its `collect` delays that
            // member's sends, it does not punch a hole in them.
            for n in &ring.nodes {
                let mut next = [1u64; 3];
                for (src, m) in &n.client.received {
                    let seqno = m.label().expect("echo clients send values").seqno;
                    assert_eq!(seqno, next[src.index()], "seed {seed}: gap in {src} at {}", n.id);
                    next[src.index()] += 1;
                }
            }
        }
    }

    /// A ring of three state-exchange clients with 20 values of
    /// history, taken through one view change; returns the ring and each
    /// sender's summary as its `GpSnd` carried it.
    fn view_change(decode: bool) -> (Ring<TimedVsToTo>, BTreeMap<ProcId, Arc<Summary>>) {
        let procs = ProcId::range(3);
        let mut ring = Ring::with_clients(7, |i| {
            TimedVsToTo::new(ProcId(i), &procs, Arc::new(Majority::new(3)))
        });
        ring.decode = decode;
        for _ in 0..20 {
            ring.input();
        }
        ring.drain();
        ring.events.clear();
        let v = View::new(ViewId::new(1, ProcId(0)), procs.clone());
        for p in 0..3 {
            ring.step(p, |n, fx| n.install(v.clone(), &mut fx.ctx()));
        }
        ring.drain();
        let mut sent: BTreeMap<ProcId, Arc<Summary>> = BTreeMap::new();
        for e in &ring.events {
            if let ImplEvent::GpSnd { p, m: AppMsg::Summary(x), .. } = e {
                assert!(sent.insert(*p, Arc::clone(x)).is_none(), "{p} sent two summaries");
            }
        }
        assert_eq!(sent.len(), 3);
        assert!(sent.values().all(|x| x.con.len() == 20), "summaries carry the history");
        (ring, sent)
    }

    /// A view change over the in-process ring moves each summary by
    /// reference: the sender's `GpSnd`, every member's `GpRcv` and `Safe`
    /// of it, and every member's `gotstate` entry for that sender are
    /// one allocation, whatever log, token and stash copies it passed.
    #[test]
    fn a_view_change_shares_each_summary_from_gpsnd_to_every_gotstate() {
        let (ring, sent) = view_change(false);
        let mut indications = 0;
        for e in &ring.events {
            if let ImplEvent::GpRcv { src, dst, m: AppMsg::Summary(x), .. }
            | ImplEvent::Safe { src, dst, m: AppMsg::Summary(x), .. } = e
            {
                assert!(Arc::ptr_eq(x, &sent[src]), "{dst} was shown a copy of {src}'s summary");
                indications += 1;
            }
        }
        assert_eq!(indications, 2 * 3 * 3, "every summary received and safe everywhere");
        for n in &ring.nodes {
            let got = &n.client.proc.gotstate;
            assert_eq!(got.len(), 3);
            for (q, x) in got {
                assert!(Arc::ptr_eq(x, &sent[q]), "{} keeps a copy of {q}'s summary", n.id);
            }
        }
    }

    /// Over a wire every token hop decodes its summaries afresh; a member
    /// still keeps the summary it sent, not the copy the leader's token
    /// brings back, in its own `GpRcv`, `Safe` and `gotstate` entry.
    #[test]
    fn a_member_keeps_its_own_summary_when_the_token_brings_back_a_copy() {
        let (ring, sent) = view_change(true);
        let mut own = 0;
        for e in &ring.events {
            if let ImplEvent::GpRcv { src, dst, m: AppMsg::Summary(x), .. }
            | ImplEvent::Safe { src, dst, m: AppMsg::Summary(x), .. } = e
            {
                assert_eq!(**x, *sent[src]);
                if src == dst {
                    assert!(
                        Arc::ptr_eq(x, &sent[src]),
                        "{dst} was shown a copy of its own summary"
                    );
                    own += 1;
                }
            }
        }
        assert_eq!(own, 2 * 3, "every member received its own summary and saw it safe");
        for n in &ring.nodes {
            let got = &n.client.proc.gotstate;
            assert_eq!(got.len(), 3);
            assert!(
                Arc::ptr_eq(&got[&n.id], &sent[&n.id]),
                "{} keeps a copy of its own summary",
                n.id
            );
        }
    }
}
