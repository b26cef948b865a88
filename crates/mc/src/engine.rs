//! The cooperative scheduler and happens-before checker.
//!
//! One real OS thread per model thread, but exactly one ever runs at a
//! time: a baton (the `active` slot of the engine state, guarded by a
//! single mutex + condvar) is handed from thread to thread at every
//! *visible operation* (atomic access, mutex lock/unlock, condvar
//! wait/notify, spawn, join, exit). Before
//! each visible op the running thread parks, the engine consults the
//! schedule [`Source`] for who runs next, and the chosen thread
//! performs its pending op while holding the engine lock — so the
//! interleaving is exactly the decision string and nothing else.
//!
//! The happens-before state rides along: every thread carries a vector
//! clock; spawn/join and mutex hand-off join clocks; atomic locations
//! (all relaxed) keep their full store history so weak loads can read
//! stale-but-coherent values — which stores are readable is itself a
//! scheduling decision, bounded below by the stores that happened
//! before the load. See docs/CONCURRENCY.md for the model written out.

use crate::clock::VClock;
use crate::report::{Failure, FailureKind, Site};
use crate::sched::{DecideErr, Source};
use std::cell::RefCell;
use std::panic::Location;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

pub(crate) type Tid = usize;

/// Model threads are capped well below the u8 schedule-byte range;
/// real models use 2-5 threads.
const MAX_THREADS: usize = 16;
/// Store-history cap per atomic location: ts must stay a unique byte
/// for the read-from decision encoding.
const MAX_STORES: u32 = 250;
/// Per-execution visible-op ceiling (see [`FailureKind::StepCap`]).
const MAX_STEPS: u64 = 20_000;

/// Sentinel unwind payload for "execution aborted, unwind quietly".
/// Raised with `resume_unwind` (not `panic_any`) so the panic hook
/// stays silent during the thousands of normal exploration aborts.
pub(crate) struct Abort;

/// Run state of one model thread.
#[derive(Clone, Copy, Debug)]
enum Run {
    Ready,
    Running,
    BlockedMutex(usize),
    BlockedJoin(Tid),
    BlockedCv { cv: usize, notified: bool },
    Finished,
}

struct ThreadSt {
    run: Run,
    clock: VClock,
    /// Per-atomic-location floor on readable store timestamps
    /// (coherence: monotone reads + read-own-writes).
    view: Vec<u32>,
    /// Where this thread blocked (deadlock reports).
    blocked_at: Option<Site>,
    /// Set when the scheduler fired this thread's timed cv wait (all
    /// live threads were blocked); read and cleared by `cv_wait`.
    timed_fired: bool,
}

impl ThreadSt {
    fn new(clock: VClock, view: Vec<u32>) -> ThreadSt {
        ThreadSt { run: Run::Ready, clock, view, blocked_at: None, timed_fired: false }
    }
}

/// One store in an atomic location's history.
struct StoreRec {
    val: u64,
    /// Modification-order timestamp (unique per location).
    ts: u32,
    tid: Tid,
    /// The writer's own clock component at the store: the store
    /// happened before a reader whose clock covers it.
    epoch: u32,
}

struct AtomicLoc {
    stores: Vec<StoreRec>,
    next_ts: u32,
}

struct MutexLoc {
    owner: Option<Tid>,
    /// Clock released by the last unlocker; joined by the next locker.
    clock: VClock,
}

/// Which RMW the shim asked for (value math is done in u64 space; a
/// signed cell is bit-cast by its user).
#[derive(Clone, Copy, Debug)]
pub(crate) enum RmwKind {
    Add,
    Max,
    Min,
}

impl RmwKind {
    fn apply(self, old: u64, operand: u64) -> u64 {
        match self {
            RmwKind::Add => old.wrapping_add(operand),
            RmwKind::Max => old.max(operand),
            RmwKind::Min => old.min(operand),
        }
    }
}

/// The whole engine state, guarded by `Engine::st`.
pub(crate) struct EngSt {
    source: Option<Source>,
    threads: Vec<ThreadSt>,
    atomics: Vec<AtomicLoc>,
    mutexes: Vec<MutexLoc>,
    n_cvs: usize,
    active: Option<Tid>,
    last_running: Option<Tid>,
    preemptions: usize,
    live: usize,
    steps: u64,
    digest: u64,
    pub(crate) failure: Option<Failure>,
    aborting: bool,
    pub(crate) done: bool,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

pub(crate) struct Engine {
    st: Mutex<EngSt>,
    cv: Condvar,
}

impl Engine {
    pub(crate) fn new(source: Source) -> Engine {
        Engine {
            st: Mutex::new(EngSt {
                source: Some(source),
                threads: Vec::new(),
                atomics: Vec::new(),
                mutexes: Vec::new(),
                n_cvs: 0,
                active: None,
                last_running: None,
                preemptions: 0,
                live: 0,
                steps: 0,
                digest: 0xcbf2_9ce4_8422_2325, // FNV-1a offset basis
                failure: None,
                aborting: false,
                done: false,
                os_handles: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Poison-tolerant lock: aborts unwind while holding this mutex by
    /// design, so poisoning is routine, not a bug signal.
    pub(crate) fn lock(&self) -> MutexGuard<'_, EngSt> {
        self.st.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn wake_all(&self) {
        self.cv.notify_all();
    }

    /// Driver: block until the execution is over.
    pub(crate) fn wait_done(&self) -> MutexGuard<'_, EngSt> {
        let mut st = self.lock();
        while !st.done {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st
    }
}

impl EngSt {
    /// Harvest the per-execution results (driver side, after done).
    pub(crate) fn harvest(
        &mut self,
    ) -> (Option<Failure>, u64, Source, Vec<std::thread::JoinHandle<()>>) {
        (
            self.failure.take(),
            self.digest,
            self.source.take().expect("source present at harvest"),
            std::mem::take(&mut self.os_handles),
        )
    }

    fn fold(&mut self, x: u64) {
        // FNV-1a folded per u64 word: cheap, deterministic, and only
        // compared for equality across replays.
        self.digest = (self.digest ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn fold_op(&mut self, tid: Tid, code: u64, loc: usize, val: u64) {
        self.fold(tid as u64);
        self.fold(code);
        self.fold(loc as u64);
        self.fold(val);
    }

    fn enabled(&self, t: Tid) -> bool {
        match self.threads[t].run {
            Run::Ready | Run::Running => true,
            Run::BlockedMutex(m) => self.mutexes[m].owner.is_none(),
            Run::BlockedJoin(j) => matches!(self.threads[j].run, Run::Finished),
            Run::BlockedCv { notified, .. } => notified,
            Run::Finished => false,
        }
    }
}

thread_local! {
    static CTX: RefCell<Option<(Arc<Engine>, Tid)>> = const { RefCell::new(None) };
}

/// Run `f` with the current model thread's engine context. Panics
/// (plainly — this is a usage error, not a model failure) when called
/// outside `Checker::check`.
fn with_ctx<R>(f: impl FnOnce(&Arc<Engine>, Tid) -> R) -> R {
    CTX.with(|c| {
        let b = c.borrow();
        let (eng, tid) =
            b.as_ref().expect("gcs-mc shim used outside a Checker::check model thread");
        f(eng, *tid)
    })
}

fn abort_check(st: &EngSt) {
    if st.aborting {
        std::panic::resume_unwind(Box::new(Abort));
    }
}

/// Record a failure (first wins) and flip the engine into abort mode;
/// callers must `wake_all` afterwards so parked threads unwind.
fn fail(st: &mut EngSt, kind: FailureKind) {
    if st.failure.is_none() {
        let schedule = st
            .source
            .as_ref()
            .map(|s| s.taken())
            .unwrap_or_else(|| crate::sched::Schedule(Vec::new()));
        st.failure = Some(Failure { kind, schedule, digest: st.digest });
    }
    st.aborting = true;
}

/// Pick who runs next. Called with no active thread. Handles timed-cv
/// timeout firing and deadlock detection.
fn pick_next(st: &mut EngSt) {
    if st.live == 0 {
        st.done = true;
        return;
    }
    if st.aborting {
        return;
    }
    let mut enabled: Vec<Tid> = (0..st.threads.len()).filter(|&t| st.enabled(t)).collect();
    if enabled.is_empty() {
        // Every live thread is blocked. Timed condvar waits now time
        // out — all of them, deterministically; this is the model's
        // stand-in for "enough wall time passed" and only triggers
        // when nothing else can move, which keeps executions finite
        // without a clock.
        let mut fired = false;
        for t in 0..st.threads.len() {
            if let Run::BlockedCv { cv, notified: false } = st.threads[t].run {
                st.threads[t].run = Run::BlockedCv { cv, notified: true };
                st.threads[t].timed_fired = true;
                fired = true;
            }
        }
        if !fired {
            let blocked: Vec<(usize, Site)> = (0..st.threads.len())
                .filter(|&t| !matches!(st.threads[t].run, Run::Finished))
                .map(|t| {
                    (
                        t,
                        st.threads[t].blocked_at.unwrap_or(Site {
                            file: "<unknown>",
                            line: 0,
                            column: 0,
                        }),
                    )
                })
                .collect();
            fail(st, FailureKind::Deadlock { blocked });
            return;
        }
        enabled = (0..st.threads.len()).filter(|&t| st.enabled(t)).collect();
    }
    // Default = keep the last-running thread if it can continue (the
    // non-preemptive choice), else the lowest runnable tid.
    let default = match st.last_running {
        Some(p) if enabled.contains(&p) => p,
        _ => enabled[0],
    };
    let prev_runnable = st.last_running.filter(|p| enabled.contains(p));
    let mut options: Vec<u8> = vec![default as u8];
    options.extend(enabled.iter().filter(|&&t| t != default).map(|&t| t as u8));
    let preemptive: Vec<bool> =
        options.iter().map(|&o| prev_runnable.is_some_and(|p| p != o as Tid)).collect();
    let chosen = if options.len() == 1 {
        options[0]
    } else {
        let preemptions = st.preemptions;
        let src = st.source.as_mut().expect("source present");
        match src.decide(&options, &preemptive, preemptions) {
            Ok((b, was_preempt)) => {
                if was_preempt {
                    st.preemptions += 1;
                }
                b
            }
            Err(DecideErr::Diverged) => {
                fail(st, FailureKind::ScheduleDiverged);
                return;
            }
            Err(DecideErr::Nondeterminism) => {
                fail(st, FailureKind::Nondeterminism);
                return;
            }
        }
    };
    let t = chosen as Tid;
    st.threads[t].run = Run::Running;
    st.threads[t].blocked_at = None;
    st.active = Some(t);
    st.last_running = Some(t);
}

/// Park until this thread holds the baton (or the execution aborts).
fn wait_running<'a>(
    eng: &'a Engine,
    mut st: MutexGuard<'a, EngSt>,
    tid: Tid,
) -> MutexGuard<'a, EngSt> {
    loop {
        abort_check(&st);
        if matches!(st.threads[tid].run, Run::Running) {
            return st;
        }
        st = eng.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
}

/// The schedule point at the head of every visible op: yield the
/// baton, let the source pick the next runner, park until it is us.
/// Returns with the engine locked and this thread Running.
fn schedule_point<'a>(eng: &'a Engine, tid: Tid) -> MutexGuard<'a, EngSt> {
    let mut st = eng.lock();
    abort_check(&st);
    st.steps += 1;
    if st.steps > MAX_STEPS {
        fail(&mut st, FailureKind::StepCap);
        eng.wake_all();
        abort_check(&st);
    }
    st.threads[tid].run = Run::Ready;
    st.active = None;
    pick_next(&mut st);
    eng.wake_all();
    wait_running(eng, st, tid)
}

/// Block the current thread with `run`, schedule someone else, park
/// until granted again.
fn block_self<'a>(
    eng: &'a Engine,
    mut st: MutexGuard<'a, EngSt>,
    tid: Tid,
    run: Run,
    site: Site,
) -> MutexGuard<'a, EngSt> {
    st.threads[tid].run = run;
    st.threads[tid].blocked_at = Some(site);
    st.active = None;
    pick_next(&mut st);
    eng.wake_all();
    wait_running(eng, st, tid)
}

// ---------------------------------------------------------------------------
// Allocation (not visible ops: no schedule point, just registration).
// ---------------------------------------------------------------------------

pub(crate) fn alloc_atomic(init: u64) -> usize {
    with_ctx(|eng, tid| {
        let mut st = eng.lock();
        abort_check(&st);
        let id = st.atomics.len();
        let epoch = st.threads[tid].clock.get(tid);
        st.atomics.push(AtomicLoc {
            stores: vec![StoreRec { val: init, ts: 0, tid, epoch }],
            next_ts: 1,
        });
        id
    })
}

pub(crate) fn alloc_mutex() -> usize {
    with_ctx(|eng, _| {
        let mut st = eng.lock();
        abort_check(&st);
        let id = st.mutexes.len();
        st.mutexes.push(MutexLoc { owner: None, clock: VClock::default() });
        id
    })
}

pub(crate) fn alloc_cv() -> usize {
    with_ctx(|eng, _| {
        let mut st = eng.lock();
        abort_check(&st);
        let id = st.n_cvs;
        st.n_cvs += 1;
        id
    })
}

// ---------------------------------------------------------------------------
// Visible operations.
// ---------------------------------------------------------------------------

pub(crate) fn atomic_load(id: usize) -> u64 {
    with_ctx(|eng, tid| {
        let mut st = schedule_point(eng, tid);
        // Readable set: at least the thread's coherence floor for this
        // location, and at least every store that happened-before this
        // load (a store the loader already "knows about" cannot be
        // unread). Which readable store is observed is a scheduling
        // decision, newest (SC-like) first.
        let view_floor = st.threads[tid].view.get(id).copied().unwrap_or(0);
        let hb_floor = {
            let clock = &st.threads[tid].clock;
            st.atomics[id]
                .stores
                .iter()
                .filter(|s| clock.covers(s.tid, s.epoch))
                .map(|s| s.ts)
                .max()
                .unwrap_or(0)
        };
        let floor = view_floor.max(hb_floor);
        let mut readable: Vec<(u32, u8)> = st.atomics[id]
            .stores
            .iter()
            .filter(|s| s.ts >= floor)
            .map(|s| (s.ts, (s.ts & 0xff) as u8))
            .collect();
        readable.sort_by_key(|r| std::cmp::Reverse(r.0));
        let chosen_ts = if readable.len() == 1 {
            readable[0].0
        } else {
            let options: Vec<u8> = readable.iter().map(|r| r.1).collect();
            let preemptive = vec![false; options.len()];
            let preemptions = st.preemptions;
            let src = st.source.as_mut().expect("source present");
            match src.decide(&options, &preemptive, preemptions) {
                Ok((b, _)) => readable.iter().find(|r| r.1 == b).map(|r| r.0).unwrap_or(0),
                Err(e) => {
                    let kind = match e {
                        DecideErr::Diverged => FailureKind::ScheduleDiverged,
                        DecideErr::Nondeterminism => FailureKind::Nondeterminism,
                    };
                    fail(&mut st, kind);
                    eng.wake_all();
                    abort_check(&st);
                    unreachable!("abort_check unwinds");
                }
            }
        };
        let val = st.atomics[id]
            .stores
            .iter()
            .find(|s| s.ts == chosen_ts)
            .expect("chosen store exists")
            .val;
        if st.threads[tid].view.len() <= id {
            st.threads[tid].view.resize(id + 1, 0);
        }
        st.threads[tid].view[id] = chosen_ts;
        st.threads[tid].clock.bump(tid);
        st.fold_op(tid, 1, id, val);
        val
    })
}

/// Append a store to the location history; shared by store and RMW.
fn push_store(st: &mut MutexGuard<'_, EngSt>, tid: Tid, id: usize, val: u64) -> u32 {
    let ts = st.atomics[id].next_ts;
    if ts >= MAX_STORES {
        fail(st, FailureKind::StepCap);
        return ts;
    }
    st.atomics[id].next_ts += 1;
    let epoch = st.threads[tid].clock.get(tid);
    st.atomics[id].stores.push(StoreRec { val, ts, tid, epoch });
    if st.threads[tid].view.len() <= id {
        st.threads[tid].view.resize(id + 1, 0);
    }
    st.threads[tid].view[id] = ts;
    ts
}

pub(crate) fn atomic_store(id: usize, val: u64) {
    with_ctx(|eng, tid| {
        let mut st = schedule_point(eng, tid);
        st.threads[tid].clock.bump(tid);
        push_store(&mut st, tid, id, val);
        st.fold_op(tid, 2, id, val);
        if st.aborting {
            eng.wake_all();
            abort_check(&st);
        }
    })
}

pub(crate) fn atomic_rmw(id: usize, kind: RmwKind, operand: u64) -> u64 {
    with_ctx(|eng, tid| {
        let mut st = schedule_point(eng, tid);
        // An RMW always reads the latest store: atomicity pins it to
        // the end of the modification order.
        let old = st.atomics[id].stores.last().expect("atomic has init store").val;
        let newv = kind.apply(old, operand);
        st.threads[tid].clock.bump(tid);
        push_store(&mut st, tid, id, newv);
        st.fold_op(tid, 3, id, newv);
        if st.aborting {
            eng.wake_all();
            abort_check(&st);
        }
        old
    })
}

pub(crate) fn mutex_lock(mid: usize, loc: &'static Location<'static>) {
    with_ctx(|eng, tid| {
        let mut st = schedule_point(eng, tid);
        let site = Site::of(loc);
        loop {
            if st.mutexes[mid].owner.is_none() {
                st.mutexes[mid].owner = Some(tid);
                let mclock = st.mutexes[mid].clock.clone();
                st.threads[tid].clock.join(&mclock);
                st.threads[tid].clock.bump(tid);
                st.fold_op(tid, 6, mid, 0);
                return;
            }
            st = block_self(eng, st, tid, Run::BlockedMutex(mid), site);
        }
    })
}

pub(crate) fn mutex_unlock(mid: usize) {
    with_ctx(|eng, tid| {
        let mut st = schedule_point(eng, tid);
        st.threads[tid].clock.bump(tid);
        let clock = st.threads[tid].clock.clone();
        st.mutexes[mid].clock.join(&clock);
        st.mutexes[mid].owner = None;
        st.fold_op(tid, 7, mid, 0);
    })
}

/// Unlock without a schedule point or any chance of unwinding: the
/// guard-drop path while the thread is already panicking (model
/// assertion or engine abort). Double panic would abort the process.
pub(crate) fn mutex_unlock_quiet(mid: usize) {
    with_ctx(|eng, tid| {
        let mut st = eng.lock();
        if st.mutexes[mid].owner == Some(tid) {
            let clock = st.threads[tid].clock.clone();
            st.mutexes[mid].clock.join(&clock);
            st.mutexes[mid].owner = None;
        }
        eng.wake_all();
    })
}

/// Condvar wait: atomically release the mutex and block; on wake,
/// reacquire. Returns whether the (always-timed) wait timed out —
/// which under the model happens only when every live thread was
/// blocked. No happens-before edge flows through the condvar itself;
/// the mutex hand-off carries it, as with real condvars.
pub(crate) fn cv_wait(cvid: usize, mid: usize, loc: &'static Location<'static>) -> bool {
    with_ctx(|eng, tid| {
        let mut st = schedule_point(eng, tid);
        let site = Site::of(loc);
        st.threads[tid].clock.bump(tid);
        let clock = st.threads[tid].clock.clone();
        st.mutexes[mid].clock.join(&clock);
        st.mutexes[mid].owner = None;
        st.fold_op(tid, 8, cvid, 0);
        st = block_self(eng, st, tid, Run::BlockedCv { cv: cvid, notified: false }, site);
        let timed_out = std::mem::take(&mut st.threads[tid].timed_fired);
        // Reacquire the mutex before returning (condvar contract).
        loop {
            if st.mutexes[mid].owner.is_none() {
                st.mutexes[mid].owner = Some(tid);
                let mclock = st.mutexes[mid].clock.clone();
                st.threads[tid].clock.join(&mclock);
                st.threads[tid].clock.bump(tid);
                break;
            }
            st = block_self(eng, st, tid, Run::BlockedMutex(mid), site);
        }
        timed_out
    })
}

pub(crate) fn cv_notify_all(cvid: usize) {
    with_ctx(|eng, tid| {
        let mut st = schedule_point(eng, tid);
        for t in 0..st.threads.len() {
            if let Run::BlockedCv { cv, notified: false } = st.threads[t].run {
                if cv == cvid {
                    st.threads[t].run = Run::BlockedCv { cv, notified: true };
                }
            }
        }
        st.threads[tid].clock.bump(tid);
        st.fold_op(tid, 9, cvid, 0);
    })
}

// ---------------------------------------------------------------------------
// Threads.
// ---------------------------------------------------------------------------

pub(crate) fn spawn_thread(body: Box<dyn FnOnce() + Send>) -> Tid {
    with_ctx(|eng, tid| {
        let mut st = schedule_point(eng, tid);
        let child = st.threads.len();
        if child >= MAX_THREADS {
            fail(&mut st, FailureKind::StepCap);
            eng.wake_all();
            abort_check(&st);
        }
        st.threads[tid].clock.bump(tid);
        let mut cclock = st.threads[tid].clock.clone();
        cclock.bump(child);
        let cview = st.threads[tid].view.clone();
        st.threads.push(ThreadSt::new(cclock, cview));
        st.live += 1;
        st.fold_op(tid, 11, child, 0);
        let eng2 = Arc::clone(eng);
        let handle = std::thread::Builder::new()
            .name(format!("mc-{child}"))
            .stack_size(256 * 1024)
            .spawn(move || model_thread(eng2, child, body))
            .expect("spawn model OS thread");
        st.os_handles.push(handle);
        child
    })
}

pub(crate) fn join_thread(target: Tid, loc: &'static Location<'static>) {
    with_ctx(|eng, tid| {
        let mut st = schedule_point(eng, tid);
        let site = Site::of(loc);
        loop {
            if matches!(st.threads[target].run, Run::Finished) {
                let tclock = st.threads[target].clock.clone();
                st.threads[tid].clock.join(&tclock);
                st.threads[tid].clock.bump(tid);
                st.fold_op(tid, 12, target, 0);
                return;
            }
            st = block_self(eng, st, tid, Run::BlockedJoin(target), site);
        }
    })
}

fn payload_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The OS-thread body wrapping one model thread: install the context,
/// wait for the first baton grant, run, and tear down through the
/// engine whatever way the body ended.
pub(crate) fn model_thread(eng: Arc<Engine>, tid: Tid, body: Box<dyn FnOnce() + Send>) {
    CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&eng), tid)));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let st = eng.lock();
        drop(wait_running(&eng, st, tid));
        body();
    }));
    let clean = match result {
        Ok(()) => true,
        Err(p) if p.downcast_ref::<Abort>().is_some() => false,
        Err(p) => {
            let mut st = eng.lock();
            fail(&mut st, FailureKind::Panic { thread: tid, message: payload_msg(&*p) });
            false
        }
    };
    let mut st = eng.lock();
    st.threads[tid].run = Run::Finished;
    st.threads[tid].clock.bump(tid);
    st.live -= 1;
    if st.active == Some(tid) {
        st.active = None;
    }
    if st.live == 0 {
        st.done = true;
    } else if clean && !st.aborting && st.active.is_none() {
        pick_next(&mut st);
    }
    drop(st);
    eng.wake_all();
    CTX.with(|c| *c.borrow_mut() = None);
}

/// Driver-side: register the root thread (tid 0) and grant it the
/// baton. Called once per execution before spawning the root.
pub(crate) fn install_root(eng: &Engine) {
    let mut st = eng.lock();
    let mut clock = VClock::default();
    clock.bump(0);
    st.threads.push(ThreadSt::new(clock, Vec::new()));
    st.live = 1;
    st.threads[0].run = Run::Running;
    st.active = Some(0);
    st.last_running = Some(0);
}
