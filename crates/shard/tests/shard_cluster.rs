//! `ShardCluster` end to end at test size: keyed load on every group of a
//! 5-node, 4-group deployment through the one load generator
//! (`gcs_net::run_load`), a partition of exactly one group while the
//! others keep serving, a merge, and then every group — each a complete,
//! separately-checkable VS/TO deployment — through the TO and VS cause
//! checkers, the b/d bound monitors and the per-key linearizability
//! checker. Plus the G = 1 case: one group of all nodes is the plain
//! single ring, frame for frame.

use gcs_apps::check_per_key_linearizable;
use gcs_core::cause::check_trace;
use gcs_core::to_trace::check_to_trace;
use gcs_model::{ProcId, Value};
use gcs_net::cluster::wait_for;
use gcs_net::codec::{read_frame, write_frame, Frame, HelloKind};
use gcs_net::{run_load, ClusterConfig, LoadConfig, LoadMode, LoadReport, LoopbackCluster};
use gcs_obs::{BoundParams, EventKind, StabilizationMonitor, TokenRoundMonitor};
use gcs_shard::{kv_values, ShardCluster, ShardClusterConfig};
use gcs_vsimpl::convert::{to_obs, vs_actions};
use std::collections::{BTreeMap, BTreeSet};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const DELTA_MS: u64 = 40;
const KEYS: u64 = 64;

/// Whether every member of `g` other than `except` has last installed a
/// view of exactly `size` members.
fn view_size(cluster: &ShardCluster, g: u32, size: usize, except: Option<ProcId>) -> bool {
    cluster
        .views(g)
        .iter()
        .filter(|(p, _)| Some(**p) != except)
        .all(|(_, vs)| vs.last().is_some_and(|v| v.size() == size))
}

fn closed(group: u32, ops: u64, warmup: u64) -> LoadConfig {
    LoadConfig {
        group,
        ops,
        mode: LoadMode::Closed { window: 32 },
        idle_timeout: Duration::from_secs(20),
        warmup,
    }
}

/// One keyed generator per job `(group, entry member, config, seed
/// base)`, all concurrently; every operation must come back.
fn run_wave(cluster: &ShardCluster, jobs: &[(u32, ProcId, LoadConfig, u64)]) {
    let map = cluster.config().shard_map();
    let reports: Vec<(u32, LoadReport)> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|(g, at, cfg, seed_base)| {
                let (addr, map) = (cluster.addr(*at), &map);
                let run = move || run_load(addr, cfg, kv_values(map, *g, KEYS, *seed_base));
                (*g, s.spawn(run))
            })
            .collect();
        handles
            .into_iter()
            .map(|(g, h)| (g, h.join().expect("load thread").expect("client connects")))
            .collect()
    });
    for (g, r) in reports {
        assert_eq!(r.submitted, r.delivered, "group {g} lost operations");
    }
}

#[test]
fn one_group_partitions_and_merges_while_the_others_keep_serving() {
    let config = ShardClusterConfig::ring(5, 4, 3, DELTA_MS);
    let groups = config.groups.clone();
    let cluster = ShardCluster::start(config, 1 << 20).expect("bind loopback");
    for g in 0..4 {
        assert!(
            wait_for(Duration::from_secs(20), || view_size(&cluster, g, 3, None)),
            "initial view of group {g} never formed: {:?}",
            cluster.views(g)
        );
    }

    // Phase 1: every group loaded concurrently at its first member.
    let first = |g: u32| *groups[g as usize].iter().next().expect("group has members");
    let jobs: Vec<_> =
        (0..4u32).map(|g| (g, first(g), closed(g, 500, 50), u64::from(g + 1) << 32)).collect();
    run_wave(&cluster, &jobs);
    for g in 0..4 {
        assert!(
            cluster.await_group_deliveries(g, 550, Duration::from_secs(20)),
            "group {g} members missed client traffic"
        );
    }

    // Phase 2: cut node 0 — group 0's minority member — off nodes 1 and
    // 2. Group 0 = {0,1,2} splits into {0} | {1,2}; groups 1 and 2 do
    // not contain node 0 and group 3 = {3,4,0} keeps all its links.
    let (p0, p1, p2) = (ProcId(0), ProcId(1), ProcId(2));
    cluster.sever_pair(p0, p1);
    cluster.sever_pair(p0, p2);
    assert!(
        wait_for(Duration::from_secs(20), || view_size(&cluster, 0, 2, Some(p0))),
        "group 0's majority never re-formed: {:?}",
        cluster.views(0)
    );
    // The majority side of group 0 and the three undisturbed groups all
    // keep completing operations under the cut.
    let mut jobs = vec![(0, p1, closed(0, 200, 0), 9 << 32)];
    jobs.extend((1..4u32).map(|g| (g, first(g), closed(g, 200, 0), u64::from(g + 10) << 32)));
    run_wave(&cluster, &jobs);

    // Phase 3: heal. Group 0 re-forms in full and the rejoined member
    // catches up on what the majority ordered without it.
    cluster.heal_pair(p0, p1);
    cluster.heal_pair(p0, p2);
    assert!(
        wait_for(Duration::from_secs(20), || view_size(&cluster, 0, 3, None)),
        "group 0 never re-formed after the heal: {:?}",
        cluster.views(0)
    );
    for g in 0..4 {
        assert!(
            cluster.await_group_deliveries(g, 750, Duration::from_secs(20)),
            "group {g} did not converge on all 750 operations"
        );
    }
    // Settle past the stabilization bound so the monitors see the
    // post-heal view change inside its excuse window.
    let params = BoundParams::standard(3, DELTA_MS);
    std::thread::sleep(Duration::from_millis(params.b_ms() + 200));

    for g in 0..4u32 {
        let streams: Vec<Vec<Value>> = cluster
            .delivered(g)
            .into_values()
            .map(|s| s.into_iter().map(|(_, a)| a).collect())
            .collect();
        assert!(streams.iter().all(|s| s == &streams[0]), "group {g} members diverge");
        assert_eq!(streams[0].len(), 750, "group {g} delivered something twice or not at all");
        check_per_key_linearizable(&streams).expect("per-key linearizable");

        let obs = cluster.group_obs(g);
        assert_eq!(obs.trace.evicted(), 0, "group {g}: the monitors are blind");
        let events = obs.trace.snapshot();
        let mut stab = StabilizationMonitor::new(params);
        let mut round = TokenRoundMonitor::new(params);
        stab.feed_all(&events);
        round.feed_all(&events);
        let (stab, round) = (stab.finish(), round.finish(obs.trace.now_ms()));
        assert!(stab.ok(), "group {g} stabilization (b): {:?}", stab.violations.first());
        assert!(round.ok(), "group {g} token round (d): {:?}", round.violations.first());
    }
    // Only group 0 saw the cut: no other group contains both endpoints
    // of a severed pair, so no other sink holds a fault.
    let faults = |g| {
        let events = cluster.group_obs(g).trace.snapshot();
        events.iter().filter(|e| matches!(e.kind, EventKind::Fault { .. })).count()
    };
    assert_eq!((faults(0), faults(1), faults(2), faults(3)), (4, 0, 0, 0));
    assert!(cluster.views(0).values().all(|vs| vs.len() > 1));

    let (traces, shutdown) = cluster.stop();
    assert!(shutdown.clean(), "leaked {} transport threads", shutdown.leaked);
    for (g, trace) in &traces {
        let to = check_to_trace(&to_obs(trace).untimed());
        assert!(to.ok(), "group {g} TO checker: {:?}", to.violations.first());
        let cause = check_trace(&vs_actions(trace), &groups[*g as usize]);
        assert!(cause.ok(), "group {g} VS cause checker: {:?}", cause.violations.first());
    }
}

/// A `ShardCluster` of one group over all nodes *is* the single ring: a
/// client that has never heard of groups — plain `Submit` in, untagged
/// `Deliver`/`DeliverBatch` out — is served by it, and the generator
/// with `group: 0` is served alike by it and by `LoopbackCluster`.
#[test]
fn one_group_of_all_nodes_is_the_plain_single_ring() {
    let n = 3;
    let config = ShardClusterConfig {
        n,
        groups: vec![ProcId::range(n)],
        delta_ms: 20,
        transport: Default::default(),
    };
    let sharded = ShardCluster::start(config, 1 << 16).expect("bind loopback");
    let ring = LoopbackCluster::start(ClusterConfig::patient(n)).expect("bind loopback");

    let mut stream = TcpStream::connect(sharded.addr(ProcId(1))).expect("connect");
    let hello = Frame::Hello { node: ProcId(u32::MAX), generation: 0, kind: HelloKind::Client };
    write_frame(&mut stream, &hello).expect("hello");
    for x in 1..=20u64 {
        write_frame(&mut stream, &Frame::Submit(Value::from_u64(x))).expect("submit");
    }
    let mut back = BTreeSet::new();
    while back.len() < 20 {
        match read_frame(&mut stream).expect("read").expect("node hung up") {
            Frame::Deliver { a, .. } => back.extend(a.as_u64()),
            Frame::DeliverBatch(batch) => back.extend(batch.iter().filter_map(|(_, a)| a.as_u64())),
            Frame::View { group, .. } => assert_eq!(group, 0),
            other => panic!("a single ring speaks untagged frames, got {other:?}"),
        }
    }
    assert_eq!(back, (1..=20).collect());

    let cfg = LoadConfig {
        group: 0,
        ops: 200,
        mode: LoadMode::Closed { window: 16 },
        idle_timeout: Duration::from_secs(20),
        warmup: 0,
    };
    let on_sharded =
        run_load(sharded.addr(ProcId(0)), &cfg, |i| Value::from_u64(1000 + i)).expect("run");
    let on_ring = run_load(ring.addr(ProcId(0)), &cfg, |i| Value::from_u64(1000 + i)).expect("run");
    assert_eq!((on_sharded.delivered, on_ring.delivered), (200, 200));
    assert!(sharded.await_group_deliveries(0, 220, Duration::from_secs(20)));
    assert!(ring.await_deliveries(200, Duration::from_secs(20)));

    // The one difference is the `group` label a sharded group's metrics
    // carry, in its own sink rather than the transports'.
    let labeled = sharded.group_obs(0).registry.snapshot();
    let plain = ring.obs().registry.snapshot();
    let name = "node_deliveries_total";
    assert_eq!(labeled.counter_value(name, &[("node", "0"), ("group", "0")]), 220);
    assert_eq!(plain.counter_value(name, &[("node", "0")]), 200);
    assert_eq!(sharded.net_obs().registry.snapshot().counter_total(name), 0);
    sharded.stop();
    ring.stop();
}

/// What one raw client connection was pushed: the values delivered per
/// group, and the groups whose views it was sent.
#[derive(Default)]
struct Pushed {
    delivered: BTreeMap<u32, BTreeSet<u64>>,
    views: BTreeSet<u32>,
}

impl Pushed {
    /// Whether every value of `values` was delivered in `group`.
    fn has(&self, group: u32, values: &BTreeSet<u64>) -> bool {
        self.delivered.get(&group).is_some_and(|got| got.is_superset(values))
    }
}

/// A client connection that has said `Hello`.
fn client(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");
    let hello = Frame::Hello { node: ProcId(u32::MAX), generation: 0, kind: HelloKind::Client };
    write_frame(&mut stream, &hello).expect("hello");
    stream
}

/// Submits `values` to `group`, untagged for group 0 as a plain client
/// would.
fn submit(stream: &mut TcpStream, group: u32, values: impl Iterator<Item = u64>) {
    let batch = values.map(Value::from_u64).collect();
    let frame =
        if group == 0 { Frame::SubmitBatch(batch) } else { Frame::SubmitGroup { group, batch } };
    write_frame(stream, &frame).expect("submit");
}

/// Reads pushed frames into `pushed` until `done` holds of it; `what`
/// names the wait in a failure.
fn read_until(
    stream: &mut TcpStream,
    pushed: &mut Pushed,
    what: &str,
    done: impl Fn(&Pushed) -> bool,
) {
    while !done(pushed) {
        let frame = read_frame(stream).unwrap_or_else(|e| {
            let counts: Vec<_> = pushed.delivered.iter().map(|(g, v)| (g, v.len())).collect();
            panic!("{what}: {e}; had deliveries {counts:?}, views {:?}", pushed.views)
        });
        let (group, batch) = match frame.expect("node hung up") {
            Frame::DeliverBatch(batch) => (0, batch),
            Frame::DeliverGroup { group, batch } => (group, batch),
            Frame::View { group, .. } => {
                pushed.views.insert(group);
                continue;
            }
            other => panic!("a client is pushed deliveries and views only, got {other:?}"),
        };
        let values = batch.iter().filter_map(|(_, a)| a.as_u64());
        pushed.delivered.entry(group).or_default().extend(values);
    }
}

/// Two groups share node 1's endpoint, and a client there is sent the
/// deliveries of the groups it has submitted to, and only those, but
/// every group's views, which a shard router follows.
#[test]
fn a_client_is_pushed_the_deliveries_of_its_groups_and_every_view() {
    // Group 0 = {0, 1, 2}, group 1 = {1, 2, 3}: node 1 hosts both.
    let cluster = ShardCluster::start(ShardClusterConfig::ring(4, 2, 3, DELTA_MS), 1 << 16)
        .expect("bind loopback");
    for g in 0..2 {
        assert!(
            wait_for(Duration::from_secs(20), || view_size(&cluster, g, 3, None)),
            "initial view of group {g} never formed: {:?}",
            cluster.views(g)
        );
    }
    let at = cluster.addr(ProcId(1));
    let (mut one, mut both) = (client(at), client(at));
    let (mut to_one, mut to_both) = (Pushed::default(), Pushed::default());
    let set = |values: std::ops::RangeInclusive<u64>| values.collect::<BTreeSet<u64>>();

    // `one` is sent its group-1 values; `both` has submitted nothing
    // yet, so it is sent none of them.
    submit(&mut one, 1, 1..=20);
    read_until(&mut one, &mut to_one, "one's first deliveries", |p| p.has(1, &set(1..=20)));
    // From its first submission to a group on, a client is sent that
    // group's deliveries, whoever submitted them: `both` gets its own
    // values of both groups, `one` gets `both`'s group-1 values too.
    submit(&mut both, 0, 101..=120);
    submit(&mut both, 1, 201..=220);
    read_until(&mut both, &mut to_both, "both's deliveries", |p| {
        p.has(0, &set(101..=120)) && p.has(1, &set(201..=220))
    });
    let group_1: BTreeSet<u64> = (1..=20).chain(201..=220).collect();
    read_until(&mut one, &mut to_one, "one's deliveries", |p| p.has(1, &group_1));

    // A cut of the (1, 2) pair changes node 1's view in both groups. Every
    // push to `one` before these views, group 0's deliveries among them,
    // is read by the time both views are.
    to_one.views.clear();
    to_both.views.clear();
    cluster.sever_pair(ProcId(1), ProcId(2));
    let all_views = |p: &Pushed| p.views == BTreeSet::from([0, 1]);
    read_until(&mut one, &mut to_one, "one's views", all_views);
    read_until(&mut both, &mut to_both, "both's views", all_views);
    assert_eq!(
        to_one.delivered.keys().collect::<Vec<_>>(),
        [&1],
        "sent another group's deliveries"
    );
    assert_eq!(to_one.delivered[&1], group_1);
    assert_eq!(to_both.delivered[&0], set(101..=120));
    assert_eq!(to_both.delivered[&1], set(201..=220), "sent deliveries from before it submitted");

    drop((one, both));
    let (_, shutdown) = cluster.stop();
    assert!(shutdown.clean(), "leaked {} transport threads", shutdown.leaked);
}
