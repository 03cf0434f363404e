//! Cluster acceptance tests: the multi-node fabric behind the router must
//! behave exactly like one daemon — same wire protocol, same byte-stable
//! cache replies, same reconciled counters — while a membership change
//! (one shard draining out) loses no acknowledged work.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ncar_suite::{Artifact, Json, Registry};
use sxd::cluster::{spawn, ClusterConfig};
use sxd::{flood, Client, Demand, FloodConfig, JobEntry, Metrics, ServerConfig, Stats};

/// Runs of the `slow` suite with a nonzero `sleep_ms` that have begun.
static SLOW_RUNS_STARTED: AtomicUsize = AtomicUsize::new(0);

fn toy_registry() -> Registry<JobEntry> {
    let mut r = Registry::new();
    r.register(
        "shallow",
        JobEntry::new(Demand::light(3.0), "shallow-water proxy", |m, p| {
            let n = p.get("n").map(String::as_str).unwrap_or("64").to_string();
            Ok(vec![Artifact::Scalar {
                title: format!("{} shallow n={n}", m.name),
                value: 1000.0 + n.len() as f64,
                unit: "mflops".into(),
            }])
        }),
    );
    r.register(
        "radabs",
        JobEntry::new(Demand::light(1.5), "radiation-absorption proxy", |m, _p| {
            Ok(vec![Artifact::Scalar {
                title: format!("{} radabs", m.name),
                value: 500.0,
                unit: "mflops".into(),
            }])
        }),
    );
    // Sleeps `sleep_ms` of host time: a miss that holds its member
    // connection for as long as a test needs. Members run in this process,
    // so a test can see the sleep begin through `SLOW_RUNS_STARTED`.
    r.register(
        "slow",
        JobEntry::new(Demand::light(1.0), "host-time sleeper", |m, p| {
            let ms = p.get("sleep_ms").and_then(|v| v.parse().ok()).unwrap_or(0);
            if ms > 0 {
                SLOW_RUNS_STARTED.fetch_add(1, Ordering::SeqCst);
            }
            std::thread::sleep(Duration::from_millis(ms));
            Ok(vec![Artifact::Scalar {
                title: format!("{} slow {ms} ms", m.name),
                value: ms as f64,
                unit: "ms".into(),
            }])
        }),
    );
    r
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sxd-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn params_n(n: usize) -> BTreeMap<String, String> {
    let mut p = BTreeMap::new();
    p.insert("n".to_string(), n.to_string());
    p
}

/// Assert the merged counters satisfy the cluster reconciliation
/// invariant and return (accepted, done, absorbed, cache_hits).
fn reconciled_counters(metrics: &Json) -> (u64, u64, u64, u64) {
    assert_eq!(
        metrics.get("reconciled").and_then(Json::as_bool),
        Some(true),
        "cluster metrics must be reconciled: {metrics}"
    );
    let stats = metrics.get("stats").expect("metrics embeds stats");
    let n = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(
        n("accepted"),
        n("done") + n("rejected") + n("queued") + n("running"),
        "summed counters must reconcile: {stats}"
    );
    let hits = stats.get("cache").and_then(|c| c.get("hits")).and_then(Json::as_u64).unwrap_or(0);
    (n("accepted"), n("done"), n("absorbed"), hits)
}

#[test]
fn flood_through_the_router_passes_the_single_node_acceptance_checks() {
    let cluster = spawn(toy_registry(), ClusterConfig { shards: 3, ..ClusterConfig::default() })
        .expect("cluster spawns");
    let addr = cluster.addr().to_string();

    let outcome = flood(&FloodConfig {
        addr: addr.clone(),
        clients: 6,
        jobs: 36,
        suites: vec!["shallow".into(), "radabs".into()],
        machine: "sx4-9.2".into(),
        pipeline: 4,
    })
    .expect("flood runs");
    assert!(outcome.ok(), "flood through the router: {:?}", outcome.problems);
    assert!(outcome.metrics.stats.cache.hits > 0, "repeat configs must hit some member's cache");

    let mut client = Client::connect(&addr).unwrap();
    client.shutdown().unwrap();
    cluster.join().expect("cluster exits cleanly");
}

#[test]
fn routing_is_deterministic_and_single_node_verbs_stay_typed() {
    let cluster =
        spawn(toy_registry(), ClusterConfig { shards: 3, ..ClusterConfig::default() }).unwrap();
    let addr = cluster.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // `route` answers without running anything: same config, same owner.
    let a = client.route("shallow", "sx4-9.2", &params_n(1)).unwrap();
    let b = client.route("shallow", "sx4-9.2", &params_n(1)).unwrap();
    assert_eq!(a.get("member").and_then(Json::as_u64), b.get("member").and_then(Json::as_u64));
    assert!(a.get("shard").and_then(Json::as_str).unwrap_or("").starts_with("shard-"));
    let (_, done, _, _) = reconciled_counters(&client.metrics().unwrap());
    assert_eq!(done, 0, "route must not execute work");

    // A submit's reply carries the key that `route` predicted.
    let sub = client.submit("shallow", "sx4-9.2", &params_n(1)).unwrap();
    assert_eq!(Some(sub.key.as_str()), a.get("key").and_then(Json::as_str));

    // Unknown machine is rejected at the router, typed like a daemon.
    let err = client.route("shallow", "cray-2", &BTreeMap::new()).unwrap_err();
    assert_eq!(err.kind(), "unknown_machine");

    // A plain daemon (a cluster member, dialed directly) rejects the
    // cluster-only verbs with typed errors.
    let member = cluster.member_addrs()[0].to_string();
    let mut direct = Client::connect(&member).unwrap();
    let err = direct.drain_member(0, None).unwrap_err();
    assert_eq!(err.kind(), "bad_request", "{err}");
    let err = direct.route("shallow", "sx4-9.2", &BTreeMap::new()).unwrap_err();
    assert_eq!(err.kind(), "bad_request", "{err}");

    client.shutdown().unwrap();
    cluster.join().unwrap();
}

/// The acceptance-criteria test: 3 durable shards, N distinct configs,
/// one member drains out of the ring. Nothing acknowledged is lost,
/// repeat submits of the drained member's keys hit the successors'
/// caches byte-identically, and the merged counters reconcile on both
/// sides of the membership change.
#[test]
fn draining_a_member_hands_its_keyspace_off_byte_identically() {
    let dir = temp_dir("handoff");
    let cluster = spawn(
        toy_registry(),
        ClusterConfig {
            shards: 3,
            state_dir: Some(dir.clone()),
            server: ServerConfig::default(),
            ..ClusterConfig::default()
        },
    )
    .unwrap();
    let addr = cluster.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // Flood N distinct configs and remember each first reply.
    const N: usize = 12;
    let mut first = Vec::new();
    let mut owners = Vec::new();
    for i in 0..N {
        let sub = client.submit("shallow", "sx4-9.2", &params_n(i)).unwrap();
        assert!(!sub.cached, "config {i} is distinct");
        let route = client.route("shallow", "sx4-9.2", &params_n(i)).unwrap();
        owners.push(route.get("member").and_then(Json::as_u64).unwrap() as usize);
        first.push(sub.raw);
    }

    // Counters reconcile before the membership change.
    let (accepted_before, done_before, _, _) = reconciled_counters(&client.metrics().unwrap());
    assert_eq!((accepted_before, done_before), (N as u64, N as u64));

    // Drain the member that owns config 0. Synchronous: when the reply
    // arrives, the hand-off has completed.
    let victim = owners[0];
    let victim_jobs = owners.iter().filter(|&&o| o == victim).count();
    client.drain_member(victim, Some(2_000)).unwrap();

    // Its keyspace moved: config 0 now routes to a different member.
    let rerouted = client.route("shallow", "sx4-9.2", &params_n(0)).unwrap();
    assert_ne!(rerouted.get("member").and_then(Json::as_u64).unwrap() as usize, victim);

    // Every config — the drained member's included — replays its exact
    // first bytes from some surviving member's cache.
    for (i, original) in first.iter().enumerate() {
        let sub = client.submit("shallow", "sx4-9.2", &params_n(i)).unwrap();
        assert!(sub.cached, "config {i} must be served from cache after the drain");
        assert_eq!(
            sub.raw,
            original.replace("\"cached\":false", "\"cached\":true"),
            "config {i} must replay byte-identically across the membership change"
        );
    }

    // Counters reconcile after: the N repeats all retired as done, the
    // hand-off absorbed the victim's journal into its successors, and
    // the repeats of the victim's keys were cache hits there.
    let m = client.metrics().unwrap();
    let (accepted_after, done_after, absorbed, hits) = reconciled_counters(&m);
    // The drained member's counters left the merged view with it; the
    // survivors saw the N repeat submits.
    assert_eq!(accepted_after, (N - victim_jobs) as u64 + N as u64);
    assert_eq!(done_after, accepted_after);
    assert_eq!(absorbed as usize, victim_jobs, "every journaled result was handed off");
    assert!(hits >= N as u64, "repeats must hit surviving caches, got {hits}");

    // The router's own stats member reports the hand-off.
    let stats_reply = client.raw("{\"op\":\"stats\"}").unwrap();
    let doc = Json::parse(&stats_reply).unwrap();
    let router = doc.get("stats").and_then(|s| s.get("router")).expect("router tallies");
    assert_eq!(router.get("handoff_entries").and_then(Json::as_u64), Some(victim_jobs as u64));
    assert_eq!(router.get("members_alive").and_then(Json::as_u64), Some(2));

    client.shutdown().unwrap();
    cluster.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cluster-wide drain retires every member then the router, like a
/// single daemon's drain — and a second cluster over the same state root
/// recovers each shard's journal, so the keyspace survives a full
/// restart.
#[test]
fn full_cluster_drain_then_respawn_recovers_every_shard() {
    let dir = temp_dir("restart");
    let config =
        ClusterConfig { shards: 3, state_dir: Some(dir.clone()), ..ClusterConfig::default() };
    let cluster = spawn(toy_registry(), config.clone()).unwrap();
    let addr = cluster.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let mut first = Vec::new();
    for i in 0..6 {
        first.push(client.submit("shallow", "sx4-9.2", &params_n(i)).unwrap().raw);
    }
    client.drain(Some(2_000)).unwrap();
    cluster.join().unwrap();

    let cluster = spawn(toy_registry(), config).unwrap();
    let mut client = Client::connect(&cluster.addr().to_string()).unwrap();
    for (i, original) in first.iter().enumerate() {
        let sub = client.submit("shallow", "sx4-9.2", &params_n(i)).unwrap();
        assert!(sub.cached, "config {i} must survive the full-cluster restart");
        assert_eq!(sub.raw, original.replace("\"cached\":false", "\"cached\":true"));
    }
    client.shutdown().unwrap();
    cluster.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A router's merged documents are fixed points of the typed schema too:
/// parse → render reproduces the merged METRICS and the STATS reply with
/// its `members` count and `router` tallies, byte for byte.
#[test]
fn routed_stats_and_metrics_parse_and_render_back_to_their_reply_bytes() {
    let cluster = spawn(toy_registry(), ClusterConfig { shards: 2, ..ClusterConfig::default() })
        .expect("spawn cluster");
    let addr = cluster.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    for n in 0..6 {
        c.submit("shallow", "sx4-9.2", &params_n(n)).unwrap();
        c.submit("shallow", "sx4-9.2", &params_n(n)).unwrap();
    }
    let raw = c.raw(r#"{"op":"metrics"}"#).unwrap();
    let doc = Json::parse(&raw).unwrap();
    let metrics = Metrics::from_json(doc.get("metrics").unwrap());
    assert!(metrics.reconciled && metrics.stats.members == Some(2));
    assert_eq!(metrics.reply(), raw);
    let raw = c.raw(r#"{"op":"stats"}"#).unwrap();
    let doc = Json::parse(&raw).unwrap();
    let stats = Stats::from_json(doc.get("stats").unwrap());
    assert_eq!(stats.router.as_ref().map(|r| r.members_alive), Some(2));
    assert_eq!(stats.reply(), raw);
    c.shutdown().unwrap();
    cluster.join().unwrap();
}

fn slow_params(sleep_ms: u64, tag: usize) -> BTreeMap<String, String> {
    let mut p = params_n(tag);
    p.insert("sleep_ms".to_string(), sleep_ms.to_string());
    p
}

fn owner(client: &mut Client, suite: &str, params: &BTreeMap<String, String>) -> usize {
    let route = client.route(suite, "sx4-9.2", params).unwrap();
    route.get("member").and_then(Json::as_u64).unwrap() as usize
}

/// The router's own `unavailable` tally, from a STATS reply.
fn router_unavailable(client: &mut Client) -> u64 {
    let stats = client.stats().unwrap();
    stats.get("router").and_then(|r| r.get("unavailable")).and_then(Json::as_u64).unwrap()
}

/// A routed cache hit never queues behind a slow miss bound for the same
/// member: each forward holds its own member connection for its one round
/// trip, so the member answers the hit on its fast path while the miss is
/// still running.
#[test]
fn a_routed_hit_does_not_wait_behind_a_slow_miss_on_the_same_member() {
    let cluster = spawn(toy_registry(), ClusterConfig { shards: 2, ..ClusterConfig::default() })
        .expect("cluster spawns");
    let addr = cluster.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let miss = slow_params(1_500, 0);
    let member = owner(&mut client, "slow", &miss);
    let hot = (1..)
        .map(|tag| slow_params(0, tag))
        .find(|p| owner(&mut client, "slow", p) == member)
        .unwrap();
    assert!(!client.submit("slow", "sx4-9.2", &hot).unwrap().cached, "warm the hot key");

    let started = SLOW_RUNS_STARTED.load(Ordering::SeqCst);
    let miss_addr = addr.clone();
    let slow = std::thread::spawn(move || {
        Client::connect(&miss_addr).unwrap().submit("slow", "sx4-9.2", &miss).unwrap()
    });
    // The hit follows only once the member is running the miss.
    let t0 = Instant::now();
    while SLOW_RUNS_STARTED.load(Ordering::SeqCst) == started {
        assert!(t0.elapsed() < Duration::from_secs(5), "the slow miss never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    let t0 = Instant::now();
    let hit = client.submit("slow", "sx4-9.2", &hot).unwrap();
    let waited = t0.elapsed();
    assert!(hit.cached);
    assert!(waited < Duration::from_millis(500), "the hit waited {waited:?} behind the miss");
    assert!(!slow.join().unwrap().cached);

    client.shutdown().unwrap();
    cluster.join().unwrap();
}

/// A member that goes away on its own turns its keys' forwards into a
/// prompt, typed `shard_unavailable`, counted once.
#[test]
fn a_lost_member_answers_shard_unavailable_and_is_counted() {
    let cluster = spawn(toy_registry(), ClusterConfig { shards: 2, ..ClusterConfig::default() })
        .expect("cluster spawns");
    let addr = cluster.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    // Pool a connection to each member before one of them leaves.
    for n in 0..8 {
        client.submit("shallow", "sx4-9.2", &params_n(n)).unwrap();
    }

    let victim = 0;
    let victim_addr = cluster.member_addrs()[victim].to_string();
    Client::connect(&victim_addr).unwrap().shutdown().unwrap();
    let t0 = Instant::now();
    while std::net::TcpStream::connect(&victim_addr).is_ok() {
        assert!(t0.elapsed() < Duration::from_secs(5), "member {victim} never closed");
        std::thread::sleep(Duration::from_millis(10));
    }

    let owned = (0..).map(params_n).find(|p| owner(&mut client, "shallow", p) == victim).unwrap();
    let t0 = Instant::now();
    let err = client.submit("shallow", "sx4-9.2", &owned).unwrap_err();
    assert_eq!(err.kind(), "shard_unavailable", "{err}");
    assert!(t0.elapsed() < Duration::from_secs(5), "took {:?}", t0.elapsed());

    // STATS fans out to every member of the ring, so take the lost one out
    // first; the drain tolerates a member that is already gone.
    client.drain_member(victim, Some(1_000)).unwrap();
    assert_eq!(router_unavailable(&mut client), 1);

    client.shutdown().unwrap();
    cluster.join().unwrap();
}

/// A pooled member connection the member has idle-closed is not an outage:
/// the forward that finds it dead retries once on a fresh dial.
#[test]
fn a_forward_over_an_idle_closed_member_connection_redials() {
    let server =
        ServerConfig { idle_timeout: Some(Duration::from_millis(100)), ..ServerConfig::default() };
    let cluster =
        spawn(toy_registry(), ClusterConfig { shards: 2, server, ..ClusterConfig::default() })
            .expect("cluster spawns");
    let addr = cluster.addr().to_string();
    // The router idles out its clients too, so each step connects afresh.
    let first = Client::connect(&addr).unwrap().submit("shallow", "sx4-9.2", &params_n(1)).unwrap();
    std::thread::sleep(Duration::from_millis(400));
    let again = Client::connect(&addr).unwrap().submit("shallow", "sx4-9.2", &params_n(1)).unwrap();
    assert!(again.cached);
    assert_eq!(again.raw, first.raw.replace("\"cached\":false", "\"cached\":true"));
    let mut client = Client::connect(&addr).unwrap();
    let stats = client.stats().unwrap();
    let members_idle_closed = stats.get("conns").and_then(|c| c.get("idle_closed"));
    assert!(
        members_idle_closed.and_then(Json::as_u64) >= Some(1),
        "a member must have idle-closed the pooled connection: {stats}"
    );
    assert_eq!(router_unavailable(&mut client), 0);

    client.shutdown().unwrap();
    cluster.join().unwrap();
}
