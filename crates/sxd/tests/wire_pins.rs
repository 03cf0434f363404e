//! Exact reply bytes of the observability documents, recorded before their
//! schema moved behind one owner. STATS from a daemon (memory-only and
//! durable) and from a 2-member cluster are pinned after a fixed,
//! sequential submit sequence over one connection, so every counter,
//! gauge-free field and connection tally is deterministic. The cluster
//! merge is pinned on the fixed member fixtures the merge has always been
//! tested with. Any change to a field name, its order, or an integer
//! counter printing as a float shows here. The two framing-error replies
//! and the shutdown and drain acks are pinned from both a daemon and a
//! router, since the two endpoints must build them the same way.

use std::path::PathBuf;

use ncar_suite::{Artifact, Json, Registry};
use sxd::cluster::{spawn, ClusterConfig};
use sxd::{Client, Demand, JobEntry, Metrics, Server, ServerConfig, Stats};

/// The merges under test, as the bytes a router puts on the wire.
fn merged_stats(docs: &[Json]) -> String {
    let members: Vec<Stats> = docs.iter().map(Stats::from_json).collect();
    Stats::merge(&members).to_string()
}

fn merged_metrics(docs: &[Json]) -> String {
    let members: Vec<Metrics> = docs.iter().map(Metrics::from_json).collect();
    Metrics::merge(&members).to_string()
}

fn toy_registry() -> Registry<JobEntry> {
    let mut r = Registry::new();
    r.register(
        "shallow",
        JobEntry::new(Demand::light(3.0), "shallow-water proxy", |m, p| {
            let n = p.get("n").map(String::as_str).unwrap_or("64").to_string();
            Ok(vec![Artifact::Scalar {
                title: format!("{} shallow n={n}", m.name),
                value: 1000.0,
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
    r
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sxd-wire-pins-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The fixed submit sequence every live pin runs before asking for STATS:
/// three misses, two hits, an unknown suite, an unknown machine and a
/// garbage frame — one after another, on one connection.
fn fixed_sequence(c: &mut Client) {
    let frames = [
        r#"{"op":"submit","suite":"shallow","machine":"sx4-9.2","params":{"n":"64"}}"#,
        r#"{"op":"submit","suite":"shallow","machine":"sx4-9.2","params":{"n":"64"}}"#,
        r#"{"op":"submit","suite":"shallow","machine":"sx4-9.2","params":{"n":"128"}}"#,
        r#"{"op":"submit","suite":"radabs","machine":"sx4-9.2","params":{}}"#,
        r#"{"op":"submit","suite":"radabs","machine":"sx4-9.2","params":{}}"#,
        r#"{"op":"submit","suite":"nope","machine":"sx4-9.2","params":{}}"#,
        r#"{"op":"submit","suite":"radabs","machine":"cray-1","params":{}}"#,
        "not json at all",
    ];
    for f in frames {
        c.raw(f).unwrap();
    }
}

const DAEMON_STATS: &str = concat!(
    r#"{"ok":true,"stats":{"accepted":5,"rejected":0,"queued":0,"running":0,"done":5,"#,
    r#""bad_requests":3,"coalesced":0,"checkpointed":0,"absorbed":0,"fastpath_hits":5,"#,
    r#""queue_depth":0,"cache":{"hits":2,"misses":3,"evictions":0,"entries":3,"cap":256},"#,
    r#""conns":{"open":1,"accepted":1,"idle_closed":0},"#,
    r#""suite_seconds":{"radabs":1.500000114440918,"shallow":6.000000457763672},"#,
    r#""workers":4,"journal":null,"draining":false,"shutting_down":false}}"#,
);
const DURABLE_STATS: &str = concat!(
    r#"{"ok":true,"stats":{"accepted":5,"rejected":0,"queued":0,"running":0,"done":5,"#,
    r#""bad_requests":3,"coalesced":0,"checkpointed":0,"absorbed":0,"fastpath_hits":5,"#,
    r#""queue_depth":0,"cache":{"hits":2,"misses":3,"evictions":0,"entries":3,"cap":256},"#,
    r#""conns":{"open":1,"accepted":1,"idle_closed":0},"#,
    r#""suite_seconds":{"radabs":1.500000114440918,"shallow":6.000000457763672},"#,
    r#""workers":4,"journal":{"appended":3,"replayed":0,"compactions":0,"#,
    r#""truncated_bytes":0,"io_errors":0},"draining":false,"shutting_down":false}}"#,
);
const CLUSTER_STATS: &str = concat!(
    r#"{"ok":true,"stats":{"accepted":5,"rejected":0,"queued":0,"running":0,"done":5,"#,
    r#""bad_requests":1,"coalesced":0,"checkpointed":0,"absorbed":0,"fastpath_hits":3,"#,
    r#""queue_depth":0,"cache":{"hits":2,"misses":3,"evictions":0,"entries":3,"cap":512},"#,
    r#""conns":{"open":2,"accepted":2,"idle_closed":0},"#,
    r#""suite_seconds":{"radabs":1.500000114440918,"shallow":6.000000457763672},"#,
    r#""workers":8,"journal":null,"draining":false,"shutting_down":false,"members":2,"#,
    r#""router":{"forwarded":8,"bad_requests":2,"handoff_entries":0,"handoff_skipped":0,"#,
    r#""handoff_resubmits":0,"unavailable":0,"fastpath_hits":1,"conns":{"open":1,"#,
    r#""accepted":1,"idle_closed":0},"members_alive":2,"members_total":2}}}"#,
);

#[test]
fn daemon_stats_reply_bytes_are_pinned() {
    let server = Server::bind(toy_registry(), ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());
    let mut c = Client::connect(&addr).unwrap();
    fixed_sequence(&mut c);
    assert_eq!(c.raw(r#"{"op":"stats"}"#).unwrap(), DAEMON_STATS);
    c.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

#[test]
fn durable_daemon_stats_reply_bytes_are_pinned() {
    let dir = temp_dir("durable");
    let config = ServerConfig { state_dir: Some(dir.clone()), ..ServerConfig::default() };
    let server = Server::bind(toy_registry(), config).unwrap();
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());
    let mut c = Client::connect(&addr).unwrap();
    fixed_sequence(&mut c);
    assert_eq!(c.raw(r#"{"op":"stats"}"#).unwrap(), DURABLE_STATS);
    c.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cluster_stats_reply_bytes_are_pinned() {
    let config = ClusterConfig { shards: 2, ..ClusterConfig::default() };
    let cluster = spawn(toy_registry(), config).unwrap();
    let addr = cluster.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    fixed_sequence(&mut c);
    assert_eq!(c.raw(r#"{"op":"stats"}"#).unwrap(), CLUSTER_STATS);
    c.shutdown().unwrap();
    cluster.join().unwrap();
}

fn member_stats(accepted: u64, done: u64, queued: u64, hits: u64) -> Json {
    Json::parse(&format!(
        "{{\"accepted\":{accepted},\"rejected\":0,\"queued\":{queued},\"running\":0,\
         \"done\":{done},\"bad_requests\":1,\"coalesced\":2,\"checkpointed\":0,\
         \"absorbed\":0,\"fastpath_hits\":{hits},\"queue_depth\":{queued},\
         \"cache\":{{\"hits\":{hits},\"misses\":3,\"evictions\":0,\"entries\":4,\"cap\":256}},\
         \"conns\":{{\"open\":1,\"accepted\":{accepted},\"idle_closed\":2}},\
         \"suite_seconds\":{{\"fig5\":1.5}},\"workers\":4,\
         \"journal\":{{\"appended\":5,\"replayed\":0,\"compactions\":1,\
         \"truncated_bytes\":0,\"io_errors\":0}},\
         \"draining\":false,\"shutting_down\":false}}"
    ))
    .unwrap()
}

fn memory_only(mut doc: Json) -> Json {
    if let Json::Obj(fields) = &mut doc {
        for (k, v) in fields.iter_mut() {
            if k == "journal" {
                *v = Json::Null;
            }
        }
    }
    doc
}

const MERGED_STATS: &str = concat!(
    r#"{"accepted":15,"rejected":0,"queued":2,"running":0,"done":13,"bad_requests":2,"#,
    r#""coalesced":4,"checkpointed":0,"absorbed":0,"fastpath_hits":8,"queue_depth":2,"#,
    r#""cache":{"hits":8,"misses":6,"evictions":0,"entries":8,"cap":512},"conns":{"open":2,"#,
    r#""accepted":15,"idle_closed":4},"suite_seconds":{"fig5":3.0},"workers":8,"#,
    r#""journal":{"appended":10,"replayed":0,"compactions":2,"truncated_bytes":0,"#,
    r#""io_errors":0},"draining":false,"shutting_down":false,"members":2}"#,
);
const MERGED_MEMORY_ONLY_STATS: &str = concat!(
    r#"{"accepted":2,"rejected":0,"queued":0,"running":0,"done":2,"bad_requests":2,"#,
    r#""coalesced":4,"checkpointed":0,"absorbed":0,"fastpath_hits":0,"queue_depth":0,"#,
    r#""cache":{"hits":0,"misses":6,"evictions":0,"entries":8,"cap":512},"conns":{"open":2,"#,
    r#""accepted":2,"idle_closed":4},"suite_seconds":{"fig5":3.0},"workers":8,"#,
    r#""journal":null,"draining":false,"shutting_down":false,"members":2}"#,
);

#[test]
fn merged_stats_bytes_are_pinned() {
    let merged = merged_stats(&[member_stats(5, 3, 2, 7), member_stats(10, 10, 0, 1)]);
    assert_eq!(merged, MERGED_STATS);
    let merged = merged_stats(&[
        memory_only(member_stats(1, 1, 0, 0)),
        memory_only(member_stats(1, 1, 0, 0)),
    ]);
    assert_eq!(merged, MERGED_MEMORY_ONLY_STATS);
}

fn reweight_member(done: u64, runs: u64, stretch: f64) -> Json {
    Json::parse(&format!(
        "{{\"stats\":{{\"accepted\":{done},\"rejected\":0,\"queued\":0,\"running\":0,\
         \"done\":{done},\"bad_requests\":0,\"coalesced\":0,\"checkpointed\":0,\
         \"absorbed\":0,\"queue_depth\":0,\
         \"cache\":{{\"hits\":0,\"misses\":0,\"evictions\":0,\"entries\":0,\"cap\":8}},\
         \"suite_seconds\":{{}},\"workers\":1,\"journal\":null,\
         \"draining\":false,\"shutting_down\":false}},\
         \"gauges\":{{\"pool_queue_depth\":1.0}},\
         \"latency\":{{\"job\":{{\"le\":[1.0,2.0],\"n\":[{done},0,0],\
         \"count\":{done},\"sum\":0.5}}}},\
         \"suites\":{{\"toy\":{{\"runs\":{runs},\"sim_seconds\":1.0,\
         \"avg_stretch\":{stretch}}}}},\
         \"reconciled\":true}}"
    ))
    .unwrap()
}

fn ratio_member(done: u64, stretch: f64, depth: f64) -> Json {
    Json::parse(&format!(
        "{{\"stats\":{{\"accepted\":{done},\"rejected\":0,\"queued\":0,\"running\":0,\
         \"done\":{done},\
         \"cache\":{{\"hits\":0,\"misses\":0,\"evictions\":0,\"entries\":0,\"cap\":8}},\
         \"suite_seconds\":{{}},\"workers\":1,\"journal\":null,\
         \"draining\":false,\"shutting_down\":false}},\
         \"gauges\":{{\"admission_stretch\":{stretch},\"pool_queue_depth\":{depth}}},\
         \"latency\":{{}},\"suites\":{{}},\"reconciled\":true}}"
    ))
    .unwrap()
}

const LYING_MEMBER: &str = "{\"stats\":{\"accepted\":1,\"rejected\":0,\"queued\":0,\"running\":0,\
     \"done\":1,\"cache\":{\"hits\":0,\"misses\":0,\"evictions\":0,\"entries\":0,\"cap\":8},\
     \"suite_seconds\":{},\"workers\":1,\"journal\":null,\
     \"draining\":false,\"shutting_down\":false},\
     \"gauges\":{},\"latency\":{\"job\":{\"le\":[1.0],\"n\":[9,0],\"count\":9,\"sum\":0.0}},\
     \"suites\":{},\"reconciled\":false}";

const MERGED_REWEIGHT: &str = concat!(
    r#"{"stats":{"accepted":8,"rejected":0,"queued":0,"running":0,"done":8,"#,
    r#""bad_requests":0,"coalesced":0,"checkpointed":0,"absorbed":0,"fastpath_hits":0,"#,
    r#""queue_depth":0,"cache":{"hits":0,"misses":0,"evictions":0,"entries":0,"cap":16},"#,
    r#""conns":{"open":0,"accepted":0,"idle_closed":0},"suite_seconds":{},"workers":2,"#,
    r#""journal":null,"draining":false,"shutting_down":false,"members":2},"#,
    r#""gauges":{"pool_queue_depth":2.0},"latency":{"job":{"count":8.0,"sum":1.0,"p50":0.5,"#,
    r#""p90":0.9,"p99":0.99,"le":[1.0,2.0],"n":[8.0,0.0,0.0]}},"suites":{"toy":{"runs":8.0,"#,
    r#""sim_seconds":2.0,"avg_stretch":1.75}},"reconciled":true}"#,
);
const MERGED_RATIO: &str = concat!(
    r#"{"stats":{"accepted":8,"rejected":0,"queued":0,"running":0,"done":8,"#,
    r#""bad_requests":0,"coalesced":0,"checkpointed":0,"absorbed":0,"fastpath_hits":0,"#,
    r#""queue_depth":0,"cache":{"hits":0,"misses":0,"evictions":0,"entries":0,"cap":16},"#,
    r#""conns":{"open":0,"accepted":0,"idle_closed":0},"suite_seconds":{},"workers":2,"#,
    r#""journal":null,"draining":false,"shutting_down":false,"members":2},"#,
    r#""gauges":{"admission_stretch":1.75,"pool_queue_depth":4.0},"latency":{},"suites":{},"#,
    r#""reconciled":false}"#,
);
const MERGED_RATIO_IDLE: &str = concat!(
    r#"{"stats":{"accepted":0,"rejected":0,"queued":0,"running":0,"done":0,"#,
    r#""bad_requests":0,"coalesced":0,"checkpointed":0,"absorbed":0,"fastpath_hits":0,"#,
    r#""queue_depth":0,"cache":{"hits":0,"misses":0,"evictions":0,"entries":0,"cap":16},"#,
    r#""conns":{"open":0,"accepted":0,"idle_closed":0},"suite_seconds":{},"workers":2,"#,
    r#""journal":null,"draining":false,"shutting_down":false,"members":2},"#,
    r#""gauges":{"admission_stretch":1.5,"pool_queue_depth":0.0},"latency":{},"suites":{},"#,
    r#""reconciled":true}"#,
);
const MERGED_LYING: &str = concat!(
    r#"{"stats":{"accepted":1,"rejected":0,"queued":0,"running":0,"done":1,"#,
    r#""bad_requests":0,"coalesced":0,"checkpointed":0,"absorbed":0,"fastpath_hits":0,"#,
    r#""queue_depth":0,"cache":{"hits":0,"misses":0,"evictions":0,"entries":0,"cap":8},"#,
    r#""conns":{"open":0,"accepted":0,"idle_closed":0},"suite_seconds":{},"workers":1,"#,
    r#""journal":null,"draining":false,"shutting_down":false,"members":1},"gauges":{},"#,
    r#""latency":{"job":{"count":9.0,"sum":0.0,"p50":0.5,"p90":0.8999999999999999,"#,
    r#""p99":0.99,"le":[1.0],"n":[9.0,0.0]}},"suites":{},"reconciled":false}"#,
);

#[test]
fn merged_metrics_bytes_are_pinned() {
    let merged = merged_metrics(&[reweight_member(2, 2, 1.0), reweight_member(6, 6, 2.0)]);
    assert_eq!(merged, MERGED_REWEIGHT);
    let merged = merged_metrics(&[ratio_member(6, 2.0, 3.0), ratio_member(2, 1.0, 1.0)]);
    assert_eq!(merged, MERGED_RATIO);
    let merged = merged_metrics(&[ratio_member(0, 2.0, 0.0), ratio_member(0, 1.0, 0.0)]);
    assert_eq!(merged, MERGED_RATIO_IDLE);
    let merged = merged_metrics(&[Json::parse(LYING_MEMBER).unwrap()]);
    assert_eq!(merged, MERGED_LYING);
}

/// The replies a daemon and a router build the same way: the two framing
/// errors (answered before any request parses, then the connection
/// closes) and the shutdown and drain acks.
const FRAME_TOO_LONG: &str = concat!(
    r#"{"ok":false,"error":{"kind":"frame_too_long","#,
    r#""detail":"frame of 65537+ bytes exceeds the 65536-byte cap"}}"#,
);
const NOT_UTF8: &str =
    r#"{"ok":false,"error":{"kind":"bad_json","detail":"frame is not valid UTF-8"}}"#;
const SHUTDOWN_ACK: &str = r#"{"ok":true,"shutting_down":true}"#;
const DRAIN_ACK: &str = r#"{"ok":true,"draining":true,"deadline_ms":1500}"#;
/// The two ways to end an endpoint, each with its ack.
const EXITS: [(&str, &str); 2] =
    [(r#"{"op":"shutdown"}"#, SHUTDOWN_ACK), (r#"{"op":"drain","deadline_ms":1500}"#, DRAIN_ACK)];

/// Send `bytes` on a fresh connection and read one reply line.
fn raw_bytes_reply(addr: &str, bytes: &[u8]) -> String {
    use std::io::{BufRead, BufReader, Write};
    let mut sock = std::net::TcpStream::connect(addr).unwrap();
    sock.write_all(bytes).unwrap();
    let mut line = String::new();
    BufReader::new(sock).read_line(&mut line).unwrap();
    line.trim_end_matches('\n').to_string()
}

/// Pin both framing errors on `addr`, then end the endpoint with `exit`
/// and pin its ack.
fn pin_shared_replies(addr: &str, exit: &str, ack: &str) {
    let mut big = vec![b'x'; sxd::MAX_REQUEST_FRAME + 1];
    big.push(b'\n');
    assert_eq!(raw_bytes_reply(addr, &big), FRAME_TOO_LONG);
    assert_eq!(raw_bytes_reply(addr, b"\xff\xfe{}\n"), NOT_UTF8);
    assert_eq!(Client::connect(addr).unwrap().raw(exit).unwrap(), ack);
}

#[test]
fn daemon_error_and_ack_reply_bytes_are_pinned() {
    for (exit, ack) in EXITS {
        let server = Server::bind(toy_registry(), ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let daemon = std::thread::spawn(move || server.run());
        pin_shared_replies(&addr, exit, ack);
        daemon.join().unwrap().unwrap();
    }
}

#[test]
fn router_error_and_ack_reply_bytes_are_pinned() {
    for (exit, ack) in EXITS {
        let cluster =
            spawn(toy_registry(), ClusterConfig { shards: 2, ..ClusterConfig::default() }).unwrap();
        pin_shared_replies(&cluster.addr().to_string(), exit, ack);
        cluster.join().unwrap();
    }
}
