//! The shard router: one front end speaking the daemon's own NDJSON/TCP
//! protocol, fanning work out over N member daemons.
//!
//! This is the harness-side analogue of the SX-4's IXS crossbar (paper
//! §1): clients talk to one address; each `submit` is routed by the
//! rendezvous [`Ring`] over its content-addressed cache key to the member
//! that owns the keyspace, so identical configurations always land on the
//! same shard and its cache/single-flight machinery dedupes cluster-wide.
//! `stats` and `metrics` fan out to every live member and merge (see
//! [`crate::stats`]); `drain` with a `member` retires one shard and
//! hands its durable results to the keyspace successors, so repeat
//! submits of the drained member's keys still hit — byte-identically.
//!
//! The router serves on the same [`ncar_suite::reactor`] event loop as
//! the member daemons. Forwards run on dispatcher threads over *pooled*
//! member connections: each member has a list of idle [`Client`]s. A
//! forward pops one (or dials), makes one round trip with no lock held,
//! and pushes it back. Concurrent forwards to one member therefore each
//! hold their own socket, so a cache hit never waits behind a slow miss
//! the member is still answering on another connection. The pool needs
//! no cap: it never holds more connections than there were concurrent
//! forwards, at most the router's dispatcher count. A failed round drops
//! its connection and retries once on a fresh dial (a pooled connection
//! may have been idle-closed by its member); a second failure is a typed
//! `ShardUnavailable`, counted in `unavailable`. Fan-out verbs
//! (`stats`/`metrics`) and the drain hand-off's `put` replication are
//! plain loops over the same forward.
//!
//! Each frame is parsed once, by the router's `classify` on the reactor
//! thread. `route` and parse errors are pure ring math — no member I/O —
//! so they are answered right there (the router's fast path, counted in
//! `fastpath_hits`); every other request reaches a dispatcher together
//! with its raw frame, which `submit` and `put` forward verbatim.
//!
//! The router's locks (`sxd.router.members`, `sxd.router.handles`,
//! `sxd.router.counters`, `sxd.router.reactor`, and the per-member
//! `sxd.router.pool` lists) are all leaves: none is ever held while
//! acquiring another, and none is held across IO. Dials, round trips,
//! joins and the hand-off are declared via `lockreg::blocking_io`.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ncar_suite::par::lockreg;
use ncar_suite::reactor::{
    Classified, DecodeError, Reactor, ReactorConfig, ReactorHandle, Reply, Service,
};
use ncar_suite::{plock_named, Json};
use sxsim::presets;

use super::ring::Ring;
use crate::client::Client;
use crate::error::SxdError;
use crate::journal::{self, Journal};
use crate::proto::{cache_key, drain_ack, shutdown_ack, Request, MAX_REQUEST_FRAME};
use crate::server::run_named_reactor;
use crate::stats::{ConnStats, Metrics, RouterStats, Stats};

/// How the router dials a member: a few quick retries so member startup
/// races (the member thread is still binding) resolve without failing the
/// client's request.
const CONNECT_ATTEMPTS: usize = 5;
const CONNECT_BACKOFF: Duration = Duration::from_millis(20);

/// Join handle for an in-process member daemon, `None` for shards this
/// process does not own. A hand-off joins the handle so the drained
/// member's journal is final before replication starts.
pub type MemberHandle = Option<JoinHandle<Result<(), SxdError>>>;

/// One shard as the router addresses it.
#[derive(Debug, Clone)]
pub struct RouterMember {
    /// Ring name (`shard-i` by default); feeds the rendezvous scores.
    pub name: String,
    /// Wire address of the member daemon.
    pub addr: String,
    /// The member's durable state directory, read at hand-off time.
    pub state_dir: Option<PathBuf>,
}

/// Live membership state, guarded by `sxd.router.members`.
struct MemberSlot {
    addr: String,
    state_dir: Option<PathBuf>,
    alive: bool,
}

struct RouterInner {
    ring: Ring,
    members: Mutex<Vec<MemberSlot>>,
    /// Idle member connections, one list per member, each guarded by its
    /// own `sxd.router.pool` lock (a leaf; see module docs).
    pool: Vec<Mutex<Vec<Client>>>,
    /// Join handles for in-process members, one slot per member.
    handles: Mutex<Vec<MemberHandle>>,
    /// The router's tallies; `conns` and the member counts are filled in
    /// when a STATS reply reads them.
    counters: Mutex<RouterStats>,
    /// Handle of the running reactor, installed by [`Router::run`]. A
    /// leaf lock, like every router lock (see module docs).
    reactor: Mutex<Option<ReactorHandle>>,
    addr: SocketAddr,
    shutting_down: AtomicBool,
    drain_deadline: Duration,
    idle_timeout: Option<Duration>,
    dispatchers: usize,
    pipeline_depth: usize,
}

/// A bound, not-yet-running router. [`Router::run`] blocks until a
/// `shutdown` (or a full-cluster `drain`) retires every member and the
/// router itself.
pub struct Router {
    listener: TcpListener,
    inner: Arc<RouterInner>,
}

impl Router {
    /// Bind the router over `members`. `handles` pairs with `members` by
    /// index; pass `None` for shards this process does not own.
    /// `dispatchers == 0` auto-sizes (the router does no compute of its
    /// own — dispatchers only hold blocking forward I/O).
    /// `pipeline_depth` is the per-client-connection frame window, as on
    /// the member daemons ([`crate::ServerConfig::pipeline_depth`]).
    #[allow(clippy::too_many_arguments)]
    pub fn bind(
        members: Vec<RouterMember>,
        handles: Vec<MemberHandle>,
        addr: &str,
        drain_deadline: Duration,
        idle_timeout: Option<Duration>,
        dispatchers: usize,
        pipeline_depth: usize,
    ) -> Result<Router, SxdError> {
        assert_eq!(members.len(), handles.len(), "one handle slot per member");
        let dispatchers = if dispatchers == 0 { 8 } else { dispatchers };
        let listener = TcpListener::bind(addr).map_err(SxdError::io)?;
        let local = listener.local_addr().map_err(SxdError::io)?;
        let ring = Ring::new(members.iter().map(|m| m.name.clone()).collect::<Vec<_>>());
        let pool = members.iter().map(|_| Mutex::new(Vec::new())).collect();
        let slots = members
            .into_iter()
            .map(|m| MemberSlot { addr: m.addr, state_dir: m.state_dir, alive: true })
            .collect();
        Ok(Router {
            listener,
            inner: Arc::new(RouterInner {
                ring,
                members: Mutex::new(slots),
                pool,
                handles: Mutex::new(handles),
                counters: Mutex::new(RouterStats::default()),
                reactor: Mutex::new(None),
                addr: local,
                shutting_down: AtomicBool::new(false),
                drain_deadline,
                idle_timeout,
                dispatchers,
                pipeline_depth: pipeline_depth.max(1),
            }),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Serve on the reactor event loop until a `shutdown` (or a
    /// full-cluster `drain`) retires every member and the router itself.
    /// A frame's forwarding I/O runs on a dispatcher thread, never on the
    /// event loop; `route` and parse errors answer inline.
    pub fn run(self) -> Result<(), SxdError> {
        let inner = Arc::clone(&self.inner);
        let reactor = Reactor::new(
            self.listener,
            RouterService { inner: Arc::clone(&self.inner) },
            ReactorConfig {
                max_frame: MAX_REQUEST_FRAME,
                idle_timeout: inner.idle_timeout,
                dispatchers: inner.dispatchers,
                pipeline_depth: inner.pipeline_depth,
                ..ReactorConfig::default()
            },
        )
        .map_err(SxdError::io)?;
        let handle = reactor.handle();
        *plock_named(&inner.reactor, "sxd.router.reactor") = Some(handle.clone());
        // Cover a shutdown that raced with startup: the flag flip may have
        // happened before the handle was installed.
        if inner.shutting_down.load(Ordering::SeqCst) {
            handle.shutdown();
        }
        let res = run_named_reactor(reactor);
        *plock_named(&inner.reactor, "sxd.router.reactor") = None;
        // Join whatever member threads a shutdown fan-out left running.
        for h in drain_handles(&inner) {
            let _ = h.join();
        }
        res
    }
}

/// The router as a [`Service`]: connections carry no per-connection state
/// (member connections are pooled router-wide), so `Conn` is `()`.
struct RouterService {
    inner: Arc<RouterInner>,
}

impl Service for RouterService {
    type Conn = ();
    /// The parsed request and its raw frame: `submit` and `put` forward
    /// the client's bytes verbatim.
    type Job = (Request, String);
    const THREAD_PREFIX: &'static str = "sxd";

    fn open(&self, _id: u64) {}

    /// Parse once. `route` and parse errors are pure ring math, answered
    /// inline; everything else holds member I/O and dispatches.
    fn classify(&self, _conn: &(), frame: String) -> Classified<(Request, String)> {
        let inner = &self.inner;
        let bad = |e: SxdError| {
            plock_named(&inner.counters, "sxd.router.counters").bad_requests += 1;
            e.to_reply()
        };
        let reply = match Request::parse(&frame) {
            Err(e) => bad(e),
            Ok(Request::Route { suite, machine, params }) => match presets::lookup(&machine) {
                None => bad(SxdError::UnknownMachine { machine }),
                Some(model) => {
                    let key = cache_key(&suite, model, &params);
                    match owner_of(inner, key) {
                        Ok(owner) => format!(
                            "{{\"ok\":true,\"member\":{owner},\"shard\":\"{}\",\"key\":\"{key:016x}\"}}",
                            inner.ring.name(owner)
                        ),
                        Err(e) => e.to_reply(),
                    }
                }
            },
            Ok(req) => return Classified::Dispatch((req, frame)),
        };
        plock_named(&inner.counters, "sxd.router.counters").fastpath_hits += 1;
        Classified::Inline(Reply::send(reply))
    }

    fn run(&self, _conn: &(), (req, frame): (Request, String)) -> Reply {
        Reply::send(handle_request(&self.inner, req, &frame).unwrap_or_else(|e| e.to_reply()))
    }

    fn decode_error_reply(&self, err: &DecodeError) -> String {
        SxdError::from(err).to_reply()
    }
}

/// Take every remaining member join handle out of the registry.
fn drain_handles(inner: &RouterInner) -> Vec<JoinHandle<Result<(), SxdError>>> {
    plock_named(&inner.handles, "sxd.router.handles").iter_mut().filter_map(Option::take).collect()
}

/// Dial member `addr`, riding out startup races (the member thread may
/// still be binding) on a short backoff schedule.
fn dial(addr: &str) -> Result<Client, SxdError> {
    lockreg::blocking_io("sxd.router.dial", &[]);
    Client::connect_with_retry(addr, CONNECT_ATTEMPTS, CONNECT_BACKOFF)
}

/// Forward one raw frame to member `idx` and return the raw reply. The
/// line goes through verbatim, so a member's reply — including a cache
/// hit's exact payload bytes — passes back unmodified. The round trip
/// runs on a pooled connection (or a fresh dial) with no lock held; a
/// failed round drops that connection and retries once on a fresh dial,
/// never on another pooled one.
fn forward(inner: &RouterInner, idx: usize, line: &str) -> Result<String, SxdError> {
    let (addr, alive) = {
        let members = plock_named(&inner.members, "sxd.router.members");
        (members[idx].addr.clone(), members[idx].alive)
    };
    let mut last = if alive { String::new() } else { "member has left the ring".to_string() };
    if alive {
        let mut pooled = plock_named(&inner.pool[idx], "sxd.router.pool").pop();
        for attempt in 0..2 {
            let round = pooled.take().map_or_else(|| dial(&addr), Ok).and_then(|mut c| {
                lockreg::blocking_io("sxd.router.forward", &[]);
                c.raw(line).map(|reply| (c, reply))
            });
            match round {
                Ok((c, reply)) => {
                    plock_named(&inner.pool[idx], "sxd.router.pool").push(c);
                    plock_named(&inner.counters, "sxd.router.counters").forwarded += 1;
                    return Ok(reply);
                }
                Err(e) => last = e.detail(),
            }
            if attempt == 0 {
                plock_named(&inner.counters, "sxd.router.counters").forward_retries += 1;
            }
        }
    }
    plock_named(&inner.counters, "sxd.router.counters").unavailable += 1;
    Err(SxdError::ShardUnavailable { member: inner.ring.name(idx).to_string(), detail: last })
}

/// Resolve the key's owner among live members, or the typed reason there
/// is none.
fn owner_of(inner: &RouterInner, key: u64) -> Result<usize, SxdError> {
    let members = plock_named(&inner.members, "sxd.router.members");
    inner.ring.owner_among(key, |m| members[m].alive).ok_or_else(|| SxdError::ShardUnavailable {
        member: "(none)".into(),
        detail: "no live shard members remain".into(),
    })
}

/// Answer one dispatched request; `frame` is its raw line, forwarded
/// verbatim by `submit` and `put`.
fn handle_request(inner: &Arc<RouterInner>, req: Request, frame: &str) -> Result<String, SxdError> {
    match req {
        Request::Submit { suite, machine, params } => {
            let Some(model) = presets::lookup(&machine) else {
                plock_named(&inner.counters, "sxd.router.counters").bad_requests += 1;
                return Err(SxdError::UnknownMachine { machine });
            };
            forward(inner, owner_of(inner, cache_key(&suite, model, &params))?, frame)
        }
        Request::Put { key, .. } => forward(inner, owner_of(inner, key)?, frame),
        Request::Route { .. } => unreachable!("classify answers route inline"),
        Request::Stats => {
            let docs = fanout_docs(inner, &Request::Stats.to_line(), Stats::MEMBER)?;
            let members: Vec<Stats> = docs.iter().map(Stats::from_json).collect();
            let mut merged = Stats::merge(&members);
            merged.router = Some(router_stats(inner));
            Ok(merged.reply())
        }
        Request::Metrics => {
            let docs = fanout_docs(inner, &Request::Metrics.to_line(), Metrics::MEMBER)?;
            let members: Vec<Metrics> = docs.iter().map(Metrics::from_json).collect();
            Ok(Metrics::merge(&members).reply())
        }
        Request::Shutdown => {
            retire_cluster(inner, &Request::Shutdown.to_line());
            Ok(shutdown_ack())
        }
        Request::Drain { deadline_ms, member } => {
            let deadline = deadline_ms.map(Duration::from_millis).unwrap_or(inner.drain_deadline);
            if let Some(idx) = member {
                return drain_member(inner, idx, deadline);
            }
            // Cluster-wide graceful drain: every member drains (each
            // checkpointing its own stragglers), then the router follows.
            let deadline_ms = Some(deadline.as_millis() as u64);
            retire_cluster(inner, &Request::Drain { deadline_ms, member: None }.to_line());
            Ok(drain_ack(deadline))
        }
    }
}

/// Indices of the members still in the ring.
fn alive_members(inner: &RouterInner) -> Vec<usize> {
    let members = plock_named(&inner.members, "sxd.router.members");
    (0..members.len()).filter(|&m| members[m].alive).collect()
}

/// The router's own tallies, for the `router` member of a stats reply.
/// Each lock is a leaf, read and released on its own.
fn router_stats(inner: &RouterInner) -> RouterStats {
    let members_alive =
        plock_named(&inner.members, "sxd.router.members").iter().filter(|m| m.alive).count();
    let conns = ConnStats::of(plock_named(&inner.reactor, "sxd.router.reactor").as_ref());
    RouterStats {
        conns,
        members_alive: members_alive as u64,
        members_total: inner.ring.len() as u64,
        ..plock_named(&inner.counters, "sxd.router.counters").clone()
    }
}

/// Forward `line` to every live member and collect the named reply member
/// from each. A member that stays unreachable fails the whole fan-out — a
/// partial stats view would silently break the reconciliation sums.
fn fanout_docs(inner: &RouterInner, line: &str, member_key: &str) -> Result<Vec<Json>, SxdError> {
    let mut docs = Vec::new();
    for idx in alive_members(inner) {
        let reply = forward(inner, idx, line)?;
        let doc = Json::parse(&reply)
            .map_err(|e| SxdError::BadJson { detail: format!("{member_key} reply: {e}") })?;
        let member = doc.get(member_key).cloned().ok_or_else(|| SxdError::BadJson {
            detail: format!("member reply lacks \"{member_key}\""),
        })?;
        docs.push(member);
    }
    Ok(docs)
}

/// Fan `line` (`shutdown`, or a cluster-wide `drain`) out to every live
/// member, then retire the router once the member threads exit
/// (asynchronously — the client gets its ack immediately, like a single
/// daemon's shutdown).
fn retire_cluster(inner: &Arc<RouterInner>, line: &str) {
    for idx in alive_members(inner) {
        let _ = forward(inner, idx, line);
    }
    let inner2 = Arc::clone(inner);
    std::thread::spawn(move || {
        for h in drain_handles(&inner2) {
            let _ = h.join();
        }
        initiate_shutdown(&inner2);
    });
}

/// Flip the shutdown flag and wake the reactor. Idempotent (mirrors the
/// daemon's shutdown): the reactor stops accepting immediately, flushes
/// in-flight replies within its grace window, and exits.
fn initiate_shutdown(inner: &RouterInner) {
    if inner.shutting_down.swap(true, Ordering::SeqCst) {
        return;
    }
    let handle = plock_named(&inner.reactor, "sxd.router.reactor").clone();
    if let Some(h) = handle {
        h.shutdown();
    }
}

/// Drain one member and hand its keyspace off: mark it out of the ring,
/// let it drain (checkpointing its own stragglers), wait for it to exit,
/// then replicate its journal to the keys' new owners and re-submit its
/// checkpointed restart specs across the ring. Synchronous by design —
/// when the reply arrives, repeat submits of the drained member's keys
/// already hit their successors' caches byte-identically.
fn drain_member(inner: &RouterInner, idx: usize, deadline: Duration) -> Result<String, SxdError> {
    let (addr, state_dir) = {
        let mut members = plock_named(&inner.members, "sxd.router.members");
        let Some(slot) = members.get_mut(idx) else {
            return Err(SxdError::BadRequest {
                detail: format!("no member {idx}; the cluster has {}", inner.ring.len()),
            });
        };
        if !slot.alive {
            return Err(SxdError::ShardUnavailable {
                member: inner.ring.name(idx).to_string(),
                detail: "member already left the ring".into(),
            });
        }
        // Out of the ring first: new submits route to successors from
        // this instant, so nothing new lands on the draining member.
        slot.alive = false;
        (slot.addr.clone(), slot.state_dir.clone())
    };
    // The member is gone from the ring; its idle connections are dead
    // weight now.
    plock_named(&inner.pool[idx], "sxd.router.pool").clear();

    // Ask the member to drain. Dial directly (not through `forward`) so a
    // dead member is tolerated: it may have crashed, and hand-off of its
    // durable journal is exactly what recovers its keyspace.
    lockreg::blocking_io("sxd.router.drain", &[]);
    if let Ok(mut c) = Client::connect_with_retry(&addr, 2, CONNECT_BACKOFF) {
        let _ = c.drain(Some(deadline.as_millis() as u64));
    }

    // Wait for the member to finish draining so its journal is final.
    let handle =
        plock_named(&inner.handles, "sxd.router.handles").get_mut(idx).and_then(Option::take);
    lockreg::blocking_io("sxd.router.join", &[]);
    match handle {
        Some(h) => {
            let _ = h.join();
        }
        None => {
            // Externally-managed member: poll until its listener is gone.
            let t0 = std::time::Instant::now();
            while t0.elapsed() < deadline + Duration::from_secs(30) {
                if TcpStream::connect(&addr).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }

    // Replicate the drained member's durable results to each key's new
    // owner, newest append winning, and re-submit its checkpointed
    // stragglers. Without a state dir there is nothing durable to move —
    // the keyspace reassigns and recomputes on demand.
    let mut handed_off = 0u64;
    let mut skipped = 0u64;
    let mut resubmitted = 0u64;
    if let Some(dir) = state_dir {
        lockreg::blocking_io("sxd.router.handoff", &[]);
        if let Ok((_journal, entries)) = Journal::open(&dir) {
            let mut newest: Vec<(u64, String)> = Vec::new();
            for (key, payload) in entries {
                if let Some(slot) = newest.iter_mut().find(|(k, _)| *k == key) {
                    slot.1 = payload;
                } else {
                    newest.push((key, payload));
                }
            }
            for (key, payload) in newest {
                let line = Request::Put { key, payload }.to_line();
                if line.len() > MAX_REQUEST_FRAME {
                    skipped += 1; // the successor recomputes this key on demand
                    continue;
                }
                forward(inner, owner_of(inner, key)?, &line)?;
                handed_off += 1;
            }
        }
        for spec in journal::load_restart_specs(&dir) {
            let Some(model) = presets::lookup(&spec.machine) else { continue };
            let params: BTreeMap<String, String> = spec.params.into_iter().collect();
            let owner = owner_of(inner, cache_key(&spec.suite, model, &params))?;
            // A restart spec is full recompute anyway (fraction 0), so it
            // re-enters the cluster as a fresh submit at its new owner.
            let req = Request::Submit { suite: spec.suite, machine: spec.machine, params };
            forward(inner, owner, &req.to_line())?;
            resubmitted += 1;
        }
        let _ = journal::clear_restart_specs(&dir);
    }
    {
        let mut c = plock_named(&inner.counters, "sxd.router.counters");
        c.handoff_entries += handed_off;
        c.handoff_skipped += skipped;
        c.handoff_resubmits += resubmitted;
    }
    Ok(format!(
        "{{\"ok\":true,\"drained\":{idx},\"shard\":\"{}\",\"handed_off\":{handed_off},\
         \"skipped\":{skipped},\"resubmitted\":{resubmitted}}}",
        inner.ring.name(idx)
    ))
}
