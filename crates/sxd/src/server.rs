//! The daemon: an epoll-reactor serving loop feeding an NQS-admitted,
//! pool-bounded, cache-fronted job executor.
//!
//! Serving runs on [`ncar_suite::reactor`]: one event-loop thread owns
//! every socket (no thread per connection), decoded frames are dispatched
//! to a bounded dispatcher pool, and replies flush as write-readiness
//! allows. Connection counts are therefore bounded by fds, not stacks;
//! idle clients are closed by the reactor's timeout wheel
//! ([`ServerConfig::idle_timeout`]) and counted in the `conns.idle_closed`
//! stat; shutdown and drain complete by waking the reactor, not by hoping
//! another client connects.
//!
//! Jobs are admitted through the same Resource-Block gate NQS applies on
//! the real machine (paper §2.6.3): a submit that cannot fit its block is
//! *rejected* with a typed error, one that could fit but finds the node
//! busy *waits* (bounded by [`ServerConfig::admit_timeout`]), and admitted
//! jobs run with their simulated time stretched by the memory-contention
//! model of Table 6. Every state transition updates the [`Counters`]
//! inside a single critical section, so the invariant
//! `accepted == done + rejected + queued + running` holds at every
//! instant, not just at quiescence.
//!
//! Concurrent identical submits are *single-flighted*: the first miss for
//! a cache key becomes the leader and runs the job; followers arriving
//! while it is in flight park on its slot and replay the leader's payload
//! (counted in `coalesced`), so a thundering herd of one configuration
//! costs one simulation.
//!
//! Observability mirrors SUPER-UX's own instruments: PROGINF-style job
//! accounting (the counters) and FTRACE-style breakdowns (per-stage
//! latency histograms, the per-suite simulated-seconds table), served by
//! the `METRICS` verb. The `job` histogram is observed inside the same
//! counters critical sections that retire a job, so a METRICS snapshot is
//! internally reconciled: `latency.job.count == done + rejected`, exactly.
//!
//! With [`ServerConfig::state_dir`] set the daemon is *durable*: every
//! completed result is appended to the write-ahead [`crate::journal`] and
//! replayed into the cache on the next boot, so repeat configurations hit
//! the cache — byte-identically — across a crash. The `drain` verb stops
//! admission and lets in-flight jobs finish; past its deadline the
//! stragglers are checkpointed through [`superux::nqs::checkpoint_split`]
//! into restart specs that the next boot re-admits (SUPER-UX's NQS
//! checkpoint/restart, paper §2.6.2). A checkpointed job retires as
//! `rejected` (kind `checkpointed`), so the counters invariant holds
//! unchanged on both sides of the restart boundary.
//!
//! Lock order, where nested: `inflight` before `cache`, and `journal`
//! before `cache`. Nothing acquires `journal` or `inflight` while holding
//! `cache`, so the hierarchy is acyclic. The `reactor` handle slot is a
//! leaf: it is taken and released in its own scope, never while another
//! named lock is held and never holding one while acquiring another.
//!
//! Each frame is parsed once, on the reactor thread, by
//! [`DaemonService::classify`] (one `frame_parse` observation per frame).
//! Cheap frames — parse errors, role refusals, `stats`, typed
//! submit-resolution errors and cache hits — are answered inline, without
//! a dispatcher handoff (the *fast path*); everything else reaches a
//! dispatcher as the parsed request, and a cache-missing submit as the
//! job [`Daemon::resolve_submit`] already resolved. An inline hit does
//! no per-frame work beyond its own bytes: [`Server::bind`] hashes every
//! registered suite's key prefix on every preset once
//! ([`crate::proto::key_prefix`]), so resolving a submit is a registry
//! lookup, an allocation-free preset lookup and a hash of its parameters,
//! and the reply is the cache's own rendered line, shared with the
//! reactor's output queue rather than copied. The hit probe takes
//! the same `inflight` -> `cache` pair as a dispatched submit and
//! `counters` alone to retire, so it adds no lock-graph edges; the one
//! caveat is that inline `stats` reads the `journal` slot and can ride out
//! a concurrent append (bounded file IO, exempted as
//! `sxd.journal.append`). Frames answered inline count `fastpath_hits` and
//! observe the `fastpath` latency histogram.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use ncar_suite::par::lockreg;
use ncar_suite::reactor::{
    Classified, DecodeError, Reactor, ReactorConfig, ReactorHandle, Reply, Service,
};
use ncar_suite::report::{json_escape, json_f64};
use ncar_suite::{plock, plock_named, Artifact, Fnv64, Json, Registry, WorkerPool};
use superux::{Admission, JobSpec};
use sxsim::{presets, MachineModel};

use crate::cache::ResultCache;
use crate::error::SxdError;
use crate::journal::{self, Journal, RestartSpec};
use crate::proto::{
    drain_ack, finish_key, key_prefix, shutdown_ack, submit_reply, Request, MAX_REQUEST_FRAME,
};
use crate::stats::{CacheStats, ConnStats, DaemonMetrics, JournalStats, Metrics, Stats, SuiteRow};

/// Simulated seconds charged for writing a drain checkpoint (the `chkpnt`
/// overhead in the NQS model) and for resuming from it on the next boot.
const CKPT_SECONDS: f64 = 0.5;
const RESTART_SECONDS: f64 = 0.5;

/// What one job asks of the node, in NQS Resource-Block terms.
#[derive(Debug, Clone, Copy)]
pub struct Demand {
    pub procs: usize,
    pub memory_bytes: u64,
    /// Simulated wall seconds the job takes when it has the node alone.
    pub solo_seconds: f64,
    /// Memory traffic per processor, for the contention stretch model.
    pub bytes_per_cycle_per_proc: f64,
}

impl Demand {
    /// A light single-processor job (kernels, accuracy checks).
    pub fn light(solo_seconds: f64) -> Demand {
        Demand { procs: 1, memory_bytes: 256 << 20, solo_seconds, bytes_per_cycle_per_proc: 8.0 }
    }
}

/// How a runner produces a result: pure function of the requested machine
/// and the canonicalized parameters. Determinism here is what makes the
/// result cache sound.
pub type RunFn = Arc<
    dyn Fn(&MachineModel, &BTreeMap<String, String>) -> Result<Vec<Artifact>, String> + Send + Sync,
>;

/// A runnable suite as the daemon sees it.
#[derive(Clone)]
pub struct JobEntry {
    pub demand: Demand,
    pub description: String,
    pub runner: RunFn,
}

impl JobEntry {
    pub fn new(
        demand: Demand,
        description: impl Into<String>,
        runner: impl Fn(&MachineModel, &BTreeMap<String, String>) -> Result<Vec<Artifact>, String>
            + Send
            + Sync
            + 'static,
    ) -> JobEntry {
        JobEntry { demand, description: description.into(), runner: Arc::new(runner) }
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads actually executing simulations.
    pub workers: usize,
    /// Result-cache capacity in entries.
    pub cache_cap: usize,
    /// The machine whose node the admission gate models.
    pub machine: MachineModel,
    /// How long a feasible job may wait for the node to free capacity
    /// before it is rejected with a typed error. Without this bound a job
    /// parked on the admission condvar waits forever if capacity never
    /// frees (a wedged runner, a leak), holding its connection hostage.
    pub admit_timeout: Duration,
    /// Directory for the durable result journal and drain-checkpoint
    /// restart specs. `None` (the default) serves from memory only, as
    /// before.
    pub state_dir: Option<PathBuf>,
    /// Grace period a `drain` request without its own `deadline_ms` gives
    /// in-flight jobs before checkpointing them.
    pub drain_deadline: Duration,
    /// Close connections that send nothing for this long (the reactor's
    /// timeout wheel; `None` disables it). Bounds slowloris clients — the
    /// old thread-per-connection model held a thread for them forever.
    pub idle_timeout: Option<Duration>,
    /// Reactor dispatcher threads decoding-side frame handlers run on.
    /// `0` (the default) auto-sizes to `max(8, 2 * workers)`: enough that
    /// herd followers parking in the single-flight table never starve
    /// their leader, which always occupies a dispatcher of its own.
    pub dispatchers: usize,
    /// Decoded frames allowed in flight per connection before the reactor
    /// stops reading from it ([`ReactorConfig::pipeline_depth`]). Replies
    /// always leave in request order whatever the completion order, so a
    /// depth above 1 changes throughput, never bytes. `1` (the default)
    /// serves strictly request-by-request, the pre-pipelining behavior.
    pub pipeline_depth: usize,
    /// Answer cheap frames (cache hits, `stats`, typed errors) inline on
    /// the reactor thread instead of paying a dispatcher round trip. On by default; turn off to benchmark the dispatch path or to
    /// keep the reactor thread free of daemon locks.
    pub fastpath: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            cache_cap: 256,
            machine: presets::sx4_benchmarked(),
            admit_timeout: Duration::from_secs(30),
            state_dir: None,
            drain_deadline: Duration::from_secs(10),
            idle_timeout: Some(Duration::from_secs(300)),
            dispatchers: 0,
            pipeline_depth: 1,
            fastpath: true,
        }
    }
}

/// Per-suite serving totals (the FTRACE-style breakdown's raw data).
#[derive(Debug, Default, Clone)]
pub struct SuiteStat {
    /// Actual simulations executed (cache hits and coalesced followers
    /// replay a payload without running).
    pub runs: u64,
    /// Simulated seconds charged, contention stretch included.
    pub sim_seconds: f64,
    /// Sum of the stretch factors seen, for the average.
    pub stretch_sum: f64,
}

/// Job counters. All transitions happen under one lock (see module docs).
#[derive(Debug, Default, Clone)]
pub struct Counters {
    /// The job counters, in the STATS document they are reported in; a
    /// reply fills in its other members.
    pub jobs: Stats,
    /// Per-suite serving totals, keyed by lowercased suite name.
    pub suites: BTreeMap<String, SuiteStat>,
}

/// Where followers of an in-flight run park until the leader publishes.
///
/// `state` stays on plain [`plock`] rather than the lockcheck-instrumented
/// [`plock_named`]: `Condvar::wait` needs the raw `MutexGuard`, and a wait
/// *releases* the mutex while parked, so site tracking would misreport the
/// hold. The same applies to the admission lock below.
#[derive(Default)]
struct InflightSlot {
    state: Mutex<Option<Result<String, SxdError>>>,
    cv: Condvar,
}

impl InflightSlot {
    /// Publish the leader's outcome (first publish wins) and wake waiters.
    fn publish(&self, outcome: Result<String, SxdError>) {
        let mut s = plock(&self.state);
        if s.is_none() {
            *s = Some(outcome);
        }
        drop(s);
        self.cv.notify_all();
    }

    /// Park until the leader publishes; returns a clone of its outcome.
    fn wait(&self) -> Result<String, SxdError> {
        let mut s = plock(&self.state);
        loop {
            match &*s {
                Some(outcome) => return outcome.clone(),
                None => s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }
}

/// What a drain needs to know about a job that is queued or running: how
/// to reconstruct its submission (for the restart spec) and its demand
/// (for [`superux::nqs::checkpoint_split`]).
#[derive(Debug, Clone)]
struct PendingJob {
    suite: String,
    machine: String,
    params: BTreeMap<String, String>,
    demand: Demand,
}

/// A registered suite with its cache-key prefix on every machine preset,
/// indexed like [`presets::PRESET_NAMES`]. Built once at bind: the
/// registry is fixed for the daemon's life.
struct BoundSuite {
    entry: JobEntry,
    prefixes: Vec<Fnv64>,
}

struct Daemon {
    registry: Registry<BoundSuite>,
    addr: SocketAddr,
    workers: usize,
    /// Guarded by `admit_cv` waits, so uninstrumented (see [`InflightSlot`]).
    admission: Mutex<Admission>,
    admit_cv: Condvar,
    admit_timeout: Duration,
    cache: Mutex<ResultCache>,
    counters: Mutex<Counters>,
    /// Single-flight table: cache key -> the slot of its in-flight run.
    inflight: Mutex<HashMap<u64, Arc<InflightSlot>>>,
    metrics: DaemonMetrics,
    pool: WorkerPool,
    shutting_down: AtomicBool,
    seq: AtomicU64,
    /// Handle of the running reactor, installed by [`Server::run`]. A
    /// leaf lock: taken in its own scope, never nested with any other
    /// named lock (see module docs).
    reactor: Mutex<Option<ReactorHandle>>,
    idle_timeout: Option<Duration>,
    dispatchers: usize,
    pipeline_depth: usize,
    /// Reactor-thread fast path enabled ([`ServerConfig::fastpath`]).
    fastpath: bool,
    /// The write-ahead result journal (`None` without a state dir).
    /// Lock order: `journal` before `cache`, never the reverse.
    journal: Mutex<Option<Journal>>,
    state_dir: Option<PathBuf>,
    drain_deadline: Duration,
    /// Set by the `drain` verb: admission refuses new submits while
    /// in-flight work winds down.
    draining: AtomicBool,
    /// Every leader currently queued or running, by cache key — the set a
    /// drain deadline checkpoints.
    pending: Mutex<HashMap<u64, PendingJob>>,
    /// Keys whose restart specs have been durably persisted; their leaders
    /// retire as `checkpointed` instead of completing.
    ckpt: Mutex<HashSet<u64>>,
    /// Journal appends that failed with an IO error (the result stayed
    /// served from memory; only durability was lost).
    journal_io_errors: AtomicU64,
}

/// A bound, not-yet-running daemon. [`Server::run`] blocks until a client
/// sends `shutdown` (or a `drain` completes) and the queue drains.
pub struct Server {
    listener: TcpListener,
    daemon: Arc<Daemon>,
    /// Restart specs a previous boot's drain checkpointed, re-admitted by
    /// [`Server::run`] before the accept loop opens for business.
    restarts: Vec<RestartSpec>,
}

impl Server {
    /// Bind the listener and stand up the shared state. With a state dir
    /// configured this is also recovery: the result journal is opened
    /// (truncating any torn tail), its surviving records are replayed into
    /// the cache oldest-first so LRU order carries across the restart, and
    /// any drain-checkpointed restart specs are loaded for re-admission.
    pub fn bind(registry: Registry<JobEntry>, config: ServerConfig) -> Result<Server, SxdError> {
        let listener = TcpListener::bind(&config.addr).map_err(SxdError::io)?;
        let addr = listener.local_addr().map_err(SxdError::io)?;

        let mut cache = ResultCache::new(config.cache_cap);
        let (journal_slot, restarts) = match &config.state_dir {
            Some(dir) => {
                let (j, replay) = Journal::open(dir).map_err(SxdError::io)?;
                for (key, payload) in replay {
                    cache.insert(key, payload);
                }
                (Some(j), journal::load_restart_specs(dir))
            }
            None => (None, Vec::new()),
        };

        // `Registry::get` matches case-insensitively and the key hashes
        // the lowercased name, so this prefix serves every spelling.
        let mut bound = Registry::new();
        for (name, entry) in registry.iter() {
            let lower = name.to_ascii_lowercase();
            let prefixes = presets::all().iter().map(|m| key_prefix(&lower, m)).collect();
            bound.register(name, BoundSuite { entry: entry.clone(), prefixes });
        }

        let daemon = Arc::new(Daemon {
            registry: bound,
            addr,
            workers: config.workers.max(1),
            admission: Mutex::new(Admission::whole_node(config.machine)),
            admit_cv: Condvar::new(),
            admit_timeout: config.admit_timeout,
            cache: Mutex::new(cache),
            counters: Mutex::new(Counters::default()),
            inflight: Mutex::new(HashMap::new()),
            metrics: DaemonMetrics::new(),
            pool: WorkerPool::named(config.workers.max(1), "sxd-worker"),
            shutting_down: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            reactor: Mutex::new(None),
            idle_timeout: config.idle_timeout,
            dispatchers: if config.dispatchers == 0 {
                (config.workers.max(1) * 2).max(8)
            } else {
                config.dispatchers
            },
            pipeline_depth: config.pipeline_depth.max(1),
            fastpath: config.fastpath,
            journal: Mutex::new(journal_slot),
            state_dir: config.state_dir.clone(),
            drain_deadline: config.drain_deadline,
            draining: AtomicBool::new(false),
            pending: Mutex::new(HashMap::new()),
            ckpt: Mutex::new(HashSet::new()),
            journal_io_errors: AtomicU64::new(0),
        });
        Ok(Server { listener, daemon, restarts })
    }

    /// Where the daemon is actually listening (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.daemon.addr
    }

    /// Serve on the reactor until shutdown completes, then return. One
    /// event-loop thread owns every socket; no thread is ever spawned per
    /// connection, so a connection churn of any size accumulates no join
    /// handles and no stacks.
    pub fn run(mut self) -> Result<(), SxdError> {
        // Re-admit work a previous boot's drain checkpointed. This runs
        // beside the serving loop — clients can connect immediately — and
        // the spec file is deleted only after every spec has been retired,
        // so a crash mid-readmission re-loads the file next boot and the
        // result cache dedupes whatever already completed.
        let restarts = std::mem::take(&mut self.restarts);
        let readmit = (!restarts.is_empty()).then(|| {
            let d = Arc::clone(&self.daemon);
            std::thread::spawn(move || {
                for spec in &restarts {
                    let params = spec.params.iter().cloned().collect();
                    let _ = d
                        .resolve_submit(spec.suite.clone(), &spec.machine, params)
                        .and_then(|s| d.submit(s, Some(spec.solo_seconds)));
                }
                if let Some(dir) = &d.state_dir {
                    let _ = journal::clear_restart_specs(dir);
                }
            })
        });

        let reactor = Reactor::new(
            self.listener,
            DaemonService { daemon: Arc::clone(&self.daemon) },
            ReactorConfig {
                max_frame: MAX_REQUEST_FRAME,
                idle_timeout: self.daemon.idle_timeout,
                dispatchers: self.daemon.dispatchers,
                pipeline_depth: self.daemon.pipeline_depth,
                flush_batch: Some(Arc::clone(&self.daemon.metrics.flush_batch)),
                ..ReactorConfig::default()
            },
        )
        .map_err(SxdError::io)?;
        let handle = reactor.handle();
        *plock_named(&self.daemon.reactor, "sxd.reactor") = Some(handle.clone());
        // A shutdown (or drain completion) that raced bind-to-run must
        // still wake the loop — it checks the handle slot before we
        // published it.
        if self.daemon.shutting_down.load(Ordering::SeqCst) {
            handle.shutdown();
        }
        let res = run_named_reactor(reactor);
        *plock_named(&self.daemon.reactor, "sxd.reactor") = None;
        if let Some(h) = readmit {
            let _ = h.join();
        }
        // Dropping the daemon drops the worker pool, which drains any
        // still-queued jobs before its threads exit.
        res
    }
}

/// The daemon as the reactor sees it: stateless per connection (every
/// frame is self-contained). `classify` parses each frame once on the
/// reactor thread; `run` finishes on a dispatcher whatever it dispatched.
struct DaemonService {
    daemon: Arc<Daemon>,
}

/// A frame [`DaemonService::classify`] left for a dispatcher.
enum Job {
    /// The frame's parse (or its parse error), untouched.
    Request(Result<Request, SxdError>),
    /// A submit already resolved on the reactor thread that missed the
    /// cache.
    Submit(Box<Submit>),
}

impl Service for DaemonService {
    type Conn = ();
    type Job = Job;
    const THREAD_PREFIX: &'static str = "sxd";

    fn open(&self, _id: u64) {}

    /// Parse the frame (one `frame_parse` observation, whatever follows)
    /// and answer inline what is cheap and non-blocking: parse errors,
    /// role refusals, `stats`, typed submit-resolution errors and cache
    /// hits. Anything that could run, wait or park (misses, `metrics`,
    /// drains, shutdown, puts) dispatches; with the fast path off,
    /// everything does. Inline answers count `fastpath_hits` and observe
    /// the `fastpath` histogram, decode to flush queue.
    fn classify(&self, _conn: &(), frame: String) -> Classified<Job> {
        let d = &self.daemon;
        let t0 = Instant::now();
        let parsed = Request::parse(&frame);
        d.metrics.frame_parse.observe(t0.elapsed().as_secs_f64());
        if !d.fastpath {
            return Classified::Dispatch(Job::Request(parsed));
        }
        let reply: Arc<str> = match parsed {
            Ok(Request::Submit { suite, machine, params }) => {
                match d.resolve_submit(suite, &machine, params) {
                    Ok(submit) => match d.serve_hit(&submit, t0) {
                        Some(line) => line,
                        None => return Classified::Dispatch(Job::Submit(Box::new(submit))),
                    },
                    Err(e) => {
                        plock_named(&d.counters, "sxd.counters").jobs.fastpath_hits += 1;
                        e.to_reply().into()
                    }
                }
            }
            cheap @ (Err(_)
            | Ok(
                Request::Stats | Request::Route { .. } | Request::Drain { member: Some(_), .. },
            )) => {
                let reply = d.answer(cheap);
                plock_named(&d.counters, "sxd.counters").jobs.fastpath_hits += 1;
                reply.into()
            }
            other => return Classified::Dispatch(Job::Request(other)),
        };
        d.metrics.fastpath.observe(t0.elapsed().as_secs_f64());
        Classified::Inline(Reply::send(reply))
    }

    fn run(&self, _conn: &(), job: Job) -> Reply {
        let d = &self.daemon;
        Reply::send(match job {
            Job::Request(parsed) => d.answer(parsed),
            // A drain may have begun while the miss waited for a dispatcher.
            Job::Submit(submit) => d
                .admitting()
                .and_then(|()| d.submit(*submit, None))
                .unwrap_or_else(|e| e.to_reply()),
        })
    }

    /// Framing is lost (oversized or non-UTF-8 line): the typed error the
    /// blocking reader produced for the same bytes, then close — exactly
    /// the old `handle_conn` behavior.
    fn decode_error_reply(&self, err: &DecodeError) -> String {
        SxdError::from(err).to_reply()
    }
}

/// A submit resolved to the job it names: what [`Daemon::resolve_submit`]
/// produces and [`Daemon::submit`] runs.
struct Submit {
    suite: String,
    params: BTreeMap<String, String>,
    model: &'static MachineModel,
    key: u64,
    demand: Demand,
    runner: RunFn,
}

/// How one submit resolved against the cache and the in-flight table.
enum SubmitPath {
    /// Served from the result cache: the rendered hit line.
    Hit(Arc<str>),
    /// This submit runs the job and publishes for any followers.
    Leader(Arc<InflightSlot>),
    /// An identical run is in flight; park and replay its payload.
    Follower(Arc<InflightSlot>),
}

impl Daemon {
    /// Answer one parsed frame. Runs on a dispatcher, except for the
    /// cheap verbs [`DaemonService::classify`] answers inline with it.
    fn answer(self: &Arc<Self>, parsed: Result<Request, SxdError>) -> String {
        let bad = |e: SxdError| {
            plock_named(&self.counters, "sxd.counters").jobs.bad_requests += 1;
            Err(e)
        };
        let refuse = |detail: &str| bad(SxdError::BadRequest { detail: detail.into() });
        let reply = match parsed {
            Err(e) => bad(e),
            Ok(Request::Stats) => Ok(self.stats_reply()),
            Ok(Request::Metrics) => Ok(self.metrics_reply()),
            Ok(Request::Shutdown) => {
                self.initiate_shutdown();
                Ok(shutdown_ack())
            }
            Ok(Request::Drain { member: Some(_), .. }) => {
                refuse("\"member\" targets a cluster router; this is a single daemon")
            }
            Ok(Request::Drain { deadline_ms, member: None }) => {
                let deadline =
                    deadline_ms.map(Duration::from_millis).unwrap_or(self.drain_deadline);
                self.start_drain(deadline);
                Ok(drain_ack(deadline))
            }
            Ok(Request::Put { key, payload }) => self.handle_put(key, &payload),
            Ok(Request::Route { .. }) => {
                refuse("\"route\" is a cluster verb; this daemon is not a router")
            }
            Ok(Request::Submit { suite, machine, params }) => {
                self.resolve_submit(suite, &machine, params).and_then(|s| self.submit(s, None))
            }
        };
        reply.unwrap_or_else(|e| e.to_reply())
    }

    /// `Err(ShuttingDown)` once a shutdown or drain has stopped admission.
    fn admitting(&self) -> Result<(), SxdError> {
        if self.shutting_down.load(Ordering::SeqCst) || self.draining.load(Ordering::SeqCst) {
            return Err(SxdError::ShuttingDown);
        }
        Ok(())
    }

    /// The one submit resolver, shared by the inline hit probe, the
    /// dispatcher and restart re-admission: the admission check, then the
    /// registry entry, the machine preset and the cache key — the bound
    /// suite's prefix for that preset, finished over the parameters.
    /// Unknown suites and machines count as bad requests.
    fn resolve_submit(
        &self,
        suite: String,
        machine: &str,
        params: BTreeMap<String, String>,
    ) -> Result<Submit, SxdError> {
        self.admitting()?;
        let Some(BoundSuite { entry, prefixes }) = self.registry.get(&suite) else {
            plock_named(&self.counters, "sxd.counters").jobs.bad_requests += 1;
            return Err(SxdError::UnknownSuite { suite });
        };
        let Some(preset) = presets::index_of(machine) else {
            plock_named(&self.counters, "sxd.counters").jobs.bad_requests += 1;
            return Err(SxdError::UnknownMachine { machine: machine.into() });
        };
        let model = &presets::all()[preset];
        let key = finish_key(&prefixes[preset], &params);
        Ok(Submit {
            demand: entry.demand,
            runner: Arc::clone(&entry.runner),
            suite,
            params,
            model,
            key,
        })
    }

    /// The inline hit probe: `Some` only for a clean cache hit, under the
    /// same `inflight` -> `cache` pair as [`Daemon::submit`]. A miss leaves
    /// no trace, not even a counted cache miss (the dispatcher counts it).
    /// There is no pre-count into `queued`: the hit retires in one counters
    /// critical section (`accepted`, `done`, `fastpath_hits` and the `job`
    /// observation together), so `accepted == done + rejected + queued +
    /// running` holds at every instant on this path too. The reply is the
    /// cache's rendered hit line itself.
    fn serve_hit(&self, submit: &Submit, t_job: Instant) -> Option<Arc<str>> {
        let line = {
            let _inflight = plock_named(&self.inflight, "sxd.inflight");
            plock_named(&self.cache, "sxd.cache").probe(submit.key)?
        };
        {
            let mut c = plock_named(&self.counters, "sxd.counters");
            c.jobs.accepted += 1;
            c.jobs.done += 1;
            c.jobs.fastpath_hits += 1;
            self.metrics.job.observe(t_job.elapsed().as_secs_f64());
        }
        Some(line)
    }

    /// Absorb an already-rendered result under its content address — the
    /// cluster hand-off path replicating a drained member's journal into
    /// its keyspace successor. The payload is inserted verbatim (and
    /// journaled when durable), so repeat submits of the key replay the
    /// original member's exact bytes. Refused while draining: a handed-off
    /// entry would be lost when this member's own journal moves on.
    fn handle_put(&self, key: u64, payload: &str) -> Result<String, SxdError> {
        self.admitting()?;
        plock_named(&self.cache, "sxd.cache").insert(key, payload);
        self.persist_result(key, payload);
        plock_named(&self.counters, "sxd.counters").jobs.absorbed += 1;
        Ok(format!("{{\"ok\":true,\"absorbed\":true,\"key\":\"{key:016x}\"}}"))
    }

    /// One resolved submission, end to end. `solo_override` replaces the
    /// suite's registered solo seconds — the re-admission path uses it to
    /// run only the work a checkpointed job had left.
    fn submit(&self, s: Submit, solo_override: Option<f64>) -> Result<String, SxdError> {
        let t_job = Instant::now();
        let key = s.key;
        {
            let mut c = plock_named(&self.counters, "sxd.counters");
            c.jobs.accepted += 1;
            c.jobs.queued += 1;
        }

        // Cache lookup and single-flight resolution are one atomic
        // decision under the inflight lock: a submit either sees the
        // cached payload, joins the in-flight run, or becomes its leader.
        // Leaders insert into the cache *before* retiring their slot, so
        // no identical submit can slip between the two tables and re-run.
        let t_lookup = Instant::now();
        let path = {
            let mut inflight = plock_named(&self.inflight, "sxd.inflight");
            if let Some(line) = plock_named(&self.cache, "sxd.cache").get(key) {
                SubmitPath::Hit(line)
            } else if let Some(slot) = inflight.get(&key) {
                SubmitPath::Follower(Arc::clone(slot))
            } else {
                let slot = Arc::new(InflightSlot::default());
                inflight.insert(key, Arc::clone(&slot));
                SubmitPath::Leader(slot)
            }
        };
        self.metrics.cache_lookup.observe(t_lookup.elapsed().as_secs_f64());

        match path {
            SubmitPath::Hit(line) => {
                let mut c = plock_named(&self.counters, "sxd.counters");
                c.jobs.queued -= 1;
                c.jobs.done += 1;
                self.metrics.job.observe(t_job.elapsed().as_secs_f64());
                drop(c);
                Ok(line.to_string())
            }
            SubmitPath::Follower(slot) => {
                let outcome = slot.wait();
                let mut c = plock_named(&self.counters, "sxd.counters");
                c.jobs.queued -= 1;
                c.jobs.coalesced += 1;
                match &outcome {
                    Ok(_) => c.jobs.done += 1,
                    Err(e) => {
                        c.jobs.rejected += 1;
                        if matches!(e, SxdError::Checkpointed { .. }) {
                            c.jobs.checkpointed += 1;
                        }
                    }
                }
                self.metrics.job.observe(t_job.elapsed().as_secs_f64());
                drop(c);
                outcome.map(|payload| submit_reply(true, key, &payload))
            }
            SubmitPath::Leader(slot) => {
                let outcome = self.run_as_leader(&s, t_job, solo_override);
                // Retire the slot (the cache was populated first on
                // success) and publish so followers wake with the result.
                plock_named(&self.inflight, "sxd.inflight").remove(&key);
                slot.publish(outcome.clone());
                outcome.map(|payload| submit_reply(false, key, &payload))
            }
        }
    }

    /// Admit, execute and render one job, returning its payload. Every
    /// early return retires the job in the counters (and observes the
    /// reconciled `job` histogram) before surfacing the error. A drain
    /// deadline can checkpoint the job while it is queued (it retires
    /// without running) or while it is running (its result is discarded —
    /// the persisted restart spec owns the work now, and completing both
    /// would double-count it on the next boot).
    fn run_as_leader(
        &self,
        s: &Submit,
        t_job: Instant,
        solo_override: Option<f64>,
    ) -> Result<String, SxdError> {
        let Submit { suite, params, model, key, demand, runner } = s;
        let key = *key;
        let demand =
            Demand { solo_seconds: solo_override.unwrap_or(demand.solo_seconds), ..*demand };
        plock_named(&self.pending, "sxd.pending").insert(
            key,
            PendingJob {
                suite: suite.clone(),
                machine: model.name.clone(),
                params: params.clone(),
                demand,
            },
        );
        let job = JobSpec {
            name: format!("sxd-{}", self.seq.fetch_add(1, Ordering::SeqCst)),
            procs: demand.procs,
            memory_bytes: demand.memory_bytes,
            solo_seconds: demand.solo_seconds,
            bytes_per_cycle_per_proc: demand.bytes_per_cycle_per_proc,
            block: 0,
            after: Vec::new(),
        };
        let reject = |detail: String| {
            let mut c = plock_named(&self.counters, "sxd.counters");
            c.jobs.queued -= 1;
            c.jobs.rejected += 1;
            self.metrics.job.observe(t_job.elapsed().as_secs_f64());
            drop(c);
            plock_named(&self.pending, "sxd.pending").remove(&key);
            Err(SxdError::Rejected { detail })
        };

        let t_adm = Instant::now();
        let deadline = t_adm + self.admit_timeout;
        let stretch = {
            let mut adm = plock(&self.admission);
            loop {
                // A drain may have checkpointed this job while it sat in
                // the queue: its remaining work is durably persisted, so it
                // retires here without ever running.
                if plock_named(&self.ckpt, "sxd.ckpt").remove(&key) {
                    drop(adm);
                    self.metrics.admission_wait.observe(t_adm.elapsed().as_secs_f64());
                    return self.retire_checkpointed(key, t_job, false);
                }
                match adm.try_admit(&job) {
                    Err(e) => {
                        drop(adm);
                        self.metrics.admission_wait.observe(t_adm.elapsed().as_secs_f64());
                        return reject(e.to_string());
                    }
                    Ok(true) => break adm.stretch(),
                    Ok(false) => {
                        let now = Instant::now();
                        if now >= deadline {
                            drop(adm);
                            self.metrics.admission_wait.observe(t_adm.elapsed().as_secs_f64());
                            return reject(format!(
                                "admission wait exceeded {:.3}s with the node still full",
                                self.admit_timeout.as_secs_f64()
                            ));
                        }
                        adm.begin_wait();
                        let (mut woken, _timeout) = self
                            .admit_cv
                            .wait_timeout(adm, deadline - now)
                            .unwrap_or_else(PoisonError::into_inner);
                        woken.end_wait();
                        adm = woken;
                    }
                }
            }
        };
        self.metrics.admission_wait.observe(t_adm.elapsed().as_secs_f64());
        {
            let mut c = plock_named(&self.counters, "sxd.counters");
            c.jobs.queued -= 1;
            c.jobs.running += 1;
        }

        let runner = Arc::clone(runner);
        let run_params = params.clone();
        let run_model = *model;
        let t_run = Instant::now();
        let outcome = self.pool.run(move || {
            catch_unwind(AssertUnwindSafe(|| runner(run_model, &run_params)))
                .unwrap_or_else(|_| Err("runner panicked".into()))
        });
        let run_wall = t_run.elapsed().as_secs_f64();
        self.metrics.run.observe(run_wall);

        plock(&self.admission).release(&job.name);
        self.admit_cv.notify_all();

        // A drain deadline may have checkpointed this job mid-run. The
        // restart spec is already durable, so the next boot re-runs the
        // work; serving this result too would double-count it. Discard it
        // and retire as checkpointed, whatever the runner returned.
        if plock_named(&self.ckpt, "sxd.ckpt").remove(&key) {
            return self.retire_checkpointed(key, t_job, true);
        }

        match outcome {
            Err(detail) => {
                let mut c = plock_named(&self.counters, "sxd.counters");
                c.jobs.running -= 1;
                c.jobs.rejected += 1;
                self.metrics.job.observe(t_job.elapsed().as_secs_f64());
                drop(c);
                plock_named(&self.pending, "sxd.pending").remove(&key);
                Err(SxdError::RunFailed { detail })
            }
            Ok(artifacts) => {
                let sim_seconds = demand.solo_seconds * stretch;
                if run_wall > 0.0 {
                    self.metrics.sim_throughput.observe(sim_seconds / run_wall);
                }
                let t_render = Instant::now();
                let payload =
                    render_payload(suite, params, sim_seconds, stretch, &artifacts, &model.name);
                self.metrics.render.observe(t_render.elapsed().as_secs_f64());
                {
                    let mut c = plock_named(&self.counters, "sxd.counters");
                    c.jobs.running -= 1;
                    c.jobs.done += 1;
                    let s = c.suites.entry(suite.to_ascii_lowercase()).or_default();
                    s.runs += 1;
                    s.sim_seconds += sim_seconds;
                    s.stretch_sum += stretch;
                    self.metrics.job.observe(t_job.elapsed().as_secs_f64());
                }
                // Memory first, then disk: the cache is the source of
                // truth this boot; the journal makes it the source of
                // truth for the *next* boot. The compaction snapshot is
                // taken after the insert so it can never lose the entry
                // whose append it supersedes.
                plock_named(&self.cache, "sxd.cache").insert(key, &payload);
                self.persist_result(key, &payload);
                plock_named(&self.pending, "sxd.pending").remove(&key);
                Ok(payload)
            }
        }
    }

    /// Append one completed result to the journal (when durable) and
    /// compact once enough appends have stacked up. Journal IO failures
    /// are counted, not fatal: the client still gets its in-memory result,
    /// only durability for this record is lost.
    fn persist_result(&self, key: u64, payload: &str) {
        let mut slot = plock_named(&self.journal, "sxd.journal");
        let Some(j) = slot.as_mut() else { return };
        // The journal lock *is* the designated guard of the journal file:
        // appends and compactions must serialize, so holding it across
        // this IO is by design and exempt from SXC302.
        lockreg::blocking_io("sxd.journal.append", &["sxd.journal"]);
        if j.append(key, payload).is_err() {
            self.journal_io_errors.fetch_add(1, Ordering::SeqCst);
        }
        if j.should_compact(plock_named(&self.cache, "sxd.cache").cap()) {
            // Lock order: journal (held) -> cache. The snapshot is the
            // cache's live LRU view, so replay rebuilds identical state.
            let entries = plock_named(&self.cache, "sxd.cache").entries_lru();
            lockreg::blocking_io("sxd.journal.compact", &["sxd.journal"]);
            if j.compact(&entries).is_err() {
                self.journal_io_errors.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// Retire a checkpointed leader: counted as `rejected` (the invariant
    /// is untouched) plus the informational `checkpointed`, with the `job`
    /// histogram observed in the same critical section as every other
    /// retirement.
    fn retire_checkpointed(
        &self,
        key: u64,
        t_job: Instant,
        was_running: bool,
    ) -> Result<String, SxdError> {
        {
            let mut c = plock_named(&self.counters, "sxd.counters");
            if was_running {
                c.jobs.running -= 1;
            } else {
                c.jobs.queued -= 1;
            }
            c.jobs.rejected += 1;
            c.jobs.checkpointed += 1;
            self.metrics.job.observe(t_job.elapsed().as_secs_f64());
        }
        plock_named(&self.pending, "sxd.pending").remove(&key);
        Err(SxdError::Checkpointed {
            detail: "drain deadline checkpointed this job; it restarts on the next boot".into(),
        })
    }

    /// The STATS document over one counters snapshot. Each source is read
    /// under its own lock, released before the next is taken: the
    /// `sxd.reactor` leaf must never appear in a lock-graph edge.
    fn stats(&self, snap: &Counters) -> Stats {
        let cache = CacheStats::of(&plock_named(&self.cache, "sxd.cache"));
        let conns = ConnStats::of(plock_named(&self.reactor, "sxd.reactor").as_ref());
        let io_errors = self.journal_io_errors.load(Ordering::SeqCst);
        let journal = plock_named(&self.journal, "sxd.journal")
            .as_ref()
            .map(|j| JournalStats::of(j, io_errors));
        Stats {
            queue_depth: snap.jobs.queued,
            cache,
            conns,
            suite_seconds: snap.suites.iter().map(|(k, s)| (k.clone(), s.sim_seconds)).collect(),
            workers: self.workers as u64,
            journal,
            draining: self.draining.load(Ordering::SeqCst),
            shutting_down: self.shutting_down.load(Ordering::SeqCst),
            ..snap.jobs.clone()
        }
    }

    fn stats_reply(&self) -> String {
        let snap = plock_named(&self.counters, "sxd.counters").clone();
        self.stats(&snap).reply()
    }

    /// The METRICS reply: counters, gauges, per-stage latency histograms
    /// and the per-suite breakdown, with the reconciliation guarantee that
    /// `latency.job.count == stats.done + stats.rejected` (both captured
    /// under one counters lock; `job` is only observed inside it).
    fn metrics_reply(&self) -> String {
        // Refresh level gauges from their live sources (separate locks;
        // gauges are instantaneous readings, not part of the guarantee).
        {
            let adm = plock(&self.admission);
            self.metrics.admission_waiting.set(adm.waiting() as f64);
            self.metrics.admission_running.set(adm.running() as f64);
            self.metrics.admission_stretch.set(adm.stretch());
        }
        self.metrics.pool_queue_depth.set(self.pool.queue_depth() as f64);
        self.metrics.pool_busy_workers.set(self.pool.busy_workers() as f64);
        let entries = plock_named(&self.cache, "sxd.cache").len();
        self.metrics.cache_entries.set(entries as f64);

        let (snap, reg) = {
            let c = plock_named(&self.counters, "sxd.counters");
            // Histograms snapshotted while the counters are frozen: every
            // `job` observation happens under this same lock.
            (c.clone(), self.metrics.registry.snapshot())
        };
        let suites = snap
            .suites
            .iter()
            .map(|(k, s)| {
                let avg_stretch = if s.runs > 0 { s.stretch_sum / s.runs as f64 } else { 0.0 };
                (
                    k.clone(),
                    SuiteRow { runs: s.runs as f64, sim_seconds: s.sim_seconds, avg_stretch },
                )
            })
            .collect();
        let mut m = Metrics {
            stats: self.stats(&snap),
            gauges: reg.gauges,
            latency: reg.histograms,
            suites,
            reconciled: false,
        };
        m.reconciled = m.job_count_matches();
        m.reply()
    }

    /// Begin a graceful drain: stop admitting, give in-flight jobs
    /// `deadline` to finish, checkpoint the stragglers, shut down.
    /// Idempotent — the first drain wins.
    fn start_drain(self: &Arc<Self>, deadline: Duration) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        let d = Arc::clone(self);
        std::thread::spawn(move || d.drain_worker(deadline));
    }

    /// The drain state machine. Phase 1: poll until every pending leader
    /// retires or the deadline passes. Phase 2: split each straggler with
    /// `checkpoint_split` and persist the restart halves — only once they
    /// are durably on disk are the keys marked checkpointed, so a crash or
    /// IO fault during persistence leaves the jobs to finish normally
    /// instead of vanishing. Phase 3: wait for the stragglers to retire
    /// (queued ones retire on the next condvar wake; running ones when the
    /// runner returns), then shut the daemon down.
    fn drain_worker(&self, deadline: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < deadline && !plock_named(&self.pending, "sxd.pending").is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stragglers: Vec<(u64, PendingJob)> = plock_named(&self.pending, "sxd.pending")
            .iter()
            .map(|(k, p)| (*k, p.clone()))
            .collect();
        if !stragglers.is_empty() {
            if let Some(dir) = &self.state_dir {
                let mut specs = Vec::with_capacity(stragglers.len());
                for (key, p) in &stragglers {
                    let job = JobSpec {
                        name: format!("ckpt-{key:016x}"),
                        procs: p.demand.procs,
                        memory_bytes: p.demand.memory_bytes,
                        solo_seconds: p.demand.solo_seconds,
                        bytes_per_cycle_per_proc: p.demand.bytes_per_cycle_per_proc,
                        block: 0,
                        after: Vec::new(),
                    };
                    // The runner is a black box — the daemon has no
                    // progress signal for it — so the checkpoint is taken
                    // conservatively at fraction 0: the restart half
                    // carries all the work (plus the restart overhead) and
                    // nothing is lost, merely recomputed.
                    let Ok((_spent, rest)) =
                        superux::nqs::checkpoint_split(&job, 0.0, CKPT_SECONDS, RESTART_SECONDS)
                    else {
                        continue; // unreachable: 0.0 is in range
                    };
                    specs.push(RestartSpec {
                        suite: p.suite.clone(),
                        machine: p.machine.clone(),
                        params: p.params.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
                        solo_seconds: rest.solo_seconds,
                        fraction_done: 0.0,
                    });
                }
                if journal::write_restart_specs(dir, &specs).is_ok() {
                    let mut ck = plock_named(&self.ckpt, "sxd.ckpt");
                    for (key, _) in &stragglers {
                        ck.insert(*key);
                    }
                    drop(ck);
                    // Wake queued leaders so they observe their checkpoint.
                    self.admit_cv.notify_all();
                }
                // On persist failure the stragglers stay un-checkpointed
                // and run to completion below — slower, but nothing lost.
            }
            while !plock_named(&self.pending, "sxd.pending").is_empty() {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        self.initiate_shutdown();
    }

    /// Flip the shutdown flag and wake the reactor. Idempotent. Shutdown
    /// is a first-class event: the loop stops accepting immediately,
    /// closes idle connections, and flushes in-flight replies — no
    /// follow-on client needed, no self-connect poke, no half-closing
    /// sockets behind the event loop's back.
    fn initiate_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        let handle = plock_named(&self.reactor, "sxd.reactor").clone();
        if let Some(h) = handle {
            h.shutdown();
        }
    }
}

/// Run the reactor on a thread named `sxd-reactor` and wait for it, so the
/// serving loop is identifiable in a process listing whoever calls
/// [`Server::run`].
pub(crate) fn run_named_reactor<S: Service>(reactor: Reactor<S>) -> Result<(), SxdError> {
    std::thread::Builder::new()
        .name("sxd-reactor".into())
        .spawn(move || reactor.run())
        .map_err(SxdError::io)?
        .join()
        .map_err(|_| SxdError::Io { detail: "the reactor thread panicked".into() })?
        .map_err(SxdError::io)
}

/// Serialize one run result. Deterministic: key order is fixed, floats use
/// the shortest round-trip form, artifacts serialize themselves. Cache
/// hits replay these exact bytes.
fn render_payload(
    suite: &str,
    params: &BTreeMap<String, String>,
    sim_seconds: f64,
    stretch: f64,
    artifacts: &[Artifact],
    machine: &str,
) -> String {
    let params_json =
        Json::Obj(params.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect())
            .to_string();
    let arts: Vec<String> = artifacts.iter().map(Artifact::to_json).collect();
    let rendered: String = artifacts.iter().map(Artifact::render).collect();
    format!(
        "{{\"suite\":\"{}\",\"machine\":\"{}\",\"params\":{},\"sim_seconds\":{},\
         \"stretch\":{},\"artifacts\":[{}],\"rendered\":\"{}\"}}",
        json_escape(suite),
        json_escape(machine),
        params_json,
        json_f64(sim_seconds),
        json_f64(stretch),
        arts.join(","),
        json_escape(&rendered)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn toy_registry() -> Registry<JobEntry> {
        let mut r = Registry::new();
        r.register(
            "toy",
            JobEntry::new(Demand::light(2.0), "toy scalar", |_m, p| {
                let n = p.get("n").map(String::as_str).unwrap_or("1");
                Ok(vec![Artifact::Scalar {
                    title: format!("toy n={n}"),
                    value: 42.0,
                    unit: "mflops".into(),
                }])
            }),
        );
        r
    }

    /// One submit the way a dispatcher serves it: resolve, then submit.
    fn submit(
        d: &Daemon,
        suite: &str,
        machine: &str,
        params: &BTreeMap<String, String>,
    ) -> Result<String, SxdError> {
        d.resolve_submit(suite.into(), machine, params.clone()).and_then(|s| d.submit(s, None))
    }

    fn service(d: &Arc<Daemon>) -> DaemonService {
        DaemonService { daemon: Arc::clone(d) }
    }

    /// The reply `classify` answers inline, or `None` when it dispatches
    /// (the job is dropped unrun).
    fn inline(d: &Arc<Daemon>, frame: &str) -> Option<String> {
        match service(d).classify(&(), frame.into()) {
            Classified::Inline(reply) => Some(reply.line.to_string()),
            Classified::Dispatch(_) => None,
        }
    }

    /// A frame served end to end: classified, then run if dispatched.
    fn serve(d: &Arc<Daemon>, frame: &str) -> String {
        let svc = service(d);
        match svc.classify(&(), frame.into()) {
            Classified::Inline(reply) => reply.line.to_string(),
            Classified::Dispatch(job) => svc.run(&(), job).line.to_string(),
        }
    }

    fn metrics_doc(d: &Daemon) -> Json {
        let reply = d.metrics_reply();
        let doc = Json::parse(&reply).expect("metrics reply must be valid JSON");
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
        doc.get("metrics").unwrap().clone()
    }

    #[test]
    fn payload_is_deterministic_for_equal_inputs() {
        let mut p = BTreeMap::new();
        p.insert("n".to_string(), "4".to_string());
        let a = vec![Artifact::Scalar { title: "t".into(), value: 1.5, unit: "u".into() }];
        let one = render_payload("toy", &p, 2.25, 1.125, &a, "sx4-9.2");
        let two = render_payload("toy", &p, 2.25, 1.125, &a, "sx4-9.2");
        assert_eq!(one, two);
        Json::parse(&one).expect("payload must be valid JSON");
    }

    #[test]
    fn submit_path_counts_and_caches_without_tcp() {
        let server = Server::bind(toy_registry(), ServerConfig::default()).unwrap();
        let d = &server.daemon;
        let params = BTreeMap::new();
        let first = submit(d, "toy", "sx4", &params).unwrap();
        let second = submit(d, "TOY", "sx4-9.2", &params).unwrap();
        assert!(first.contains("\"cached\":false"));
        assert!(second.contains("\"cached\":true"));
        // Byte-identical modulo the cached flag.
        assert_eq!(second, first.replace("\"cached\":false", "\"cached\":true"));
        let c = plock(&d.counters);
        assert_eq!(
            (c.jobs.accepted, c.jobs.done, c.jobs.rejected, c.jobs.queued, c.jobs.running),
            (2, 2, 0, 0, 0)
        );
        let toy = c.suites.get("toy").unwrap();
        assert!(toy.sim_seconds > 0.0);
        assert_eq!(toy.runs, 1, "the cache hit must not count as a run");
    }

    #[test]
    fn fast_path_serves_cache_hits_inline_with_counters_reconciled() {
        let server = Server::bind(toy_registry(), ServerConfig::default()).unwrap();
        let d = &server.daemon;
        let frame = "{\"op\":\"submit\",\"suite\":\"toy\",\"machine\":\"sx4\"}";
        // Cold: the fast path must decline the miss and leave no trace —
        // not even a counted cache miss (the dispatcher counts it).
        assert!(inline(d, frame).is_none());
        {
            let c = plock(&d.counters);
            assert_eq!((c.jobs.accepted, c.jobs.fastpath_hits), (0, 0));
        }
        assert_eq!(plock(&d.cache).misses(), 0, "a declined probe must be invisible");
        // Warm the cache through the full path.
        let slow = serve(d, frame);
        assert!(slow.contains("\"cached\":false"), "{slow}");
        // Hot: the fast path serves byte-identical output inline.
        let fast = inline(d, frame).expect("warm submit must fast-path");
        assert_eq!(fast, slow.replace("\"cached\":false", "\"cached\":true"));
        {
            let c = plock(&d.counters);
            assert_eq!((c.jobs.accepted, c.jobs.done, c.jobs.fastpath_hits), (2, 2, 1));
            assert_eq!(
                c.jobs.accepted,
                c.jobs.done + c.jobs.rejected + c.jobs.queued + c.jobs.running
            );
        }
        // Stats, parse errors and cluster verbs answer inline; run-bound
        // and stateful verbs do not.
        assert!(inline(d, "{\"op\":\"stats\"}").is_some());
        assert!(inline(d, "not json").is_some());
        assert!(inline(d, "{\"op\":\"route\",\"suite\":\"toy\",\"machine\":\"sx4\"}").is_some());
        assert!(inline(d, "{\"op\":\"metrics\"}").is_none());
        assert!(inline(d, "{\"op\":\"shutdown\"}").is_none());
        assert!(inline(d, "{\"op\":\"drain\"}").is_none());
        let m = metrics_doc(d);
        assert_eq!(m.get("reconciled").unwrap().as_bool(), Some(true));
        let stats = m.get("stats").unwrap();
        assert_eq!(stats.get("fastpath_hits").unwrap().as_u64(), Some(4));
        assert_eq!(stats.get("bad_requests").unwrap().as_u64(), Some(2));
        // `frame_parse` counted every classified frame exactly once, the
        // declined ones included: the cold decline, the warm dispatch,
        // the inline hit, three more inline answers and three declines.
        let parse = m.get("latency").unwrap().get("frame_parse").unwrap();
        assert_eq!(parse.get("count").unwrap().as_u64(), Some(9));
    }

    #[test]
    fn fast_path_toggle_off_declines_everything() {
        let config = ServerConfig { fastpath: false, ..ServerConfig::default() };
        let server = Server::bind(toy_registry(), config).unwrap();
        let d = &server.daemon;
        let frame = "{\"op\":\"submit\",\"suite\":\"toy\",\"machine\":\"sx4\"}";
        let _ = serve(d, frame);
        assert!(inline(d, frame).is_none(), "warm hit must still dispatch");
        assert!(inline(d, "{\"op\":\"stats\"}").is_none());
        assert_eq!(plock(&d.counters).jobs.fastpath_hits, 0);
    }

    #[test]
    fn submit_resolution_errors_answer_inline_byte_identical_to_dispatch() {
        let server = Server::bind(toy_registry(), ServerConfig::default()).unwrap();
        let d = &server.daemon;
        let off = ServerConfig { fastpath: false, ..ServerConfig::default() };
        let slow_server = Server::bind(toy_registry(), off).unwrap();
        for frame in [
            "{\"op\":\"submit\",\"suite\":\"nope\",\"machine\":\"sx4\"}",
            "{\"op\":\"submit\",\"suite\":\"toy\",\"machine\":\"cray-2\"}",
        ] {
            let fast = inline(d, frame).expect("a typed resolution error answers inline");
            assert_eq!(fast, serve(&slow_server.daemon, frame));
        }
        d.draining.store(true, Ordering::SeqCst);
        let refused = inline(d, "{\"op\":\"submit\",\"suite\":\"toy\",\"machine\":\"sx4\"}")
            .expect("a draining daemon refuses submits inline");
        assert_eq!(refused, SxdError::ShuttingDown.to_reply());
        let c = plock(&d.counters);
        assert_eq!((c.jobs.accepted, c.jobs.bad_requests, c.jobs.fastpath_hits), (0, 2, 3));
    }

    #[test]
    fn unknown_suite_and_machine_are_typed_not_accepted() {
        let server = Server::bind(toy_registry(), ServerConfig::default()).unwrap();
        let d = &server.daemon;
        let params = BTreeMap::new();
        let e1 = submit(d, "nope", "sx4", &params).unwrap_err();
        assert_eq!(e1.kind(), "unknown_suite");
        let e2 = submit(d, "toy", "cray-2", &params).unwrap_err();
        assert_eq!(e2.kind(), "unknown_machine");
        let c = plock(&d.counters);
        assert_eq!(c.jobs.accepted, 0);
        assert_eq!(c.jobs.bad_requests, 2);
    }

    #[test]
    fn infeasible_demand_is_rejected_with_counters_reconciled() {
        let mut r = toy_registry();
        r.register(
            "wide",
            JobEntry::new(
                Demand {
                    procs: 4096,
                    memory_bytes: 1 << 20,
                    solo_seconds: 1.0,
                    bytes_per_cycle_per_proc: 8.0,
                },
                "asks for more processors than the node has",
                |_m, _p| Ok(vec![]),
            ),
        );
        let server = Server::bind(r, ServerConfig::default()).unwrap();
        let d = &server.daemon;
        let err = submit(d, "wide", "sx4", &BTreeMap::new()).unwrap_err();
        assert_eq!(err.kind(), "rejected");
        let c = plock(&d.counters);
        assert_eq!(
            (c.jobs.accepted, c.jobs.rejected, c.jobs.done, c.jobs.queued, c.jobs.running),
            (1, 1, 0, 0, 0)
        );
    }

    #[test]
    fn runner_panic_becomes_run_failed_not_a_crash() {
        let mut r = Registry::new();
        r.register(
            "boom",
            JobEntry::new(
                Demand::light(1.0),
                "always panics",
                |_m, _p| -> Result<Vec<Artifact>, String> { panic!("kaboom") },
            ),
        );
        let server = Server::bind(r, ServerConfig::default()).unwrap();
        let err = submit(&server.daemon, "boom", "sx4", &BTreeMap::new()).unwrap_err();
        assert_eq!(err.kind(), "run_failed");
        let c = plock(&server.daemon.counters);
        assert_eq!((c.jobs.accepted, c.jobs.rejected, c.jobs.running), (1, 1, 0));
    }

    #[test]
    fn concurrent_identical_submits_run_once_and_coalesce() {
        // The thundering-herd regression: a herd of identical cache-missing
        // submits must execute the runner exactly once.
        let runs = Arc::new(AtomicUsize::new(0));
        let mut r = Registry::new();
        let runs_in_runner = Arc::clone(&runs);
        r.register(
            "slow",
            JobEntry::new(Demand::light(1.0), "slow runner", move |_m, _p| {
                runs_in_runner.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(100));
                Ok(vec![Artifact::Scalar { title: "s".into(), value: 1.0, unit: "u".into() }])
            }),
        );
        let server = Server::bind(r, ServerConfig::default()).unwrap();
        let d = Arc::clone(&server.daemon);

        const HERD: usize = 8;
        let replies: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..HERD)
                .map(|_| {
                    let d = Arc::clone(&d);
                    s.spawn(move || submit(&d, "slow", "sx4", &BTreeMap::new()).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        assert_eq!(runs.load(Ordering::SeqCst), 1, "one run per unique key");
        // Exactly one leader replied uncached; every follower replayed.
        let uncached = replies.iter().filter(|r| r.contains("\"cached\":false")).count();
        assert_eq!(uncached, 1);
        // All replies carry byte-identical payloads.
        let canon = replies[0].replace("\"cached\":false", "\"cached\":true");
        for r in &replies {
            assert_eq!(r.replace("\"cached\":false", "\"cached\":true"), canon);
        }
        let c = plock(&d.counters);
        assert_eq!(c.jobs.coalesced, (HERD - 1) as u64);
        assert_eq!(
            (c.jobs.accepted, c.jobs.done, c.jobs.queued, c.jobs.running),
            (HERD as u64, HERD as u64, 0, 0)
        );
        assert_eq!(c.suites.get("slow").unwrap().runs, 1);
    }

    #[test]
    fn followers_share_the_leaders_failure() {
        let runs = Arc::new(AtomicUsize::new(0));
        let mut r = Registry::new();
        let runs_in_runner = Arc::clone(&runs);
        r.register(
            "failing",
            JobEntry::new(Demand::light(1.0), "always fails slowly", move |_m, _p| {
                runs_in_runner.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(80));
                Err("deliberate failure".into())
            }),
        );
        let server = Server::bind(r, ServerConfig::default()).unwrap();
        let d = Arc::clone(&server.daemon);
        let errs: Vec<SxdError> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let d = Arc::clone(&d);
                    s.spawn(move || submit(&d, "failing", "sx4", &BTreeMap::new()).unwrap_err())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "failures are not retried by followers");
        for e in &errs {
            assert_eq!(e.kind(), "run_failed", "{e}");
        }
        let c = plock(&d.counters);
        assert_eq!((c.jobs.accepted, c.jobs.rejected, c.jobs.done), (4, 4, 0));
        assert_eq!(c.jobs.coalesced, 3);
        // Failures are not cached: a later submit runs again.
        drop(c);
        let _ = submit(&d, "failing", "sx4", &BTreeMap::new()).unwrap_err();
        assert_eq!(runs.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn admission_wait_times_out_with_a_typed_rejection() {
        let mut r = Registry::new();
        // Occupies every processor of the node for 300 ms of host time.
        r.register(
            "hog",
            JobEntry::new(
                Demand {
                    procs: 32,
                    memory_bytes: 1 << 30,
                    solo_seconds: 1.0,
                    bytes_per_cycle_per_proc: 8.0,
                },
                "whole-node job",
                |_m, _p| {
                    std::thread::sleep(Duration::from_millis(300));
                    Ok(vec![])
                },
            ),
        );
        r.register(
            "wants-in",
            JobEntry::new(
                Demand {
                    procs: 32,
                    memory_bytes: 1 << 30,
                    solo_seconds: 1.0,
                    bytes_per_cycle_per_proc: 8.0,
                },
                "cannot fit beside the hog",
                |_m, _p| Ok(vec![]),
            ),
        );
        let config =
            ServerConfig { admit_timeout: Duration::from_millis(50), ..ServerConfig::default() };
        let server = Server::bind(r, config).unwrap();
        let d = Arc::clone(&server.daemon);

        let hog = {
            let d = Arc::clone(&d);
            std::thread::spawn(move || submit(&d, "hog", "sx4", &BTreeMap::new()))
        };
        // Let the hog take the node before the second job arrives.
        std::thread::sleep(Duration::from_millis(60));
        let err = submit(&d, "wants-in", "sx4", &BTreeMap::new()).unwrap_err();
        assert_eq!(err.kind(), "rejected");
        assert!(err.detail().contains("admission wait exceeded"), "{err}");
        {
            let c = plock(&d.counters);
            assert_eq!(c.jobs.rejected, 1);
            assert_eq!(
                c.jobs.accepted,
                c.jobs.done + c.jobs.rejected + c.jobs.queued + c.jobs.running,
                "invariant must hold with the hog still in flight"
            );
        }
        hog.join().unwrap().unwrap();
        let c = plock(&d.counters);
        assert_eq!(
            (c.jobs.accepted, c.jobs.done, c.jobs.rejected, c.jobs.queued, c.jobs.running),
            (2, 1, 1, 0, 0)
        );
    }

    #[test]
    fn stats_stay_serviceable_after_a_panic_poisons_the_counters() {
        let server = Server::bind(toy_registry(), ServerConfig::default()).unwrap();
        let d = Arc::clone(&server.daemon);
        submit(&d, "toy", "sx4", &BTreeMap::new()).unwrap();
        // Poison the counters mutex the way a bug would: panic mid-section.
        {
            let d = Arc::clone(&d);
            let _ = std::thread::spawn(move || {
                let _guard = d.counters.lock().unwrap();
                panic!("simulated bug while holding the counters lock");
            })
            .join();
        }
        assert!(d.counters.lock().is_err(), "the mutex really is poisoned");
        // STATS, METRICS and new submits all still work.
        let stats = d.stats_reply();
        assert!(stats.contains("\"accepted\":1"), "{stats}");
        let m = metrics_doc(&d);
        assert_eq!(m.get("reconciled").unwrap().as_bool(), Some(true));
        let reply = submit(&d, "toy", "sx4", &BTreeMap::new()).unwrap();
        assert!(reply.contains("\"cached\":true"));
    }

    #[test]
    fn metrics_reconcile_job_histogram_with_counters() {
        let server = Server::bind(toy_registry(), ServerConfig::default()).unwrap();
        let d = &server.daemon;
        let mut p = BTreeMap::new();
        submit(d, "toy", "sx4", &p).unwrap(); // miss -> run
        submit(d, "toy", "sx4", &p).unwrap(); // hit
        p.insert("n".into(), "2".into());
        submit(d, "toy", "sx4", &p).unwrap(); // second distinct run
        let _ = submit(d, "missing", "sx4", &p).unwrap_err(); // not accepted

        let m = metrics_doc(d);
        assert_eq!(m.get("reconciled").unwrap().as_bool(), Some(true));
        let stats = m.get("stats").unwrap();
        let job = m.get("latency").unwrap().get("job").unwrap();
        let done = stats.get("done").unwrap().as_u64().unwrap();
        let rejected = stats.get("rejected").unwrap().as_u64().unwrap();
        assert_eq!(job.get("count").unwrap().as_u64().unwrap(), done + rejected);
        assert_eq!(done, 3);
        // Bucket counts sum to the histogram count (overflow included).
        let n: u64 =
            job.get("n").unwrap().as_arr().unwrap().iter().map(|v| v.as_u64().unwrap()).sum();
        assert_eq!(n, done + rejected);
        // Stage histograms saw the two real runs.
        let run = m.get("latency").unwrap().get("run").unwrap();
        assert_eq!(run.get("count").unwrap().as_u64(), Some(2));
        let render = m.get("latency").unwrap().get("render").unwrap();
        assert_eq!(render.get("count").unwrap().as_u64(), Some(2));
        // The per-suite breakdown counts runs, not serves.
        let toy = m.get("suites").unwrap().get("toy").unwrap();
        assert_eq!(toy.get("runs").unwrap().as_u64(), Some(2));
        assert!(toy.get("avg_stretch").unwrap().as_f64().unwrap() >= 1.0);
        // Gauges exist and are quiescent. `WorkerPool::run` returns when
        // the job's result is delivered, a hair before the worker's busy
        // guard drops, so give the gauge a moment to settle.
        let deadline = Instant::now() + Duration::from_secs(5);
        while d.pool.busy_workers() > 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let m = metrics_doc(d);
        let g = m.get("gauges").unwrap();
        assert_eq!(g.get("pool_busy_workers").unwrap().as_f64(), Some(0.0));
        assert_eq!(g.get("admission_running").unwrap().as_f64(), Some(0.0));
    }
}
