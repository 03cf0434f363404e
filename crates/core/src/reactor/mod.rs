//! Hermetic readiness-driven serving: the epoll/poll reactor from ROADMAP
//! item 1, with no external crates (no tokio — the workspace builds
//! `--offline`).
//!
//! The previous serving model spawned one OS thread per accepted
//! connection; at the connection counts the paper's PRODLOAD scenario
//! implies ("millions of users"), thread stacks alone blow past memory,
//! and the accept loop hid three real lifecycle bugs (join-handle leaks,
//! unbounded idle clients, shutdown racing `accept`). The reactor
//! replaces that model with one event loop and a small *bounded*
//! dispatcher pool:
//!
//! ```text
//!            epoll/poll readiness                 bounded WorkerPool
//!  sockets ──────────────► reactor thread ───job───► dispatchers ──┐
//!     ▲                      │    ▲                                │
//!     └──────── replies ─────┘    └────── completions + waker ─────┘
//! ```
//!
//! Per connection the reactor runs a pipelined sequence-window protocol:
//!
//! - **Decode**: read-readiness drains the socket into a [`LineDecoder`]
//!   (same accept/reject semantics as the blocking frame reader). Each
//!   complete frame is assigned the connection's next sequence number.
//! - **Classify**: each frame goes to [`Service::classify`] *on the
//!   reactor thread*, which parses it once and either answers it inline
//!   (cache hits, stats snapshots, typed protocol errors — replies that
//!   are cheap to produce) or returns the parsed job for the pool, where
//!   [`Service::run`] finishes it. A panic in `classify` closes only its
//!   own connection, exactly like a panic in a dispatched `run`.
//! - **Dispatch window**: up to [`ReactorConfig::pipeline_depth`] frames
//!   may be in flight per connection (consumed but not yet replied).
//!   Dispatcher threads may block (NQS admission, journal writes) without
//!   stalling the event loop; once the window is full, read interest is
//!   disarmed so level-triggered polling cannot spin, and further
//!   pipelined bytes wait in the kernel socket buffer (backpressure).
//! - **Ordered release**: completions can arrive in any order; replies
//!   park in a per-connection reorder buffer and are released strictly in
//!   sequence, so the byte stream a client sees is identical to the
//!   unpipelined path. A terminal reply (or a decode error, which is
//!   assigned a sequence number like any frame) pins the close point:
//!   earlier in-flight frames still answer in order, later ones are
//!   dropped with the connection.
//! - **Vectored flush**: a reply line is a shared `Arc<str>` (a cache
//!   hit's line is the very allocation the cache holds), so releasing it
//!   queues a reference, not a copy, and there is no render buffer to
//!   pool. Each queued reply leaves as two slices of a `writev`-style
//!   vectored write — its line, then a static `"\n"` — so N pipelined
//!   replies coalesce into one syscall and the newline is never appended
//!   to a buffer. [`ReactorConfig::flush_batch`] can observe the replies
//!   per syscall. Successful writes count as activity for the idle wheel
//!   — a client slowly draining a large reply while making progress is
//!   never idle-closed mid-flush.
//!
//! Shutdown is a first-class wake event: [`ReactorHandle::shutdown`]
//! flips a flag and writes the self-pipe, the loop closes the listener
//! immediately (new connects are refused rather than silently queued),
//! drops idle connections, and gives in-flight work a short grace window
//! to flush its replies. Idle connections are bounded by a
//! [`TimerWheel`]: a client that connects and sends nothing (or
//! drip-feeds a frame forever) is closed after the configured idle
//! timeout and counted in the `idle_closed` stat.

mod decode;
mod poller;
mod wheel;

pub use decode::{DecodeError, LineDecoder};
pub use poller::{Event, Interest, Poller};
pub use wheel::TimerWheel;

use crate::metrics::Histogram;
use crate::par::WorkerPool;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOK_LISTENER: u64 = 0;
const TOK_WAKER: u64 = 1;
const TOK_BASE: u64 = 2;

/// Accept backlog for the listener. `TcpListener::bind` listens with
/// std's fixed backlog of 128, which a burst of simultaneous connects (a
/// 1000-client flood) overflows — the overflowed handshakes are reset.
/// The kernel caps this at `net.core.somaxconn`.
const BACKLOG: i32 = 4096;

/// Most replies a connection's flush will hand to one vectored write
/// (two slices each: line and newline). Far below any platform IOV_MAX;
/// past this, batching returns are flat anyway.
const MAX_FLUSH_VEC: usize = 64;

/// What a [`Service`] wants sent back for one frame.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Reply line, written with a trailing newline. Shared, so a service
    /// can hand the reactor bytes it keeps (a cached reply) without a
    /// copy. Empty means "send nothing" (used with `close` when there is
    /// no meaningful reply, e.g. after a handler panic).
    pub line: Arc<str>,
    /// Close the connection once the reply is flushed.
    pub close: bool,
}

impl Reply {
    pub fn send(line: impl Into<Arc<str>>) -> Reply {
        Reply { line: line.into(), close: false }
    }

    pub fn send_and_close(line: impl Into<Arc<str>>) -> Reply {
        Reply { line: line.into(), close: true }
    }

    /// No reply, close the connection: what a panicking `classify` or
    /// `run` turns into.
    fn panicked() -> Reply {
        Reply::send_and_close("")
    }
}

/// What [`Service::classify`] decided for one frame.
pub enum Classified<J> {
    /// Answered on the reactor thread; no dispatcher handoff.
    Inline(Reply),
    /// Hand this job to a dispatcher, which answers it with
    /// [`Service::run`].
    Dispatch(J),
}

/// The application half of the reactor: frame in, reply out, in two
/// steps.
///
/// `classify` runs *on the reactor thread* for every decoded frame and
/// must not block: it parses the frame and either answers it inline or
/// returns the parsed job. `run` receives that job on a dispatcher
/// thread and may block (admission waits, journal writes); the reactor
/// thread itself never calls it. Each connection owns one `Conn` value
/// of per-connection service state, created at accept and shared by
/// reference with every (possibly concurrent, under pipelining)
/// invocation for that connection.
pub trait Service: Send + Sync + 'static {
    type Conn: Send + Sync + 'static;
    /// A frame classified for the pool — typically its parsed request,
    /// so no frame is parsed twice.
    type Job: Send + 'static;

    /// Prefix of the dispatcher threads' names: they are called
    /// `<prefix>-dispatch-0`, `<prefix>-dispatch-1`, ….
    const THREAD_PREFIX: &'static str = "reactor";

    /// A connection was accepted; build its per-connection state.
    fn open(&self, id: u64) -> Self::Conn;

    /// Answer one decoded frame inline or turn it into a job. Runs on
    /// the reactor thread: no waits, no runs, at most short leaf-lock
    /// critical sections.
    fn classify(&self, conn: &Self::Conn, frame: String) -> Classified<Self::Job>;

    /// Answer one classified job. Runs on a dispatcher thread.
    fn run(&self, conn: &Self::Conn, job: Self::Job) -> Reply;

    /// Render the reply line for a frame that could not be decoded. The
    /// connection always closes after this reply (there is no resync
    /// point inside a lost frame).
    fn decode_error_reply(&self, err: &DecodeError) -> String;

    /// A connection closed; a handler for it may still be completing on
    /// a dispatcher thread (its reply will be dropped). Runs on the
    /// reactor thread — keep it cheap.
    fn closed(&self, id: u64, conn: &Self::Conn) {
        let _ = (id, conn);
    }
}

/// Reactor tuning. `Default` matches the daemon's protocol limits.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Frame content cap in bytes (the decoder rejects longer frames).
    pub max_frame: usize,
    /// Close connections idle longer than this; `None` disables the
    /// timeout wheel entirely.
    pub idle_timeout: Option<Duration>,
    /// Dispatcher threads running [`Service::run`]. This bounds
    /// frame-handling concurrency the way the old model's thread count
    /// bounded connections — but it no longer bounds *connections*.
    pub dispatchers: usize,
    /// Grace window for flushing in-flight replies at shutdown.
    pub shutdown_flush: Duration,
    /// Frames that may be in flight (consumed but unanswered) per
    /// connection. 1 preserves the strict request/reply lockstep of the
    /// unpipelined reactor; higher values let a pipelining client keep
    /// the dispatchers busy. Replies always leave in request order.
    pub pipeline_depth: usize,
    /// Observes the number of reply buffers handed to each vectored
    /// write — the coalescing win of pipelining, measured per syscall.
    pub flush_batch: Option<Arc<Histogram>>,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            max_frame: 64 * 1024,
            idle_timeout: Some(Duration::from_secs(300)),
            dispatchers: 8,
            shutdown_flush: Duration::from_secs(2),
            pipeline_depth: 1,
            flush_batch: None,
        }
    }
}

#[derive(Debug, Default)]
struct ReactorStats {
    accepted: AtomicU64,
    closed: AtomicU64,
    idle_closed: AtomicU64,
    frames: AtomicU64,
    open: AtomicU64,
}

struct Shared {
    shutdown: AtomicBool,
    stats: ReactorStats,
    /// Write end of the self-pipe; any thread can nudge the loop.
    waker: UnixStream,
}

/// Cloneable remote control for a running reactor: wake it, shut it
/// down, read its connection counters.
#[derive(Clone)]
pub struct ReactorHandle {
    shared: Arc<Shared>,
}

impl ReactorHandle {
    /// Nudge the event loop (used by dispatchers delivering completions).
    pub fn wake(&self) {
        // A full pipe already guarantees a pending wake: WouldBlock is
        // success here, and both ends are non-blocking so this never
        // stalls the caller.
        let _ = (&self.shared.waker).write(&[1u8]);
    }

    /// Request shutdown and wake the loop. Idempotent; returns
    /// immediately (the reactor drains in its own thread).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.wake();
    }

    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Connections accepted over the reactor's lifetime.
    pub fn accepted(&self) -> u64 {
        self.shared.stats.accepted.load(Ordering::Relaxed)
    }

    /// Connections fully closed (all causes, idle included).
    pub fn closed(&self) -> u64 {
        self.shared.stats.closed.load(Ordering::Relaxed)
    }

    /// Connections closed by the idle-timeout wheel.
    pub fn idle_closed(&self) -> u64 {
        self.shared.stats.idle_closed.load(Ordering::Relaxed)
    }

    /// Frames decoded, whether answered inline or dispatched.
    pub fn frames(&self) -> u64 {
        self.shared.stats.frames.load(Ordering::Relaxed)
    }

    /// Currently open connections.
    pub fn open(&self) -> u64 {
        self.shared.stats.open.load(Ordering::Relaxed)
    }
}

struct Conn<C> {
    stream: TcpStream,
    decoder: LineDecoder,
    /// Per-connection service state, shared with every in-flight handler.
    sconn: Arc<C>,
    /// Released replies awaiting the socket.
    out: OutQueue,
    /// Sequence number the next consumed frame will get.
    next_seq: u64,
    /// Sequence number of the next reply to release into `out`; frames
    /// with `next_reply <= seq < next_seq` are in flight.
    next_reply: u64,
    /// Out-of-order completions parked until their turn.
    pending: BTreeMap<u64, Reply>,
    /// Set when the reply at this seq was terminal: it closes the
    /// connection once flushed, and replies past it are dropped.
    close_at: Option<u64>,
    /// No further frames will ever be pulled from the decoder (clean
    /// EOF, or a decode error already queued as the final reply).
    input_done: bool,
    last_activity: Instant,
    /// Peer half-closed its write side (read returned 0).
    eof: bool,
    /// An idle-wheel entry currently points at this connection.
    timer_armed: bool,
    /// Interest currently registered with the poller (skip redundant
    /// `epoll_ctl` calls — under pipelining, most advances keep it).
    interest: Interest,
}

impl<C> Conn<C> {
    /// Frames consumed but not yet released as replies.
    fn in_flight(&self) -> u64 {
        self.next_seq - self.next_reply
    }
}

struct Completion {
    id: u64,
    seq: u64,
    reply: Reply,
}

/// A connection's released replies, oldest first. Each reply goes out as
/// its line followed by `"\n"`; the front reply's first `pos` bytes of
/// that pair are already written.
#[derive(Default)]
struct OutQueue {
    replies: VecDeque<Arc<str>>,
    pos: usize,
}

/// How far [`OutQueue::flush`] got.
enum Flushed {
    /// The queue is empty.
    Clean,
    /// The writer would block; the rest waits for write readiness.
    Blocked,
    /// The writer failed or accepted nothing; the connection is dead.
    Broken,
}

impl OutQueue {
    /// Write replies until the queue empties or `w` stops accepting,
    /// handing at most [`MAX_FLUSH_VEC`] replies to each vectored write
    /// and observing that reply count in `batch`. Also returns whether
    /// any byte was written.
    fn flush(&mut self, w: &mut impl Write, batch: Option<&Histogram>) -> (Flushed, bool) {
        const NEWLINE: &[u8] = b"\n";
        let mut wrote = false;
        loop {
            let Some(front) = self.replies.front() else {
                self.pos = 0;
                return (Flushed::Clean, wrote);
            };
            // `pos <= front.len()`: a reply leaves the queue as soon as its
            // newline is written, so the front's newline is always unsent
            // (its line slice may be empty).
            let mut slices = [IoSlice::new(&[]); 2 * MAX_FLUSH_VEC];
            slices[0] = IoSlice::new(&front.as_bytes()[self.pos..]);
            slices[1] = IoSlice::new(NEWLINE);
            let replies = self.replies.len().min(MAX_FLUSH_VEC);
            for (i, line) in self.replies.iter().enumerate().take(replies).skip(1) {
                slices[2 * i] = IoSlice::new(line.as_bytes());
                slices[2 * i + 1] = IoSlice::new(NEWLINE);
            }
            match w.write_vectored(&slices[..2 * replies]) {
                Ok(0) => return (Flushed::Broken, wrote),
                Ok(n) => {
                    wrote = true;
                    if let Some(h) = batch {
                        h.observe(replies as f64);
                    }
                    self.consume(n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return (Flushed::Blocked, wrote)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return (Flushed::Broken, wrote),
            }
        }
    }

    /// Retire `n` written bytes from the front of the queue.
    fn consume(&mut self, mut n: usize) {
        while n > 0 {
            let Some(front) = self.replies.front() else { return };
            let rem = front.len() + 1 - self.pos;
            if n < rem {
                self.pos += n;
                return;
            }
            n -= rem;
            self.pos = 0;
            self.replies.pop_front();
        }
    }
}

/// What the frame pump decided while the connection was borrowed.
enum Step {
    Frame(String),
    DecodeErr(DecodeError),
    Hold,
}

/// The event loop. Build with [`Reactor::new`], grab a
/// [`ReactorHandle`], then give the loop its thread with
/// [`Reactor::run`].
pub struct Reactor<S: Service> {
    listener: Option<TcpListener>,
    poller: Poller,
    service: Arc<S>,
    config: ReactorConfig,
    shared: Arc<Shared>,
    waker_rx: UnixStream,
    conns: HashMap<u64, Conn<S::Conn>>,
    next_id: u64,
    in_flight: usize,
    wheel: Option<TimerWheel>,
    tx: Sender<Completion>,
    rx: Receiver<Completion>,
    winding_down: bool,
    flush_deadline: Option<Instant>,
}

impl<S: Service> Reactor<S> {
    pub fn new(listener: TcpListener, service: S, config: ReactorConfig) -> io::Result<Reactor<S>> {
        listener.set_nonblocking(true)?;
        poller::listen(poller::raw_fd(&listener), BACKLOG)?;
        let mut poller = Poller::new()?;
        let (waker_rx, waker_tx) = poller::waker_pair()?;
        poller.register(poller::raw_fd(&listener), TOK_LISTENER, Interest::READ)?;
        poller.register(poller::raw_fd(&waker_rx), TOK_WAKER, Interest::READ)?;
        let now = Instant::now();
        let (tx, rx) = std::sync::mpsc::channel();
        Ok(Reactor {
            listener: Some(listener),
            poller,
            service: Arc::new(service),
            shared: Arc::new(Shared {
                shutdown: AtomicBool::new(false),
                stats: ReactorStats::default(),
                waker: waker_tx,
            }),
            waker_rx,
            conns: HashMap::new(),
            next_id: TOK_BASE,
            in_flight: 0,
            wheel: config.idle_timeout.map(|idle| TimerWheel::for_horizon(idle, now)),
            config,
            tx,
            rx,
            winding_down: false,
            flush_deadline: None,
        })
    }

    pub fn handle(&self) -> ReactorHandle {
        ReactorHandle { shared: Arc::clone(&self.shared) }
    }

    /// Run the event loop until shutdown completes. Consumes the
    /// reactor; on return every connection is closed and every
    /// dispatched frame has either flushed its reply or overstayed the
    /// flush grace window.
    pub fn run(mut self) -> io::Result<()> {
        let pool = WorkerPool::named(
            self.config.dispatchers.max(1),
            &format!("{}-dispatch", S::THREAD_PREFIX),
        );
        let mut events: Vec<Event> = Vec::new();
        loop {
            while let Ok(done) = self.rx.try_recv() {
                self.in_flight -= 1;
                self.apply_completion(done, &pool);
            }

            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.wind_down();
                if self.in_flight == 0 {
                    let flushed = self.conns.is_empty();
                    let expired = self.flush_deadline.is_some_and(|d| Instant::now() >= d);
                    if flushed || expired {
                        break;
                    }
                }
            }

            let now = Instant::now();
            if let Some(idle) = self.config.idle_timeout {
                let mut due: Vec<u64> = Vec::new();
                if let Some(wheel) = self.wheel.as_mut() {
                    wheel.expire(now, &mut due);
                }
                for token in due {
                    self.check_idle(token, idle, now);
                }
            }

            let mut timeout = self.wheel.as_ref().and_then(|w| w.next_tick(now));
            if self.winding_down {
                // Re-check the flush deadline even if no fd turns ready.
                let cap = Duration::from_millis(20);
                timeout = Some(timeout.map_or(cap, |t| t.min(cap)));
            }
            events.clear();
            self.poller.wait(timeout, &mut events)?;

            let batch = std::mem::take(&mut events);
            for ev in &batch {
                match ev.token {
                    TOK_LISTENER => self.accept_ready(),
                    TOK_WAKER => self.drain_waker(),
                    token => self.conn_ready(token, *ev, &pool),
                }
            }
            events = batch;
        }

        // Teardown: notify the service for every surviving connection.
        let service = Arc::clone(&self.service);
        for (id, conn) in self.conns.drain() {
            self.shared.stats.closed.fetch_add(1, Ordering::Relaxed);
            service.closed(id, &conn.sconn);
        }
        self.shared.stats.open.store(0, Ordering::Relaxed);
        // Dropping the pool joins the dispatchers; the completion
        // channel outlives it (`self.rx`), so a late send is dropped,
        // never a panic.
        drop(pool);
        Ok(())
    }

    /// First shutdown observation: stop accepting *now* (close the
    /// listener so new connects are refused, not queued), drop idle
    /// connections, start the flush grace window for the rest.
    fn wind_down(&mut self) {
        if self.winding_down {
            return;
        }
        self.winding_down = true;
        self.flush_deadline = Some(Instant::now() + self.config.shutdown_flush);
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(poller::raw_fd(&listener));
        }
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.in_flight() == 0 && c.out.replies.is_empty())
            .map(|(&id, _)| id)
            .collect();
        for id in idle {
            self.close_conn(id, false);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let res = match self.listener.as_ref() {
                Some(listener) => listener.accept(),
                None => return,
            };
            match res {
                Ok((stream, _peer)) => {
                    // Replies are whole lines written at once: Nagle would
                    // hold one back until the peer ACKs the previous one,
                    // up to its delayed-ACK timeout.
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let id = self.next_id;
                    self.next_id += 1;
                    if self.poller.register(poller::raw_fd(&stream), id, Interest::READ).is_err() {
                        continue;
                    }
                    let now = Instant::now();
                    self.shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    self.shared.stats.open.fetch_add(1, Ordering::Relaxed);
                    let sconn = Arc::new(self.service.open(id));
                    self.conns.insert(
                        id,
                        Conn {
                            stream,
                            decoder: LineDecoder::new(self.config.max_frame),
                            sconn,
                            out: OutQueue::default(),
                            next_seq: 0,
                            next_reply: 0,
                            pending: BTreeMap::new(),
                            close_at: None,
                            input_done: false,
                            last_activity: now,
                            eof: false,
                            timer_armed: false,
                            interest: Interest::READ,
                        },
                    );
                    self.arm_idle_timer(id, now);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failures (ECONNABORTED, EMFILE...):
                // stop for this readiness round; level-triggered polling
                // re-reports the listener if connections still wait.
                Err(_) => return,
            }
        }
    }

    fn drain_waker(&mut self) {
        let mut sink = [0u8; 64];
        loop {
            match (&self.waker_rx).read(&mut sink) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock: drained
            }
        }
    }

    fn conn_ready(&mut self, token: u64, ev: Event, pool: &WorkerPool) {
        if !self.conns.contains_key(&token) {
            return; // closed earlier in this event batch
        }
        if ev.readable && !self.read_ready(token) {
            return; // connection broke and was closed
        }
        // Write readiness, newly decoded frames, and EOF all funnel into
        // the same driver: pump, release, flush, close or re-arm.
        self.advance(token, pool);
    }

    /// Drain the socket into the decoder. Returns false when the
    /// connection broke (and was closed).
    fn read_ready(&mut self, token: u64) -> bool {
        let max_frame = self.config.max_frame;
        let mut broken = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else { return false };
            if !conn.interest.read {
                // Stale readiness from an earlier batch: the window is
                // full; the kernel buffer keeps the backpressure.
                return true;
            }
            let mut buf = [0u8; 16 * 1024];
            loop {
                let res = conn.stream.read(&mut buf);
                match res {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.decoder.push(&buf[..n]);
                        conn.last_activity = Instant::now();
                        // Once at least one frame (or an oversize error)
                        // is surely buffered, let the kernel hold the
                        // rest (backpressure against pipelining floods).
                        if conn.decoder.buffered() > max_frame {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
        }
        if broken {
            self.close_conn(token, false);
            return false;
        }
        true
    }

    /// The per-connection driver: pump decoded frames through the fast
    /// path or the dispatch window, release in-order replies, flush them
    /// vectored, then decide between closing and re-arming interest.
    fn advance(&mut self, token: u64, pool: &WorkerPool) {
        let depth = self.config.pipeline_depth.max(1) as u64;
        loop {
            // Release first so inline replies free their window slot
            // before the next frame is considered.
            if !self.release_ready(token) {
                return;
            }
            let step = {
                let Some(conn) = self.conns.get_mut(&token) else { return };
                if conn.close_at.is_some() || conn.input_done || conn.in_flight() >= depth {
                    Step::Hold
                } else {
                    match conn.decoder.next_frame() {
                        Ok(Some(frame)) => Step::Frame(frame),
                        Ok(None) if conn.eof => match conn.decoder.finish() {
                            // A final unterminated frame still gets
                            // served; the EOF closes the connection once
                            // everything in flight has flushed.
                            Ok(Some(frame)) => Step::Frame(frame),
                            Ok(None) => {
                                conn.input_done = true;
                                Step::Hold
                            }
                            Err(e) => Step::DecodeErr(e),
                        },
                        Ok(None) => Step::Hold,
                        Err(e) => Step::DecodeErr(e),
                    }
                }
            };
            match step {
                Step::Frame(frame) => {
                    self.shared.stats.frames.fetch_add(1, Ordering::Relaxed);
                    let (seq, class) = {
                        let Some(conn) = self.conns.get_mut(&token) else { return };
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        // Guarded like a dispatched `run`: a panic here
                        // closes this connection, not the event loop.
                        let class = catch_unwind(AssertUnwindSafe(|| {
                            self.service.classify(&conn.sconn, frame)
                        }))
                        .unwrap_or_else(|_| Classified::Inline(Reply::panicked()));
                        (seq, class)
                    };
                    match class {
                        Classified::Inline(reply) => {
                            let Some(conn) = self.conns.get_mut(&token) else { return };
                            conn.pending.insert(seq, reply);
                        }
                        Classified::Dispatch(job) => self.dispatch(token, seq, job, pool),
                    }
                }
                Step::DecodeErr(e) => {
                    // The error reply is an ordinary terminal reply with
                    // the next sequence number: frames already in flight
                    // still answer, in order, before it.
                    let line = self.service.decode_error_reply(&e);
                    let Some(conn) = self.conns.get_mut(&token) else { return };
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.pending.insert(seq, Reply::send_and_close(line));
                    conn.input_done = true;
                }
                Step::Hold => break,
            }
        }
        self.finish_advance(token);
    }

    /// Move consecutively-sequenced replies from the reorder buffer into
    /// the output queue. Returns false if the connection is gone.
    fn release_ready(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else { return false };
        while conn.close_at.is_none() {
            let Some(reply) = conn.pending.remove(&conn.next_reply) else { break };
            if !reply.line.is_empty() {
                conn.out.replies.push_back(reply.line);
            }
            if reply.close {
                conn.close_at = Some(conn.next_reply);
                // Later replies will never be sent; drop them now.
                conn.pending.clear();
            }
            conn.next_reply += 1;
        }
        true
    }

    /// Flush, then close or recompute poller interest.
    fn finish_advance(&mut self, token: u64) {
        enum Decision {
            Close,
            Keep(Interest),
        }
        if !self.flush_conn(token) {
            return; // broken (closed) or already gone
        }
        let depth = self.config.pipeline_depth.max(1) as u64;
        let max_frame = self.config.max_frame;
        let decision = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            let drained = conn.out.replies.is_empty();
            let quiescent = conn.in_flight() == 0;
            let closing = conn.close_at.is_some_and(|c| conn.next_reply > c);
            if drained && (closing || (quiescent && (conn.input_done || self.winding_down))) {
                Decision::Close
            } else {
                let want = Interest {
                    read: !conn.eof
                        && conn.close_at.is_none()
                        && conn.in_flight() < depth
                        && conn.decoder.buffered() <= max_frame,
                    write: !drained,
                };
                Decision::Keep(want)
            }
        };
        match decision {
            Decision::Close => self.close_conn(token, false),
            Decision::Keep(want) => {
                if self.update_interest(token, want) {
                    self.arm_idle_timer(token, Instant::now());
                }
            }
        }
    }

    fn dispatch(&mut self, token: u64, seq: u64, job: S::Job, pool: &WorkerPool) {
        let sconn = {
            let Some(conn) = self.conns.get(&token) else { return };
            Arc::clone(&conn.sconn)
        };
        self.in_flight += 1;
        let service = Arc::clone(&self.service);
        let tx = self.tx.clone();
        let wake = self.handle();
        pool.submit(move || {
            // A panicking handler must not kill the dispatcher's worker
            // loop or strand the connection: turn it into "no reply,
            // close". The daemon's own panic accounting happens inside
            // `run` (its job runner has its own catch_unwind).
            let reply = catch_unwind(AssertUnwindSafe(|| service.run(&sconn, job)))
                .unwrap_or_else(|_| Reply::panicked());
            let _ = tx.send(Completion { id: token, seq, reply });
            wake.wake();
        });
    }

    fn apply_completion(&mut self, done: Completion, pool: &WorkerPool) {
        let Completion { id, seq, reply } = done;
        let Some(conn) = self.conns.get_mut(&id) else {
            // Closed while the frame was in flight; the service was
            // already notified at close time.
            return;
        };
        conn.pending.insert(seq, reply);
        self.advance(id, pool);
    }

    /// Write as much of the output queue as the socket accepts (see
    /// [`OutQueue::flush`]). Returns false when the connection broke (and
    /// was closed) or does not exist. Successful writes refresh
    /// `last_activity`, so the idle wheel never closes a peer that is
    /// draining a large reply slowly but steadily.
    fn flush_conn(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else { return false };
        let (flushed, wrote) =
            conn.out.flush(&mut &conn.stream, self.config.flush_batch.as_deref());
        if wrote {
            conn.last_activity = Instant::now();
        }
        match flushed {
            Flushed::Clean | Flushed::Blocked => true,
            Flushed::Broken => {
                self.close_conn(token, false);
                false
            }
        }
    }

    /// An idle-wheel entry fired: close the connection if it has truly
    /// been idle past the horizon, else re-arm at its live deadline.
    fn check_idle(&mut self, token: u64, idle: Duration, now: Instant) {
        let deadline = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            conn.timer_armed = false;
            if conn.in_flight() > 0 {
                // A blocked dispatch (e.g. admission wait) is work, not
                // idleness; the completion's advance re-arms.
                return;
            }
            let deadline = conn.last_activity + idle;
            if now >= deadline {
                None
            } else {
                Some(deadline)
            }
        };
        match deadline {
            None => self.close_conn(token, true),
            Some(deadline) => {
                if let Some(wheel) = self.wheel.as_mut() {
                    wheel.schedule(token, deadline, now);
                }
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.timer_armed = true;
                }
            }
        }
    }

    /// Ensure exactly one idle-wheel entry points at the connection.
    fn arm_idle_timer(&mut self, token: u64, now: Instant) {
        let Some(idle) = self.config.idle_timeout else { return };
        let deadline = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if conn.timer_armed {
                return;
            }
            conn.timer_armed = true;
            conn.last_activity + idle
        };
        if let Some(wheel) = self.wheel.as_mut() {
            wheel.schedule(token, deadline, now);
        }
    }

    /// Update poller interest if it changed; on failure the connection
    /// is closed and `false` returned.
    fn update_interest(&mut self, token: u64, want: Interest) -> bool {
        let fd = {
            let Some(conn) = self.conns.get(&token) else { return false };
            if conn.interest == want {
                return true;
            }
            poller::raw_fd(&conn.stream)
        };
        if self.poller.modify(fd, token, want).is_err() {
            self.close_conn(token, false);
            return false;
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.interest = want;
        }
        true
    }

    fn close_conn(&mut self, token: u64, idle: bool) {
        let Some(conn) = self.conns.remove(&token) else { return };
        let _ = self.poller.deregister(poller::raw_fd(&conn.stream));
        self.shared.stats.closed.fetch_add(1, Ordering::Relaxed);
        self.shared.stats.open.fetch_sub(1, Ordering::Relaxed);
        if idle {
            self.shared.stats.idle_closed.fetch_add(1, Ordering::Relaxed);
        }
        self.service.closed(token, &conn.sconn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SmallRng;
    use std::io::BufRead;
    use std::net::Shutdown;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    struct Echo {
        closed: Arc<AtomicUsize>,
        fast_hits: Arc<AtomicUsize>,
    }

    impl Echo {
        fn new() -> Echo {
            Echo { closed: Arc::new(AtomicUsize::new(0)), fast_hits: Arc::new(AtomicUsize::new(0)) }
        }
    }

    impl Service for Echo {
        type Conn = u64;
        type Job = String;

        fn open(&self, id: u64) -> u64 {
            id
        }

        fn classify(&self, conn: &u64, frame: String) -> Classified<String> {
            if frame == "fast-boom" {
                panic!("classify exploded (expected by test)");
            }
            match frame.strip_prefix("fast:") {
                Some(hot) => {
                    self.fast_hits.fetch_add(1, Ordering::SeqCst);
                    Classified::Inline(Reply::send(format!("fast[{conn}]:{hot}")))
                }
                None => Classified::Dispatch(frame),
            }
        }

        fn run(&self, conn: &u64, frame: String) -> Reply {
            match frame.as_str() {
                "quit" => Reply::send_and_close("bye"),
                "boom" => panic!("handler exploded (expected by test)"),
                "big" => Reply::send("B".repeat(96 * 1024 * 1024)),
                f => Reply::send(format!("echo[{conn}]:{f}")),
            }
        }

        fn decode_error_reply(&self, err: &DecodeError) -> String {
            match err {
                DecodeError::FrameTooLong { len, max } => format!("err:too_long:{len}:{max}"),
                DecodeError::NotUtf8 => "err:not_utf8".into(),
            }
        }

        fn closed(&self, _id: u64, _conn: &u64) {
            self.closed.fetch_add(1, Ordering::SeqCst);
        }
    }

    struct Running {
        addr: std::net::SocketAddr,
        handle: ReactorHandle,
        thread: std::thread::JoinHandle<io::Result<()>>,
    }

    fn start(config: ReactorConfig) -> Running {
        start_with(Echo::new(), config)
    }

    fn start_with<S: Service>(service: S, config: ReactorConfig) -> Running {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reactor = Reactor::new(listener, service, config).unwrap();
        let handle = reactor.handle();
        let thread = std::thread::spawn(move || reactor.run());
        Running { addr, handle, thread }
    }

    fn finish(r: Running) {
        r.handle.shutdown();
        r.thread.join().unwrap().unwrap();
    }

    fn read_line(reader: &mut impl BufRead) -> Option<String> {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end().to_string()),
            Err(e) => panic!("read_line: {e}"),
        }
    }

    #[test]
    fn echo_roundtrips_and_pipelined_frames_reply_in_order() {
        let r = start(ReactorConfig::default());
        let sock = TcpStream::connect(r.addr).unwrap();
        let mut reader = io::BufReader::new(sock.try_clone().unwrap());

        // Three pipelined frames in one write: replies must come back in
        // order even though each dispatch is a separate pool job.
        (&sock).write_all(b"a\nb\nc\n").unwrap();
        assert!(read_line(&mut reader).unwrap().ends_with(":a"));
        assert!(read_line(&mut reader).unwrap().ends_with(":b"));
        assert!(read_line(&mut reader).unwrap().ends_with(":c"));

        (&sock).write_all(b"quit\n").unwrap();
        assert_eq!(read_line(&mut reader).unwrap(), "bye");
        assert_eq!(read_line(&mut reader), None, "terminal reply closes");
        assert_eq!(r.handle.frames(), 4);
        finish(r);
    }

    #[test]
    fn unterminated_final_frame_is_served_before_the_close() {
        let r = start(ReactorConfig::default());
        let sock = TcpStream::connect(r.addr).unwrap();
        let mut reader = io::BufReader::new(sock.try_clone().unwrap());
        (&sock).write_all(b"last-words").unwrap();
        sock.shutdown(Shutdown::Write).unwrap();
        assert!(read_line(&mut reader).unwrap().ends_with(":last-words"));
        assert_eq!(read_line(&mut reader), None);
        finish(r);
    }

    #[test]
    fn oversized_frame_gets_a_typed_reply_then_close() {
        let config = ReactorConfig { max_frame: 64, ..ReactorConfig::default() };
        let r = start(config);
        let sock = TcpStream::connect(r.addr).unwrap();
        let mut reader = io::BufReader::new(sock.try_clone().unwrap());
        (&sock).write_all(&[b'x'; 200]).unwrap();
        assert_eq!(read_line(&mut reader).unwrap(), "err:too_long:65:64");
        assert_eq!(read_line(&mut reader), None, "no resync inside a lost frame");
        finish(r);
    }

    #[test]
    fn silent_connection_is_idle_closed_and_counted() {
        let config =
            ReactorConfig { idle_timeout: Some(Duration::from_millis(150)), ..Default::default() };
        let r = start(config);
        let sock = TcpStream::connect(r.addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = io::BufReader::new(sock.try_clone().unwrap());
        // Never send a byte: the wheel must close us.
        assert_eq!(read_line(&mut reader), None);
        assert_eq!(r.handle.idle_closed(), 1);

        // A half-fed frame (slowloris) is idle too.
        let sock = TcpStream::connect(r.addr).unwrap();
        (&sock).write_all(b"{\"op\":").unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = io::BufReader::new(sock.try_clone().unwrap());
        assert_eq!(read_line(&mut reader), None);
        assert_eq!(r.handle.idle_closed(), 2);
        assert_eq!(r.handle.open(), 0);
        finish(r);
    }

    /// Satellite bugfix regression: a client draining a reply much larger
    /// than the socket buffers, slowly but with steady progress, must
    /// never be idle-closed mid-flush — successful writes are activity.
    /// The drain takes several idle horizons end to end; only the
    /// write-progress refresh keeps the connection alive through it.
    #[test]
    fn slow_draining_client_with_write_progress_is_not_idle_closed() {
        let config = ReactorConfig {
            idle_timeout: Some(Duration::from_millis(400)),
            ..ReactorConfig::default()
        };
        let r = start(config);
        let sock = TcpStream::connect(r.addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        (&sock).write_all(b"big\n").unwrap();

        let total = 96 * 1024 * 1024 + 1; // reply body + newline
        let mut seen = 0usize;
        let mut buf = vec![0u8; 1024 * 1024];
        let t0 = Instant::now();
        while seen < total {
            let n = (&sock).read(&mut buf).expect("reply must keep flowing");
            assert!(n > 0, "connection closed after {seen}/{total} bytes");
            seen += n;
            std::thread::sleep(Duration::from_millis(8));
        }
        assert!(
            t0.elapsed() > Duration::from_millis(400),
            "drain finished inside one idle horizon; the test lost its teeth"
        );
        assert_eq!(seen, total);
        assert_eq!(r.handle.idle_closed(), 0, "write progress must count as activity");
        finish(r);
    }

    #[test]
    fn a_panicking_handler_closes_only_its_connection() {
        let r = start(ReactorConfig::default());
        let sock = TcpStream::connect(r.addr).unwrap();
        let mut reader = io::BufReader::new(sock.try_clone().unwrap());
        (&sock).write_all(b"boom\n").unwrap();
        assert_eq!(read_line(&mut reader), None, "panic closes with no reply");

        // The reactor and its dispatchers are still alive.
        let sock = TcpStream::connect(r.addr).unwrap();
        let mut reader = io::BufReader::new(sock.try_clone().unwrap());
        (&sock).write_all(b"still-here\n").unwrap();
        assert!(read_line(&mut reader).unwrap().ends_with(":still-here"));
        finish(r);
    }

    /// A panic in `classify` runs on the reactor thread itself: it must
    /// close only the frame's connection (no reply), while every other
    /// connection keeps being served and shutdown still completes.
    #[test]
    fn a_panicking_classify_closes_only_its_connection() {
        let r = start(ReactorConfig::default());
        let other = TcpStream::connect(r.addr).unwrap();
        let mut other_reader = io::BufReader::new(other.try_clone().unwrap());
        (&other).write_all(b"before\n").unwrap();
        assert!(read_line(&mut other_reader).unwrap().ends_with(":before"));

        let victim = TcpStream::connect(r.addr).unwrap();
        let mut victim_reader = io::BufReader::new(victim.try_clone().unwrap());
        (&victim).write_all(b"fast-boom\nnever-answered\n").unwrap();
        assert_eq!(read_line(&mut victim_reader), None, "panic closes with no reply");

        (&other).write_all(b"fast:after\nafter\n").unwrap();
        assert!(read_line(&mut other_reader).unwrap().ends_with("]:after"));
        assert!(read_line(&mut other_reader).unwrap().ends_with(":after"));
        finish(r);
    }

    #[test]
    fn shutdown_with_zero_clients_completes_promptly() {
        let r = start(ReactorConfig::default());
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let handle = r.handle.clone();
        let thread = r.thread;
        std::thread::spawn(move || {
            handle.shutdown();
            let _ = done_tx.send(thread.join().unwrap());
        });
        let res = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("shutdown must not wait for a follow-on client");
        res.unwrap();
        // New connections are refused once the listener is gone.
        assert!(TcpStream::connect(r.addr).is_err());
    }

    #[test]
    fn connection_churn_leaves_nothing_behind() {
        let r = start(ReactorConfig::default());
        for i in 0..100 {
            let sock = TcpStream::connect(r.addr).unwrap();
            let mut reader = io::BufReader::new(sock.try_clone().unwrap());
            (&sock).write_all(format!("req-{i}\n").as_bytes()).unwrap();
            assert!(read_line(&mut reader).unwrap().ends_with(&format!(":req-{i}")));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while r.handle.open() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(r.handle.open(), 0, "all churned connections reaped");
        assert_eq!(r.handle.accepted(), 100);
        assert_eq!(r.handle.closed(), 100);
        finish(r);
    }

    /// A service whose handler latency is a deterministic hash of the
    /// frame, so adjacent pipelined frames complete on the dispatchers in
    /// thoroughly shuffled order.
    struct Jitter;

    impl Service for Jitter {
        type Conn = ();
        type Job = String;

        fn open(&self, _id: u64) {}

        fn classify(&self, _conn: &(), frame: String) -> Classified<String> {
            Classified::Dispatch(frame)
        }

        fn run(&self, _conn: &(), frame: String) -> Reply {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in frame.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            std::thread::sleep(Duration::from_micros(h % 2500));
            Reply::send(format!("ok:{frame}"))
        }

        fn decode_error_reply(&self, _err: &DecodeError) -> String {
            "err:decode".into()
        }
    }

    /// Pipelined-ordering property: N frames written in randomly sized
    /// chunks, completed by the dispatchers in shuffled order, must come
    /// back byte-identical and in request order.
    #[test]
    fn shuffled_dispatcher_completions_release_replies_in_request_order() {
        let mut rng = SmallRng::seed_from_u64(0x5049_5045); // "PIPE"
        for trial in 0..4 {
            let r = start_with(
                Jitter,
                ReactorConfig { pipeline_depth: 8, dispatchers: 8, ..ReactorConfig::default() },
            );
            let sock = TcpStream::connect(r.addr).unwrap();
            sock.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let mut reader = io::BufReader::new(sock.try_clone().unwrap());

            let n = 40;
            let wire: Vec<u8> =
                (0..n).flat_map(|i| format!("t{trial}-f{i}\n").into_bytes()).collect();
            // Deliver the stream in random-size chunks so frames split at
            // arbitrary byte boundaries across reads.
            let mut off = 0;
            while off < wire.len() {
                let take = rng.range(1, 17).min(wire.len() - off);
                (&sock).write_all(&wire[off..off + take]).unwrap();
                off += take;
            }
            for i in 0..n {
                assert_eq!(
                    read_line(&mut reader).unwrap(),
                    format!("ok:t{trial}-f{i}"),
                    "reply {i} out of order (trial {trial})"
                );
            }
            assert_eq!(r.handle.frames(), n);
            finish(r);
        }
    }

    /// Inline fast-path replies interleave with dispatched ones without
    /// breaking request order, and skip the pool entirely.
    #[test]
    fn fast_path_replies_inline_and_preserve_order_with_dispatched_frames() {
        let echo = Echo::new();
        let fast_hits = Arc::clone(&echo.fast_hits);
        let r = start_with(echo, ReactorConfig { pipeline_depth: 4, ..ReactorConfig::default() });
        let sock = TcpStream::connect(r.addr).unwrap();
        let mut reader = io::BufReader::new(sock.try_clone().unwrap());

        (&sock).write_all(b"slow-1\nfast:x\nslow-2\nfast:y\n").unwrap();
        assert!(read_line(&mut reader).unwrap().ends_with(":slow-1"));
        assert!(read_line(&mut reader).unwrap().starts_with("fast["));
        assert!(read_line(&mut reader).unwrap().ends_with(":slow-2"));
        assert!(read_line(&mut reader).unwrap().ends_with("]:y"));
        assert_eq!(r.handle.frames(), 4, "inline frames count too");
        assert_eq!(fast_hits.load(Ordering::SeqCst), 2);
        finish(r);
    }

    /// A writer that never blocks twice in a row and otherwise accepts at
    /// most its next scripted byte count — a socket forcing short writes.
    struct Trickle {
        got: Vec<u8>,
        limits: Vec<usize>,
        calls: usize,
        block_next: bool,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            if std::mem::take(&mut self.block_next) {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            self.block_next = true;
            let mut room = self.limits.get(self.calls).copied().unwrap_or(usize::MAX);
            self.calls += 1;
            let mut n = 0;
            for b in bufs {
                let take = b.len().min(room);
                self.got.extend_from_slice(&b[..take]);
                (n, room) = (n + take, room - take);
            }
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Drive `queue` into `w` the way write readiness would, returning
    /// the replies each successful write carried (from the histogram).
    fn drain(queue: &mut OutQueue, w: &mut Trickle) -> Vec<u64> {
        let hist = Histogram::new(&(1..=64).map(f64::from).collect::<Vec<_>>());
        loop {
            match queue.flush(w, Some(&hist)) {
                (Flushed::Clean, _) => break,
                (Flushed::Blocked, _) => continue,
                (Flushed::Broken, _) => panic!("a trickling writer is not broken"),
            }
        }
        let snap = hist.snapshot();
        let mut per_write = Vec::new();
        for (i, &n) in snap.buckets.iter().enumerate() {
            per_write.extend(std::iter::repeat_n(i as u64 + 1, n as usize));
        }
        per_write
    }

    /// Short writes ending inside a line, exactly after its newline, and
    /// exactly before it (so the next write starts with the bare `"\n"`
    /// slice): the bytes and their order come through intact, and the
    /// batch histogram counts replies per write, never slices.
    #[test]
    fn short_writes_split_lines_and_newlines_without_losing_bytes() {
        let mut queue = OutQueue::default();
        for line in ["alpha", "beta", "gamma"] {
            queue.replies.push_back(Arc::from(line));
        }
        // 3 bytes: inside "alpha"; 3: ends on its "\n"; 4: ends before
        // beta's "\n"; 1: that "\n" alone; then the rest.
        let mut w =
            Trickle { got: Vec::new(), limits: vec![3, 3, 4, 1], calls: 0, block_next: true };
        let mut per_write = drain(&mut queue, &mut w);
        assert_eq!(String::from_utf8(w.got).unwrap(), "alpha\nbeta\ngamma\n");
        per_write.sort_unstable();
        assert_eq!(per_write, vec![1, 2, 2, 3, 3], "replies queued at each of the five writes");
        assert_eq!(queue.pos, 0);

        // A long queue: each write carries at most MAX_FLUSH_VEC replies
        // (2 * MAX_FLUSH_VEC slices), counted as replies.
        let mut queue = OutQueue::default();
        let lines: Vec<String> = (0..100).map(|i| format!("r{i}")).collect();
        for line in &lines {
            queue.replies.push_back(Arc::from(line.as_str()));
        }
        let mut w = Trickle { got: Vec::new(), limits: Vec::new(), calls: 0, block_next: false };
        let mut per_write = drain(&mut queue, &mut w);
        per_write.sort_unstable();
        assert_eq!(per_write, vec![36, 64]);
        let want: String = lines.iter().map(|l| format!("{l}\n")).collect();
        assert_eq!(String::from_utf8(w.got).unwrap(), want);
    }

    /// Write coalescing: a burst of inline replies leaves in far fewer
    /// vectored writes than replies, and the batch histogram sees it.
    #[test]
    fn pipelined_replies_coalesce_into_vectored_writes() {
        let hist = Arc::new(Histogram::new(&[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]));
        let r = start_with(
            Echo::new(),
            ReactorConfig {
                pipeline_depth: 8,
                flush_batch: Some(Arc::clone(&hist)),
                ..ReactorConfig::default()
            },
        );
        let sock = TcpStream::connect(r.addr).unwrap();
        let mut reader = io::BufReader::new(sock.try_clone().unwrap());
        // Eight inline-answerable frames sent in one write: when they
        // arrive in one read the reactor answers them in one advance pass
        // and flushes them together. The kernel may split the burst
        // across reads on a loaded machine, so retry until a burst lands
        // intact — coalescing must happen on at least one of them.
        let burst: String = (0..8).map(|i| format!("fast:{i}\n")).collect();
        let mut coalesced = false;
        for _ in 0..20 {
            let before = hist.snapshot();
            (&sock).write_all(burst.as_bytes()).unwrap();
            for i in 0..8 {
                assert!(read_line(&mut reader).unwrap().ends_with(&format!("]:{i}")));
            }
            // The histogram is observed on the reactor thread just after
            // the write syscall, so the client can read the replies
            // before the observation lands — wait for it.
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut after = hist.snapshot();
            while after.sum - before.sum < 8.0 && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(1));
                after = hist.snapshot();
            }
            assert!(
                after.sum - before.sum >= 8.0,
                "all eight reply buffers must pass through vectored writes, saw {}",
                after.sum - before.sum
            );
            if after.count - before.count <= 4 {
                coalesced = true;
                break;
            }
        }
        assert!(coalesced, "no burst of eight pipelined replies ever coalesced its flushes");
        finish(r);
    }
}
