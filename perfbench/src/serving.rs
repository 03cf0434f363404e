//! The serving workloads: `serve_hot` (closed loop, one daemon) and
//! `serve_mixed` (open loop, a 2-member cluster behind the router).
//!
//! The generator checks replies by bytes, never by parsing them: a hit
//! must equal, byte for byte, the reply recorded for its key during
//! warm-up, which also proves it is `ok`, in order and for the right key;
//! a miss must start with the `submit` reply prefix carrying the key its
//! request hashes to. Parsing every payload would make the generator the
//! thing being measured.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ncar_kernels::elefunt;
use ncar_kernels::membw::{run_point, MembwKind};
use ncar_suite::{
    constant_volume_ladder, xpose_ladder, Artifact, Figure, Json, Registry, Series, SmallRng, Table,
};
use sxd::cluster::{self, Cluster, ClusterConfig};
use sxd::proto::submit_reply;
use sxd::{cache_key, Client, Demand, JobEntry, Request, Ring, Server, ServerConfig, SxdError};
use sxsim::MachineModel;

use crate::sim::{machine, MACHINE};
use crate::stats::{latency, Latency};
use crate::trace::Tracer;

/// Frames in flight per connection, on the daemon and in `serve_hot`.
pub const PIPELINE_DEPTH: usize = 8;
/// Volume of the `fig5` suite's ladders: small enough to run in
/// milliseconds, large enough that its reply is several times `table3`'s.
const FIG5_VOLUME: usize = 20_000;
const FIG5_XPOSE_MAX_N: usize = 64;

/// The suites the benchmark's daemons serve. `table3` is cheap with a
/// small reply; `fig5` has a reply several times larger, so the render
/// and flush cost of a hit depends on which suite it is.
pub fn registry() -> Registry<JobEntry> {
    let mut reg = Registry::new();
    reg.register(
        "table3",
        JobEntry::new(Demand::light(30.0), "ELEFUNT intrinsic throughput", |m, _| Ok(table3(m))),
    );
    reg.register(
        "fig5",
        JobEntry::new(Demand::light(30.0), "COPY/IA/XPOSE bandwidth ladders", |m, _| Ok(fig5(m))),
    );
    reg
}

/// The `table3` runner: ELEFUNT intrinsic rates on `m`.
pub fn table3(m: &MachineModel) -> Vec<Artifact> {
    let mut t = Table::new("ELEFUNT intrinsic throughput (Mcalls/s)", &["Function", "Mcalls/s"]);
    for (f, rate) in elefunt::table3(m) {
        t.row(&[f.name().to_string(), format!("{rate:.1}")]);
    }
    vec![Artifact::Table(t)]
}

/// The `fig5` runner: COPY, IA and XPOSE bandwidth over a ladder on `m`.
pub fn fig5(m: &MachineModel) -> Vec<Artifact> {
    let mut fig = Figure::new("memory bandwidth (MB/sec) for COPY, IA and XPOSE");
    for kind in [MembwKind::Copy, MembwKind::Ia, MembwKind::Xpose] {
        let ladder = match kind {
            MembwKind::Xpose => xpose_ladder(FIG5_VOLUME, FIG5_XPOSE_MAX_N),
            _ => constant_volume_ladder(FIG5_VOLUME),
        };
        let mut s = Series::new(kind.label(), "N", "MB/sec");
        for inst in ladder {
            s.push(inst.n as f64, run_point(m, kind, inst, 1).mb_per_s);
        }
        fig.push(s);
    }
    vec![Artifact::Figure(fig)]
}

/// One submit configuration, with its frame pre-rendered.
#[derive(Debug, Clone)]
pub struct Config {
    pub suite: &'static str,
    pub params: BTreeMap<String, String>,
    pub key: u64,
    /// The request line, newline included.
    pub frame: Vec<u8>,
}

impl Config {
    pub fn new(machine: &MachineModel, suite: &'static str, param: (&str, String)) -> Config {
        let params = BTreeMap::from([(param.0.to_string(), param.1)]);
        let key = cache_key(suite, machine, &params);
        let req = Request::Submit {
            suite: suite.into(),
            machine: MACHINE.into(),
            params: params.clone(),
        };
        let mut frame = req.to_line().into_bytes();
        frame.push(b'\n');
        Config { suite, params, key, frame }
    }

    /// The frame as a string, without its newline.
    pub fn line(&self) -> &str {
        std::str::from_utf8(&self.frame[..self.frame.len() - 1]).expect("frames are rendered JSON")
    }

    pub fn heavy(&self) -> bool {
        self.suite == "fig5"
    }
}

/// The bytes a `submit` reply for `key` starts with, up to its payload.
pub fn reply_prefix(cached: bool, key: u64) -> String {
    let mut s = submit_reply(cached, key, "");
    s.pop();
    s
}

/// A seeded hot set: `light` `table3` and `heavy` `fig5` configurations,
/// each made distinct by an `ensemble` parameter, spread evenly over the
/// `members` of a cluster ring (each member owns its equal share of each
/// suite), so the seed picks the keys but not how the load splits.
pub fn hot_set(seed: u64, light: usize, heavy: usize, members: usize) -> Vec<Config> {
    let m = machine();
    let ring = Ring::new(Ring::default_names(members));
    let mut out = Vec::with_capacity(light + heavy);
    for (suite, want) in [("table3", light), ("fig5", heavy)] {
        let mut owned = vec![0; members];
        let quota = want.div_ceil(members);
        let mut i = 0u64;
        while owned.iter().sum::<usize>() < want {
            let c = Config::new(&m, suite, ("ensemble", format!("{seed:x}-{suite}-{i}")));
            i += 1;
            let owner = ring.owner(c.key).expect("the ring has members");
            if owned[owner] < quota {
                owned[owner] += 1;
                out.push(c);
            }
        }
    }
    out
}

/// Submit every configuration twice: the first pass must miss, the second
/// must hit. Returns each configuration's recorded hit reply.
pub fn warm(addr: &str, configs: &[Config]) -> Result<Vec<Vec<u8>>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("warm connect: {e}"))?;
    let mut expected = Vec::with_capacity(configs.len());
    for cached in [false, true] {
        for chunk in configs.chunks(PIPELINE_DEPTH) {
            let lines: Vec<String> = chunk.iter().map(|c| c.line().to_string()).collect();
            let replies = client.raw_pipelined(&lines).map_err(|e| format!("warm: {e}"))?;
            for (c, reply) in chunk.iter().zip(replies) {
                if !reply.starts_with(&reply_prefix(cached, c.key)) {
                    return Err(format!(
                        "warm-up reply for {:016x} (cached={cached}) is wrong: {reply:.120}",
                        c.key
                    ));
                }
                if cached {
                    expected.push(reply.into_bytes());
                }
            }
        }
    }
    Ok(expected)
}

/// Counters of a daemon (or a member) after a run: METRICS must say
/// `reconciled: true` and `accepted == done + rejected + queued + running`.
/// Returns the METRICS document.
pub fn check_counters(addr: &str) -> Result<Json, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let m = c.metrics().map_err(|e| format!("metrics {addr}: {e}"))?;
    if m.get("reconciled").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{addr}: METRICS is not reconciled"));
    }
    let stats = m.get("stats").ok_or_else(|| format!("{addr}: METRICS lacks stats"))?;
    let n = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
    let (accepted, done, rejected, queued, running) =
        (n("accepted"), n("done"), n("rejected"), n("queued"), n("running"));
    if accepted != done.wrapping_add(rejected).wrapping_add(queued).wrapping_add(running) {
        return Err(format!(
            "{addr}: accepted {accepted} != done {done} + rejected {rejected} + queued {queued} + running {running}"
        ));
    }
    Ok(m)
}

/// Find a histogram in a METRICS document by name, whichever section the
/// daemon files it under (it files every histogram under `latency`
/// today, including the unitless `flush_batch` and `sim_throughput`).
pub fn histogram<'a>(metrics: &'a Json, name: &str) -> Option<&'a Json> {
    metrics.as_obj()?.iter().find_map(|(_, section)| {
        section.get(name).filter(|h| h.get("count").is_some() && h.get("le").is_some())
    })
}

/// Send a `shutdown` frame to `addr` and time until `join` returns.
fn shutdown_and_join(
    addr: &str,
    join: impl FnOnce() -> Result<(), SxdError>,
) -> Result<f64, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("shutdown connect: {e}"))?;
    let t = Instant::now();
    c.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    join().map_err(|e| format!("join: {e}"))?;
    Ok(t.elapsed().as_secs_f64())
}

/// One `sxd` daemon on an ephemeral loopback port, in this process.
pub struct Daemon {
    pub addr: String,
    handle: JoinHandle<Result<(), SxdError>>,
}

impl Daemon {
    /// The `serve_hot` daemon: fast path on, depth-8 pipelining, no state dir.
    pub fn bind() -> Result<Daemon, String> {
        let config = ServerConfig {
            pipeline_depth: PIPELINE_DEPTH,
            fastpath: true,
            ..ServerConfig::default()
        };
        let server = Server::bind(registry(), config).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        Ok(Daemon { addr, handle: std::thread::spawn(move || server.run()) })
    }

    /// Shut down; the seconds from the `shutdown` frame to the join.
    pub fn shutdown(self) -> Result<f64, String> {
        let handle = self.handle;
        shutdown_and_join(&self.addr, || {
            handle.join().map_err(|_| SxdError::Io { detail: "daemon thread panicked".into() })?
        })
    }
}

/// Result cache entries per cluster member in `serve_mixed`: room for the
/// member's share of the hot set many times over, so hits stay hits,
/// while the production user's fresh keys overflow it and evict.
pub const MEMBER_CACHE_CAP: usize = 128;

/// A 2-member cluster whose members journal to a fresh state directory.
pub struct Fabric {
    pub addr: String,
    pub members: Vec<String>,
    cluster: Cluster,
    state: PathBuf,
}

impl Fabric {
    pub fn spawn(state: &Path) -> Result<Fabric, String> {
        if state.exists() {
            std::fs::remove_dir_all(state)
                .map_err(|e| format!("clear {}: {e}", state.display()))?;
        }
        std::fs::create_dir_all(state).map_err(|e| format!("create {}: {e}", state.display()))?;
        let config = ClusterConfig {
            shards: 2,
            addr: "127.0.0.1:0".into(),
            state_dir: Some(state.to_path_buf()),
            server: ServerConfig {
                cache_cap: MEMBER_CACHE_CAP,
                pipeline_depth: PIPELINE_DEPTH,
                ..ServerConfig::default()
            },
        };
        let cluster = cluster::spawn(registry(), config).map_err(|e| format!("cluster: {e}"))?;
        Ok(Fabric {
            addr: cluster.addr().to_string(),
            members: cluster.member_addrs().iter().map(|a| a.to_string()).collect(),
            cluster,
            state: state.to_path_buf(),
        })
    }

    /// Shut the router and members down; the seconds from the `shutdown`
    /// frame to the join. The state directory is removed afterwards.
    pub fn shutdown(self) -> Result<f64, String> {
        let cluster = self.cluster;
        let s = shutdown_and_join(&self.addr, || cluster.join())?;
        std::fs::remove_dir_all(&self.state)
            .map_err(|e| format!("remove {}: {e}", self.state.display()))?;
        Ok(s)
    }
}

/// A connection that reads newline-terminated replies into one reusable
/// buffer.
pub struct LineConn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl LineConn {
    pub fn connect(addr: &str) -> io::Result<LineConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(LineConn { stream, buf: vec![0; 1 << 16], start: 0, end: 0 })
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Is a complete line already buffered?
    pub fn has_line(&self) -> bool {
        self.buf[self.start..self.end].contains(&b'\n')
    }

    /// The next line (without its newline) as a range into [`LineConn::get`].
    /// Waits up to `timeout` for data (forever for `None`); `Ok(None)` when
    /// it passes first.
    pub fn next_line(&mut self, timeout: Option<Duration>) -> io::Result<Option<Range<usize>>> {
        loop {
            if let Some(pos) = self.buf[self.start..self.end].iter().position(|&b| b == b'\n') {
                let line = self.start..self.start + pos;
                self.start += pos + 1;
                return Ok(Some(line));
            }
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            if self.end == self.buf.len() {
                self.buf.resize(2 * self.buf.len(), 0);
            }
            if let Some(t) = timeout {
                if !readable(&self.stream, t)? {
                    return Ok(None);
                }
            }
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.end += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    pub fn get(&self, line: Range<usize>) -> &[u8] {
        &self.buf[line]
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Wait until `stream` has data (or EOF/error) or `timeout` passes.
///
/// An open-loop user must wake at its next send time with sub-millisecond
/// precision. A socket read timeout (`SO_RCVTIMEO`) is rounded up to the
/// kernel tick, milliseconds late; `ppoll` takes a nanosecond timeout on
/// the high-resolution timer.
fn readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    use std::os::fd::AsRawFd;
    let mut fd = PollFd { fd: stream.as_raw_fd(), events: POLLIN, revents: 0 };
    let ts = Timespec { tv_sec: timeout.as_secs() as i64, tv_nsec: timeout.subsec_nanos() as i64 };
    loop {
        // SAFETY: `fd` and `ts` are live, properly laid out `struct pollfd`
        // and `struct timespec` values (64-bit Linux), `nfds` is 1 to match
        // the single pollfd, and a null sigmask leaves the mask unchanged.
        let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
        if n >= 0 {
            return Ok(n > 0);
        }
        let e = io::Error::last_os_error();
        if e.kind() != ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// Failures of one generator, with the first few messages kept.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub messages: Vec<String>,
}

impl Failures {
    pub fn add(&mut self, msg: impl FnOnce() -> String) {
        self.count += 1;
        if self.messages.len() < 8 {
            self.messages.push(msg());
        }
    }
}

/// One time segment of a closed-loop phase: its throughput, and the
/// round trips of every hit and of the `fig5` hits alone.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    pub per_s: f64,
    pub all: Option<Latency>,
    pub heavy: Option<Latency>,
}

/// What the closed-loop `serve_hot` generator measured.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    pub sent: u64,
    pub failures: Failures,
    pub segments: Vec<Segment>,
}

impl ClosedLoop {
    /// Submits completed inside the timed segments.
    pub fn completed(&self, segment_s: f64) -> f64 {
        self.segments.iter().map(|s| s.per_s * segment_s).sum()
    }
}

/// Closed loop on one connection: keep [`PIPELINE_DEPTH`] submits in
/// flight, drawn from `hot` by a seeded stream, for `segments` segments of
/// `segment`. A reply is timed from the write that carried its frame to
/// the read that returned it. Refills are written in one batch once every
/// buffered reply is read. Each segment is summarized when it ends, so
/// memory stays one segment's samples however long the phase.
pub fn closed_loop(
    addr: &str,
    hot: &[Config],
    expected: &[Vec<u8>],
    seed: u64,
    segment: Duration,
    segments: usize,
    mut tr: Option<&mut Tracer>,
) -> Result<ClosedLoop, String> {
    let mut conn = LineConn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = ClosedLoop::default();
    // One segment's samples, reserved above the fastest host's rate so
    // peak RSS does not jump with a doubling.
    let room = (segment.as_secs_f64() * 400_000.0) as usize;
    let (mut all, mut heavy) = (Vec::with_capacity(room), Vec::with_capacity(room));
    let mut inflight: VecDeque<(usize, Instant, u64)> = VecDeque::with_capacity(PIPELINE_DEPTH);
    let mut wbuf = Vec::with_capacity(PIPELINE_DEPTH * 256);
    let start = Instant::now();
    let mut seg_end = start + segment;
    loop {
        let now = Instant::now();
        if out.segments.len() < segments && inflight.len() < PIPELINE_DEPTH {
            wbuf.clear();
            while inflight.len() < PIPELINE_DEPTH {
                let i = rng.next_below(hot.len());
                wbuf.extend_from_slice(&hot[i].frame);
                out.sent += 1;
                inflight.push_back((i, now, out.sent));
            }
            conn.send(&wbuf).map_err(|e| format!("send: {e}"))?;
        }
        if inflight.is_empty() {
            return Ok(out);
        }
        loop {
            let line = conn
                .next_line(None)
                .map_err(|e| format!("read: {e}"))?
                .expect("no timeout was set");
            let done = Instant::now();
            let (i, sent, req) = inflight.pop_front().expect("a reply implies a request in flight");
            if conn.get(line.clone()) != expected[i].as_slice() {
                let got = String::from_utf8_lossy(conn.get(line)).into_owned();
                out.failures
                    .add(|| format!("hit reply {req} for {:016x} differs: {got:.120}", hot[i].key));
            }
            if let Some(t) = tr.as_deref_mut() {
                t.record("sxd.server.submit", sent, done, req);
            }
            // Replies to the last window, read after the final segment,
            // are checked but not timed.
            if out.segments.len() < segments {
                if done >= seg_end {
                    out.segments.push(Segment {
                        per_s: all.len() as f64 / segment.as_secs_f64(),
                        all: latency(&mut all),
                        heavy: latency(&mut heavy),
                    });
                    all.clear();
                    heavy.clear();
                    seg_end += segment;
                }
                let ns = (done - sent).as_nanos() as u64;
                all.push(ns);
                if hot[i].heavy() {
                    heavy.push(ns);
                }
            }
            if !conn.has_line() {
                break;
            }
        }
    }
}

/// What one open-loop user measured.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Latency from each request's scheduled send time to its reply, ns,
    /// and that scheduled time as an offset from the phase start.
    pub lat: Vec<u64>,
    pub due: Vec<u64>,
    /// How late each request left against its schedule, ns.
    pub late: Vec<u64>,
    pub failures: Failures,
    /// Reply bytes kept for the layer probes (the first `keep` replies).
    pub kept: Vec<Vec<u8>>,
}

/// One open-loop user on its own connection: request `i` is due at
/// `start + sched[i]` and is sent then, whatever is still in flight.
/// Replies are checked by `check`. After the last send, replies have
/// `drain` to arrive.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    addr: &str,
    sched: &[u64],
    frame: impl Fn(usize) -> Vec<u8>,
    check: impl Fn(usize, &[u8]) -> Result<(), String>,
    start: Instant,
    drain: Duration,
    keep: usize,
    mut tr: Option<&mut Tracer>,
    span_name: &'static str,
) -> Result<OpenLoop, String> {
    let mut conn = LineConn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut out = OpenLoop {
        lat: Vec::with_capacity(sched.len()),
        due: Vec::with_capacity(sched.len()),
        late: Vec::with_capacity(sched.len()),
        ..OpenLoop::default()
    };
    let mut inflight: VecDeque<usize> = VecDeque::new();
    let mut wbuf = Vec::new();
    let mut next = 0;
    let end = sched.last().map_or(0, |&s| s) + drain.as_nanos() as u64;
    loop {
        let now = start.elapsed().as_nanos() as u64;
        if next < sched.len() && sched[next] <= now {
            wbuf.clear();
            while next < sched.len() && sched[next] <= now {
                wbuf.extend_from_slice(&frame(next));
                out.late.push(now - sched[next]);
                inflight.push_back(next);
                next += 1;
            }
            conn.send(&wbuf).map_err(|e| format!("send: {e}"))?;
            continue;
        }
        if inflight.is_empty() {
            if next == sched.len() {
                return Ok(out);
            }
            std::thread::sleep(Duration::from_nanos(sched[next] - now));
            continue;
        }
        let until = if next < sched.len() { sched[next] } else { end };
        if now >= until {
            if next < sched.len() {
                continue;
            }
            return Err(format!("{} replies still outstanding after the drain", inflight.len()));
        }
        let Some(line) = conn
            .next_line(Some(Duration::from_nanos((until - now).max(1_000))))
            .map_err(|e| format!("read: {e}"))?
        else {
            continue;
        };
        let done = start.elapsed().as_nanos() as u64;
        let i = inflight.pop_front().expect("a reply implies a request in flight");
        let reply = conn.get(line);
        if let Err(e) = check(i, reply) {
            out.failures.add(|| e);
        }
        if out.kept.len() < keep {
            out.kept.push(reply.to_vec());
        }
        out.lat.push(done.saturating_sub(sched[i]));
        out.due.push(sched[i]);
        if let Some(t) = tr.as_deref_mut() {
            let at = |ns: u64| start + Duration::from_nanos(ns);
            t.record(span_name, at(sched[i]), at(done), i as u64);
        }
    }
}
