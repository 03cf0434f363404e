//! The end-to-end runs, one per workload, with tracing off.
//!
//! Every workload reports the same metrics, each with the meaning its
//! workload gives it (see `README.md`):
//!
//! | metric | `sim_charge` | `serve_hot` | `serve_mixed` |
//! |---|---|---|---|
//! | `setup_s` | build models, record the step | bind, warm the hot set | spawn the cluster, warm |
//! | `ops_per_s` | vector ops charged | submits completed | submits completed |
//! | `p50_ms`/`p99_ms` | kernel charge units | every submit | ensemble user's hits |
//! | `heavy_p50_ms` | CCM2 step replays | `fig5` hits | production user's misses |
//! | `peak_rss_mb` | process peak RSS | process peak RSS | process peak RSS |

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::report::{metric, peak_rss_mb, Outcome};
use crate::schedule::{poisson, stream_seed};
use crate::serving::{
    self, closed_loop, hot_set, open_loop, reply_prefix, warm, Config, Daemon, Fabric, OpenLoop,
};
use crate::sim;
use crate::stats::{self, median};
use crate::trace::Tracer;

/// Stand-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;
/// Untimed generator warm-up before the measured phase: the first runs
/// in a process were up to 100x slower than later ones.
pub const WARMUP: Duration = Duration::from_millis(1000);
/// Length of one `serve_hot` segment.
pub const HOT_SEGMENT: Duration = Duration::from_millis(500);
/// Equal time segments of a `serve_mixed` phase: long enough for each to
/// hold the 1000 hits a p99 needs.
pub const MIXED_SEGMENTS: usize = 10;
/// `serve_hot` hot set: `table3` and `fig5` configurations.
pub const HOT_LIGHT: usize = 36;
pub const HOT_HEAVY: usize = 12;
/// `serve_mixed` ensemble hot set.
pub const MIXED_LIGHT: usize = 24;
pub const MIXED_HEAVY: usize = 8;
/// `serve_mixed` offered rates, below the knee on a 2-core host.
pub const HIT_RATE: f64 = 1500.0;
pub const MISS_RATE: f64 = 100.0;
/// Replies still outstanding when a user's schedule ends get this long.
pub const DRAIN: Duration = Duration::from_secs(20);

/// Share of a CPU-bound run's passes or segments its metrics are taken
/// over: the fastest ones.
///
/// `sim_charge` and `serve_hot` do a fixed, checked amount of work per
/// pass or segment, so a slower one is the host being shared, not the
/// code. Other tenants of a shared host slow whole stretches of a run by
/// 10-25%; timing the fastest tenth is the suite's own KTRIES best-of rule
/// applied to passes. Every pass and reply is still checked.
pub const FASTEST_SHARE: f64 = 0.1;

/// One figure read off a `serve_hot` segment.
type SegmentStat = fn(&serving::Segment) -> Option<f64>;

pub const WORKLOADS: [&str; 3] = ["sim_charge", "serve_hot", "serve_mixed"];

/// The fastest [`FASTEST_SHARE`] of `items` by `time` (at least one).
pub fn fastest<T>(items: &[T], time: impl Fn(&T) -> f64) -> Vec<&T> {
    let mut v: Vec<&T> = items.iter().collect();
    v.sort_by(|a, b| time(a).total_cmp(&time(b)));
    v.truncate(((v.len() as f64 * FASTEST_SHARE).ceil() as usize).max(1));
    v
}

/// Push the median (and, when `p99` names one, the p99) of a latency
/// summary, or record why not.
fn push_latency(
    out: &mut Outcome,
    l: Option<stats::Latency>,
    p50: &'static str,
    p99: Option<&'static str>,
    what: &str,
) {
    let Some(l) = l else {
        out.errors.push(format!("{what}: too few samples for a tail"));
        return;
    };
    eprintln!(
        "{what}: n={} p50={:.4} ms p{:.2}={:.4} ms",
        l.n,
        l.p50_ms,
        100.0 * l.tail_q,
        l.tail_ms
    );
    out.metrics.push(metric(p50, "ms", l.p50_ms));
    if let Some(p99) = p99 {
        if l.tail_q < 0.99 {
            out.errors.push(format!("{what}: {} samples are too few for a p99", l.n));
        }
        out.metrics.push(metric(p99, "ms", l.tail_ms));
    }
}

fn push_common(out: &mut Outcome, setups: &[f64]) {
    out.metrics.push(metric("setup_s", "s", median(setups).unwrap_or(f64::NAN)));
    match peak_rss_mb() {
        Some(mb) => out.metrics.push(metric("peak_rss_mb", "MB", mb)),
        None => out.errors.push("cannot read peak RSS from /proc/self/status".into()),
    }
}

/// Stand up [`SETUPS`] times, timing each; every instance but the last is
/// torn down again with `down`. Returns the last.
fn stand_ups<T>(
    up: impl Fn(usize) -> Result<T, String>,
    down: impl Fn(T) -> Result<(), String>,
    setups: &mut Vec<f64>,
) -> Result<T, String> {
    for i in 0..SETUPS {
        let t = Instant::now();
        let inst = up(i)?;
        setups.push(t.elapsed().as_secs_f64());
        if i + 1 == SETUPS {
            return Ok(inst);
        }
        down(inst)?;
    }
    unreachable!("SETUPS is at least one")
}

/// Run `body`, turning an early error into a recorded one.
fn guarded(body: impl FnOnce(&mut Outcome) -> Result<(), String>) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = body(&mut out) {
        out.errors.push(e);
    }
    out
}

pub fn sim_charge(seed: u64, span: Duration) -> Outcome {
    guarded(|out| {
        let mut setups = Vec::new();
        let mut setup = stand_ups(
            |_| sim::setup(),
            |s| {
                drop(s);
                Ok(())
            },
            &mut setups,
        )?;
        sim::run(&mut setup, stream_seed(seed, 0xAA), WARMUP / 4, None);
        let run = sim::run(&mut setup, seed, span, None);
        let best = fastest(&run.passes, |p| (p.kernel_ns + p.replay_ns) as f64);
        eprintln!(
            "sim_charge: {} passes ({} fastest timed), memo hits {} misses {}; all passes {:.4e} ops/s",
            run.passes.len(),
            best.len(),
            run.memo_hits,
            run.memo_misses,
            sim::rate(&run.passes.iter().collect::<Vec<_>>(), sim::whole)
        );
        out.attempted = run.checks;
        out.failed = run.failed;
        out.errors.extend(run.errors.iter().cloned());
        out.metrics.push(metric("ops_per_s", "ops/s", sim::rate(&best, sim::whole)));
        // Each half's latencies come from that half's own fastest tenth.
        let kernel = fastest(&run.passes, |p| p.kernel_ns as f64);
        let replay = fastest(&run.passes, |p| p.replay_ns as f64);
        push_latency(
            out,
            stats::latency(&mut run.samples(&kernel, false)),
            "p50_ms",
            Some("p99_ms"),
            "kernel charge units",
        );
        push_latency(
            out,
            stats::latency(&mut run.samples(&replay, true)),
            "heavy_p50_ms",
            None,
            "step replays",
        );
        push_common(out, &setups);
        Ok(())
    })
}

pub fn serve_hot(seed: u64, span: Duration) -> Outcome {
    guarded(|out| {
        let hot = hot_set(seed, HOT_LIGHT, HOT_HEAVY, 1);
        eprintln!(
            "serve_hot: closed loop, 1 connection, {} in flight, hot set {} ({HOT_LIGHT} table3 + {HOT_HEAVY} fig5)",
            serving::PIPELINE_DEPTH,
            hot.len(),
        );
        let mut setups = Vec::new();
        let (daemon, expected) = stand_ups(
            |_| {
                let d = Daemon::bind()?;
                let expected = warm(&d.addr, &hot)?;
                Ok((d, expected))
            },
            |(d, _)| d.shutdown().map(drop),
            &mut setups,
        )?;
        let segments = ((span.as_secs_f64() / HOT_SEGMENT.as_secs_f64()) as usize).max(1);
        let warmup =
            closed_loop(&daemon.addr, &hot, &expected, stream_seed(seed, 0xAA), WARMUP, 1, None)?;
        let run = closed_loop(&daemon.addr, &hot, &expected, seed, HOT_SEGMENT, segments, None)?;
        serving::check_counters(&daemon.addr)?;
        daemon.shutdown()?;

        out.attempted = warmup.sent + run.sent;
        for f in [&warmup.failures, &run.failures] {
            out.failed += f.count;
            out.errors.extend(f.messages.iter().cloned());
        }
        let best = fastest(&run.segments, |s| -s.per_s);
        eprintln!(
            "serve_hot: {:.0} submits in {} segments of {:?}; fastest {:.0}/s, slowest timed {:.0}/s",
            run.completed(HOT_SEGMENT.as_secs_f64()),
            run.segments.len(),
            HOT_SEGMENT,
            best[0].per_s,
            best[best.len() - 1].per_s
        );
        let med = |f: SegmentStat| -> Option<f64> {
            median(&best.iter().map(|s| f(s)).collect::<Option<Vec<f64>>>()?)
        };
        let picks: [(&'static str, &'static str, SegmentStat); 4] = [
            ("ops_per_s", "ops/s", |s| Some(s.per_s)),
            ("p50_ms", "ms", |s| s.all.map(|l| l.p50_ms)),
            ("p99_ms", "ms", |s| s.all.filter(|l| l.tail_q == 0.99).map(|l| l.tail_ms)),
            ("heavy_p50_ms", "ms", |s| s.heavy.map(|l| l.p50_ms)),
        ];
        for (name, unit, f) in picks {
            match med(f) {
                Some(v) => out.metrics.push(metric(name, unit, v)),
                None => out
                    .errors
                    .push(format!("serve_hot: a timed segment has too few samples for {name}")),
            }
        }
        push_common(out, &setups);
        Ok(())
    })
}

/// Where `serve_mixed` members journal: under the working directory, one
/// fresh directory per stand-up, removed at shutdown.
pub fn state_root() -> PathBuf {
    PathBuf::from(".perfbench-state").join(std::process::id().to_string())
}

/// Remove the state directories a run made.
pub fn clear_state(root: &Path) {
    let _ = std::fs::remove_dir_all(root);
    let _ = std::fs::remove_dir(".perfbench-state");
}

/// One open-loop phase of `serve_mixed`: the ensemble user's hits and,
/// unless `with_misses` is false, the production user's fresh `fig5`
/// configurations, each user on its own connection and thread.
pub struct MixedPhase {
    pub hits: OpenLoop,
    pub misses: OpenLoop,
    pub hit_sent: usize,
    pub miss_sent: usize,
    pub tracers: Vec<Tracer>,
}

#[allow(clippy::too_many_arguments)]
pub fn mixed_phase(
    addr: &str,
    hot: &[Config],
    expected: &[Vec<u8>],
    seed: u64,
    tag: &str,
    span: Duration,
    with_misses: bool,
    trace_origin: Option<Instant>,
) -> Result<MixedPhase, String> {
    let hit_sched = poisson(stream_seed(seed, 1), HIT_RATE, span);
    let mut rng = ncar_suite::SmallRng::seed_from_u64(stream_seed(seed, 2));
    let picks: Vec<usize> = hit_sched.iter().map(|_| rng.next_below(hot.len())).collect();
    let miss_sched =
        if with_misses { poisson(stream_seed(seed, 3), MISS_RATE, span) } else { Vec::new() };
    let m = sim::machine();
    let miss: Vec<Config> = (0..miss_sched.len())
        .map(|i| Config::new(&m, "fig5", ("production", format!("{seed:x}-{tag}-{i}"))))
        .collect();
    let miss_prefix: Vec<String> = miss.iter().map(|c| reply_prefix(false, c.key)).collect();
    let tracer = || trace_origin.map(|o| Tracer::new(o, 1 << 20));
    let start = Instant::now() + Duration::from_millis(20);
    let (hits, misses) = std::thread::scope(|s| {
        let hits = s.spawn(|| {
            let mut tr = tracer();
            let r = open_loop(
                addr,
                &hit_sched,
                |i| hot[picks[i]].frame.clone(),
                |i, reply| {
                    if reply == expected[picks[i]].as_slice() {
                        Ok(())
                    } else {
                        Err(format!(
                            "hit {i} for {:016x} differs: {:.120}",
                            hot[picks[i]].key,
                            String::from_utf8_lossy(reply)
                        ))
                    }
                },
                start,
                DRAIN,
                0,
                tr.as_mut(),
                "sxd.cluster.router.hit",
            );
            (r, tr)
        });
        let misses = s.spawn(|| {
            let mut tr = tracer();
            let r = open_loop(
                addr,
                &miss_sched,
                |i| miss[i].frame.clone(),
                |i, reply| {
                    if reply.starts_with(miss_prefix[i].as_bytes()) && reply.ends_with(b"}") {
                        Ok(())
                    } else {
                        Err(format!(
                            "miss {i} for {:016x} is wrong: {:.120}",
                            miss[i].key,
                            String::from_utf8_lossy(reply)
                        ))
                    }
                },
                start,
                DRAIN,
                256,
                tr.as_mut(),
                "sxd.cluster.router.miss",
            );
            (r, tr)
        });
        (hits.join().expect("hit user thread"), misses.join().expect("miss user thread"))
    });
    let tracers = [hits.1, misses.1].into_iter().flatten().collect();
    Ok(MixedPhase {
        hits: hits.0?,
        misses: misses.0?,
        hit_sent: hit_sched.len(),
        miss_sent: miss_sched.len(),
        tracers,
    })
}

impl MixedPhase {
    /// Count the phase's requests and failures into `out`.
    pub fn tally(&self, out: &mut Outcome) {
        out.attempted += (self.hit_sent + self.miss_sent) as u64;
        for f in [&self.hits.failures, &self.misses.failures] {
            out.failed += f.count;
            out.errors.extend(f.messages.iter().cloned());
        }
    }
}

pub fn serve_mixed(seed: u64, span: Duration) -> Outcome {
    let root = state_root();
    let out = guarded(|out| serve_mixed_inner(seed, span, &root, out));
    clear_state(&root);
    out
}

fn serve_mixed_inner(
    seed: u64,
    span: Duration,
    root: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let hot = hot_set(seed, MIXED_LIGHT, MIXED_HEAVY, 2);
    eprintln!(
        "serve_mixed: open loop, 2 users x 1 connection through a 2-member router; \
         offered {HIT_RATE}/s hits over {} configs, {MISS_RATE}/s fresh fig5 misses",
        hot.len()
    );
    let mut setups = Vec::new();
    let (fabric, expected) = stand_ups(
        |i| {
            let f = Fabric::spawn(&root.join(format!("stand-up-{i}")))?;
            let expected = warm(&f.addr, &hot)?;
            Ok((f, expected))
        },
        |(f, _)| f.shutdown().map(drop),
        &mut setups,
    )?;
    let warmup = mixed_phase(
        &fabric.addr,
        &hot,
        &expected,
        stream_seed(seed, 0xAA),
        "warm",
        WARMUP,
        true,
        None,
    )?;
    let run = mixed_phase(&fabric.addr, &hot, &expected, seed, "run", span, true, None)?;
    for m in &fabric.members {
        serving::check_counters(m)?;
    }
    fabric.shutdown()?;

    warmup.tally(out);
    run.tally(out);
    let completed = run.hits.lat.len() + run.misses.lat.len();
    out.metrics.push(metric("ops_per_s", "ops/s", completed as f64 / span.as_secs_f64()));
    let mut late: Vec<u64> = run.hits.late.iter().chain(&run.misses.late).copied().collect();
    if let Some(l) = stats::latency(&mut late) {
        eprintln!(
            "bench.gen.late: p50 {:.4} ms, p{:.1} {:.4} ms",
            l.p50_ms,
            100.0 * l.tail_q,
            l.tail_ms
        );
    }
    let hits: Vec<(u64, u64)> =
        run.hits.due.iter().copied().zip(run.hits.lat.iter().copied()).collect();
    push_latency(
        out,
        stats::segmented_latency(&hits, span.as_nanos() as u64, MIXED_SEGMENTS),
        "p50_ms",
        Some("p99_ms"),
        "ensemble hits (median of segments)",
    );
    let mut misses = run.misses.lat;
    push_latency(out, stats::latency(&mut misses), "heavy_p50_ms", None, "production misses");
    push_common(out, &setups);
    Ok(())
}
