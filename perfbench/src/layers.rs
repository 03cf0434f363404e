//! The traced run: per-layer metrics.
//!
//! Every workload runs here, so every layer metric is measured in every
//! traced run, whichever `--workload` was named. For each workload the run
//! measures a slice with tracing off and a slice with spans recorded around
//! each call into a layer; the difference in the workload's headline number
//! is the tracing overhead. Layer functions are then probed directly on the
//! workload's own inputs (its frames, keys, payloads), and the daemons'
//! own counters and histograms are read back over the wire. Nothing inside
//! the program is instrumented.

use std::time::{Duration, Instant};

use ncar_suite::metrics::HistogramSnapshot;
use ncar_suite::{Json, SmallRng};
use superux::admission::Admission;
use superux::nqs::JobSpec;
use sxd::{cache_key, Client, Demand, Journal, Request, ResultCache, Ring, ServerConfig};

use crate::golden;
use crate::report::{metric, Metric, Outcome};
use crate::schedule::stream_seed;
use crate::serving::{self, closed_loop, hot_set, reply_prefix, warm, Daemon, Fabric, LineConn};
use crate::sim;
use crate::stats::{self, median};
use crate::trace::{totals, Span, Tracer};
use crate::workloads::{
    self, fastest, mixed_phase, HOT_HEAVY, HOT_LIGHT, MIXED_HEAVY, MIXED_LIGHT, WARMUP,
};

/// Slices per traced run: an untraced and a traced slice per workload,
/// plus `serve_mixed` rerun with the production user silent.
const SLICES: u32 = 7;
/// Spans kept per tracer.
const SPAN_CAP: usize = 4 << 20;

/// Mean nanoseconds per call of `f` over `calls` calls.
fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..calls {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

fn pct_change(from: f64, to: f64) -> f64 {
    100.0 * (to - from) / from
}

pub fn traced(seed: u64, span: Duration) -> Outcome {
    let origin = Instant::now();
    let slice = (span / SLICES).max(Duration::from_millis(500));
    let mut out = Outcome::default();
    let mut spans: Vec<Span> = Vec::new();
    let mut metrics: Vec<Metric> = Vec::new();
    let root = workloads::state_root();
    for (what, r) in [
        ("sim_charge", sim_layers(seed, slice, origin, &mut out, &mut spans, &mut metrics)),
        ("serve_hot", hot_layers(seed, slice, origin, &mut out, &mut spans, &mut metrics)),
        (
            "serve_mixed",
            mixed_layers(seed, slice, origin, &root, &mut out, &mut spans, &mut metrics),
        ),
    ] {
        if let Err(e) = r {
            out.errors.push(format!("{what}: {e}"));
        }
    }
    workloads::clear_state(&root);
    print_layer_table(&spans);
    out.metrics = metrics;
    out
}

/// Self time per layer, from every span of the run, on stderr.
fn print_layer_table(spans: &[Span]) {
    eprintln!("{:<28} {:>10} {:>12} {:>12}", "layer (spans)", "spans", "total_ms", "self_ms");
    for (layer, t) in totals(spans, Span::layer) {
        eprintln!(
            "{layer:<28} {:>10} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

fn sim_layers(
    seed: u64,
    slice: Duration,
    origin: Instant,
    out: &mut Outcome,
    spans: &mut Vec<Span>,
    m: &mut Vec<Metric>,
) -> Result<(), String> {
    let mut setup = sim::setup()?;
    m.push(metric("climate.record_step_s", "s", setup.record_s));
    sim::run(&mut setup, stream_seed(seed, 0xAA), WARMUP / 4, None);
    let plain = sim::run(&mut setup, seed, slice, None);
    let mut tr = Tracer::new(origin, SPAN_CAP);
    let traced = sim::run(&mut setup, seed, slice, Some(&mut tr));
    for run in [&plain, &traced] {
        out.attempted += run.checks;
        out.failed += run.failed;
        out.errors.extend(run.errors.iter().cloned());
    }
    let by_time = |p: &sim::Pass| (p.kernel_ns + p.replay_ns) as f64;
    let (plain_fast, traced_fast) =
        (fastest(&plain.passes, by_time), fastest(&traced.passes, by_time));
    let overhead =
        -pct_change(sim::rate(&plain_fast, sim::whole), sim::rate(&traced_fast, sim::whole));
    let by = totals(tr.spans(), |s| s.name);
    let get = |name: &str| by.get(name).copied().unwrap_or_default();
    let charge = get("sxsim.vm.charge_vector_op_repeated");
    let transform = get("kernels.fft.charge_transform");
    let replay = get("climate.replay_step");
    let lookups = plain.memo_hits + plain.memo_misses;
    m.extend([
        metric(
            "sxsim.timing.resolve_ns",
            "ns",
            setup.resolve_ns(&setup.distinct_kernel_ops(), 200),
        ),
        metric(
            "sxsim.timing.resolves",
            "count",
            plain.memo_misses as f64 / plain.passes.len().max(1) as f64,
        ),
        metric("sxsim.vm.memo_hit_ratio", "ratio", plain.memo_hits as f64 / lookups.max(1) as f64),
        metric(
            "sxsim.vm.charge_ns_per_op",
            "ns",
            charge.total_ns as f64
                / (traced.passes.len() as u64 * golden::BENCH7_FIG5.ops).max(1) as f64,
        ),
        metric("sxsim.vm.ladder_ops_per_s", "ops/s", sim::rate(&plain_fast, sim::kernel_half)),
        metric(
            "kernels.fft.charge_transform_us",
            "us",
            transform.total_ns as f64 / 1e3 / transform.count.max(1) as f64,
        ),
        metric(
            "sxsim.program.replay_ns_per_charge",
            "ns",
            replay.total_ns as f64 / (replay.count * setup.charges_per_replay()).max(1) as f64,
        ),
        metric("sxsim.program.replay_ops_per_s", "ops/s", sim::rate(&plain_fast, sim::replay_half)),
        metric("sxsim.program.charges_per_replay", "count", setup.charges_per_replay() as f64),
        metric("bench.trace.overhead_sim_charge_pct", "%", overhead),
    ]);
    eprintln!(
        "sim_charge traced: {} passes untraced, {} traced, {} spans ({} dropped)",
        plain.passes.len(),
        traced.passes.len(),
        tr.spans().len(),
        tr.dropped
    );
    spans.extend_from_slice(tr.spans());
    Ok(())
}

fn histogram_p50(metrics: &Json, name: &str) -> Option<f64> {
    HistogramSnapshot::from_json(serving::histogram(metrics, name)?).map(|h| h.p50())
}

fn hot_layers(
    seed: u64,
    slice: Duration,
    origin: Instant,
    out: &mut Outcome,
    spans: &mut Vec<Span>,
    m: &mut Vec<Metric>,
) -> Result<(), String> {
    let hot = hot_set(seed, HOT_LIGHT, HOT_HEAVY, 1);
    let daemon = Daemon::bind()?;
    let expected = warm(&daemon.addr, &hot)?;
    let fastpath_hits = || -> Result<u64, String> {
        let mut c = Client::connect(&daemon.addr).map_err(|e| e.to_string())?;
        let s = c.stats().map_err(|e| e.to_string())?;
        s.get("fastpath_hits")
            .and_then(Json::as_u64)
            .ok_or_else(|| "STATS lacks fastpath_hits".to_string())
    };
    closed_loop(&daemon.addr, &hot, &expected, stream_seed(seed, 0xAA), WARMUP / 2, 1, None)?;
    let fp0 = fastpath_hits()?;
    let plain = closed_loop(&daemon.addr, &hot, &expected, seed, slice, 1, None)?;
    let mut tr = Tracer::new(origin, SPAN_CAP);
    let traced = closed_loop(&daemon.addr, &hot, &expected, seed, slice, 1, Some(&mut tr))?;
    let fp1 = fastpath_hits()?;
    for run in [&plain, &traced] {
        out.attempted += run.sent;
        out.failed += run.failures.count;
        out.errors.extend(run.failures.messages.iter().cloned());
    }
    let slice_s = slice.as_secs_f64();
    let overhead = -pct_change(plain.completed(slice_s), traced.completed(slice_s));

    let metrics = serving::check_counters(&daemon.addr)?;
    let flush = serving::histogram(&metrics, "flush_batch")
        .and_then(HistogramSnapshot::from_json)
        .ok_or("METRICS lacks the flush_batch histogram")?;
    // Through `Client::raw`: what a client of the library sees for one
    // small request to an idle daemon.
    let mut client = Client::connect(&daemon.addr).map_err(|e| e.to_string())?;
    let stats_line = Request::Stats.to_line();
    let mut rtts = Vec::new();
    for i in 0..50 {
        let t = Instant::now();
        client.raw(&stats_line).map_err(|e| format!("stats: {e}"))?;
        if i >= 10 {
            rtts.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    drop(client);

    let machine = sim::machine();
    let calls = 20_000;
    let parse_ns = ns_per_call(calls, |i| {
        std::hint::black_box(Request::parse(hot[i % hot.len()].line()).is_ok());
    });
    let key_ns = ns_per_call(calls, |i| {
        let c = &hot[i % hot.len()];
        std::hint::black_box(cache_key(c.suite, &machine, &c.params));
    });
    let mut cache = ResultCache::new(ServerConfig::default().cache_cap);
    for (c, reply) in hot.iter().zip(&expected) {
        cache.insert(c.key, String::from_utf8_lossy(reply).into_owned());
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let stream: Vec<u64> = (0..200_000).map(|_| hot[rng.next_below(hot.len())].key).collect();
    let probe_ns = ns_per_call(stream.len(), |i| {
        std::hint::black_box(cache.probe(stream[i]).map(|v| v.len()));
    });

    m.extend([
        metric("sxd.proto.parse_ns", "ns", parse_ns),
        metric("sxd.proto.cache_key_ns", "ns", key_ns),
        metric("sxd.cache.probe_ns", "ns", probe_ns),
        // The `stats` frame that read `fp1` was answered inline too.
        metric(
            "sxd.server.fastpath_share",
            "ratio",
            (fp1 - fp0) as f64 / (plain.sent + traced.sent + 1) as f64,
        ),
        metric(
            "sxd.server.job_p50_us",
            "us",
            1e6 * histogram_p50(&metrics, "job").ok_or("METRICS lacks job")?,
        ),
        metric(
            "sxd.server.fastpath_p50_us",
            "us",
            1e6 * histogram_p50(&metrics, "fastpath").ok_or("METRICS lacks fastpath")?,
        ),
        metric(
            "core.reactor.flush_replies_per_write",
            "replies/write",
            flush.sum / flush.count.max(1) as f64,
        ),
        metric("core.reactor.idle_rtt_us", "us", median(&rtts).unwrap_or(f64::NAN)),
        metric("bench.trace.overhead_serve_hot_pct", "%", overhead),
    ]);
    eprintln!(
        "serve_hot traced: {} sent untraced, {} traced, {} spans ({} dropped)",
        plain.sent,
        traced.sent,
        tr.spans().len(),
        tr.dropped
    );
    spans.extend_from_slice(tr.spans());
    m.push(metric("sxd.server.shutdown_ms", "ms", 1e3 * daemon.shutdown()?));
    Ok(())
}

/// Split a miss reply into its key and its result payload.
fn miss_payload(reply: &[u8]) -> Option<(u64, String)> {
    let text = std::str::from_utf8(reply).ok()?;
    let at = text.find("\"key\":\"")? + 7;
    let key = u64::from_str_radix(text.get(at..at + 16)?, 16).ok()?;
    let payload = text.strip_prefix(&reply_prefix(false, key))?.strip_suffix('}')?;
    Some((key, payload.to_string()))
}

#[allow(clippy::too_many_arguments)]
fn mixed_layers(
    seed: u64,
    slice: Duration,
    origin: Instant,
    root: &std::path::Path,
    out: &mut Outcome,
    spans: &mut Vec<Span>,
    m: &mut Vec<Metric>,
) -> Result<(), String> {
    let hot = hot_set(seed, MIXED_LIGHT, MIXED_HEAVY, 2);
    let fabric = Fabric::spawn(&root.join("traced"))?;
    let expected = warm(&fabric.addr, &hot)?;
    mixed_phase(
        &fabric.addr,
        &hot,
        &expected,
        stream_seed(seed, 0xAA),
        "warm",
        WARMUP / 2,
        true,
        None,
    )?;
    let plain = mixed_phase(&fabric.addr, &hot, &expected, seed, "plain", slice, true, None)?;
    let traced =
        mixed_phase(&fabric.addr, &hot, &expected, seed, "traced", slice, true, Some(origin))?;
    let nomiss = mixed_phase(
        &fabric.addr,
        &hot,
        &expected,
        stream_seed(seed, 0xBB),
        "nomiss",
        slice,
        false,
        None,
    )?;
    for phase in [&plain, &traced, &nomiss] {
        phase.tally(out);
    }
    let tail = |v: &[u64]| stats::latency(&mut v.to_vec()).map(|l| (l.p50_ms, l.tail_ms));
    let (plain_p50, _) = tail(&plain.hits.lat).ok_or("too few hits in the untraced slice")?;
    let (traced_p50, _) = tail(&traced.hits.lat).ok_or("too few hits in the traced slice")?;
    let late: Vec<u64> = plain.hits.late.iter().chain(&plain.misses.late).copied().collect();
    let (_, late_tail) = tail(&late).ok_or("too few sends for a lateness tail")?;
    let (_, nomiss_tail) = tail(&nomiss.hits.lat).ok_or("too few hits in the no-miss slice")?;

    // Members' own counters and stage histograms, summed.
    let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
    let mut stages: Vec<(&str, Option<HistogramSnapshot>)> =
        vec![("admission_wait", None), ("run", None), ("render", None)];
    for addr in &fabric.members {
        let metrics = serving::check_counters(addr)?;
        let cache = metrics.get("stats").and_then(|s| s.get("cache")).ok_or("STATS lacks cache")?;
        let n = |k: &str| cache.get(k).and_then(Json::as_u64).unwrap_or(0);
        hits += n("hits");
        misses += n("misses");
        evictions += n("evictions");
        for (name, acc) in stages.iter_mut() {
            let h = serving::histogram(&metrics, name)
                .and_then(HistogramSnapshot::from_json)
                .ok_or_else(|| format!("METRICS lacks {name}"))?;
            match acc {
                Some(a) => {
                    a.merge(&h);
                }
                None => *acc = Some(h),
            }
        }
    }
    let stage_p50 = |i: usize| stages[i].1.as_ref().map_or(f64::NAN, |h| h.p50());

    // The router's forward cost: one cached key, alternately through the
    // router and straight to the member that owns it.
    let ring = Ring::new(Ring::default_names(fabric.members.len()));
    let probe = &hot[0];
    let owner = ring.owner(probe.key).ok_or("empty ring")?;
    let connect = |addr: &str| LineConn::connect(addr).map_err(|e| format!("connect {addr}: {e}"));
    let (mut via, mut direct) = (connect(&fabric.addr)?, connect(&fabric.members[owner])?);
    let (mut via_us, mut direct_us) = (Vec::new(), Vec::new());
    for i in 0..400 {
        for (conn, acc) in [(&mut via, &mut via_us), (&mut direct, &mut direct_us)] {
            let t = Instant::now();
            conn.send(&probe.frame).map_err(|e| format!("forward probe: {e}"))?;
            let line = conn
                .next_line(None)
                .map_err(|e| format!("forward probe: {e}"))?
                .expect("no timeout was set");
            out.attempted += 1;
            if conn.get(line) != expected[0].as_slice() {
                out.failed += 1;
            }
            if i >= 50 {
                acc.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
        }
    }
    drop((via, direct));

    let payloads: Vec<(u64, String)> =
        plain.misses.kept.iter().filter_map(|r| miss_payload(r)).collect();
    if payloads.is_empty() {
        return Err("no miss payloads to replay".into());
    }
    let keys: Vec<u64> = plain
        .misses
        .kept
        .iter()
        .filter_map(|r| miss_payload(r).map(|(k, _)| k))
        .chain(hot.iter().map(|c| c.key))
        .collect();
    let owner_ns = ns_per_call(100_000, |i| {
        std::hint::black_box(ring.owner(keys[i % keys.len()]));
    });
    let mut cache = ResultCache::new(serving::MEMBER_CACHE_CAP);
    let insert_ns = ns_per_call(50_000, |i| {
        let (k, p) = &payloads[i % payloads.len()];
        cache.insert(k ^ (i / payloads.len()) as u64, p.clone());
    });
    let dir = root.join("journal-probe");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let (mut journal, _) = Journal::open(&dir).map_err(|e| format!("journal: {e}"))?;
    let t = Instant::now();
    for (k, p) in &payloads {
        journal.append(*k, p).map_err(|e| format!("append: {e}"))?;
    }
    let append_us = t.elapsed().as_nanos() as f64 / 1e3 / payloads.len() as f64;
    drop(journal);
    let machine = sim::machine();
    let mut runs = Vec::new();
    for _ in 0..15 {
        let t = Instant::now();
        std::hint::black_box(serving::fig5(&machine));
        runs.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let demand = Demand::light(30.0);
    let mut admission = Admission::whole_node(machine);
    let jobs: Vec<JobSpec> = (0..1000)
        .map(|i| JobSpec {
            name: format!("probe-{i}"),
            procs: demand.procs,
            memory_bytes: demand.memory_bytes,
            solo_seconds: demand.solo_seconds,
            bytes_per_cycle_per_proc: demand.bytes_per_cycle_per_proc,
            block: 0,
            after: Vec::new(),
        })
        .collect();
    let admit_ns = ns_per_call(20_000, |i| {
        let job = &jobs[i % jobs.len()];
        let admitted = admission.try_admit(job);
        std::hint::black_box(&admitted);
        admission.release(&job.name);
    });

    m.extend([
        metric("sxd.cache.insert_ns", "ns", insert_ns),
        metric("sxd.cache.hit_ratio", "ratio", hits as f64 / (hits + misses).max(1) as f64),
        metric("sxd.cache.evictions", "count", evictions as f64),
        metric("sxd.journal.append_us", "us", append_us),
        metric("sxd.runner.run_ms", "ms", median(&runs).unwrap_or(f64::NAN)),
        metric("osio.admission.admit_ns", "ns", admit_ns),
        metric("sxd.server.admission_wait_p50_us", "us", 1e6 * stage_p50(0)),
        metric("sxd.server.run_p50_ms", "ms", 1e3 * stage_p50(1)),
        metric("sxd.server.render_p50_us", "us", 1e6 * stage_p50(2)),
        metric("sxd.cluster.ring.owner_ns", "ns", owner_ns),
        metric(
            "sxd.cluster.router.forward_p50_us",
            "us",
            median(&via_us).unwrap_or(f64::NAN) - median(&direct_us).unwrap_or(f64::NAN),
        ),
        metric("sxd.cluster.router.hit_p99_nomiss_ms", "ms", nomiss_tail),
        metric("bench.gen.late_p99_ms", "ms", late_tail),
        metric("bench.trace.overhead_serve_mixed_pct", "%", pct_change(plain_p50, traced_p50)),
    ]);
    eprintln!(
        "serve_mixed traced: hit p50 {plain_p50:.4} ms untraced, {traced_p50:.4} ms traced; {} spans ({} dropped)",
        traced.tracers.iter().map(|t| t.spans().len()).sum::<usize>(),
        traced.tracers.iter().map(|t| t.dropped).sum::<u64>()
    );
    for t in &traced.tracers {
        spans.extend_from_slice(t.spans());
    }
    m.push(metric("sxd.cluster.shutdown_ms", "ms", 1e3 * fabric.shutdown()?));
    Ok(())
}
