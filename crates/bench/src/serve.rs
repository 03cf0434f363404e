//! The serving subcommands: `serve`, `submit`, `stats`, `shutdown`,
//! `drain`, `flood` and `raw` — the client/daemon face of the harness
//! (see the `sxd` crate for the protocol itself).
//!
//! Every experiment of the batch CLI is also a servable suite. Each gets
//! an NQS [`Demand`] sized after what the paper says the workload needs:
//! application runs occupy several processors and real memory for
//! simulated minutes, kernels are one-processor sprints.

use std::collections::BTreeMap;
use std::time::Duration;

use ncar_suite::metrics::LATENCY_BUCKETS;
use ncar_suite::{Json, Registry};
use sxsim::{render_analysis_list, FtraceRow};

use crate::Experiment;
use sxd::cluster::{spawn as spawn_cluster, ClusterConfig};
use sxd::{flood, Client, Demand, FloodConfig, JobEntry, Metrics, Server, ServerConfig, Stats};

/// Default daemon endpoint when `--addr` is not given.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7464";

/// NQS demand for one experiment, sized after the paper's workloads.
fn demand_for(name: &str, solo_seconds: f64) -> Demand {
    match name {
        // Multi-processor application runs: CCM2 scaling, one-year
        // simulations, the ensemble test, MOM, the production mix.
        "fig8" | "table5" | "table6" | "table7" | "multinode" | "prodload" => {
            Demand { procs: 8, memory_bytes: 2 << 30, solo_seconds, bytes_per_cycle_per_proc: 16.0 }
        }
        // I/O and network benchmarks hold a few processors and buffers.
        "pop" | "io" | "hippi" | "network" => {
            Demand { procs: 4, memory_bytes: 1 << 30, solo_seconds, bytes_per_cycle_per_proc: 12.0 }
        }
        // Kernels, accuracy checks and analyses: one processor.
        _ => Demand::light(solo_seconds),
    }
}

/// Simulated solo wall seconds charged per suite (what the paper reports
/// where it reports one; modest placeholders elsewhere).
fn solo_seconds_for(name: &str) -> f64 {
    match name {
        "prodload" => 5608.0, // 93 minutes 28 seconds (§4.6)
        "table5" => 3600.0,   // one-year CCM2 simulations with history I/O
        "table6" => 900.0,    // ensemble test, 8 concurrent copies
        "fig8" | "table7" | "multinode" => 600.0,
        "pop" | "io" | "hippi" | "network" => 120.0,
        _ => 30.0,
    }
}

/// Wrap the batch experiments as servable suites.
pub fn registry(experiments: &[Experiment]) -> Registry<JobEntry> {
    let mut reg = Registry::new();
    for (name, desc, runner) in experiments {
        let runner = *runner;
        reg.register(
            *name,
            JobEntry::new(
                demand_for(name, solo_seconds_for(name)),
                *desc,
                move |_machine, _params| Ok(runner()),
            ),
        );
    }
    reg
}

/// Tiny flag parser: `--key value` pairs plus positionals.
struct Args {
    flags: Vec<(String, String)>,
    positionals: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut positionals = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("flag --{key} needs a value"))?.clone();
                flags.push((key.to_string(), value));
            } else {
                positionals.push(a.clone());
            }
        }
        Ok(Args { flags, positionals })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} wants a number, got {v:?}")),
        }
    }

    fn get_f64(&self, key: &str) -> Result<Option<f64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key} wants seconds as a number, got {v:?}")),
        }
    }

    fn params(&self) -> BTreeMap<String, String> {
        let mut out = BTreeMap::new();
        for (k, v) in &self.flags {
            if k == "param" {
                match v.split_once('=') {
                    Some((pk, pv)) => out.insert(pk.to_string(), pv.to_string()),
                    None => out.insert(v.clone(), "true".to_string()),
                };
            }
        }
        out
    }

    fn addr(&self) -> String {
        self.get("addr").unwrap_or(DEFAULT_ADDR).to_string()
    }
}

/// What a subcommand returns; an error prints as `error: …` and exits 1.
pub type CmdResult = Result<(), Box<dyn std::error::Error>>;

/// The process exit code for a subcommand's result.
pub fn exit_code(res: CmdResult) -> i32 {
    match res {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// `ncar-bench serve [--addr A] [--workers N] [--cache-cap N]
/// [--admit-timeout SECS] [--state-dir DIR] [--drain-deadline SECS]
/// [--idle-timeout SECS] [--dispatchers N] [--pipeline-depth K]
/// [--fastpath BOOL] [--cluster N]`
///
/// `--idle-timeout SECS` bounds how long a silent connection may hold a
/// socket before the reactor closes it (counted under `conns.idle_closed`
/// in STATS); `0` disables the bound. `--dispatchers N` sizes the pool
/// that runs decoded frames (`0` auto-sizes from the worker count).
///
/// `--pipeline-depth K` lets each connection keep up to K decoded frames
/// in flight at once (default 1, strictly serial); replies always come
/// back in request order either way. `--fastpath false` disables the
/// reactor-thread fast path (cache hits, STATS, typed errors answered
/// inline), forcing every frame through the dispatcher pool — the knob
/// EXPERIMENTS.md uses for before/after numbers.
///
/// With `--cluster N` (N ≥ 2) the public address is a rendezvous-hash
/// router in front of N shard daemons on ephemeral loopback ports; every
/// other flag configures each member. `--state-dir DIR` becomes the
/// cluster state root (member `i` journals under `DIR/shard-i`).
pub fn cmd_serve(args: &[String], experiments: &[Experiment]) -> CmdResult {
    let args = Args::parse(args)?;
    let mut config = ServerConfig { addr: args.addr(), ..ServerConfig::default() };
    config.workers = args.get_usize("workers", config.workers)?;
    config.cache_cap = args.get_usize("cache-cap", config.cache_cap)?;
    match args.get_f64("admit-timeout")? {
        Some(secs) if secs > 0.0 => config.admit_timeout = Duration::from_secs_f64(secs),
        Some(_) => return Err("--admit-timeout wants a positive number of seconds".into()),
        None => {}
    }
    // --state-dir turns on the durable journal: results survive restarts,
    // and a drain past its deadline checkpoints stragglers there.
    if let Some(dir) = args.get("state-dir") {
        config.state_dir = Some(std::path::PathBuf::from(dir));
    }
    match args.get_f64("drain-deadline")? {
        Some(secs) if secs >= 0.0 => config.drain_deadline = Duration::from_secs_f64(secs),
        Some(_) => return Err("--drain-deadline wants a non-negative number of seconds".into()),
        None => {}
    }
    match args.get_f64("idle-timeout")? {
        Some(0.0) => config.idle_timeout = None,
        Some(secs) if secs > 0.0 => config.idle_timeout = Some(Duration::from_secs_f64(secs)),
        Some(_) => return Err("--idle-timeout wants a non-negative number of seconds".into()),
        None => {}
    }
    config.dispatchers = args.get_usize("dispatchers", config.dispatchers)?;
    config.pipeline_depth = match args.get_usize("pipeline-depth", config.pipeline_depth)? {
        0 => return Err("--pipeline-depth wants at least 1".into()),
        n => n,
    };
    match args.get("fastpath") {
        None | Some("true") => {}
        Some("false") => config.fastpath = false,
        Some(_) => return Err("--fastpath wants true or false".into()),
    }
    let shards = args.get_usize("cluster", 1)?;
    if shards > 1 {
        let cluster_config = ClusterConfig {
            shards,
            addr: config.addr.clone(),
            state_dir: config.state_dir.take(),
            server: config,
        };
        let cluster = spawn_cluster(registry(experiments), cluster_config)?;
        println!("sxd listening on {}", cluster.addr());
        let members: Vec<String> = cluster.member_addrs().iter().map(|a| a.to_string()).collect();
        println!("sxd cluster: {shards} shards on {}", members.join(" "));
        cluster.join()?;
        println!("sxd cluster drained; exiting");
        return Ok(());
    }
    let server = Server::bind(registry(experiments), config)?;
    println!("sxd listening on {}", server.local_addr());
    server.run()?;
    println!("sxd drained; exiting");
    Ok(())
}

/// `ncar-bench submit <suite> [--addr A] [--machine M] [--param k=v]...
/// [--json j] [--show-route true] [--pipeline N]`
///
/// `--show-route true` first asks the endpoint which shard owns the
/// configuration (the cluster `route` verb) and prints the placement
/// before submitting. Against a single daemon the route probe reports
/// that the endpoint is not a router and the submit proceeds anyway.
///
/// `--pipeline N` sends the same submit N times in one pipelined batch —
/// all N frames leave before the first reply is read, and each reply is
/// verified to be the one its request hashes to (strict order). Handy for
/// watching a cold entry warm up: reply 0 says `cached=false`, the rest
/// `cached=true`.
pub fn cmd_submit(args: &[String]) -> CmdResult {
    let args = Args::parse(args)?;
    let suite =
        args.positionals.first().ok_or("submit needs a suite name (try `ncar-bench list`)")?;
    let machine = args.get("machine").unwrap_or("sx4-9.2");
    let json = args.get("json") == Some("true");
    let mut client = Client::connect(&args.addr())?;
    if args.get("show-route") == Some("true") {
        match client.route(suite, machine, &args.params()) {
            Ok(route) => {
                let member = route.get("member").and_then(Json::as_u64).unwrap_or(0);
                let shard = route.get("shard").and_then(Json::as_str).unwrap_or("?");
                let key = route.get("key").and_then(Json::as_str).unwrap_or("?");
                println!("route: member={member} shard={shard} key={key}");
            }
            Err(e) => println!("route: unavailable ({e})"),
        }
    }
    let pipeline = args.get_usize("pipeline", 1)?;
    if pipeline > 1 {
        let batch: Vec<_> = (0..pipeline)
            .map(|_| (suite.to_string(), machine.to_string(), args.params()))
            .collect();
        for (i, sub) in client.submit_pipelined(&batch)?.iter().enumerate() {
            if json {
                println!("{}", sub.raw);
            } else {
                println!("reply {i}: key={} cached={}", sub.key, sub.cached);
            }
        }
        return Ok(());
    }
    let sub = client.submit(suite, machine, &args.params())?;
    if json {
        println!("{}", sub.raw);
    } else {
        println!("key={} cached={}", sub.key, sub.cached);
        if let Some(rendered) = sub.result.get("rendered").and_then(Json::as_str) {
            print!("{rendered}");
        }
    }
    Ok(())
}

/// `ncar-bench stats [--addr A]`
pub fn cmd_stats(args: &[String]) -> CmdResult {
    let stats = Client::connect(&Args::parse(args)?.addr())?.stats()?;
    println!("{}", Stats::from_json(&stats));
    Ok(())
}

/// Render one metrics snapshot the way SUPER-UX renders FTRACE: a stats
/// summary line, the gauges, a per-stage latency analysis list (quantiles
/// in microseconds), the histograms that are not in seconds with their raw
/// quantiles, and the per-suite simulated-seconds breakdown. Only
/// histograms on the latency ladder ([`LATENCY_BUCKETS`]) are times.
fn render_metrics(m: &Metrics) -> String {
    let s = &m.stats;
    let mut out = format!(
        "jobs: accepted={} done={} rejected={} queued={} running={} \
         coalesced={} bad_requests={}  reconciled={}\n",
        s.accepted,
        s.done,
        s.rejected,
        s.queued,
        s.running,
        s.coalesced,
        s.bad_requests,
        m.reconciled,
    );
    let c = &s.cache;
    out.push_str(&format!(
        "cache: hits={} misses={} evictions={} entries={}/{}\n",
        c.hits, c.misses, c.evictions, c.entries, c.cap,
    ));
    out.push_str("gauges:");
    for (k, v) in &m.gauges {
        out.push_str(&format!(" {k}={v}"));
    }
    out.push('\n');

    let (times, others): (Vec<_>, Vec<_>) =
        m.latency.iter().partition(|(_, h)| h.bounds == LATENCY_BUCKETS);
    let rows: Vec<FtraceRow> = times
        .into_iter()
        .map(|(stage, h)| FtraceRow {
            name: stage.clone(),
            calls: h.count,
            seconds: h.sum,
            extra: vec![h.p50() * 1e6, h.p90() * 1e6, h.p99() * 1e6],
        })
        .collect();
    out.push('\n');
    out.push_str(&render_analysis_list(&["P50(us)", "P90(us)", "P99(us)"], rows));
    if !others.is_empty() {
        out.push_str(&format!(
            "\n{:<20} {:>6} {:>12} {:>12} {:>12}\n",
            "HISTOGRAM(raw)", "CALLS", "P50", "P90", "P99"
        ));
        for (name, h) in others {
            out.push_str(&format!(
                "{name:<20} {:>6} {:>12.2} {:>12.2} {:>12.2}\n",
                h.count,
                h.p50(),
                h.p90(),
                h.p99()
            ));
        }
    }

    if !m.suites.is_empty() {
        let rows: Vec<FtraceRow> = m
            .suites
            .iter()
            .map(|(name, r)| FtraceRow {
                name: name.clone(),
                calls: r.runs as u64,
                seconds: r.sim_seconds,
                extra: vec![r.avg_stretch],
            })
            .collect();
        out.push('\n');
        out.push_str(&render_analysis_list(&["AVG.STRETCH"], rows));
    }
    out
}

/// `ncar-bench metrics [--addr A] [--json true] [--watch SECS]`
pub fn cmd_metrics(args: &[String]) -> CmdResult {
    let args = Args::parse(args)?;
    let watch = args.get_f64("watch")?;
    if watch.is_some_and(|w| w <= 0.0) {
        return Err("--watch wants a positive number of seconds".into());
    }
    let mut client = Client::connect(&args.addr())?;
    loop {
        let m = Metrics::from_json(&client.metrics()?);
        if args.get("json") == Some("true") {
            println!("{m}");
        } else {
            print!("{}", render_metrics(&m));
        }
        let Some(secs) = watch else { return Ok(()) };
        println!();
        std::thread::sleep(Duration::from_secs_f64(secs));
    }
}

/// `ncar-bench shutdown [--addr A]`
pub fn cmd_shutdown(args: &[String]) -> CmdResult {
    Client::connect(&Args::parse(args)?.addr())?.shutdown()?;
    println!("sxd acknowledged shutdown");
    Ok(())
}

/// `ncar-bench drain [--addr A] [--deadline SECS] [--member K]` —
/// graceful drain: the daemon stops admission, gives in-flight jobs the
/// deadline to finish, checkpoints the stragglers to restart specs (when
/// it has a state dir) and exits. Without `--deadline` the server's
/// configured default applies. `--member K` targets a cluster router:
/// only shard K drains, and the router hands its durable keyspace to the
/// ring successors before acknowledging.
pub fn cmd_drain(args: &[String]) -> CmdResult {
    let args = Args::parse(args)?;
    let deadline_ms = match args.get_f64("deadline")? {
        Some(secs) if secs >= 0.0 => Some((secs * 1000.0) as u64),
        Some(_) => return Err("--deadline wants a non-negative number of seconds".into()),
        None => None,
    };
    let member = match args.get("member") {
        None => None,
        Some(v) => Some(
            v.parse::<usize>().map_err(|_| format!("--member wants a shard index, got {v:?}"))?,
        ),
    };
    let mut client = Client::connect(&args.addr())?;
    match member {
        Some(m) => {
            client.drain_member(m, deadline_ms)?;
            println!("sxd drained member {m}; keyspace handed off");
        }
        None => {
            client.drain(deadline_ms)?;
            println!("sxd acknowledged drain");
        }
    }
    Ok(())
}

/// `ncar-bench raw <line> [--addr A]` — send one raw frame, print the raw
/// reply. The CI smoke test uses this to feed the daemon garbage.
pub fn cmd_raw(args: &[String]) -> CmdResult {
    let args = Args::parse(args)?;
    let line = args.positionals.first().ok_or("raw needs the frame to send as an argument")?;
    println!("{}", Client::connect(&args.addr())?.raw(line)?);
    Ok(())
}

/// `ncar-bench flood [--addr A] [--clients N] [--jobs M] [--suite s]...
/// [--pipeline K] [--cluster N]`
///
/// `--pipeline K` makes each client keep K submits in flight per
/// connection (batched writes, strict in-order reply verification); the
/// summary line reports throughput as jobs/s either way.
///
/// With `--cluster N` the flood stands up an ephemeral in-process
/// N-shard cluster (memory-only members, ephemeral ports), aims the load
/// at its router, and tears it down afterwards — a one-command shard-
/// scaling measurement; `--addr` is ignored. Without it the flood targets
/// an already-running endpoint, daemon or router alike.
pub fn cmd_flood(args: &[String], experiments: &[Experiment]) -> CmdResult {
    let args = Args::parse(args)?;
    let clients = args.get_usize("clients", 8)?;
    let jobs = args.get_usize("jobs", 64)?;
    let shards = args.get_usize("cluster", 0)?;
    let pipeline = args.get_usize("pipeline", 1)?;
    let mut suites: Vec<String> =
        args.flags.iter().filter(|(k, _)| k == "suite").map(|(_, v)| v.clone()).collect();
    if suites.is_empty() {
        // Fast kernel suites by default so the flood measures the daemon.
        suites = vec!["fig5".into(), "radabs".into(), "table3".into()];
    }
    let cluster = if shards > 0 {
        let cluster_config = ClusterConfig {
            shards,
            addr: "127.0.0.1:0".into(),
            state_dir: None,
            server: ServerConfig::default(),
        };
        let c = spawn_cluster(registry(experiments), cluster_config)?;
        println!("flood: ephemeral {shards}-shard cluster on {}", c.addr());
        Some(c)
    } else {
        None
    };
    let config = FloodConfig {
        addr: cluster.as_ref().map_or_else(|| args.addr(), |c| c.addr().to_string()),
        clients,
        jobs,
        suites,
        machine: args.get("machine").unwrap_or("sx4-9.2").to_string(),
        pipeline,
    };
    let flooded = flood(&config);
    if let Some(cluster) = cluster {
        Client::connect(&config.addr)
            .and_then(|mut c| c.shutdown())
            .and_then(|()| cluster.join())
            .map_err(|e| format!("cluster teardown: {e}"))?;
    }
    let outcome = flooded?;
    let s = &outcome.metrics.stats;
    println!(
        "flood: {}/{} jobs completed in {:.3}s ({:.1} jobs/s, pipeline {}), \
         {} cached replies; cache {}h/{}m; counters accepted={} done={} rejected={} \
         queued={} running={} coalesced={} fastpath_hits={} reconciled={}",
        outcome.completed,
        outcome.submitted,
        outcome.wall,
        outcome.jobs_per_sec,
        pipeline.max(1),
        outcome.cached_replies,
        s.cache.hits,
        s.cache.misses,
        s.accepted,
        s.done,
        s.rejected,
        s.queued,
        s.running,
        s.coalesced,
        s.fastpath_hits,
        outcome.metrics.reconciled,
    );
    for p in &outcome.problems {
        eprintln!("flood problem: {p}");
    }
    if !outcome.ok() {
        return Err(format!("{} flood acceptance check(s) failed", outcome.problems.len()).into());
    }
    println!("flood: all acceptance checks passed");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncar_suite::metrics::Histogram;
    use sxd::stats::SuiteRow;

    /// A METRICS document with one histogram of each unit: `job` in
    /// seconds, `flush_batch` in replies per write, `sim_throughput` a
    /// ratio — exactly as a daemon files them, all under `latency`.
    fn mixed_units() -> Metrics {
        let hist = |bounds: &[f64], values: &[f64]| {
            let h = Histogram::new(bounds);
            for &v in values {
                h.observe(v);
            }
            h.snapshot()
        };
        let mut m = Metrics::default();
        m.stats.accepted = 3;
        m.stats.done = 3;
        m.stats.coalesced = 1;
        m.stats.cache.hits = 1;
        m.stats.cache.misses = 2;
        m.stats.cache.entries = 2;
        m.stats.cache.cap = 256;
        m.gauges.insert("admission_stretch".into(), 1.0);
        m.gauges.insert("pool_queue_depth".into(), 0.0);
        m.latency.insert("job".into(), hist(&LATENCY_BUCKETS, &[2e-5, 3e-5, 4e-3]));
        m.latency.insert("flush_batch".into(), hist(&[1.0, 2.0, 4.0, 8.0], &[1.0, 1.0, 3.0]));
        m.latency.insert("sim_throughput".into(), hist(&[1e3, 1e4, 1e5, 1e6], &[2e4, 5e5]));
        m.suites.insert("fig5".into(), SuiteRow { runs: 2.0, sim_seconds: 60.0, avg_stretch: 1.0 });
        m.reconciled = true;
        m
    }

    /// Only histograms on the latency ladder are times: the FTRACE table
    /// holds `job` alone (its TIME% is 100), and the unit-free histograms
    /// show their raw quantiles, not seconds scaled by 1e6.
    #[test]
    fn render_metrics_keeps_non_time_histograms_out_of_the_time_table() {
        let want = "\
jobs: accepted=3 done=3 rejected=0 queued=0 running=0 coalesced=1 bad_requests=0  reconciled=true
cache: hits=1 misses=2 evictions=0 entries=2/256
gauges: admission_stretch=1 pool_queue_depth=0

*----------------------*
|  FTRACE ANALYSIS LIST |
*----------------------*
REGION                CALLS EXCL.TIME(s)   TIME%    P50(us)    P90(us)    P99(us)
job                       3     0.004050   100.0       37.5     4250.0     4925.0

HISTOGRAM(raw)        CALLS          P50          P90          P99
flush_batch               3         0.75         3.40         3.94
sim_throughput            2    100000.00    820000.00    982000.00

*----------------------*
|  FTRACE ANALYSIS LIST |
*----------------------*
REGION                CALLS EXCL.TIME(s)   TIME% AVG.STRETCH
fig5                      2    60.000000   100.0        1.0
";
        assert_eq!(render_metrics(&mixed_units()), want);
    }

    /// The exact bytes of a `table3` cache hit, recorded before the cache
    /// stored rendered hit lines and the reactor shared them. Any change to
    /// the key, the payload rendering or the hit line shows here.
    const TABLE3_HIT: &str = concat!(
        r#"{"ok":true,"cached":true,"key":"17f567575b34d848","result":{"suite":"table3","#,
        r#""machine":"NEC SX-4/32 (9.2ns)","params":{"ensemble":"golden"},"#,
        r#""sim_seconds":30.00000228881836,"stretch":1.0000000762939454,"artifacts":[{"#,
        r#""kind":"table","title":"Table 3: single-processor 64-bit intrinsic throughput "#,
        r#"(millions of calls/second), SX-4/1","headers":["Function","Mcalls/s"],"rows":["#,
        r#"["EXP","45.0"],["LOG","41.5"],["PWR","21.7"],["SIN","38.6"],["SQRT","67.2"]]}],"#,
        r#""rendered":"Table 3: single-processor 64-bit intrinsic throughput "#,
        r#"(millions of calls/second), SX-4/1\n| Function | Mcalls/s |\n"#,
        r#"|----------|----------|\n|      EXP |     45.0 |\n|      LOG |     41.5 |\n"#,
        r#"|      PWR |     21.7 |\n|      SIN |     38.6 |\n|     SQRT |     67.2 |\n"}}"#,
    );

    #[test]
    fn table3_hit_reply_bytes_are_pinned() {
        let experiments: [Experiment; 1] =
            [("table3", "ELEFUNT intrinsic throughput, SX-4/1", crate::exp_kernels::table3)];
        let server = Server::bind(registry(&experiments), ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let daemon = std::thread::spawn(move || server.run());
        let mut c = Client::connect(&addr).unwrap();
        let frame = r#"{"op":"submit","suite":"table3","machine":"sx4-9.2","params":{"ensemble":"golden"}}"#;
        let first = c.raw(frame).unwrap();
        assert_eq!(first, TABLE3_HIT.replace("\"cached\":true", "\"cached\":false"));
        // Dispatched miss above; the inline hit now, then again through
        // another spelling of the same suite and machine.
        assert_eq!(c.raw(frame).unwrap(), TABLE3_HIT);
        let aliased = frame.replace("\"table3\"", "\"TABLE3\"").replace("sx4-9.2", "SX4");
        assert_eq!(c.raw(&aliased).unwrap(), TABLE3_HIT);
        c.shutdown().unwrap();
        daemon.join().unwrap().unwrap();
    }
}
