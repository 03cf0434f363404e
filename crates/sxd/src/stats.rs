//! The STATS and METRICS documents — the daemon's PROGINF and FTRACE
//! (paper §2.6) — typed, with one renderer, one parser and one merge each.
//!
//! Every member name and its place on the wire lives here. The daemon
//! fills [`Stats`] and [`Metrics`] from its live state; the router parses
//! its members' documents, merges them and attaches its [`RouterStats`];
//! `flood` and `ncar-bench metrics` read replies through the parser.
//! Counters print as integers (`"coalesced":0`) and floats in their
//! shortest round-trip form, so parsing any document a daemon or router
//! sends and rendering it again reproduces its bytes.
//!
//! The merge keeps one member's shape (RZBENCH, arXiv 0712.3389: one
//! harness aggregates all members), so a router reads like a daemon. It
//! preserves reconciliation because the invariants are linear: each
//! member satisfies `accepted == done + rejected + queued + running` and
//! `latency.job.count == done + rejected` internally, so the sums do too,
//! though the members' snapshots were taken at different instants.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use ncar_suite::metrics::{Gauge, Histogram, HistogramSnapshot, MetricsRegistry};
use ncar_suite::reactor::ReactorHandle;
use ncar_suite::report::{json_escape, json_f64};
use ncar_suite::Json;

use crate::cache::ResultCache;
use crate::journal::Journal;

/// What a member absent from a parsed document reads as.
static ABSENT: Json = Json::Null;

fn member<'a>(doc: &'a Json, name: &str) -> &'a Json {
    doc.get(name).unwrap_or(&ABSENT)
}

/// One member value of a document: how it prints, how it reads back (an
/// absent or mistyped value reads as the empty one, so a member missing a
/// field merges as zero), and how two members' values sum.
trait Field: Default + Clone {
    fn write(&self, out: &mut String);
    fn read(doc: &Json) -> Self;
    fn add(&mut self, other: &Self);
}

impl Field for u64 {
    fn write(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
    fn read(doc: &Json) -> u64 {
        doc.as_u64().unwrap_or(0)
    }
    fn add(&mut self, other: &u64) {
        *self += other;
    }
}

impl Field for f64 {
    fn write(&self, out: &mut String) {
        out.push_str(&json_f64(*self));
    }
    fn read(doc: &Json) -> f64 {
        doc.as_f64().unwrap_or(0.0)
    }
    fn add(&mut self, other: &f64) {
        *self += other;
    }
}

/// Flags sum as "any member says so".
impl Field for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn read(doc: &Json) -> bool {
        doc.as_bool() == Some(true)
    }
    fn add(&mut self, other: &bool) {
        *self |= other;
    }
}

/// Named values (per suite, per gauge), summed name by name.
impl<T: Field> Field for BTreeMap<String, T> {
    fn write(&self, out: &mut String) {
        out.push('{');
        for (i, (name, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&json_escape(name));
            out.push_str("\":");
            v.write(out);
        }
        out.push('}');
    }
    fn read(doc: &Json) -> Self {
        let members = doc.as_obj().unwrap_or_default();
        members.iter().map(|(k, v)| (k.clone(), T::read(v))).collect()
    }
    fn add(&mut self, other: &Self) {
        for (k, v) in other {
            self.entry(k.clone()).and_modify(|mine| mine.add(v)).or_insert_with(|| v.clone());
        }
    }
}

/// A sub-document that may be `null`: the sum covers the present ones and
/// stays `null` only when every member's is.
impl<T: Field> Field for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }
    fn read(doc: &Json) -> Self {
        (!matches!(doc, Json::Null)).then(|| T::read(doc))
    }
    fn add(&mut self, other: &Self) {
        match (self.as_mut(), other) {
            (_, None) => {}
            (None, Some(o)) => *self = Some(o.clone()),
            (Some(s), Some(o)) => s.add(o),
        }
    }
}

/// Declares a document struct whose members print in declaration order
/// and sum field by field. Fields under `omitted` are `Option`s that
/// print only when set and take no part in the sum — whoever merges
/// decides them.
macro_rules! document {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* $field:ident: $ty:ty,)*
        }
        $(omitted {
            $($(#[$ometa:meta])* $ofield:ident: $oty:ty,)*
        })?
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
            $($($(#[$ometa])* pub $ofield: Option<$oty>,)*)?
        }

        impl Field for $name {
            fn write(&self, out: &mut String) {
                // Every member leads with a comma; the first becomes `{`.
                let start = out.len();
                $(
                    out.push_str(concat!(",\"", stringify!($field), "\":"));
                    self.$field.write(out);
                )*
                $($(
                    if let Some(v) = &self.$ofield {
                        out.push_str(concat!(",\"", stringify!($ofield), "\":"));
                        v.write(out);
                    }
                )*)?
                out.replace_range(start..start + 1, "{");
                out.push('}');
            }

            fn read(doc: &Json) -> $name {
                $name {
                    $($field: Field::read(member(doc, stringify!($field))),)*
                    $($($ofield: Field::read(member(doc, stringify!($ofield))),)*)?
                }
            }

            fn add(&mut self, other: &$name) {
                $(self.$field.add(&other.$field);)*
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let mut out = String::new();
                self.write(&mut out);
                f.write_str(&out)
            }
        }

        impl $name {
            /// Read a document back from its parsed JSON form.
            pub fn from_json(doc: &Json) -> $name {
                Field::read(doc)
            }
        }
    };
}

document! {
    /// Result-cache tallies (see [`ResultCache`]).
    pub struct CacheStats {
        hits: u64,
        misses: u64,
        evictions: u64,
        entries: u64,
        cap: u64,
    }
}

impl CacheStats {
    pub(crate) fn of(c: &ResultCache) -> CacheStats {
        let (entries, cap) = (c.len() as u64, c.cap() as u64);
        CacheStats { hits: c.hits(), misses: c.misses(), evictions: c.evictions(), entries, cap }
    }
}

document! {
    /// A reactor's connection tallies; daemons and the router report the
    /// same shape.
    pub struct ConnStats {
        /// Connections open right now.
        open: u64,
        /// Connections accepted since boot.
        accepted: u64,
        /// Connections the idle-timeout wheel closed.
        idle_closed: u64,
    }
}

impl ConnStats {
    /// All zero before the reactor runs (or after it has stopped).
    pub(crate) fn of(reactor: Option<&ReactorHandle>) -> ConnStats {
        reactor.map_or_else(ConnStats::default, |h| ConnStats {
            open: h.open(),
            accepted: h.accepted(),
            idle_closed: h.idle_closed(),
        })
    }
}

document! {
    /// The write-ahead result journal of a durable daemon.
    pub struct JournalStats {
        appended: u64,
        replayed: u64,
        compactions: u64,
        /// Torn-tail bytes cut off when the journal was opened.
        truncated_bytes: u64,
        /// Appends and compactions that failed; the result stayed served
        /// from memory, only its durability was lost.
        io_errors: u64,
    }
}

impl JournalStats {
    pub(crate) fn of(j: &Journal, io_errors: u64) -> JournalStats {
        JournalStats {
            appended: j.appended(),
            replayed: j.replayed(),
            compactions: j.compactions(),
            truncated_bytes: j.truncated_bytes(),
            io_errors,
        }
    }
}

document! {
    /// The router's own tallies, attached to a cluster's merged [`Stats`].
    pub struct RouterStats {
        /// Frames forwarded to members, fan-outs and hand-off puts included.
        forwarded: u64,
        bad_requests: u64,
        /// Journal entries replicated to successors by hand-offs.
        handoff_entries: u64,
        /// Hand-off entries skipped (oversized for a request frame); their
        /// keys recompute on the successor instead of replaying.
        handoff_skipped: u64,
        /// Checkpointed restart specs re-submitted across the ring.
        handoff_resubmits: u64,
        /// Forwards that failed even after a fresh dial.
        unavailable: u64,
        /// Forwards whose first round failed and were retried on a fresh
        /// dial (a dead pooled connection, say), whatever the retry gave.
        forward_retries: u64,
        /// Frames answered inline on the reactor thread (`route`, parse
        /// errors): pure ring math, no member I/O.
        fastpath_hits: u64,
        conns: ConnStats,
        members_alive: u64,
        members_total: u64,
    }
}

document! {
    /// The STATS document, also the `stats` member of METRICS. A daemon
    /// keeps its job counters in one ([`crate::Counters`]) and fills in the
    /// rest per reply; a router sends the [`Stats::merge`] of its members'
    /// with `router` attached.
    pub struct Stats {
        accepted: u64,
        rejected: u64,
        queued: u64,
        running: u64,
        done: u64,
        /// Frames that never became jobs (garbage, unknown suite/machine).
        bad_requests: u64,
        /// Submits that coalesced onto another in-flight identical run.
        coalesced: u64,
        /// Jobs a drain deadline checkpointed to restart specs instead of
        /// finishing. Informational: each is also counted in `rejected`
        /// (its client got a typed `checkpointed` error), so the
        /// `accepted == done + rejected + queued + running` invariant is
        /// untouched.
        checkpointed: u64,
        /// Results absorbed via the cluster hand-off `put` verb.
        /// Informational: puts never enter the job pipeline.
        absorbed: u64,
        /// Frames answered inline on the reactor thread (cache hits,
        /// `stats`, typed bad requests and submit-resolution errors).
        /// Informational: a fast-path submit retires through the same
        /// `accepted`/`done` transition as a dispatched hit.
        fastpath_hits: u64,
        /// The same count as `queued`.
        queue_depth: u64,
        cache: CacheStats,
        conns: ConnStats,
        /// Simulated seconds charged per suite.
        suite_seconds: BTreeMap<String, f64>,
        workers: u64,
        /// `None` (`null`) for a memory-only daemon.
        journal: Option<JournalStats>,
        draining: bool,
        shutting_down: bool,
    }
    omitted {
        /// How many member documents a cluster view merged.
        members: u64,
        router: RouterStats,
    }
}

impl Stats {
    /// The reply member carrying the document.
    pub const MEMBER: &'static str = "stats";

    /// The whole STATS reply line.
    pub fn reply(&self) -> String {
        format!("{{\"ok\":true,\"{}\":{self}}}", Stats::MEMBER)
    }

    /// The cluster view of member documents: counters and tallies sum,
    /// flags are set when any member's is, `journal` sums the durable
    /// members' (`null` when none is durable), and `members` counts the
    /// documents merged.
    pub fn merge(members: &[Stats]) -> Stats {
        let mut merged = Stats::default();
        for m in members {
            merged.add(m);
        }
        merged.members = Some(members.len() as u64);
        merged
    }
}

document! {
    /// One suite's row of the per-suite breakdown. Every number is a JSON
    /// float on the wire, the run count included (`"runs":8.0`). Rows merge
    /// run-weighted in [`Metrics::merge`], not field by field.
    pub struct SuiteRow {
        /// Simulations actually executed (hits and followers replay).
        runs: f64,
        /// Simulated seconds charged, contention stretch included.
        sim_seconds: f64,
        avg_stretch: f64,
    }
}

/// Gauges that are ratios, not occupancy levels. Summing them across
/// members is meaningless — N equally loaded members would report N× the
/// stretch any one sees — so they merge as run-weighted means.
const RATIO_GAUGES: &[&str] = &["admission_stretch"];

/// The METRICS document: embedded stats, level gauges, histograms, the
/// per-suite breakdown and the reconciliation verdict.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    pub stats: Stats,
    pub gauges: BTreeMap<String, f64>,
    /// Every histogram, in seconds or not: those whose bounds are
    /// [`ncar_suite::metrics::LATENCY_BUCKETS`] are times.
    pub latency: BTreeMap<String, HistogramSnapshot>,
    pub suites: BTreeMap<String, SuiteRow>,
    /// A daemon's `job` count equals its `done + rejected` in one snapshot;
    /// for a router, every member's did and the merged sums still agree.
    pub reconciled: bool,
}

impl Metrics {
    /// The reply member carrying the document.
    pub const MEMBER: &'static str = "metrics";

    /// Read a document back from its parsed JSON form. Histograms without
    /// the histogram shape are skipped.
    pub fn from_json(doc: &Json) -> Metrics {
        let latency = member(doc, "latency").as_obj().unwrap_or_default();
        Metrics {
            stats: Field::read(member(doc, "stats")),
            gauges: Field::read(member(doc, "gauges")),
            latency: latency
                .iter()
                .filter_map(|(k, h)| Some((k.clone(), HistogramSnapshot::from_json(h)?)))
                .collect(),
            suites: Field::read(member(doc, "suites")),
            reconciled: Field::read(member(doc, "reconciled")),
        }
    }

    /// The whole METRICS reply line.
    pub fn reply(&self) -> String {
        format!("{{\"ok\":true,\"{}\":{self}}}", Metrics::MEMBER)
    }

    /// Whether the `job` histogram counts exactly the retired jobs.
    pub fn job_count_matches(&self) -> bool {
        self.latency.get("job").map_or(0, |h| h.count) == self.stats.done + self.stats.rejected
    }

    /// The cluster view of member documents: [`Stats::merge`] of their
    /// stats; occupancy gauges sum while ratio gauges (`admission_stretch`)
    /// average weighted by each member's `done` (plainly when no member has
    /// completed anything); histograms merge bucket-wise, skipping any
    /// shaped unlike the first seen; suite rows sum with a run-weighted
    /// average stretch.
    /// The cluster is `reconciled` when every member said so *and* the
    /// merged `job` count still equals the merged `done + rejected`.
    pub fn merge(members: &[Metrics]) -> Metrics {
        let stats: Vec<Stats> = members.iter().map(|m| m.stats.clone()).collect();
        let mut merged = Metrics { stats: Stats::merge(&stats), ..Metrics::default() };
        // Per ratio gauge: (run-weighted sum, runs, plain sum, members).
        let mut ratios: BTreeMap<&str, (f64, f64, f64, f64)> = BTreeMap::new();
        for m in members {
            let runs = m.stats.done as f64;
            for (k, &x) in &m.gauges {
                if RATIO_GAUGES.contains(&k.as_str()) {
                    let r = ratios.entry(k).or_default();
                    *r = (r.0 + x * runs, r.1 + runs, r.2 + x, r.3 + 1.0);
                } else {
                    *merged.gauges.entry(k.clone()).or_insert(0.0) += x;
                }
            }
            for (k, h) in &m.latency {
                match merged.latency.get_mut(k) {
                    // A histogram shaped unlike the first seen is skipped.
                    Some(acc) => _ = acc.merge(h),
                    None => _ = merged.latency.insert(k.clone(), h.clone()),
                }
            }
            // `avg_stretch` accumulates run-weighted here; divided below.
            for (k, row) in &m.suites {
                let acc = merged.suites.entry(k.clone()).or_default();
                acc.runs += row.runs;
                acc.sim_seconds += row.sim_seconds;
                acc.avg_stretch += row.avg_stretch * row.runs;
            }
        }
        for (k, (weighted, runs, plain, count)) in ratios {
            let mean = match (runs > 0.0, count > 0.0) {
                (true, _) => weighted / runs,
                (false, true) => plain / count,
                (false, false) => 0.0,
            };
            merged.gauges.insert(k.to_string(), mean);
        }
        for row in merged.suites.values_mut() {
            row.avg_stretch = if row.runs > 0.0 { row.avg_stretch / row.runs } else { 0.0 };
        }
        merged.reconciled = !members.is_empty()
            && members.iter().all(|m| m.reconciled)
            && merged.job_count_matches();
        merged
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (mut gauges, mut suites) = (String::new(), String::new());
        self.gauges.write(&mut gauges);
        self.suites.write(&mut suites);
        let latency =
            Json::Obj(self.latency.iter().map(|(k, h)| (k.clone(), h.to_json())).collect());
        write!(
            f,
            "{{\"stats\":{},\"gauges\":{gauges},\"latency\":{latency},\"suites\":{suites},\
             \"reconciled\":{}}}",
            self.stats, self.reconciled,
        )
    }
}

/// Bucket edges for the `sim_throughput` histogram: simulated seconds
/// produced per wall-clock second of runner time. The analytic simulator
/// runs far faster than real time, so the ladder is log-spaced up to 1e6x.
const SIM_THROUGHPUT_BUCKETS: [f64; 16] =
    [0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1e3, 1e4, 1e5, 1e6];

/// Bucket edges for the `flush_batch` histogram: replies per vectored
/// write syscall. Powers of two up to the reactor's per-syscall slice cap.
const FLUSH_BATCH_BUCKETS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// The histograms and level gauges a daemon maintains: the members of its
/// METRICS `latency` and `gauges`. Stage histograms follow the serving
/// pipeline; `job` is the reconciled end-to-end one, observed only inside
/// the counters critical sections that retire a job.
pub(crate) struct DaemonMetrics {
    pub registry: MetricsRegistry,
    pub frame_parse: Arc<Histogram>,
    pub cache_lookup: Arc<Histogram>,
    pub admission_wait: Arc<Histogram>,
    pub run: Arc<Histogram>,
    pub render: Arc<Histogram>,
    pub job: Arc<Histogram>,
    /// Inline reactor-thread answers, decode to flush queue.
    pub fastpath: Arc<Histogram>,
    /// Replies per vectored write syscall — not a latency.
    pub flush_batch: Arc<Histogram>,
    /// Simulated seconds per runner wall second — dimensionless.
    pub sim_throughput: Arc<Histogram>,
    pub admission_waiting: Arc<Gauge>,
    pub admission_running: Arc<Gauge>,
    pub admission_stretch: Arc<Gauge>,
    pub pool_queue_depth: Arc<Gauge>,
    pub pool_busy_workers: Arc<Gauge>,
    pub cache_entries: Arc<Gauge>,
}

impl DaemonMetrics {
    pub fn new() -> DaemonMetrics {
        let registry = MetricsRegistry::new();
        DaemonMetrics {
            frame_parse: registry.latency("frame_parse"),
            cache_lookup: registry.latency("cache_lookup"),
            admission_wait: registry.latency("admission_wait"),
            run: registry.latency("run"),
            render: registry.latency("render"),
            job: registry.latency("job"),
            fastpath: registry.latency("fastpath"),
            flush_batch: registry.histogram("flush_batch", &FLUSH_BATCH_BUCKETS),
            sim_throughput: registry.histogram("sim_throughput", &SIM_THROUGHPUT_BUCKETS),
            admission_waiting: registry.gauge("admission_waiting"),
            admission_running: registry.gauge("admission_running"),
            admission_stretch: registry.gauge("admission_stretch"),
            pool_queue_depth: registry.gauge("pool_queue_depth"),
            pool_busy_workers: registry.gauge("pool_busy_workers"),
            cache_entries: registry.gauge("cache_entries"),
            registry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member_stats(accepted: u64, done: u64, queued: u64, hits: u64) -> Stats {
        Stats {
            accepted,
            done,
            queued,
            bad_requests: 1,
            coalesced: 2,
            fastpath_hits: hits,
            queue_depth: queued,
            cache: CacheStats { hits, misses: 3, evictions: 0, entries: 4, cap: 256 },
            conns: ConnStats { open: 1, accepted, idle_closed: 2 },
            suite_seconds: [("fig5".to_string(), 1.5)].into(),
            workers: 4,
            journal: Some(JournalStats { appended: 5, compactions: 1, ..JournalStats::default() }),
            ..Stats::default()
        }
    }

    #[test]
    fn merged_stats_sum_counters_and_keep_the_member_shape() {
        let m = Stats::merge(&[member_stats(5, 3, 2, 7), member_stats(10, 10, 0, 1)]);
        assert_eq!((m.accepted, m.done, m.queued, m.bad_requests), (15, 13, 2, 2));
        assert_eq!((m.fastpath_hits, m.workers, m.members), (8, 8, Some(2)));
        assert_eq!(m.cache.hits, 8);
        assert_eq!(m.conns, ConnStats { open: 2, accepted: 15, idle_closed: 4 });
        assert_eq!(m.suite_seconds["fig5"], 3.0);
        assert_eq!(m.journal.as_ref().map(|j| j.appended), Some(10));
        // Each member satisfies the invariant, so the sum does too.
        assert_eq!(m.accepted, m.done + m.rejected + m.queued + m.running);
    }

    #[test]
    fn journals_merge_over_the_durable_members_and_stay_null_without_one() {
        let memory_only = Stats { journal: None, ..member_stats(1, 1, 0, 0) };
        let m = Stats::merge(&[memory_only.clone(), memory_only.clone()]);
        assert_eq!(m.journal, None);
        assert!(m.to_string().contains("\"journal\":null,"));
        let m = Stats::merge(&[memory_only, member_stats(1, 1, 0, 0)]);
        assert_eq!(m.journal.map(|j| j.appended), Some(5));
    }

    #[test]
    fn counters_print_as_integers_and_parse_back_to_the_same_bytes() {
        let mut s = member_stats(5, 3, 2, 7);
        s.draining = true;
        s.members = Some(2);
        s.router = Some(RouterStats { forwarded: 9, members_alive: 2, ..RouterStats::default() });
        let text = s.to_string();
        assert!(text.starts_with("{\"accepted\":5,\"rejected\":0,"), "{text}");
        assert!(text.contains("\"members\":2,\"router\":{\"forwarded\":9,"), "{text}");
        let back = Stats::from_json(&Json::parse(&text).unwrap());
        assert_eq!(back, s);
        assert_eq!(back.to_string(), text);
        // Members absent from a document read as zero, not as an error.
        let sparse = Stats::from_json(&Json::parse("{\"done\":4}").unwrap());
        assert_eq!((sparse.done, sparse.accepted, sparse.journal), (4, 0, None));
    }

    fn member_metrics(done: u64, runs: u64, stretch: f64) -> Metrics {
        let job = Histogram::new(&[1.0, 2.0]);
        for _ in 0..done {
            job.observe(0.25);
        }
        Metrics {
            stats: Stats { accepted: done, done, ..Stats::default() },
            gauges: [("admission_stretch".to_string(), stretch), ("pool_queue_depth".into(), 1.0)]
                .into(),
            latency: [("job".to_string(), job.snapshot())].into(),
            suites: [(
                "toy".to_string(),
                SuiteRow { runs: runs as f64, sim_seconds: 1.0, avg_stretch: stretch },
            )]
            .into(),
            reconciled: true,
        }
    }

    #[test]
    fn merged_metrics_reconcile_and_reweight_ratios_by_runs() {
        let m = Metrics::merge(&[member_metrics(2, 2, 1.0), member_metrics(6, 6, 2.0)]);
        assert!(m.reconciled);
        assert_eq!(m.stats.done, 8);
        assert_eq!(m.latency["job"].count, 8);
        // Occupancy gauges sum; the ratio gauge and the suite stretch are
        // (2·1.0 + 6·2.0) / 8 = 1.75 — run-weighted, not summed.
        assert_eq!(m.gauges["pool_queue_depth"], 2.0);
        assert_eq!(m.gauges["admission_stretch"], 1.75);
        assert_eq!(m.suites["toy"], SuiteRow { runs: 8.0, sim_seconds: 2.0, avg_stretch: 1.75 });
        // Idle members (zero completed jobs) fall back to the plain mean.
        let m = Metrics::merge(&[member_metrics(0, 0, 2.0), member_metrics(0, 0, 1.0)]);
        assert_eq!(m.gauges["admission_stretch"], 1.5);
    }

    #[test]
    fn a_lying_member_breaks_cluster_reconciliation() {
        let mut liar = member_metrics(1, 1, 1.0);
        liar.reconciled = false;
        assert!(!Metrics::merge(&[liar]).reconciled);
        let mut miscounted = member_metrics(1, 1, 1.0);
        miscounted.stats.done = 2;
        assert!(!Metrics::merge(&[miscounted]).reconciled);
        assert!(!Metrics::merge(&[]).reconciled);
    }

    #[test]
    fn mismatched_histograms_are_skipped_not_merged() {
        let mut odd = member_metrics(1, 1, 1.0);
        odd.latency.insert("job".into(), Histogram::new(&[5.0]).snapshot());
        let m = Metrics::merge(&[member_metrics(3, 3, 1.0), odd]);
        assert_eq!(m.latency["job"].bounds, vec![1.0, 2.0]);
        assert_eq!(m.latency["job"].count, 3);
    }

    #[test]
    fn metrics_parse_back_to_the_same_bytes() {
        let m = Metrics::merge(&[member_metrics(2, 2, 1.0), member_metrics(6, 6, 2.0)]);
        let text = m.to_string();
        // Suite rows print their run count through `Json::Num`.
        assert!(text.contains("\"toy\":{\"runs\":8.0,"), "{text}");
        let back = Metrics::from_json(&Json::parse(&text).unwrap());
        assert_eq!(back, m);
        assert_eq!(back.reply(), format!("{{\"ok\":true,\"metrics\":{text}}}"));
    }
}
