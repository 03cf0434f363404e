//! Content-addressed result cache with LRU eviction.
//!
//! Keys come from [`crate::proto::cache_key`]. Each entry holds the
//! rendered *hit line* — `submit_reply(true, key, payload)`, the exact
//! reply a cache hit sends — as a shared `Arc<str>`, rendered once when
//! the result is inserted. A hit ([`ResultCache::probe`] or
//! [`ResultCache::get`]) is then a reference-count bump: the reactor
//! queues that same `Arc` for the socket, so the payload is never copied
//! between the cache and the wire. Payloads are stored verbatim inside
//! the line, so a hit replays the exact bytes of the run that populated
//! it (the determinism tests rely on this), and
//! [`ResultCache::entries_lru`] recovers them with
//! [`crate::proto::parse_submit_reply`].
//!
//! Recency is O(1) per operation: every touch stamps the entry with a
//! fresh monotonic sequence number and appends `(seq, key)` to the order
//! queue without removing the old position. Eviction pops from the front,
//! lazily skipping stale stamps (entries whose stamp no longer matches the
//! map — they were touched again later, or already evicted). The queue is
//! compacted whenever stale stamps outnumber live entries, so the per-hit
//! cost that used to be an O(n) `VecDeque` scan is now amortized constant.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::proto::{parse_submit_reply, submit_reply};

#[derive(Debug)]
struct Entry {
    /// The rendered hit line (see module docs).
    line: Arc<str>,
    /// The sequence number of this entry's newest stamp in `order`.
    seq: u64,
}

/// Bounded map from run identity to its rendered hit reply.
#[derive(Debug)]
pub struct ResultCache {
    cap: usize,
    map: HashMap<u64, Entry>,
    /// `(seq, key)` stamps from oldest to newest. A key may appear many
    /// times; only the stamp matching `map[key].seq` is live.
    order: VecDeque<(u64, u64)>,
    next_seq: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResultCache {
    /// A cache holding at most `cap` results (`cap == 0` disables caching
    /// but still counts misses).
    pub fn new(cap: usize) -> ResultCache {
        ResultCache {
            cap,
            map: HashMap::new(),
            order: VecDeque::new(),
            next_seq: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up a result's hit line, counting a hit or miss and refreshing
    /// recency.
    pub fn get(&mut self, key: u64) -> Option<Arc<str>> {
        let hit = self.probe(key);
        if hit.is_none() {
            self.misses += 1;
        }
        hit
    }

    /// Fast-path lookup: counts a hit and refreshes recency when the key
    /// is present but — unlike [`ResultCache::get`] — records nothing on
    /// absence. The reactor-thread fast path probes before deciding
    /// whether to dispatch; a declined probe falls through to the
    /// dispatcher, whose own `get` counts the miss exactly once.
    pub fn probe(&mut self, key: u64) -> Option<Arc<str>> {
        let line = Arc::clone(&self.map.get(&key)?.line);
        self.hits += 1;
        self.touch(key);
        Some(line)
    }

    /// Insert (or refresh) a result payload, rendering its hit line, and
    /// evict the least-recently used entry when full.
    pub fn insert(&mut self, key: u64, payload: impl AsRef<str>) {
        if self.cap == 0 {
            return;
        }
        let line: Arc<str> = submit_reply(true, key, payload.as_ref()).into();
        match self.map.get_mut(&key) {
            Some(e) => {
                e.line = line;
                self.touch(key);
                return;
            }
            None => {
                self.next_seq += 1;
                self.map.insert(key, Entry { line, seq: self.next_seq });
                self.order.push_back((self.next_seq, key));
            }
        }
        while self.map.len() > self.cap {
            match self.order.pop_front() {
                Some((seq, old)) => {
                    // Live stamp: this really is the LRU entry. A stale
                    // stamp (seq mismatch) is debris from a later touch.
                    if self.map.get(&old).is_some_and(|e| e.seq == seq) {
                        self.map.remove(&old);
                        self.evictions += 1;
                    }
                }
                None => break, // unreachable: every live entry has a stamp
            }
        }
        self.maybe_compact();
    }

    /// O(1): restamp the entry and append; the old stamp goes stale.
    fn touch(&mut self, key: u64) {
        if let Some(e) = self.map.get_mut(&key) {
            self.next_seq += 1;
            e.seq = self.next_seq;
            self.order.push_back((self.next_seq, key));
        }
        self.maybe_compact();
    }

    /// Drop stale stamps once they dominate, keeping the queue within a
    /// constant factor of the live set (amortized O(1) per operation).
    fn maybe_compact(&mut self) {
        if self.order.len() > (2 * self.map.len()).max(16) {
            let map = &self.map;
            self.order.retain(|&(seq, key)| map.get(&key).is_some_and(|e| e.seq == seq));
        }
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted to make room (not counting same-key refreshes).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Snapshot every live entry's payload in LRU order (least recently
    /// used first). This is the journal-compaction feed: replaying the
    /// snapshot oldest-first through [`ResultCache::insert`] rebuilds the
    /// same recency order, so eviction behaves identically across a
    /// restart.
    pub fn entries_lru(&self) -> Vec<(u64, String)> {
        let mut v: Vec<(u64, u64, &str)> =
            self.map.iter().map(|(k, e)| (e.seq, *k, &*e.line)).collect();
        v.sort_unstable_by_key(|&(seq, _, _)| seq);
        v.into_iter()
            .filter_map(|(_, k, line)| Some((k, parse_submit_reply(line)?.2.to_owned())))
            .collect()
    }

    #[cfg(test)]
    fn order_len(&self) -> usize {
        self.order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The payload inside a hit line, as it went into `insert`.
    fn payload(line: Option<Arc<str>>) -> Option<String> {
        line.map(|l| parse_submit_reply(&l).expect("a rendered hit line").2.to_owned())
    }

    #[test]
    fn hit_miss_accounting_and_verbatim_replay() {
        let mut c = ResultCache::new(4);
        assert_eq!(c.get(1), None);
        c.insert(1, "{\"x\":1}");
        assert_eq!(payload(c.get(1)).as_deref(), Some("{\"x\":1}"));
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn hits_share_the_line_rendered_once_at_insert() {
        let mut c = ResultCache::new(2);
        c.insert(0xabc, "{\"x\":1}");
        let a = c.probe(0xabc).unwrap();
        let b = c.get(0xabc).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "a hit clones the Arc, not the bytes");
        assert_eq!(&*a, submit_reply(true, 0xabc, "{\"x\":1}"));
        assert_eq!(c.entries_lru(), vec![(0xabc, "{\"x\":1}".to_string())]);
    }

    #[test]
    fn probe_counts_hits_but_never_misses() {
        let mut c = ResultCache::new(2);
        assert_eq!(c.probe(1), None);
        assert_eq!((c.hits(), c.misses()), (0, 0), "a declined probe is invisible");
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(payload(c.probe(1)).as_deref(), Some("a"));
        assert_eq!((c.hits(), c.misses()), (1, 0));
        // A probe refreshes recency exactly like `get`: 2 is now the LRU.
        c.insert(3, "c");
        assert!(c.probe(2).is_none());
        assert!(c.probe(1).is_some());
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = ResultCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        assert!(c.get(1).is_some()); // 1 is now MRU; 2 is LRU
        c.insert(3, "c");
        assert_eq!(c.len(), 2);
        assert!(c.get(2).is_none(), "LRU entry evicted");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn reinsert_refreshes_without_duplicating() {
        let mut c = ResultCache::new(2);
        c.insert(1, "a");
        c.insert(1, "a2");
        c.insert(2, "b");
        c.insert(3, "c");
        assert_eq!(c.len(), 2);
        assert!(c.get(1).is_none(), "oldest distinct key evicted exactly once");
        assert_eq!(payload(c.get(3)).as_deref(), Some("c"));
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut c = ResultCache::new(0);
        c.insert(1, "a");
        assert!(c.get(1).is_none());
        assert_eq!(c.misses(), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn repeated_hits_keep_the_order_queue_bounded() {
        // The regression the seq scheme fixes: every hit used to scan the
        // whole recency deque. Hammer one entry and make sure the lazy
        // stamps are compacted instead of accumulating without bound.
        let mut c = ResultCache::new(4);
        for k in 0..4 {
            c.insert(k, format!("v{k}"));
        }
        for _ in 0..10_000 {
            assert!(c.get(2).is_some());
        }
        assert!(
            c.order_len() <= 16.max(2 * c.len()),
            "order queue must stay within a constant factor of the live set, got {}",
            c.order_len()
        );
        // Recency is still correct after heavy touching: 2 is MRU.
        c.insert(4, "v4");
        c.insert(5, "v5");
        c.insert(6, "v6");
        assert!(c.get(2).is_some(), "hot entry must have survived the evictions");
    }

    /// Property test against a reference model: a naive ordered-list LRU
    /// driven by the same random insert/hit/evict churn. At every step the
    /// real cache must agree with the model on membership, values,
    /// counters and bounds; at the end, [`ResultCache::entries_lru`] must
    /// reproduce the model's exact recency order (the journal-compaction
    /// contract).
    #[test]
    fn random_churn_matches_reference_model_and_stays_bounded() {
        use ncar_suite::SmallRng;

        // The model: front = least recently used, back = most recent.
        struct Model {
            cap: usize,
            list: Vec<(u64, String)>,
            hits: u64,
            misses: u64,
            evictions: u64,
        }
        impl Model {
            fn get(&mut self, k: u64) -> Option<String> {
                match self.list.iter().position(|(mk, _)| *mk == k) {
                    Some(i) => {
                        self.hits += 1;
                        let e = self.list.remove(i);
                        let v = e.1.clone();
                        self.list.push(e);
                        Some(v)
                    }
                    None => {
                        self.misses += 1;
                        None
                    }
                }
            }
            fn insert(&mut self, k: u64, v: String) {
                if let Some(i) = self.list.iter().position(|(mk, _)| *mk == k) {
                    self.list.remove(i);
                    self.list.push((k, v));
                    return;
                }
                self.list.push((k, v));
                while self.list.len() > self.cap {
                    self.list.remove(0);
                    self.evictions += 1;
                }
            }
        }

        let mut rng = SmallRng::seed_from_u64(0x4c52_5543); // "LRUC"
        for trial in 0..20 {
            let cap = rng.range(1, 9);
            let keyspace = (rng.range(1, 4) * cap + 1) as u64;
            let mut real = ResultCache::new(cap);
            let mut model = Model { cap, list: Vec::new(), hits: 0, misses: 0, evictions: 0 };
            for step in 0..1000u64 {
                let k = rng.next_u64() % keyspace;
                if rng.next_below(3) == 0 {
                    let v = format!("t{trial}s{step}");
                    real.insert(k, v.clone());
                    model.insert(k, v);
                } else {
                    assert_eq!(
                        payload(real.get(k)),
                        model.get(k),
                        "trial {trial} step {step} key {k}"
                    );
                }
                assert!(real.len() <= cap, "capacity exceeded: {} > {cap}", real.len());
                assert!(
                    real.order_len() <= (2 * real.len()).max(16) + 1,
                    "order queue unbounded at trial {trial} step {step}: {}",
                    real.order_len()
                );
                assert_eq!(
                    (real.hits(), real.misses(), real.evictions()),
                    (model.hits, model.misses, model.evictions),
                    "counter drift at trial {trial} step {step}"
                );
            }
            assert_eq!(
                real.entries_lru(),
                model.list,
                "entries_lru must reproduce the model's recency order (trial {trial})"
            );
        }
    }

    #[test]
    fn lru_order_correct_under_interleaved_touches() {
        let mut c = ResultCache::new(3);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(3, "c");
        // Touch in the order 3, 1 — making 2 the LRU.
        assert!(c.get(3).is_some());
        assert!(c.get(1).is_some());
        c.insert(4, "d");
        assert!(c.get(2).is_none(), "2 was least recently used");
        assert!(c.get(1).is_some() && c.get(3).is_some() && c.get(4).is_some());
        assert_eq!(c.evictions(), 1);
    }
}
