//! Order statistics for the reported figures.
//!
//! A timing is reported as a median and a high percentile. A percentile is
//! only reported when at least [`MIN_TAIL`] samples lie beyond it: with
//! fewer, the figure is one or two outliers, not a tail.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Median of `xs`: the middle value, or the mean of the middle pair for
/// an even count. `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len().is_multiple_of(2) { 0.5 * (v[mid - 1] + v[mid]) } else { v[mid] })
}

/// Samples beyond the nearest-rank `q` percentile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// The highest percentile up to `want` that has at least [`MIN_TAIL`]
/// samples beyond it among `n`, or `None` when even the median does not.
pub fn tail_quantile(n: usize, want: f64) -> Option<f64> {
    if beyond(n, want) >= MIN_TAIL {
        return Some(want);
    }
    if n <= 2 * MIN_TAIL {
        return None;
    }
    // Nearest rank n - MIN_TAIL leaves exactly MIN_TAIL samples beyond.
    let q = (n - MIN_TAIL) as f64 / n as f64;
    (q >= 0.5).then_some(q)
}

/// A latency summary: median and tail of a set of nanosecond samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub n: usize,
    pub p50_ms: f64,
    /// The tail percentile actually reported (0.99 when the count allows).
    pub tail_q: f64,
    pub tail_ms: f64,
}

/// Summarize nanosecond samples as nearest-rank median and the highest
/// percentile up to p99 that has [`MIN_TAIL`] samples beyond it (the
/// smallest sample with at least that share of the samples at or below it). `None` when there are
/// too few samples for any tail. Reorders `samples` (selection, not a
/// full sort, so a summary is cheap enough to take mid-run).
pub fn latency(samples: &mut [u64]) -> Option<Latency> {
    let tail_q = tail_quantile(samples.len(), 0.99)?;
    let mut at = |q: f64| {
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        *samples.select_nth_unstable(rank - 1).1 as f64 / 1e6
    };
    let tail_ms = at(tail_q);
    let p50_ms = at(0.5);
    Some(Latency { n: samples.len(), p50_ms, tail_q, tail_ms })
}

/// Median, over `segments` equal slices of `span_ns`, of each slice's
/// latency summary. `samples` are `(offset_ns, latency_ns)` pairs. One
/// disturbed slice moves the result by one rank instead of setting the
/// tail. `None` when any slice is too small for a tail.
pub fn segmented_latency(samples: &[(u64, u64)], span_ns: u64, segments: usize) -> Option<Latency> {
    let mut slices: Vec<Vec<u64>> = vec![Vec::new(); segments];
    for &(at, ns) in samples {
        let i = (at as u128 * segments as u128 / span_ns.max(1) as u128) as usize;
        slices[i.min(segments - 1)].push(ns);
    }
    let summaries: Vec<Latency> = slices.iter_mut().map(|s| latency(s)).collect::<Option<_>>()?;
    let tail_q = summaries.iter().map(|l| l.tail_q).fold(1.0, f64::min);
    Some(Latency {
        n: samples.len(),
        p50_ms: median(&summaries.iter().map(|l| l.p50_ms).collect::<Vec<_>>())?,
        tail_q,
        tail_ms: median(&summaries.iter().map(|l| l.tail_ms).collect::<Vec<_>>())?,
    })
}
