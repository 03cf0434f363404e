//! Percentile maths: the median, and the tail rule (a percentile is only
//! reported with at least ten samples beyond it).

use perfbench::stats::{beyond, latency, median, tail_quantile, MIN_TAIL};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[7.0]), Some(7.0));
    assert_eq!(median(&[9.0, 1.0, 2.0]), Some(2.0));
    // Even counts average the middle pair, whatever the input order.
    assert_eq!(median(&[100.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn nearest_rank_percentiles() {
    // 1..=1000 ms in shuffled order: the median is the 500th sample and
    // p99 the 990th, with exactly ten samples beyond it.
    let mut ns: Vec<u64> = (1..=1000u64).map(|i| (i * 7919 % 1000 + 1) * 1_000_000).collect();
    let l = latency(&mut ns).unwrap();
    assert_eq!((l.p50_ms, l.tail_q, l.tail_ms), (500.0, 0.99, 990.0));
    assert_eq!(beyond(1000, 0.99), 10);
    assert_eq!(beyond(999, 0.99), 9);
}

#[test]
fn p99_needs_ten_samples_beyond_it() {
    // 1000 samples leave exactly ten beyond p99: reported as p99.
    assert_eq!(tail_quantile(1000, 0.99), Some(0.99));
    // With fewer, the tail drops to the highest percentile that still has
    // ten beyond it, and never below the median.
    let q = tail_quantile(500, 0.99).unwrap();
    assert!(q < 0.99);
    assert_eq!(beyond(500, q), MIN_TAIL);
    assert_eq!(tail_quantile(20, 0.99), None);
    assert_eq!(tail_quantile(0, 0.99), None);
}

#[test]
fn latency_summary_in_milliseconds() {
    let mut ns: Vec<u64> = (1..=2000u64).rev().map(|i| i * 1_000).collect();
    let l = latency(&mut ns).unwrap();
    assert_eq!(l.n, 2000);
    assert_eq!(l.tail_q, 0.99);
    assert_eq!(l.p50_ms, 1.0);
    assert_eq!(l.tail_ms, 1.98);
    assert!(latency(&mut [1, 2, 3]).is_none());
}
