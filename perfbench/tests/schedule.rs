//! The open-loop schedule is a pure function of the seed.

use std::time::Duration;

use perfbench::schedule::{poisson, stream_seed};

#[test]
fn same_seed_same_schedule() {
    let a = poisson(42, 1500.0, Duration::from_secs(2));
    let b = poisson(42, 1500.0, Duration::from_secs(2));
    assert_eq!(a, b);
    assert_ne!(a, poisson(43, 1500.0, Duration::from_secs(2)));
}

#[test]
fn schedule_is_ordered_in_span_and_near_its_rate() {
    let span = Duration::from_secs(10);
    let s = poisson(7, 1000.0, span);
    assert!(s.windows(2).all(|w| w[0] <= w[1]));
    assert!(s.iter().all(|&t| t < span.as_nanos() as u64));
    // 10,000 expected arrivals; a Poisson count is within 5 sigma (500).
    assert!((9_500..=10_500).contains(&s.len()), "{} arrivals", s.len());
}

#[test]
fn stream_seeds_differ_by_purpose() {
    assert_eq!(stream_seed(1, 2), stream_seed(1, 2));
    assert_ne!(stream_seed(1, 2), stream_seed(1, 3));
    assert_ne!(stream_seed(1, 2), stream_seed(2, 2));
}
