//! The result line: whole-number counts, every metric with its unit.

use ncar_suite::Json;
use perfbench::report::{metric, Outcome};

#[test]
fn result_line_is_json_with_whole_counts() {
    let out = Outcome {
        attempted: 1000,
        failed: 0,
        errors: Vec::new(),
        metrics: vec![metric("latency_ms", "ms", 1.2034), metric("setup_s", "s", 0.8127)],
    };
    let line = out.json_line();
    assert!(line.contains("\"attempted\": 1000,"), "{line}");
    let doc = Json::parse(&line).expect("the result line is JSON");
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    let m = doc.get("metrics").and_then(|m| m.get("latency_ms")).expect("metric present");
    assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.2034));
    assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
}

#[test]
fn failures_or_errors_make_the_run_incorrect() {
    let failed = Outcome { attempted: 10, failed: 1, ..Outcome::default() };
    assert!(!failed.correct());
    let errored = Outcome { attempted: 10, errors: vec!["x".into()], ..Outcome::default() };
    assert!(!errored.correct());
    assert!(!Outcome::default().correct(), "nothing attempted is not a result");
}
