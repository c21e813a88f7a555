//! Tests of the benchmark's own statistics, span arithmetic and result
//! schema. Run with `cargo test` in the benchmark's directory.

use ifair_perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use ifair_perfbench::stats::{self, Sample};
use ifair_perfbench::trace::{self_times, Span, Tracer};
use serde::Value;
use std::time::{Duration, Instant};

#[test]
fn nearest_rank_uses_exact_integer_arithmetic() {
    // ceil(0.99 · 1000) is 990, not 991 from a float rounding up.
    assert_eq!(stats::nearest_rank(1000, 990), 990);
    assert_eq!(stats::nearest_rank(1001, 990), 991);
    assert_eq!(stats::nearest_rank(20, 500), 10);
    assert_eq!(stats::nearest_rank(1, 999), 1);
    assert_eq!(stats::beyond(1000, 990), 10);
    assert_eq!(stats::beyond(999, 990), 9);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(stats::tail_per_mille(1000, 999), Some(990));
    // One sample short of p99: fall back to p90.
    assert_eq!(stats::tail_per_mille(999, 999), Some(900));
    assert_eq!(stats::tail_per_mille(100, 999), Some(900));
    assert_eq!(stats::tail_per_mille(99, 999), Some(500));
    assert_eq!(stats::tail_per_mille(20, 999), Some(500));
    // Fewer than 20 samples support no percentile at all.
    assert_eq!(stats::tail_per_mille(19, 999), None);
    assert_eq!(stats::tail_per_mille(0, 999), None);
    // p99.9 is supported from 10 000 samples, unless capped.
    assert_eq!(stats::tail_per_mille(10_000, 999), Some(999));
    assert_eq!(stats::tail_per_mille(10_000, 990), Some(990));
}

#[test]
fn percentile_and_median_pick_the_right_samples() {
    let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(stats::percentile(&sorted, 990), 990.0);
    assert_eq!(stats::percentile(&sorted, 500), 500.0);
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(stats::median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn mean_of_medians_summarizes_each_kind_alone() {
    // A bimodal mix: the pooled median would sit on one mode's edge.
    let fast = vec![10.0, 11.0, 12.0];
    let slow = vec![100.0, 110.0, 120.0];
    assert_eq!(
        stats::mean_of_medians(&[fast.clone(), slow]),
        (11.0 + 110.0) / 2.0
    );
    // A kind without samples is skipped, not counted as zero.
    assert_eq!(stats::mean_of_medians(&[fast, Vec::new()]), 11.0);
}

#[test]
fn windows_group_by_completion_time_and_drop_the_overrun() {
    let sample = |at_ns: u64, kind: usize, value: f64| Sample { at_ns, kind, value };
    let samples = [
        sample(100, 0, 1.0),
        sample(900, 1, 3.0),
        sample(1_000, 0, 5.0),
        sample(1_500, 1, 7.0),
        // Completed after the last full window: left out.
        sample(2_000, 0, 100.0),
    ];
    let windows = stats::windows(&samples, 1_000, 2);
    assert_eq!(windows.len(), 2);
    assert_eq!(windows[0].len(), 2);
    assert_eq!(windows[1].len(), 2);
    assert_eq!(stats::window_p50s(&windows, 2), vec![2.0, 6.0]);
}

#[test]
fn window_tails_skip_windows_too_small_for_the_percentile() {
    let window = |n: u64, at: u64| -> Vec<Sample> {
        (1..=n)
            .map(|v| Sample {
                at_ns: at,
                kind: 0,
                value: v as f64,
            })
            .collect()
    };
    // 1 000 samples support p99 (10 beyond); 999 do not.
    let windows = [window(1000, 0), window(999, 1), window(2000, 2)];
    assert_eq!(stats::window_tails(&windows, 990), vec![990.0, 1980.0]);
    assert!(stats::window_tails(&[window(50, 0)], 990).is_empty());
}

#[test]
fn residual_closes_the_breakdown_exactly() {
    let total = 100.0;
    let layers = [1.5, 20.25, 3.0, 0.25];
    let residual = stats::residual(total, &layers);
    assert_eq!(residual, 75.0);
    assert_eq!(layers.iter().sum::<f64>() + residual, total);
    // Layers that exceed the total leave a negative residual, not a
    // clamped one, so the sum still holds.
    assert_eq!(stats::residual(10.0, &[6.0, 6.0]), -2.0);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        req: 7,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
    let spans = [
        span("root", 0, 100, None),
        span("a", 10, 30, Some(0)),
        // Overlaps `a`: only 30..40 is new cover.
        span("b", 20, 40, Some(0)),
        // Runs past the parent's end: clipped at 100.
        span("c", 90, 120, Some(0)),
        span("leaf", 12, 18, Some(1)),
    ];
    assert_eq!(self_times(&spans), vec![100 - 30 - 10, 20 - 6, 20, 30, 6]);
}

#[test]
fn absorbing_a_tracer_rebases_parent_indices() {
    let epoch = Instant::now();
    let later = epoch + Duration::from_micros(5);
    let mut a = Tracer::new(epoch);
    a.record("x", epoch, later, None, 1);
    let mut b = Tracer::new(epoch);
    let root = b.record("root", epoch, later, None, 2);
    b.record("child", epoch, later, Some(root), 2);
    a.absorb(b);
    let spans = a.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[2].parent, Some(1));
    assert_eq!(spans[1].dur_ns(), 5_000);
}

fn object(v: &Value) -> Vec<(String, Value)> {
    v.as_object().expect("an object").to_vec()
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let mut outcome = Outcome::default();
    outcome.tally(true);
    outcome.tally(false);
    outcome.set("req_p50_us", 81.25);
    outcome.set("setup_s", 0.123456789);
    let line = outcome.to_json_line(&END_TO_END).expect("finite values");
    let parsed: Value = serde_json::from_str(&line).expect("valid JSON");
    let keys: Vec<String> = object(&parsed).into_iter().map(|(k, _)| k).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(parsed.field("correct").unwrap(), &Value::Bool(false));
    assert_eq!(parsed.field("attempted").unwrap().as_int().unwrap(), 2);
    assert_eq!(parsed.field("failed").unwrap().as_int().unwrap(), 1);
    let metrics = object(parsed.field("metrics").unwrap());
    assert_eq!(metrics.len(), END_TO_END.len());
    for ((name, metric), &(want_name, want_unit)) in metrics.iter().zip(END_TO_END.iter()) {
        assert_eq!(name, want_name);
        let fields: Vec<String> = object(metric).into_iter().map(|(k, _)| k).collect();
        assert_eq!(fields, ["value", "unit"]);
        assert_eq!(metric.field("unit").unwrap().as_str().unwrap(), want_unit);
    }
    // Values keep all their digits.
    let setup = parsed.field("metrics").unwrap().field("setup_s").unwrap();
    assert_eq!(setup.field("value").unwrap().as_f64().unwrap(), 0.123456789);
}

#[test]
fn a_clean_outcome_is_correct_and_non_finite_values_are_refused() {
    let mut outcome = Outcome::default();
    outcome.tally(true);
    let line = outcome.to_json_line(&PER_LAYER).unwrap();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
    outcome.set("trace.overhead_pct", f64::NAN);
    assert!(outcome.to_json_line(&PER_LAYER).is_err());
    // Nothing attempted is never correct.
    assert!(Outcome::default()
        .to_json_line(&END_TO_END)
        .unwrap()
        .starts_with("{\"correct\": false"));
}

/// `BENCHMARK.json` at the repository root declares the same metrics, in
/// the same order and units, as the program reports.
#[test]
fn benchmark_json_matches_the_reported_schema() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec: Value = serde_json::from_str(&text).expect("valid JSON");
    for (key, schema) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let declared: Vec<(String, String)> = spec
            .field(key)
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.field("name").unwrap().as_str().unwrap().to_string(),
                    m.field("unit").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect();
        let reported: Vec<(String, String)> = schema
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared, reported, "{key}");
    }
    let workloads: Vec<&str> = spec
        .field("workloads")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w.field("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(workloads, ["serve-small", "serve-bulk", "fit-shards"]);
}
