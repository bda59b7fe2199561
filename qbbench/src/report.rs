//! Turns a run's phases into named metrics and the result line.

use crate::bench::{Phase, SetupTimes};
use crate::stats::{median, nearest_rank, ratio, us_per_op};

/// One reported number.  `value` is `None` where the workload has no such
/// operation (insert latency of a read-only workload).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: Option<f64>,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: Some(value),
        unit,
    }
}

/// The end-to-end metrics that every workload has, are never 0 and are
/// gated by a bound: the result line carries exactly these.  `read_p90_ms`
/// is printed but not gated: on a shared host its spread over seeds
/// exceeds any bound the benchmark may set.
pub const GATED_END_TO_END: [&str; 6] = [
    "setup_s",
    "ops_per_s",
    "cpu_us_per_op",
    "read_p50_ms",
    "wire_bytes_per_query",
    "peak_rss_mb",
];

fn median_of(setups: &[SetupTimes], f: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&setups.iter().map(f).collect::<Vec<_>>())
}

/// All ten end-to-end metrics of the untimed-tracing phase.  `failed`
/// and `attempted` cover every checked operation of the run.
/// `ops_per_s` and `read_p50_ms` are medians over the window's slices;
/// `read_p90_ms` and the insert percentiles cover the whole window.
pub fn end_to_end(
    setups: &[SetupTimes],
    phase: &Phase,
    attempted: u64,
    failed: u64,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let insert = |p: f64| (!phase.insert_ms.is_empty()).then(|| nearest_rank(&phase.insert_ms, p));
    vec![
        metric("setup_s", median_of(setups, |s| s.total_s), "s"),
        metric("ops_per_s", median(&phase.slices.ops_per_s), "1/s"),
        metric(
            "cpu_us_per_op",
            ratio(phase.cpu_s * 1e6, phase.ops() as f64),
            "us",
        ),
        metric("read_p50_ms", median(&phase.slices.read_p50_ms), "ms"),
        metric("read_p90_ms", nearest_rank(&phase.read_ms, 90.0), "ms"),
        Metric {
            name: "insert_p50_ms",
            value: insert(50.0),
            unit: "ms",
        },
        Metric {
            name: "insert_p90_ms",
            value: insert(90.0),
            unit: "ms",
        },
        metric(
            "wire_bytes_per_query",
            ratio(phase.cloud.total_bytes() as f64, phase.queries as f64),
            "B",
        ),
        metric(
            "error_ratio",
            ratio(failed as f64, attempted as f64),
            "ratio",
        ),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// The per-layer metrics of a traced phase, with the untraced phase
/// `reference` that gives the tracing overhead.
///
/// Times are span self-times per operation: `_per_op` divides by reads
/// plus inserts, `_per_query` by point queries, `_per_req` by requests
/// the daemons dispatched.
pub fn per_layer(setups: &[SetupTimes], reference: &Phase, traced: &Phase) -> Vec<Metric> {
    let spans = traced.spans.as_ref().expect("a traced phase records spans");
    let ops = traced.ops();
    let queries = traced.queries;
    let reqs = spans.count("daemon.dispatch");
    let cloud = &traced.cloud;
    let pool = &traced.pool;
    let per_query = |n: u64| ratio(n as f64, queries as f64);
    vec![
        metric(
            "core.binning_ms",
            median_of(setups, |s| s.binning_s) * 1e3,
            "ms",
        ),
        metric(
            "core.outsource_ms",
            median_of(setups, |s| s.outsource_s) * 1e3,
            "ms",
        ),
        metric(
            "core.plan_us_per_op",
            us_per_op(spans.self_ns("plan.compile"), ops),
            "us",
        ),
        metric(
            "core.episode_us_per_query",
            us_per_op(spans.prefix_ns("episode."), queries),
            "us",
        ),
        metric(
            "cloud.spawn_ms",
            median_of(setups, |s| s.spawn_s) * 1e3,
            "ms",
        ),
        metric(
            "cloud.cache_hit_ratio",
            ratio(
                traced.cache_hits as f64,
                (traced.cache_hits + traced.cache_misses) as f64,
            ),
            "ratio",
        ),
        metric(
            "cloud.cache_us_per_query",
            us_per_op(spans.prefix_ns("cache."), queries),
            "us",
        ),
        metric(
            "cloud.wire_call_us_per_op",
            us_per_op(spans.self_ns("wire.call"), ops),
            "us",
        ),
        metric(
            "cloud.wire_flush_us_per_op",
            us_per_op(spans.self_ns("wire.flush"), ops),
            "us",
        ),
        metric(
            "cloud.daemon_read_us_per_req",
            us_per_op(spans.self_ns("daemon.read"), reqs),
            "us",
        ),
        metric(
            "cloud.daemon_queue_wait_us_per_req",
            us_per_op(spans.self_ns("daemon.queue"), reqs),
            "us",
        ),
        metric(
            "cloud.daemon_worker_us_per_req",
            us_per_op(spans.self_ns("daemon.worker"), reqs),
            "us",
        ),
        metric(
            "cloud.daemon_dispatch_us_per_req",
            us_per_op(spans.self_ns("daemon.dispatch"), reqs),
            "us",
        ),
        metric(
            "cloud.dispatch_us_per_req",
            us_per_op(spans.self_ns("cloud.dispatch"), reqs),
            "us",
        ),
        metric(
            "cloud.daemon_requests",
            traced.daemon_requests as f64,
            "count",
        ),
        metric(
            "cloud.daemon_request_errors",
            traced.daemon_errors as f64,
            "count",
        ),
        metric("cloud.reconnects", traced.reconnects as f64, "count"),
        metric(
            "cloud.encrypted_tuples_scanned_per_query",
            per_query(cloud.encrypted_tuples_scanned),
            "count",
        ),
        metric(
            "cloud.plaintext_tuples_scanned_per_query",
            per_query(cloud.plaintext_tuples_scanned),
            "count",
        ),
        metric(
            "cloud.tuples_returned_per_query",
            per_query(cloud.tuples_returned),
            "count",
        ),
        metric(
            "cloud.fake_tuples_returned_per_query",
            per_query(cloud.fake_tuples_returned),
            "count",
        ),
        metric(
            "cloud.round_trips_per_query",
            per_query(cloud.round_trips),
            "count",
        ),
        metric(
            "systems.engine_us_per_query",
            us_per_op(spans.prefix_ns("engine."), queries),
            "us",
        ),
        metric(
            "crypto.owner_decryptions_per_query",
            per_query(traced.owner.owner_decryptions),
            "count",
        ),
        metric(
            "crypto.owner_encryptions_setup",
            median_of(setups, |s| s.owner_encryptions as f64),
            "count",
        ),
        metric(
            "proto.encode_us_per_op",
            us_per_op(spans.self_ns("frame.encode"), ops),
            "us",
        ),
        metric(
            "proto.decode_us_per_op",
            us_per_op(spans.self_ns("frame.decode"), ops),
            "us",
        ),
        metric(
            "proto.pool_hit_ratio",
            ratio(pool.hits as f64, (pool.hits + pool.misses) as f64),
            "ratio",
        ),
        metric(
            "proto.reader_grows_per_query",
            per_query(pool.reader_grows),
            "count",
        ),
        metric(
            "proto.frames_per_query",
            per_query(cloud.wire_frames),
            "count",
        ),
        metric("trace.dropped_spans", spans.dropped() as f64, "count"),
        metric("trace.untraced_ops_per_s", reference.ops_per_s(), "1/s"),
        metric("trace.traced_ops_per_s", traced.ops_per_s(), "1/s"),
        metric(
            "trace.ops_per_s_ratio",
            ratio(traced.ops_per_s(), reference.ops_per_s()),
            "ratio",
        ),
    ]
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the `metrics`
/// object, in that order.  Metrics without a value are left out.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter_map(|m| {
            m.value.map(|v| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(v),
                    m.unit
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// One aligned `name = value unit` line per metric.
pub fn table(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| match m.value {
            Some(v) => format!("  {:<42} {:>14.4} {}\n", m.name, v, m.unit),
            None => format!("  {:<42} {:>14} {}\n", m.name, "n/a", m.unit),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Slices;

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            10,
            0,
            &[
                metric("ops_per_s", 1234.5, "1/s"),
                Metric {
                    name: "insert_p50_ms",
                    value: None,
                    unit: "ms",
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn end_to_end_uses_slice_medians_and_nearest_rank() {
        let mut phase = Phase {
            wall_s: 2.0,
            cpu_s: 0.01,
            queries: 20,
            read_ms: (1..=20).map(f64::from).collect(),
            slices: Slices {
                ops_per_s: vec![9.0, 30.0, 10.0],
                read_p50_ms: vec![10.0, 7.0, 12.0, 11.0],
            },
            ..Phase::default()
        };
        phase.cloud.bytes_uploaded = 300;
        phase.cloud.bytes_downloaded = 700;
        let setups = [SetupTimes {
            total_s: 0.5,
            ..SetupTimes::default()
        }];
        let m = end_to_end(&setups, &phase, 25, 1, 12.0);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(m.len(), 10);
        assert_eq!(get("ops_per_s"), Some(10.0));
        assert_eq!(get("cpu_us_per_op"), Some(500.0));
        assert_eq!(get("read_p50_ms"), Some(10.5));
        assert_eq!(get("read_p90_ms"), Some(18.0));
        assert_eq!(get("insert_p50_ms"), None);
        assert_eq!(get("wire_bytes_per_query"), Some(50.0));
        assert_eq!(get("error_ratio"), Some(0.04));
        for name in GATED_END_TO_END {
            assert!(get(name).is_some_and(|v| v > 0.0), "{name} must be nonzero");
        }
    }
}
