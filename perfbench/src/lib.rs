//! # perfbench
//!
//! The repository benchmark: three seeded workloads run against the
//! public API, every answer checked, and one JSON result line per run.
//! See `perfbench/README.md` for the metrics, the layer → metric →
//! workload table and how to run it.

pub mod analytic;
pub mod common;
pub mod durable_write;
pub mod probes;
pub mod serve_mix;
pub mod trace;

pub use common::{Opts, Report};

use std::fmt::Write as _;

/// The workloads, in the order `--workload all` runs them, with why
/// each is in the benchmark.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "serve-mix",
        "per-request cost over the wire: client, wire, server, plan cache, parser and index seek \
         under closed-loop client connections",
    ),
    (
        "analytic",
        "operator cost: scans, expands, partial aggregation, multiway intersection and projection \
         on seven named read queries",
    ),
    (
        "durable-write",
        "the commit path with reads beside it: copy-on-write, WAL and fsync, group commit, view \
         fold and compaction",
    ),
];

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 10;

/// Persons in the generated graph.
pub const NODES: usize = 100_000;

/// End-to-end metrics every untraced run reports: name, unit, which
/// direction is better, and the share of the parent's median by which
/// the metric may worsen before a change counts as a regression.
pub const END_TO_END: [(&str, &str, &str, f64); 7] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("read_p50_us", "us", "lower", 0.25),
    ("read_p95_us", "us", "lower", 0.25),
    ("query_geomean_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("disk_mb", "MB", "lower", 0.1),
];

/// The seven named queries of the analytic workload.
pub const ANALYTIC_QUERIES: [(&str, &str); 7] = [
    ("count_all", "MATCH (n:Person) RETURN count(*) AS c"),
    (
        "filter_count",
        "MATCH (n:Person) WHERE n.v = 5 RETURN count(*) AS c",
    ),
    (
        "expand_group",
        "MATCH (a:Person)-[:FOLLOWS]->(b) RETURN b.v AS v, count(*) AS c",
    ),
    (
        "two_hop",
        "MATCH (a:Person)-[:FOLLOWS]->(b)-[:FOLLOWS]->(c) WHERE a.i < 2000 RETURN count(*) AS c",
    ),
    (
        "triangle",
        "MATCH (a:Person)-[:FOLLOWS]->(b)-[:FOLLOWS]->(c), (a)-[:FOLLOWS]->(c) \
         WHERE a.i < 5000 RETURN count(*) AS c",
    ),
    (
        "topk",
        "MATCH (a:Person)-[:FOLLOWS]->(b:Bot) RETURN b.i AS i, count(*) AS c \
         ORDER BY c DESC, i LIMIT 10",
    ),
    (
        "return_rows",
        "MATCH (n:Person) RETURN n.i AS i, n.name AS name",
    ),
];

/// Per-layer metrics of the client and server, which only `serve-mix`
/// goes through.
const WIRE_PATH: [&str; 4] = [
    "client.connect_us",
    "client.prepare_us",
    "server.overhead_us",
    "server.requests_per_op",
];

/// Per-layer metrics of the commit path, which only `durable-write`
/// takes.
const COMMIT_PATH: [&str; 6] = [
    "cypher.commit_group_size_mean",
    "cypher.seal_us_p50",
    "cypher.view_refresh_us_p50",
    "cypher.view_delta_rows",
    "cypher.view_full_recomputes",
    "storage.compactions",
];

/// Per-layer metrics of the seven analytic queries, which only
/// `analytic` runs.
fn per_query() -> Vec<(String, &'static str, &'static str)> {
    let mut m = Vec::new();
    for (q, _) in ANALYTIC_QUERIES {
        m.push((format!("engine.q.{q}_ms"), "ms", "lower"));
        m.push((format!("engine.op.{q}.rows"), "count", "lower"));
        m.push((format!("engine.op.{q}.time_us"), "us", "lower"));
        m.push((
            format!("engine.rows_examined_per_result.{q}"),
            "ratio",
            "lower",
        ));
        m.push((format!("engine.qerror_max.{q}"), "ratio", "lower"));
        m.push((format!("engine.morsels.{q}"), "count", "lower"));
        m.push((format!("engine.parallel_runs.{q}"), "count", "lower"));
        m.push((format!("engine.intersect_probes.{q}"), "count", "lower"));
        m.push((format!("engine.profile_gap_pct.{q}"), "%", "lower"));
    }
    m
}

/// Per-layer metrics every traced run reports: name, unit, which
/// direction is better. A workload whose path does not reach a metric's
/// layer (`not_on_path`) reports 0 for it.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut m: Vec<(String, &'static str, &'static str)> = [
        ("client.connect_us", "us", "lower"),
        ("client.prepare_us", "us", "lower"),
        ("wire.codec_us", "us", "lower"),
        ("wire.response_bytes", "B", "lower"),
        ("server.overhead_us", "us", "lower"),
        ("server.requests_per_op", "count", "lower"),
        ("parser.parse_us", "us", "lower"),
        ("cypher.plan_cache_hit_ratio", "ratio", "higher"),
        ("cypher.plan_cache_evictions", "count", "lower"),
        ("cypher.dispatch_us", "us", "lower"),
        ("cypher.commit_group_size_mean", "count", "higher"),
        ("cypher.seal_us_p50", "us", "lower"),
        ("cypher.view_refresh_us_p50", "us", "lower"),
        ("cypher.view_delta_rows", "count", "lower"),
        ("cypher.view_full_recomputes", "count", "lower"),
        ("engine.plan_us", "us", "lower"),
        ("engine.exec_us", "us", "lower"),
    ]
    .into_iter()
    .map(|(n, u, b)| (n.to_string(), u, b))
    .collect();
    m.extend(per_query());
    for (n, u, b) in [
        ("graph.clone_us", "us", "lower"),
        ("graph.first_touch_set_us", "us", "lower"),
        ("graph.first_touch_create_us", "us", "lower"),
        ("storage.recovery_ms", "ms", "lower"),
        ("storage.checkpoint_ms", "ms", "lower"),
        ("storage.compactions", "count", "lower"),
        ("storage.fsync_us_p50", "us", "lower"),
        ("storage.append_us", "us", "lower"),
        ("storage.wal_bytes_per_commit", "B", "lower"),
        ("trace_overhead_pct", "%", "lower"),
    ] {
        m.push((n.to_string(), u, b));
    }
    m
}

/// The per-layer metrics `workload`'s path does not reach; its traced
/// run reports 0 for these and must measure every other one.
pub fn not_on_path(workload: &str) -> Vec<String> {
    let names = |list: &[&str]| list.iter().map(|n| n.to_string()).collect::<Vec<_>>();
    let queries = || per_query().into_iter().map(|(n, _, _)| n);
    match workload {
        "serve-mix" => names(&COMMIT_PATH).into_iter().chain(queries()).collect(),
        "analytic" => [names(&WIRE_PATH), names(&COMMIT_PATH)].concat(),
        "durable-write" => names(&WIRE_PATH).into_iter().chain(queries()).collect(),
        _ => Vec::new(),
    }
}

/// Runs one workload and returns its report. The report's metrics are
/// the end-to-end set (untraced) or the per-layer set (traced), in
/// catalogue order, each present exactly once.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new(&opts.workload);
    let outcome = common::prepare(opts).and_then(|prepared| match opts.workload.as_str() {
        "serve-mix" => serve_mix::run(opts, &prepared, &mut report),
        "analytic" => analytic::run(opts, &prepared, &mut report),
        "durable-write" => durable_write::run(opts, &prepared, &mut report),
        other => Err(format!("unknown workload {other:?}")),
    });
    if let Err(e) = outcome {
        report.fail(format!("run aborted: {e}"));
    }
    order_metrics(&mut report, opts.trace);
    report
}

/// Puts the report's metrics in catalogue order, adding a zero for each
/// per-layer metric the workload's path does not reach. Any other
/// metric that is missing or has no samples fails the run.
fn order_metrics(report: &mut Report, trace: bool) {
    let names: Vec<(String, &'static str)> = if trace {
        per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u, _, _)| (n.to_string(), *u))
            .collect()
    };
    let off_path = if trace {
        not_on_path(&report.workload)
    } else {
        Vec::new()
    };
    let mut got = std::mem::take(&mut report.metrics);
    for (name, unit) in names {
        let off = off_path.contains(&name);
        match got.iter().position(|m| m.name == name) {
            Some(i) if off => {
                report.fail(format!("metric {name} is listed as not on this path"));
                got.swap_remove(i);
            }
            Some(i) if got[i].samples == 0 => {
                report.fail(format!("metric {name} has no samples"));
                report.metrics.push(got.swap_remove(i));
            }
            Some(i) => report.metrics.push(got.swap_remove(i)),
            None if off => report.metric(&name, 0.0, unit, 0, "not on this workload's path"),
            None => report.fail(format!("metric {name} was not measured")),
        }
    }
    for m in got {
        report.fail(format!("metric {} is not in the catalogue", m.name));
    }
}

/// The benchmark's `BENCHMARK.json`: the command, the workloads and
/// every metric with its unit, direction and (end to end) bound.
pub fn catalogue_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \
             \"bound\": {bound}}}{sep}"
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, (name, unit, better)) in layers.iter().enumerate() {
        let sep = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{sep}"
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_report(workload: &str, skip: &str) -> Report {
        let mut report = Report::new(workload);
        report.attempted = 1;
        for (name, unit, _) in per_layer() {
            if name != skip && !not_on_path(workload).contains(&name) {
                report.metric(&name, 1.0, unit, 1, "test");
            }
        }
        order_metrics(&mut report, true);
        report
    }

    #[test]
    fn off_path_metrics_read_zero() {
        let report = traced_report("analytic", "");
        assert!(report.correct(), "{}", report.human());
        let client = report
            .metrics
            .iter()
            .find(|m| m.name == "client.connect_us");
        assert_eq!(client.map(|m| m.value), Some(0.0));
    }

    #[test]
    fn a_dropped_metric_on_its_path_fails_the_run() {
        let report = traced_report("serve-mix", "server.requests_per_op");
        assert!(!report.correct());
        assert!(report.failures[0].contains("server.requests_per_op"));
    }
}
