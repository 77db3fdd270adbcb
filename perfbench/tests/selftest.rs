//! Self-test of the benchmark harness at a tiny graph size: every named
//! metric of every workload is present, finite and unit-tagged, every
//! answer checks out, every traced span tree is consistent, and
//! `BENCHMARK.json` lists exactly the metrics the harness reports.

use perfbench::{per_layer, run, Opts, END_TO_END};
use std::path::PathBuf;

fn opts(workload: &str, trace: bool) -> Opts {
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("selftest-{workload}-{}", u8::from(trace)));
    std::fs::create_dir_all(&out_dir).expect("create selftest out dir");
    Opts {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.5,
        trace,
        nodes: 600,
        threads: 2,
        out_dir,
        isolate_prepare: false,
    }
}

fn check_run(workload: &str, trace: bool) {
    let o = opts(workload, trace);
    let report = run(&o);
    assert!(
        report.correct(),
        "{workload} (trace {trace}) failed:\n{}",
        report.human()
    );
    let want: Vec<(String, String)> = if trace {
        per_layer()
            .into_iter()
            .map(|(n, u, _)| (n, u.to_string()))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u, _, _)| (n.to_string(), u.to_string()))
            .collect()
    };
    let got: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    assert_eq!(got, want, "{workload}: metric names and units");
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
        assert!(!m.unit.is_empty(), "{workload}: {} has no unit", m.name);
        if !trace {
            assert!(
                m.value > 0.0,
                "{workload}: end-to-end {} is {}",
                m.name,
                m.value
            );
            assert!(m.samples > 0, "{workload}: {} has no samples", m.name);
        }
    }
    let json = report.json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    if trace {
        let path = report.trace_file.as_ref().expect("traced run writes spans");
        check_span_file(&std::fs::read_to_string(path).expect("read span file"));
    }
    let _ = std::fs::remove_dir_all(&o.out_dir);
}

/// Pulls the integer (or `null`) after `"key": ` out of one span line.
fn field(line: &str, key: &str) -> Option<u64> {
    let start = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &line[start..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// Re-derives the span-tree invariant from the written file: for every
/// span, its self time plus its descendants' self times is its duration.
fn check_span_file(text: &str) {
    let spans: Vec<(Option<u64>, u64, u64)> = text
        .lines()
        .map(|l| {
            let dur = field(l, "end_ns").unwrap() - field(l, "start_ns").unwrap();
            (field(l, "parent"), dur, field(l, "self_ns").unwrap())
        })
        .collect();
    assert!(!spans.is_empty(), "no spans written");
    let mut subtree: Vec<u64> = spans.iter().map(|s| s.2).collect();
    for i in (0..spans.len()).rev() {
        if let Some(p) = spans[i].0 {
            assert!((p as usize) < i, "span {i} precedes its parent");
            subtree[p as usize] += subtree[i];
        }
    }
    for (i, s) in spans.iter().enumerate() {
        assert_eq!(subtree[i], s.1, "span {i}: self times do not add up");
    }
}

#[test]
fn serve_mix_end_to_end() {
    check_run("serve-mix", false);
}

#[test]
fn serve_mix_traced() {
    check_run("serve-mix", true);
}

#[test]
fn analytic_end_to_end() {
    check_run("analytic", false);
}

#[test]
fn analytic_traced() {
    check_run("analytic", true);
}

#[test]
fn durable_write_end_to_end() {
    check_run("durable-write", false);
}

#[test]
fn durable_write_traced() {
    check_run("durable-write", true);
}

#[test]
fn benchmark_json_is_the_catalogue() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    assert_eq!(
        text,
        perfbench::catalogue_json(),
        "regenerate with `perfbench --catalogue > BENCHMARK.json`"
    );
}
