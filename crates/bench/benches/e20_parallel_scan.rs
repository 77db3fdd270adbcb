//! Experiment E20: what morsel-driven parallelism buys on a scan-heavy
//! query.
//!
//! A 100k-node graph of `Account` nodes answers the scan+filter query
//! `MATCH (n:Account) WHERE n.serial >= … RETURN n.shard` — a range
//! predicate has no index to seek (an equality would fold into a
//! `PropertyIndexSeek`), so every configuration walks all 100k `Account`
//! rows and the work is pure pipeline throughput. Series:
//!
//! * `threads/1` — the classic sequential executor (no dispatch at all);
//! * `threads/2`, `threads/4` — the same plan with its source partitioned
//!   into 1024-row morsels claimed by a scoped worker pool;
//! * `agg_threads/{1,4}` — the same sweep under an aggregating query
//!   (`count(*)`), whose pipeline breaker merges per-morsel partials.
//!
//! On a multi-core box the expectation is ≥ 2× at 4 threads (the per-row
//! work is an expression evaluation, far above the merge cost); the
//! assertion below is gated on `available_parallelism` so single-CPU CI
//! containers still run the correctness and allocation checks.
//!
//! The allocation tripwire: one sequential run of the scan query must stay
//! within a small per-row allocation budget. Before the batch refactor the
//! scan sources cloned the driving record and re-grew it for every emitted
//! row (two allocations per row before filtering); `Record::cloned_with_extra`
//! plus `Arc`-shared scan item lists cut the budget roughly in half.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cypher::{run_read_with, EngineConfig, Params, PropertyGraph, Value};
use std::time::Instant;

#[global_allocator]
static ALLOC: cypher_bench::CountingAlloc = cypher_bench::CountingAlloc;

const NODES: usize = 100_000;
const SCAN_QUERY: &str = "MATCH (n:Account) WHERE n.serial >= 99999 RETURN n.shard";
const AGG_QUERY: &str = "MATCH (n:Account) WHERE n.shard >= 8 RETURN count(*) AS c";

fn build_graph() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    for i in 0..NODES {
        g.add_node(
            &["Account"],
            [
                ("serial", Value::int(i as i64)),
                ("shard", Value::int((i % 16) as i64)),
            ],
        );
    }
    g
}

fn cfg(threads: usize) -> EngineConfig {
    EngineConfig::default()
        .with_threads(threads)
        .with_morsel_size(1024)
}

/// Median-of-5 wall time of one run.
fn time_once(g: &PropertyGraph, q: &str, params: &Params, c: &EngineConfig) -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            criterion::black_box(run_read_with(g, q, params, c).unwrap());
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[2]
}

fn bench(c: &mut Criterion) {
    let g = build_graph();
    let params = Params::new();

    // Sanity: identical rows (not just bags) across thread counts.
    let seq = run_read_with(&g, SCAN_QUERY, &params, &cfg(1)).unwrap();
    for t in [2, 4] {
        let par = run_read_with(&g, SCAN_QUERY, &params, &cfg(t)).unwrap();
        assert!(par.ordered_eq(&seq), "threads={t} changed the result");
    }
    assert_eq!(seq.len(), 1);

    // Allocation budget of the sequential scan+filter pipeline. ~1
    // allocation per scanned row (the record clone) plus batch overhead;
    // the bound has 3× headroom over the measured ~1.1/row so only a
    // real per-row regression (e.g. property-map cloning) trips it.
    let (_, allocs) = cypher_bench::allocations_during(|| {
        criterion::black_box(run_read_with(&g, SCAN_QUERY, &params, &cfg(1)).unwrap())
    });
    println!(
        "e20: sequential scan of {NODES} rows allocates {allocs} times \
         ({:.2}/row)",
        allocs as f64 / NODES as f64
    );
    assert!(
        (allocs as usize) < 3 * NODES,
        "scan allocation budget blown: {allocs} allocations for {NODES} rows"
    );

    // The same budget with a *non-empty* driving row (a second MATCH),
    // where the old clone-then-grow emission cost two allocations per
    // scanned row. `cloned_with_extra` folds them into one; the 1.5/row
    // bound sits between the two regimes and trips on a regression.
    let join_query = "MATCH (a:Account {serial: 0}) MATCH (n:Account) \
                      WHERE n.serial = a.serial + 99999 RETURN n.shard";
    let (join_out, join_allocs) = cypher_bench::allocations_during(|| {
        criterion::black_box(run_read_with(&g, join_query, &params, &cfg(1)).unwrap())
    });
    assert_eq!(join_out.len(), 1);
    println!(
        "e20: driven scan of {NODES} rows allocates {join_allocs} times \
         ({:.2}/row)",
        join_allocs as f64 / NODES as f64
    );
    assert!(
        (join_allocs as f64) < 1.5 * NODES as f64,
        "driven-scan allocation budget blown: {join_allocs} for {NODES} rows \
         (clone-then-grow is back?)"
    );

    // Speedup summary (printed even where the timing loop below runs).
    let t1 = time_once(&g, SCAN_QUERY, &params, &cfg(1));
    let t4 = time_once(&g, SCAN_QUERY, &params, &cfg(4));
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "e20: scan+filter {NODES} nodes — threads=1: {:.3} ms, threads=4: {:.3} ms, \
         speedup {:.2}x ({} hardware threads)",
        t1 * 1e3,
        t4 * 1e3,
        t1 / t4,
        cores
    );
    if cores >= 4 {
        assert!(
            t1 / t4 >= 2.0,
            "expected ≥2x speedup at 4 threads on {cores}-core hardware, got {:.2}x",
            t1 / t4
        );
    }

    let mut report = cypher_bench::BenchReport::new("e20");
    report.metric("scan_allocations_per_row", allocs as f64 / NODES as f64);
    report.metric(
        "driven_scan_allocations_per_row",
        join_allocs as f64 / NODES as f64,
    );
    report.metric("scan_threads1_us", t1 * 1e6);
    report.metric("scan_threads4_us", t4 * 1e6);
    report.metric("scan_speedup_4t", t1 / t4);
    report.metric("hardware_threads", cores as f64);
    report.emit();

    let mut group = c.benchmark_group("e20_parallel_scan");
    for threads in [1, 2, 4] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &g, |b, g| {
            b.iter(|| run_read_with(g, SCAN_QUERY, &params, &cfg(threads)).unwrap())
        });
    }
    for threads in [1, 4] {
        group.bench_with_input(BenchmarkId::new("agg_threads", threads), &g, |b, g| {
            b.iter(|| run_read_with(g, AGG_QUERY, &params, &cfg(threads)).unwrap())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
