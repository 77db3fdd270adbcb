//! Experiment E23: what multi-version snapshots cost.
//!
//! Four series over the versioned core (`cypher_graph::version`) and the
//! `Session` API, all on a 100k-node / 50k-relationship graph:
//!
//! * `reader_admission` — `VersionedGraph::latest()`: the lock-free
//!   pin-and-clone a session pays to start a read;
//! * `cow_commit/point` — one write transaction doing a single `SET`
//!   then publishing: the whole copy-on-write bill for a point update
//!   (clone the graph shell, copy the touched chunk + posting lists,
//!   seal nothing — in-memory);
//! * `cow_commit/create100` — a 100-node batch per commit, the
//!   amortized shape real workloads have;
//! * `read_under_writes` — a session query racing a writer that commits
//!   continuously: read latency must stay flat (readers are never
//!   blocked by the writer — asserted, not just measured).
//!
//! A derived line prints the admission cost and the reads-vs-writes
//! interference ratio for the README table.
//!
//! A tripwire pins the copy-on-write bill in bytes, counted with
//! [`cypher_bench::CountingAlloc`]: clone + `set_node_prop`, and clone +
//! `add_node` (one label, one unique key, one 10-valued key) + `add_rel`,
//! at 10k and at 100k nodes. The 100k figure must stay within 2× the 10k
//! figure and under 128 KiB — a write after a clone copies bounded paths
//! of the persistent indexes and slot tables, never a structure that
//! grows with the graph.

use criterion::{criterion_group, criterion_main, Criterion};
use cypher::{Database, NodeId, Params, PropertyGraph, Value, VersionedGraph};
use std::time::Instant;

#[global_allocator]
static ALLOC: cypher_bench::CountingAlloc = cypher_bench::CountingAlloc;

fn build_graph(nodes: usize) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let mut prev = None;
    for i in 0..nodes {
        let n = g.add_node(
            &["Account"],
            [
                ("serial", Value::int(i as i64)),
                ("shard", Value::int((i % 16) as i64)),
            ],
        );
        if i % 2 == 0 {
            if let Some(p) = prev {
                g.add_rel(p, n, "NEXT", []).unwrap();
            }
        }
        prev = Some(n);
    }
    g
}

/// `n` accounts with a unique `serial`, a 10-valued `tier` and a
/// `NEXT` chain.
fn build_indexed(n: usize) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let mut prev = None;
    for i in 0..n as i64 {
        let node = g.add_node(
            &["Account"],
            [("serial", Value::int(i)), ("tier", Value::int(i % 10))],
        );
        if let Some(p) = prev {
            g.add_rel(p, node, "NEXT", []).unwrap();
        }
        prev = Some(node);
    }
    g
}

/// Median bytes allocated by (clone + point `SET`, clone + `CREATE` of
/// one indexed node and one relationship) on `g`. The clones are dropped
/// outside the count.
fn cow_bytes(g: &PropertyGraph) -> (u64, u64) {
    let serial = g.interner().get("serial").unwrap();
    let n = g.node_count() as u64;
    let (mut set, mut create) = (Vec::new(), Vec::new());
    for r in 0..9u64 {
        let node = NodeId((r * 7919 + 13) % n);
        let (h, bytes) = cypher_bench::bytes_allocated_during(|| {
            let mut h = g.clone();
            h.set_node_prop(node, serial, Value::int(-1 - r as i64))
                .unwrap();
            h
        });
        drop(h);
        set.push(bytes);
        let (h, bytes) = cypher_bench::bytes_allocated_during(|| {
            let mut h = g.clone();
            let fresh = h.add_node(
                &["Account"],
                [
                    ("serial", Value::int((n + r) as i64)),
                    ("tier", Value::int((r % 10) as i64)),
                ],
            );
            h.add_rel(fresh, node, "NEXT", []).unwrap();
            h
        });
        drop(h);
        create.push(bytes);
    }
    set.sort_unstable();
    create.sort_unstable();
    (set[4], create[4])
}

fn bench(c: &mut Criterion) {
    let mut report = cypher_bench::BenchReport::new("e23");
    let mut group = c.benchmark_group("e23_snapshot");

    // --- copy-on-write bytes: flat in graph size --------------------------
    {
        let (small_set, small_create) = cow_bytes(&build_indexed(10_000));
        let (big_set, big_create) = cow_bytes(&build_indexed(100_000));
        eprintln!(
            "e23: copy-on-write bytes — SET {small_set} B at 10k vs {big_set} B at 100k; \
             CREATE+rel {small_create} B at 10k vs {big_create} B at 100k"
        );
        for (what, small, big) in [
            ("SET", small_set, big_set),
            ("CREATE+rel", small_create, big_create),
        ] {
            assert!(
                big <= 2 * small && big <= 128 << 10,
                "{what} after a clone copies {big} B at 100k nodes vs {small} B at \
                 10k: the copy bill grows with the graph"
            );
        }
        report.metric("cow_set_bytes_10k", small_set as f64);
        report.metric("cow_set_bytes_100k", big_set as f64);
        report.metric("cow_create_bytes_10k", small_create as f64);
        report.metric("cow_create_bytes_100k", big_create as f64);
    }

    // --- reader admission -------------------------------------------------
    let vg = VersionedGraph::new(build_graph(100_000), 0);
    group.bench_function("reader_admission/100k", |b| b.iter(|| vg.latest()));
    {
        let t = Instant::now();
        let reps = 200_000u32;
        for _ in 0..reps {
            std::hint::black_box(vg.latest());
        }
        let per = t.elapsed().as_nanos() as f64 / reps as f64;
        eprintln!("e23: reader admission {per:.0} ns (lock-free pin + Arc clone)");
        report.metric("reader_admission_ns", per);
    }

    // --- copy-on-write commit cost ---------------------------------------
    // "serial" was interned while building the graph.
    let serial = vg.latest().interner().get("serial").unwrap();
    group.bench_function("cow_commit/point/100k", |b| {
        let mut i = 0i64;
        b.iter(|| {
            let mut txn = vg.begin_write();
            let node = cypher::NodeId((i as u64) % 100_000);
            txn.graph_mut()
                .set_node_prop(node, serial, Value::int(1_000_000 + i))
                .unwrap();
            i += 1;
            txn.commit()
        })
    });
    group.bench_function("cow_commit/create100/100k", |b| {
        b.iter(|| {
            let mut txn = vg.begin_write();
            for _ in 0..100 {
                txn.graph_mut().add_node(&["Fresh"], []);
            }
            txn.commit()
        })
    });

    // --- reads racing a continuous writer ---------------------------------
    let params = Params::new();
    let mut cfg = cypher::EngineConfig::default();
    cfg.persistence = None;
    let db = Database::open_with(cfg).unwrap();
    let mut seeder = db.session();
    seeder
        .query(
            "UNWIND range(1, 20000) AS i CREATE (:Account {serial: i, shard: i % 16})",
            &params,
        )
        .unwrap();
    let q = "MATCH (n:Account {shard: 3}) RETURN count(*) AS c";
    let mut quiet_session = db.session();
    // Baseline: reads on a quiet database.
    let quiet = {
        let t = Instant::now();
        let reps = 40;
        for _ in 0..reps {
            std::hint::black_box(quiet_session.query(q, &params).unwrap());
        }
        t.elapsed().as_secs_f64() / reps as f64
    };
    // Same reads while a writer commits non-stop.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let mut writer = db.session();
    let mut reader = db.session();
    let busy = std::thread::scope(|s| {
        let stop = &stop;
        let params = &params;
        s.spawn(move || {
            let mut i = 0;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                writer
                    .query(&format!("CREATE (:Churn {{i: {i}}})"), params)
                    .unwrap();
                i += 1;
            }
        });
        let t = Instant::now();
        let reps = 40;
        for _ in 0..reps {
            std::hint::black_box(reader.query(q, params).unwrap());
        }
        let busy = t.elapsed().as_secs_f64() / reps as f64;
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        busy
    });
    eprintln!(
        "e23: read latency quiet {:.3} ms vs under-writes {:.3} ms ({:.2}x)",
        quiet * 1e3,
        busy * 1e3,
        busy / quiet
    );
    // Snapshot isolation means reads can never *block* on the writer;
    // on a single hardware thread they still share the core, so allow
    // generous headroom before calling interference a regression.
    assert!(
        busy < quiet * 8.0,
        "reads under write churn degraded {:.1}x — readers look blocked",
        busy / quiet
    );

    report.metric("read_quiet_us", quiet * 1e6);
    report.metric("read_under_writes_us", busy * 1e6);
    report.metric("read_interference_ratio", busy / quiet);
    report.emit();

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
