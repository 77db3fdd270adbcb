//! Layer probes shared by the traced runs: each wraps a call into one
//! layer's public functions in a span. Per-layer metrics are derived
//! from these spans after the run (`LayerSpans`).

use crate::common::{mean, median, ns_to_ms, ns_to_us, Report};
use crate::trace::{Trace, Tracer};
use cypher::{
    parse_query, Database, EngineConfig, GraphView, NodeId, Params, PlanCacheStats, PlanMemo,
    PropertyGraph, Session, SharedChangeBuffer, Store, Table, Value,
};
use cypher_wire::{Request, Response};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Op ids of probe spans that belong to no workload operation.
pub const PROBE_OP: u64 = u64::MAX;

/// Per probed op: its id and whether its in-process `Session::query`
/// hit the plan cache.
pub type SessionHits = Vec<(u64, bool)>;

/// Encodes and decodes one op's request and response as the wire would
/// carry them; returns the encoded response size in bytes.
pub fn wire_codec(tr: &mut Tracer, op: u64, req: &Request, table: &Table) -> Result<usize, String> {
    let resp = Response::Rows {
        committed: None,
        table: table.clone(),
    };
    tr.span("wire.codec", op, |_| {
        let req_bytes = req.encode();
        Request::decode(&req_bytes).map_err(|e| format!("request decode: {e}"))?;
        let resp_bytes = resp.encode();
        Response::decode(&resp_bytes).map_err(|e| format!("response decode: {e}"))?;
        Ok(resp_bytes.len())
    })
}

/// Parses `text`, then executes it through the engine twice with one
/// plan memo: first fresh (plan + execute), then warmed (execute only).
/// Returns the warmed run's result.
pub fn engine_read(
    tr: &mut Tracer,
    op: u64,
    view: &GraphView,
    text: &str,
    params: &Params,
    cfg: &EngineConfig,
) -> Result<Table, String> {
    let q = tr
        .span("parser.parse", op, |_| parse_query(text))
        .map_err(|e| format!("parse {text:?}: {e}"))?;
    let memo = PlanMemo::new();
    tr.span("engine.exec_fresh", op, |_| {
        cypher_engine::execute_read_cached(view, &q, params, cfg, Some(&memo))
    })
    .map_err(|e| format!("engine {text:?}: {e}"))?;
    tr.span("engine.exec_warm", op, |_| {
        cypher_engine::execute_read_cached(view, &q, params, cfg, Some(&memo))
    })
    .map_err(|e| format!("engine {text:?}: {e}"))
}

/// Times the graph layer's copy-on-write cost on `graph`: a bare clone,
/// a clone plus one property write, and a clone plus one node insert.
pub fn graph_probes(tr: &mut Tracer, graph: &PropertyGraph, reps: usize) -> Result<(), String> {
    let persons = graph.node_count().max(1) as u64;
    for r in 0..reps {
        let node = NodeId((r as u64 * 7919) % persons);
        let g = tr.span("graph.clone", PROBE_OP, |_| graph.clone());
        drop(g);
        let g = tr.span("graph.first_touch_set", PROBE_OP, |_| {
            let mut g = graph.clone();
            let v = g.intern("v");
            g.set_node_prop(node, v, Value::int(r as i64)).map(|_| g)
        });
        drop(g.map_err(|e| format!("set_node_prop: {e:?}"))?);
        let g = tr.span("graph.first_touch_create", PROBE_OP, |_| {
            let mut g = graph.clone();
            g.add_node(&["Person"], [("i", Value::int(-1 - r as i64))]);
            g
        });
        drop(g);
    }
    Ok(())
}

/// Times the storage layer's append and fsync on a scratch store in
/// `dir` with a representative batch (the change records of one
/// `SET p.v`); returns the WAL bytes one such commit adds.
pub fn storage_probes(
    tr: &mut Tracer,
    dir: &Path,
    graph: &PropertyGraph,
    reps: usize,
) -> Result<f64, String> {
    let mut g = graph.clone();
    let buf = SharedChangeBuffer::new();
    g.set_change_sink(Box::new(buf.clone()));
    let v = g.intern("v");
    g.set_node_prop(NodeId(0), v, Value::int(7))
        .map_err(|e| format!("set_node_prop: {e:?}"))?;
    let batch = buf.drain();
    drop(g);
    let (mut store, _) = Store::open(dir).map_err(|e| format!("scratch store: {e}"))?;
    let before = store.wal_bytes();
    for _ in 0..reps {
        tr.span("storage.append", PROBE_OP, |_| store.commit(&batch))
            .map_err(|e| format!("scratch commit: {e}"))?;
        tr.span("storage.fsync", PROBE_OP, |_| store.sync())
            .map_err(|e| format!("scratch sync: {e}"))?;
    }
    Ok((store.wal_bytes() - before) as f64 / reps.max(1) as f64)
}

/// Per-op span durations of a merged trace, for the metrics derived
/// from several spans of one operation.
pub struct LayerSpans {
    by_name: BTreeMap<&'static str, Vec<u64>>,
    by_op: BTreeMap<u64, BTreeMap<&'static str, u64>>,
}

impl LayerSpans {
    /// Indexes `trace` by span name and by operation.
    pub fn new(trace: &Trace) -> LayerSpans {
        let mut by_op: BTreeMap<u64, BTreeMap<&'static str, u64>> = BTreeMap::new();
        for (s, self_ns) in trace.spans().iter().zip(trace.self_times()) {
            if s.op != PROBE_OP {
                *by_op.entry(s.op).or_default().entry(s.name).or_default() += self_ns;
            }
        }
        LayerSpans {
            by_name: trace.self_by_name(),
            by_op,
        }
    }

    /// Self times (ns) of every span called `name`.
    fn all(&self, name: &str) -> Vec<f64> {
        self.by_name
            .get(name)
            .map_or_else(Vec::new, |v| v.iter().map(|&n| n as f64).collect())
    }

    /// Median self time of `name`, in µs, with its sample count.
    pub fn median_us(&self, name: &str) -> (f64, usize) {
        let all = self.all(name);
        (ns_to_us(median(&all)), all.len())
    }

    /// Median self time of `name`, in ms, with its sample count.
    pub fn median_ms(&self, name: &str) -> (f64, usize) {
        let all = self.all(name);
        (ns_to_ms(median(&all)), all.len())
    }

    /// For every op holding all of `names`, `f` of their self times
    /// (ns, in `names` order).
    pub fn per_op(&self, names: &[&str], f: impl Fn(&[f64]) -> f64) -> Vec<f64> {
        self.by_op
            .values()
            .filter_map(|spans| {
                let v: Option<Vec<f64>> = names
                    .iter()
                    .map(|n| spans.get(n).map(|&t| t as f64))
                    .collect();
                v.map(|v| f(&v))
            })
            .collect()
    }

    /// Per-op span durations of op `op`.
    pub fn op(&self, op: u64) -> Option<&BTreeMap<&'static str, u64>> {
        self.by_op.get(&op)
    }
}

/// Adds the graph and storage probe metrics shared by every workload.
pub fn graph_storage_metrics(report: &mut Report, spans: &LayerSpans, wal_bytes_per_commit: f64) {
    for (metric, span) in [
        ("graph.clone_us", "graph.clone"),
        ("graph.first_touch_set_us", "graph.first_touch_set"),
        ("graph.first_touch_create_us", "graph.first_touch_create"),
        ("storage.append_us", "storage.append"),
        ("storage.fsync_us_p50", "storage.fsync"),
    ] {
        let (v, n) = spans.median_us(span);
        report.metric(
            metric,
            v,
            "us",
            n,
            &format!("median self time of {span} spans"),
        );
    }
    let (v, n) = spans.median_ms("storage.recovery");
    report.metric(
        "storage.recovery_ms",
        v,
        "ms",
        n,
        "median Store::open of the data directory",
    );
    let (v, n) = spans.median_ms("storage.checkpoint");
    report.metric(
        "storage.checkpoint_ms",
        v,
        "ms",
        n,
        "median Database::checkpoint",
    );
    report.metric(
        "storage.wal_bytes_per_commit",
        wal_bytes_per_commit,
        "B",
        1,
        "WAL bytes of one SET batch committed with Store::commit",
    );
}

/// Graph clones the traced run times.
const GRAPH_REPS: usize = 10;
/// Scratch-store commits the traced run times.
const STORAGE_REPS: usize = 200;
/// `Store::open` recoveries the traced run times.
const RECOVERY_REPS: usize = 3;

/// Times `Store::open` (snapshot recovery) of the data directory.
pub fn recovery_probe(tr: &mut Tracer, data: &Path, threads: usize) -> Result<(), String> {
    for _ in 0..RECOVERY_REPS {
        let opened = tr.span("storage.recovery", PROBE_OP, |_| {
            Store::open_with_threads(data, threads)
        });
        drop(opened.map_err(|e| format!("recovery probe: {e}"))?);
    }
    Ok(())
}

/// Runs the graph and storage probes against `db`'s latest version;
/// returns the WAL bytes one probe commit adds.
pub fn layer_probes(tr: &mut Tracer, db: &Database, root: &Path) -> Result<f64, String> {
    let view = db.graph();
    graph_probes(tr, &view, GRAPH_REPS)?;
    let dir = root.join("probe-store");
    let bytes = storage_probes(tr, &dir, &view, STORAGE_REPS);
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// Runs `pass` over the same ops three times, untraced, traced and
/// untraced again, and adds `trace_overhead_pct`: the traced pass's wall
/// time against the mean of the other two. `ops` counts the ops of one
/// pass. Returns what the traced pass returned.
pub fn overhead_passes<T>(
    report: &mut Report,
    ops: usize,
    mut pass: impl FnMut(bool, &mut Report) -> Result<T, String>,
) -> Result<T, String> {
    let mut timed = |trace: bool, report: &mut Report| -> Result<(f64, T), String> {
        let t = Instant::now();
        let out = pass(trace, report)?;
        Ok((t.elapsed().as_secs_f64(), out))
    };
    let (a, _) = timed(false, report)?;
    let (b, out) = timed(true, report)?;
    let (a2, _) = timed(false, report)?;
    report.attempted += 3 * ops as u64;
    let untraced = (a + a2) / 2.0;
    report.metric(
        "trace_overhead_pct",
        (b - untraced) / untraced * 100.0,
        "%",
        ops,
        "traced pass against the untraced passes before and after it over the same ops",
    );
    Ok(out)
}

/// One op of the probe pass.
pub struct Probe {
    /// Op id of its spans.
    pub id: u64,
    /// Statement text.
    pub text: String,
    /// Statement parameters.
    pub params: Params,
    /// The request that carries the op over the wire.
    pub request: Request,
}

impl Probe {
    /// An op sent as a `Query` request.
    pub fn query(id: u64, text: &str, params: Params) -> Probe {
        Probe {
            id,
            text: text.to_string(),
            request: Request::Query {
                text: text.to_string(),
                params: params.clone(),
            },
            params,
        }
    }
}

/// What the probe pass measured besides its spans.
pub struct ProbeOut {
    /// Per op, its id and whether its `Session::query` hit the plan cache.
    pub session_hits: SessionHits,
    /// Plan-cache counters over the pass.
    pub cache: PlanCacheStats,
    /// Per op, its `Session::query` time in µs.
    pub session_us: Vec<f64>,
}

/// The probe pass: each op in-process through `Session::query`, the wire
/// codec and the engine (`engine_read`), each call in its own span.
/// `check(i, table)` tests the answer of `ops[i]`. Adds
/// `wire.response_bytes`; `bytes_how` says which responses it averages.
pub fn probe_pass(
    tr: &mut Tracer,
    db: &Database,
    session: &mut Session,
    ops: &[Probe],
    mut check: impl FnMut(usize, &Table) -> Result<(), String>,
    report: &mut Report,
    bytes_how: &str,
) -> Result<ProbeOut, String> {
    let cache_before = db.plan_cache_stats();
    let mut session_hits = Vec::with_capacity(ops.len());
    let mut session_us = Vec::with_capacity(ops.len());
    let mut bytes = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let before = db.plan_cache_stats();
        let t = Instant::now();
        let table = tr
            .span("cypher.session_query", op.id, |_| {
                session.query(&op.text, &op.params)
            })
            .map_err(|e| format!("probe {:?}: {e}", op.text))?;
        session_us.push(t.elapsed().as_secs_f64() * 1e6);
        session_hits.push((op.id, db.plan_cache_stats().hits > before.hits));
        report.attempted += 1;
        if let Err(e) = check(i, &table) {
            report.fail(e);
        }
        bytes.push(wire_codec(tr, op.id, &op.request, &table)? as f64);
        engine_read(tr, op.id, &db.graph(), &op.text, &op.params, db.config())?;
    }
    report.metric(
        "wire.response_bytes",
        mean(&bytes),
        "B",
        bytes.len(),
        &format!("mean encoded Rows response {bytes_how}"),
    );
    Ok(ProbeOut {
        session_hits,
        cache: cache_delta(cache_before, db.plan_cache_stats()),
        session_us,
    })
}

/// `after - before` of the plan-cache counters.
pub fn cache_delta(before: PlanCacheStats, after: PlanCacheStats) -> PlanCacheStats {
    PlanCacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        invalidations: after.invalidations - before.invalidations,
        evictions: after.evictions - before.evictions,
    }
}

/// Adds the plan-cache hit ratio and evictions of a stats delta.
pub fn plan_cache_metrics(report: &mut Report, d: PlanCacheStats, ops: usize, how: &str) {
    let lookups = d.hits + d.misses;
    report.metric(
        "cypher.plan_cache_hit_ratio",
        d.hits as f64 / lookups.max(1) as f64,
        "ratio",
        lookups as usize,
        &format!("plan_cache_stats delta {how}"),
    );
    report.metric(
        "cypher.plan_cache_evictions",
        d.evictions as f64,
        "count",
        ops,
        &format!("plan_cache_stats delta {how}"),
    );
}

/// Where a traced run writes its spans.
pub fn trace_path(opts: &crate::Opts) -> std::path::PathBuf {
    opts.out_dir
        .join(format!("trace-{}-{}.jsonl", opts.workload, opts.seed))
}

/// Finishes a traced run: merges the per-thread tracers, checks the
/// span tree, writes the spans, and adds the metrics every workload
/// derives from the read-path and probe spans. `session_hits` holds,
/// per op, whether its in-process `Session::query` hit the plan cache.
pub fn finish_trace(
    opts: &crate::Opts,
    tracers: Vec<Tracer>,
    report: &mut Report,
    session_hits: &[(u64, bool)],
    wal_bytes_per_commit: f64,
) -> Result<LayerSpans, String> {
    let trace = Trace::merge(tracers);
    trace.check_tree().map_err(|e| format!("span tree: {e}"))?;
    let path = trace_path(opts);
    trace
        .write(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    report.trace_file = Some(path);
    let spans = LayerSpans::new(&trace);
    for (metric, span) in [
        ("parser.parse_us", "parser.parse"),
        ("engine.exec_us", "engine.exec_warm"),
        ("wire.codec_us", "wire.codec"),
    ] {
        let (v, n) = spans.median_us(span);
        report.metric(metric, v, "us", n, &format!("median {span} span"));
    }
    let plan = spans.per_op(&["engine.exec_fresh", "engine.exec_warm"], |t| t[0] - t[1]);
    report.metric(
        "engine.plan_us",
        ns_to_us(median(&plan)),
        "us",
        plan.len(),
        "median per op of a fresh-memo minus a warmed-memo execution",
    );
    let dispatch: Vec<f64> = session_hits
        .iter()
        .filter_map(|&(id, hit)| {
            let op = spans.op(id)?;
            let session = *op.get("cypher.session_query")? as f64;
            let engine = if hit {
                *op.get("engine.exec_warm")? as f64
            } else {
                (*op.get("parser.parse")? + *op.get("engine.exec_fresh")?) as f64
            };
            Some(session - engine)
        })
        .collect();
    report.metric(
        "cypher.dispatch_us",
        ns_to_us(median(&dispatch)),
        "us",
        dispatch.len(),
        "median per op of Session::query minus parse (on a miss) minus engine time",
    );
    graph_storage_metrics(report, &spans, wal_bytes_per_commit);
    Ok(spans)
}
