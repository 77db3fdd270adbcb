//! `serve-mix`: per-request cost over the wire. An in-process server
//! fronts the durable database; one client connection per two cores
//! (at least one) each runs a closed loop of 45% prepared point reads, 45% prepared 1-hop reads and
//! 10% ad-hoc reads whose text is new each time.

use crate::common::{
    class_notes, closed_loop, config_lines, dir_mb, measure_setup, median, merge_loops, ns_to_us,
    peak_rss_mb, pinned_config, warm_up, EndToEnd, Expected, LoopResult, Opts, Prepared, Report,
    Rng, PLAN_CACHE_SIZE,
};
use crate::probes::{self, Probe, SessionHits, PROBE_OP};
use crate::trace::Tracer;
use cypher::{Database, FsyncMode, Params, PlanCacheStats, Table, Value};
use cypher_client::Client;
use cypher_server::{Server, ServerConfig};
use cypher_wire::Request;
use std::net::SocketAddr;
use std::time::Instant;

const POINT: &str = "MATCH (p:Person {i: $k}) RETURN p.name AS name";
const HOP: &str = "MATCH (p:Person {i: $k})-[:FOLLOWS]->(q) RETURN q.i AS i";
/// Ops the traced run replays (once untraced, once traced).
const TRACE_OPS: usize = 10_000;
/// Extra connect + prepare rounds the traced run times.
const CONNECT_REPS: usize = 20;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Point,
    Hop,
    Adhoc,
}

const CLASSES: [(Class, &str); 3] = [
    (Class::Point, "point"),
    (Class::Hop, "1-hop"),
    (Class::Adhoc, "ad-hoc"),
];

struct Op {
    class: Class,
    key: i64,
    /// The inlined text of an ad-hoc op.
    text: Option<String>,
}

impl Op {
    fn next(rng: &mut Rng, persons: u64) -> Op {
        let r = rng.below(100);
        let key = rng.below(persons) as i64;
        let class = match r {
            0..=44 => Class::Point,
            45..=89 => Class::Hop,
            _ => Class::Adhoc,
        };
        let text = (class == Class::Adhoc)
            .then(|| format!("MATCH (p:Person {{i: {key}}}) RETURN p.name AS name"));
        Op { class, key, text }
    }

    fn params(&self) -> Params {
        let mut p = Params::new();
        if self.class != Class::Adhoc {
            p.insert("k".to_string(), Value::int(self.key));
        }
        p
    }

    fn text(&self) -> &str {
        match self.class {
            Class::Point => POINT,
            Class::Hop => HOP,
            Class::Adhoc => self.text.as_deref().unwrap_or_default(),
        }
    }

    fn request(&self, conn: &Conn) -> Request {
        match self.class {
            Class::Point => Request::Execute {
                id: conn.point,
                params: self.params(),
            },
            Class::Hop => Request::Execute {
                id: conn.hop,
                params: self.params(),
            },
            Class::Adhoc => Request::Query {
                text: self.text().to_string(),
                params: self.params(),
            },
        }
    }

    /// Checks a result against the generated graph.
    fn check(&self, table: &Table, expected: &Expected) -> Result<(), String> {
        let k = self.key as usize;
        match self.class {
            Class::Point | Class::Adhoc => {
                let want = Value::str(format!("u{k}"));
                if table.len() != 1 || table.cell(0, "name") != Some(&want) {
                    return Err(format!("{:?} read of {k}: got {table:?}", self.class));
                }
            }
            Class::Hop => {
                let mut got: Vec<u32> = Vec::with_capacity(table.len());
                for row in 0..table.len() {
                    match table.cell(row, "i").and_then(|v| v.as_int()) {
                        Some(i) => got.push(i as u32),
                        None => return Err(format!("1-hop read of {k}: bad row {row}")),
                    }
                }
                got.sort_unstable();
                if got != expected.of(k) {
                    return Err(format!(
                        "1-hop read of {k}: got {got:?}, want {:?}",
                        expected.of(k)
                    ));
                }
            }
        }
        Ok(())
    }
}

struct Conn {
    client: Client,
    point: u32,
    hop: u32,
}

impl Conn {
    fn open(tr: &mut Tracer, addr: SocketAddr) -> Result<Conn, String> {
        let mut client = tr
            .span("client.connect", PROBE_OP, |_| Client::connect(addr))
            .map_err(|e| format!("connect: {e}"))?;
        let mut prepare = |text: &str| {
            tr.span("client.prepare", PROBE_OP, |_| client.prepare(text))
                .map_err(|e| format!("prepare: {e}"))
        };
        let point = prepare(POINT)?;
        let hop = prepare(HOP)?;
        Ok(Conn { client, point, hop })
    }

    fn call(&mut self, op: &Op) -> Result<Table, String> {
        let p = op.params();
        let rows = match op.class {
            Class::Point => self.client.execute(self.point, &p),
            Class::Hop => self.client.execute(self.hop, &p),
            Class::Adhoc => self.client.query(op.text(), &p),
        };
        rows.map(|r| r.table)
            .map_err(|e| format!("{:?} op: {e}", op.class))
    }

    fn close(self) -> Result<(), String> {
        self.client.goodbye().map_err(|e| format!("goodbye: {e}"))
    }
}

/// What the traced passes hand to the span-derived metrics.
struct TracedOut {
    session_hits: SessionHits,
    /// Ops of the probe pass that were prepared reads.
    prepared_ops: Vec<u64>,
    /// WAL bytes per probe commit.
    wal: f64,
}

/// Runs the workload; fills `report` with end-to-end metrics, or with
/// per-layer metrics when `opts.trace` is set.
pub fn run(opts: &Opts, prep: &Prepared, report: &mut Report) -> Result<(), String> {
    let cfg = pinned_config(
        &prep.data,
        opts.threads,
        FsyncMode::Os,
        cypher_engine::exec::DEFAULT_WAL_COMPACT_BYTES,
    );
    for line in config_lines(&cfg, prep.expected.len(), prep.expected.edges()) {
        report.note(line);
    }
    report.note(format!(
        "plan cache: capacity {PLAN_CACHE_SIZE}; 2 prepared statements; ad-hoc texts drawn \
         from {} distinct keys",
        prep.expected.len()
    ));
    let epoch = Instant::now();
    let mut tr = if opts.trace {
        Tracer::new(epoch, 0)
    } else {
        Tracer::disabled()
    };
    if opts.trace {
        probes::recovery_probe(&mut tr, &prep.data, opts.threads)?;
    }
    // Each connection keeps a client and a server thread busy, so half
    // as many connections as cores; the traced run uses one so that
    // every count is exact.
    let conns_wanted = if opts.trace {
        1
    } else {
        (opts.threads / 2).max(1)
    };
    let ((server, mut conns), setup_s) = measure_setup(
        || {
            let db = Database::open_with(cfg.clone()).map_err(|e| format!("open: {e}"))?;
            let server = Server::bind(db, "127.0.0.1:0", ServerConfig::default())
                .map_err(|e| format!("bind: {e}"))?;
            let conns = (0..conns_wanted)
                .map(|_| Conn::open(&mut tr, server.local_addr()))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((server, conns))
        },
        |(server, conns): (Server, Vec<Conn>)| {
            for c in conns {
                c.close()?;
            }
            server.shutdown().close().map_err(|e| format!("close: {e}"))
        },
    )?;
    let mut extras = None;
    if opts.trace {
        extras = Some(traced(opts, prep, &server, &mut conns[0], &mut tr, report)?);
    } else {
        untraced(opts, prep, &mut conns, report, setup_s)?;
    }
    for c in conns {
        c.close()?;
    }
    let mut db = server.shutdown();
    tr.span("storage.checkpoint", PROBE_OP, |_| db.checkpoint())
        .map_err(|e| format!("checkpoint: {e}"))?;
    if !opts.trace {
        report.metric(
            "disk_mb",
            dir_mb(&prep.data),
            "MB",
            1,
            "data directory after the final checkpoint",
        );
    }
    db.close().map_err(|e| format!("close: {e}"))?;
    if let Some(out) = extras {
        let spans = probes::finish_trace(opts, vec![tr], report, &out.session_hits, out.wal)?;
        let overhead: Vec<f64> = out
            .prepared_ops
            .iter()
            .filter_map(|&id| {
                let op = spans.op(id)?;
                Some(*op.get("client.call")? as f64 - *op.get("cypher.session_query")? as f64)
            })
            .collect();
        report.metric(
            "server.overhead_us",
            ns_to_us(median(&overhead)),
            "us",
            overhead.len(),
            "median of client.call minus Session::query over the prepared reads",
        );
        for (metric, span) in [
            ("client.connect_us", "client.connect"),
            ("client.prepare_us", "client.prepare"),
        ] {
            let (v, n) = spans.median_us(span);
            report.metric(metric, v, "us", n, &format!("median {span} span"));
        }
    }
    Ok(())
}

fn untraced(
    opts: &Opts,
    prep: &Prepared,
    conns: &mut [Conn],
    report: &mut Report,
    setup_s: f64,
) -> Result<(), String> {
    let warm = warm_up(opts.seconds);
    let persons = prep.expected.len() as u64;
    let results: Vec<LoopResult> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let mut rng = Rng::new(opts.seed, c as u64);
                let expected = &prep.expected;
                s.spawn(move || {
                    closed_loop(CLASSES.len(), warm, opts.seconds, || {
                        let op = Op::next(&mut rng, persons);
                        let t = Instant::now();
                        let res = conn.call(&op);
                        let latency = t.elapsed();
                        let class = CLASSES.iter().position(|(k, _)| *k == op.class);
                        let outcome = res.and_then(|table| op.check(&table, expected));
                        (class.unwrap_or(0), latency, outcome)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| LoopResult::panicked()))
            .collect()
    });
    let peak_rss_mb = peak_rss_mb();
    let mut all = merge_loops(results, report);
    let names: Vec<&str> = CLASSES.iter().map(|(_, n)| *n).collect();
    let class_medians_ms = class_notes(report, &names, &mut all.lat);
    report.note(format!(
        "adhoc_p50_us = {:.3} us, adhoc_p99_us = {:.3} us (n={})",
        ns_to_us(all.lat[2].quantile(0.5)),
        ns_to_us(all.lat[2].quantile(0.99)),
        all.lat[2].len()
    ));
    let mut reads = all.lat[0].clone();
    reads.extend(&all.lat[1]);
    report.end_to_end(EndToEnd {
        setup_s,
        setup_how: "open_with + Server::bind + connect + prepare",
        ops: all.ops,
        window_s: all.window_s,
        ops_how: format!("closed loop, {} client connection(s)", conns.len()),
        reads,
        reads_how: "prepared point and 1-hop reads",
        class_medians_ms,
        classes_how: "point, 1-hop and ad-hoc",
        peak_rss_mb,
    });
    Ok(())
}

/// The traced run: the op stream over the connection untraced, traced
/// and untraced again, then in-process with every layer call in a span,
/// then the connect and layer probes. Returns the in-process plan-cache
/// hit of every op, the prepared ops and the WAL bytes per probe commit.
fn traced(
    opts: &Opts,
    prep: &Prepared,
    server: &Server,
    conn: &mut Conn,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<TracedOut, String> {
    let db = server.db();
    let persons = prep.expected.len() as u64;
    let (remote, requests) = probes::overhead_passes(report, TRACE_OPS, |trace, report| {
        let mut off = Tracer::disabled();
        let tr: &mut Tracer = if trace { &mut *tr } else { &mut off };
        let mut rng = Rng::new(opts.seed, 0);
        let mut remote = PlanCacheStats::default();
        let requests_before = server.requests_served();
        for i in 0..TRACE_OPS {
            let op = Op::next(&mut rng, persons);
            let id = i as u64;
            let before = db.plan_cache_stats();
            let table = tr.span("op", id, |tr| {
                tr.span("client.call", id, |_| conn.call(&op))
            })?;
            let d = probes::cache_delta(before, db.plan_cache_stats());
            remote.hits += d.hits;
            remote.misses += d.misses;
            remote.evictions += d.evictions;
            if let Err(e) = op.check(&table, &prep.expected) {
                report.fail(e);
            }
        }
        Ok((remote, server.requests_served() - requests_before))
    })?;
    let requests_per_op = requests as f64 / TRACE_OPS as f64;
    if requests_per_op != 1.0 {
        report.fail(format!(
            "{requests} requests served for {TRACE_OPS} ops, want one per op"
        ));
    }
    report.metric(
        "server.requests_per_op",
        requests_per_op,
        "count",
        TRACE_OPS,
        "requests_served delta per op",
    );
    probes::plan_cache_metrics(report, remote, TRACE_OPS, "around the remote calls");
    // The same ops in-process, one span per layer call.
    let mut rng = Rng::new(opts.seed, 0);
    let stream: Vec<Op> = (0..TRACE_OPS)
        .map(|_| Op::next(&mut rng, persons))
        .collect();
    let ops: Vec<Probe> = stream
        .iter()
        .enumerate()
        .map(|(i, op)| Probe {
            id: i as u64,
            text: op.text().to_string(),
            params: op.params(),
            request: op.request(conn),
        })
        .collect();
    let out = probes::probe_pass(
        tr,
        db,
        &mut db.session(),
        &ops,
        |i, table| stream[i].check(table, &prep.expected),
        report,
        "over the replies",
    )?;
    let prepared_ops = (0..TRACE_OPS as u64)
        .filter(|&i| stream[i as usize].class != Class::Adhoc)
        .collect();
    for _ in 0..CONNECT_REPS {
        Conn::open(tr, server.local_addr())?.close()?;
    }
    let wal = probes::layer_probes(tr, db, &prep.root)?;
    Ok(TracedOut {
        session_hits: out.session_hits,
        prepared_ops,
        wal,
    })
}
