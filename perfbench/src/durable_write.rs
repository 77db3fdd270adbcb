//! `durable-write`: the commit path, with reads beside it. `threads`
//! sessions on `threads` threads run a closed loop of 60% point `SET`s
//! (each writer owns a disjoint key partition, so the final state is
//! known), 20% `CREATE`s and 20% reads (half point reads, half reads of
//! a maintained view), with group commit on. The fsync mode is `Os`:
//! with `Sync`, five seeds ranged from 360 to 880 ops/s as the shared
//! disk's fsync latency varied; the fsync is timed on its own by the
//! storage probe. The WAL compaction threshold is lowered so a run
//! spans several compactions.

use crate::common::{
    class_notes, closed_loop, config_lines, dir_mb, measure_setup, merge_loops, ns_to_us,
    peak_rss_mb, pinned_config, warm_up, EndToEnd, Expected, LoopResult, Opts, Prepared, Report,
    Rng,
};
use crate::probes::{self, Probe, SessionHits, PROBE_OP};
use crate::trace::Tracer;
use cypher::metrics::HistogramSnapshot;
use cypher::{Database, DatabaseMetrics, FsyncMode, Params, Session, Table, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const VIEW_NAME: &str = "persons_by_v";
const VIEW: &str = "MATCH (p:Person) RETURN p.v AS v, count(*) AS c";
const SET: &str = "MATCH (p:Person {i: $k}) SET p.v = $v";
const CREATE: &str =
    "MATCH (q:Person {i: $t}) CREATE (:Person {i: $i, v: $v, name: $name})-[:FOLLOWS]->(q)";
const READ: &str = "MATCH (p:Person {i: $k}) RETURN p.v AS v";
/// WAL size that triggers a compaction (snapshot + fresh WAL).
pub const WAL_COMPACT_BYTES: u64 = 192 << 10;
/// Ops each writer replays in each pass of the traced run.
const TRACE_OPS_PER_WRITER: usize = 1_500;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Set,
    Create,
    Point,
    View,
}

const CLASSES: [(Class, &str); 4] = [
    (Class::Set, "set"),
    (Class::Create, "create"),
    (Class::Point, "point read"),
    (Class::View, "view read"),
];

/// One writer's op stream and everything it had acknowledged.
struct Writer {
    w: u64,
    threads: u64,
    persons: u64,
    rng: Rng,
    /// Last acknowledged `v` of every key this writer set.
    last: BTreeMap<i64, i64>,
    /// Acknowledged creates: new `i` → (`v`, target `i`).
    created: BTreeMap<i64, (i64, i64)>,
    next_create: u64,
}

struct Op {
    class: Class,
    params: Params,
    key: i64,
    v: i64,
    target: i64,
}

impl Writer {
    fn new(seed: u64, w: usize, threads: usize, persons: usize) -> Writer {
        Writer {
            w: w as u64,
            threads: threads as u64,
            persons: persons as u64,
            rng: Rng::new(seed, 100 + w as u64),
            last: BTreeMap::new(),
            created: BTreeMap::new(),
            next_create: 0,
        }
    }

    /// Restarts the op stream (the acknowledged state is kept).
    fn rewind(&mut self, seed: u64) {
        self.rng = Rng::new(seed, 100 + self.w);
    }

    /// A key of this writer's partition.
    fn own_key(&mut self) -> i64 {
        let slots = (self.persons - self.w).div_ceil(self.threads);
        (self.w + self.threads * self.rng.below(slots)) as i64
    }

    fn next(&mut self) -> Op {
        let r = self.rng.below(100);
        let v = self.rng.below(1_000) as i64;
        let mut params = Params::new();
        let (class, key, target) = match r {
            0..=59 => {
                let k = self.own_key();
                params.insert("k".into(), Value::int(k));
                params.insert("v".into(), Value::int(v));
                (Class::Set, k, 0)
            }
            60..=79 => {
                let t = self.rng.below(self.persons) as i64;
                let i = (self.persons + self.w + self.threads * self.next_create) as i64;
                self.next_create += 1;
                params.insert("t".into(), Value::int(t));
                params.insert("i".into(), Value::int(i));
                params.insert("v".into(), Value::int(v));
                params.insert("name".into(), Value::str(format!("c{i}")));
                (Class::Create, i, t)
            }
            80..=89 => {
                let k = self.own_key();
                params.insert("k".into(), Value::int(k));
                (Class::Point, k, 0)
            }
            _ => (Class::View, 0, 0),
        };
        Op {
            class,
            params,
            key,
            v,
            target,
        }
    }

    fn expected_v(&self, k: i64, expected: &Expected) -> i64 {
        self.last
            .get(&k)
            .copied()
            .unwrap_or_else(|| expected.v(k as usize))
    }

    /// Counts a create as issued before it is sent: from then on a view
    /// read may see it.
    fn issue(op: &Op, issued: &AtomicU64) {
        if op.class == Class::Create {
            issued.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Sends one op and returns its answer. Only the program's call, so
    /// that a caller can stop the clock right after it.
    fn call(session: &mut Session, op: &Op, tr: &mut Tracer, id: u64) -> Result<Table, String> {
        let text = match op.class {
            Class::Set => SET,
            Class::Create => CREATE,
            Class::Point => READ,
            Class::View => {
                return tr
                    .span("cypher.view", id, |_| session.view_versioned(VIEW_NAME))
                    .map(|(_, t)| t)
                    .map_err(|e| format!("view read: {e}"));
            }
        };
        tr.span("cypher.session_query", id, |_| {
            session.query(text, &op.params)
        })
        .map_err(|e| format!("{:?} {}: {e}", op.class, op.key))
    }

    /// Checks one op's answer and records the write it acknowledged.
    fn settle(
        &mut self,
        op: &Op,
        t: &Table,
        expected: &Expected,
        issued: &AtomicU64,
    ) -> Result<(), String> {
        match op.class {
            Class::Set => {
                self.last.insert(op.key, op.v);
            }
            Class::Create => {
                self.created.insert(op.key, (op.v, op.target));
            }
            Class::Point => {
                let want = self.expected_v(op.key, expected);
                if t.len() != 1 || t.cell(0, "v") != Some(&Value::int(want)) {
                    return Err(format!("read of {}: got {t:?}, want v = {want}", op.key));
                }
            }
            Class::View => {
                let total = count_sum(t)?;
                let low = self.persons + self.created.len() as u64;
                let high = self.persons + issued.load(Ordering::SeqCst);
                if total < low || total > high {
                    return Err(format!(
                        "view counts {total} persons, outside [{low}, {high}]"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Issues, sends and settles one op.
    fn execute(
        &mut self,
        session: &mut Session,
        op: &Op,
        expected: &Expected,
        issued: &AtomicU64,
        tr: &mut Tracer,
        id: u64,
    ) -> Result<(), String> {
        Writer::issue(op, issued);
        let t = Writer::call(session, op, tr, id)?;
        self.settle(op, &t, expected, issued)
    }
}

/// Sum of the view's `c` column.
fn count_sum(t: &Table) -> Result<u64, String> {
    (0..t.len())
        .map(|r| {
            t.cell(r, "c")
                .and_then(|v| v.as_int())
                .map(|c| c as u64)
                .ok_or_else(|| format!("view row {r} has no count"))
        })
        .sum()
}

/// Runs the workload; fills `report` with end-to-end metrics, or with
/// per-layer metrics when `opts.trace` is set.
pub fn run(opts: &Opts, prep: &Prepared, report: &mut Report) -> Result<(), String> {
    let cfg = pinned_config(&prep.data, opts.threads, FsyncMode::Os, WAL_COMPACT_BYTES);
    for line in config_lines(&cfg, prep.expected.len(), prep.expected.edges()) {
        report.note(line);
    }
    report.note(format!("maintained view {VIEW_NAME}: {VIEW}"));
    let mut tr = if opts.trace {
        Tracer::new(Instant::now(), 0)
    } else {
        Tracer::disabled()
    };
    if opts.trace {
        probes::recovery_probe(&mut tr, &prep.data, opts.threads)?;
    }
    let ((mut db, mut sessions), setup_s) = measure_setup(
        || {
            let db = Database::open_with(cfg.clone()).map_err(|e| format!("open: {e}"))?;
            db.create_view(VIEW_NAME, VIEW)
                .map_err(|e| format!("create view: {e}"))?;
            let sessions: Vec<Session> = (0..opts.threads).map(|_| db.session()).collect();
            Ok((db, sessions))
        },
        |(db, sessions): (Database, Vec<Session>)| {
            drop(sessions);
            db.close().map_err(|e| format!("close: {e}"))
        },
    )?;
    report.note(format!(
        "view plan: {}",
        db.explain_view(VIEW_NAME)
            .map_err(|e| format!("explain view: {e}"))?
            .replace('\n', " | ")
    ));
    let mut writers: Vec<Writer> = (0..opts.threads)
        .map(|w| Writer::new(opts.seed, w, opts.threads, prep.expected.len()))
        .collect();
    let issued = AtomicU64::new(0);
    let mut tracers = Vec::new();
    let mut session_hits = Vec::new();
    let mut wal = 0.0;
    if opts.trace {
        let (hits, t) = traced(
            opts,
            &db,
            &mut sessions,
            &mut writers,
            &issued,
            prep,
            report,
        )?;
        session_hits = hits;
        tracers = t;
    } else {
        untraced(
            opts,
            &db,
            &mut sessions,
            &mut writers,
            &issued,
            prep,
            report,
            setup_s,
        )?;
    }
    // Quiesced: the maintained view must equal a cold re-run.
    let maintained = db.view(VIEW_NAME).map_err(|e| format!("view: {e}"))?;
    let cold = sessions[0]
        .query(VIEW, &Params::new())
        .map_err(|e| format!("cold view query: {e}"))?;
    report.attempted += 1;
    if !maintained.bag_eq(&cold) {
        report.fail("maintained view differs from a cold re-run".to_string());
    }
    drop(sessions);
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
    if opts.trace {
        wal = probes::layer_probes(&mut tr, &db, &prep.root)?;
    }
    db.close().map_err(|e| format!("close: {e}"))?;
    check_durable(&cfg, &writers, &maintained, prep, report)?;
    if opts.trace {
        tracers.insert(0, tr);
        probes::finish_trace(opts, tracers, report, &session_hits, wal)?;
    }
    Ok(())
}

/// The registry instruments the per-layer metrics read, snapshotted.
struct Instruments {
    group_size: HistogramSnapshot,
    seal: HistogramSnapshot,
    refresh: HistogramSnapshot,
    delta_rows: u64,
    full_recomputes: u64,
    compactions: u64,
}

impl Instruments {
    fn of(m: &DatabaseMetrics) -> Instruments {
        Instruments {
            group_size: m.commit_group_size.snapshot(),
            seal: m.seal_latency_us.snapshot(),
            refresh: m.view_refresh_us.snapshot(),
            delta_rows: m.view_delta_rows.get(),
            full_recomputes: m.view_full_recomputes.get(),
            compactions: m.wal_compactions.get(),
        }
    }
}

/// `after - before` of a histogram; the max is the later snapshot's.
fn hist_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let mut d = after.clone();
    for (b, a) in d.buckets.iter_mut().zip(before.buckets.iter()) {
        *b -= a;
    }
    d.count -= before.count;
    d.sum -= before.sum;
    d
}

#[allow(clippy::too_many_arguments)]
fn untraced(
    opts: &Opts,
    db: &Database,
    sessions: &mut [Session],
    writers: &mut [Writer],
    issued: &AtomicU64,
    prep: &Prepared,
    report: &mut Report,
    setup_s: f64,
) -> Result<(), String> {
    let warm = warm_up(opts.seconds);
    let before = Instruments::of(db.metrics());
    let results: Vec<LoopResult> = std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .zip(writers.iter_mut())
            .map(|(session, writer)| {
                let expected = &prep.expected;
                s.spawn(move || {
                    let mut tr = Tracer::disabled();
                    closed_loop(CLASSES.len(), warm, opts.seconds, || {
                        let op = writer.next();
                        Writer::issue(&op, issued);
                        let t = Instant::now();
                        let res = Writer::call(session, &op, &mut tr, 0);
                        let latency = t.elapsed();
                        let class = CLASSES.iter().position(|(k, _)| *k == op.class);
                        let outcome = res.and_then(|t| writer.settle(&op, &t, expected, issued));
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
    let after = Instruments::of(db.metrics());
    let mut all = merge_loops(results, report);
    let names: Vec<&str> = CLASSES.iter().map(|(_, n)| *n).collect();
    let class_medians_ms = class_notes(report, &names, &mut all.lat);
    let mut commits = all.lat[0].clone();
    commits.extend(&all.lat[1]);
    let groups = hist_delta(&before.group_size, &after.group_size);
    report.note(format!(
        "commit_p50_us = {:.3} us, commit_p99_us = {:.3} us (n={}); commits_per_s = {:.1} \
         commits/s; {} WAL compactions; mean commit group size {:.3} over {} groups",
        ns_to_us(commits.quantile(0.5)),
        ns_to_us(commits.quantile(0.99)),
        commits.len(),
        commits.len() as f64 / all.window_s,
        after.compactions - before.compactions,
        groups.sum as f64 / groups.count.max(1) as f64,
        groups.count,
    ));
    report.end_to_end(EndToEnd {
        setup_s,
        setup_how: "open_with + create_view + sessions",
        ops: all.ops,
        window_s: all.window_s,
        ops_how: format!("closed loop, {} writer session(s)", sessions.len()),
        // Point reads only: mixed with the slower view reads, the median
        // would fall between the two clusters and jump between runs.
        reads: all.lat[2].clone(),
        reads_how: "point reads",
        class_medians_ms,
        classes_how: "set, create, point-read and view-read",
        peak_rss_mb,
    });
    Ok(())
}

/// The traced run: every writer's op stream untraced, traced (the
/// commit-path instruments) and untraced again, then writer 0's point
/// reads through the layer probes. Returns the in-process plan-cache hit
/// of every probed op and the writer tracers.
#[allow(clippy::too_many_arguments)]
fn traced(
    opts: &Opts,
    db: &Database,
    sessions: &mut [Session],
    writers: &mut [Writer],
    issued: &AtomicU64,
    prep: &Prepared,
    report: &mut Report,
) -> Result<(SessionHits, Vec<Tracer>), String> {
    let epoch = Instant::now();
    let ops = TRACE_OPS_PER_WRITER * sessions.len();
    let (tracers, before, after) = probes::overhead_passes(report, ops, |trace, report| {
        let before = Instruments::of(db.metrics());
        let tracers = std::thread::scope(|s| {
            let handles: Vec<_> = sessions
                .iter_mut()
                .zip(writers.iter_mut())
                .map(|(session, writer)| {
                    writer.rewind(opts.seed);
                    s.spawn(move || {
                        let thread = writer.w as usize + 1;
                        let mut tr = if trace {
                            Tracer::new(epoch, thread)
                        } else {
                            Tracer::disabled()
                        };
                        let mut failures = Vec::new();
                        for i in 0..TRACE_OPS_PER_WRITER {
                            let op = writer.next();
                            let id = ((thread as u64) << 32) | i as u64;
                            let res = tr.span("op", id, |tr| {
                                writer.execute(session, &op, &prep.expected, issued, tr, id)
                            });
                            if let Err(e) = res {
                                failures.push(e);
                            }
                        }
                        (tr, failures)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        (
                            Tracer::disabled(),
                            vec!["writer thread panicked".to_string()],
                        )
                    })
                })
                .collect::<Vec<_>>()
        });
        let after = Instruments::of(db.metrics());
        let mut out = Vec::new();
        for (tr, failures) in tracers {
            for f in failures {
                report.fail(f);
            }
            out.push(tr);
        }
        Ok((out, before, after))
    })?;
    let groups = hist_delta(&before.group_size, &after.group_size);
    report.metric(
        "cypher.commit_group_size_mean",
        groups.sum as f64 / groups.count.max(1) as f64,
        "count",
        groups.count as usize,
        "commit_group_size histogram delta over the traced pass",
    );
    let seal = hist_delta(&before.seal, &after.seal);
    report.metric(
        "cypher.seal_us_p50",
        seal.p50() as f64,
        "us",
        seal.count as usize,
        "seal_latency_us histogram delta (log2-bucket upper bound)",
    );
    let refresh = hist_delta(&before.refresh, &after.refresh);
    report.metric(
        "cypher.view_refresh_us_p50",
        refresh.p50() as f64,
        "us",
        refresh.count as usize,
        "view_refresh_us histogram delta (log2-bucket upper bound)",
    );
    let full_recomputes = after.full_recomputes - before.full_recomputes;
    if full_recomputes != 0 {
        report.fail(format!(
            "{full_recomputes} full view recomputes, want every refresh folded"
        ));
    }
    for (metric, v) in [
        (
            "cypher.view_delta_rows",
            after.delta_rows - before.delta_rows,
        ),
        ("cypher.view_full_recomputes", full_recomputes),
        (
            "storage.compactions",
            after.compactions - before.compactions,
        ),
    ] {
        report.metric(
            metric,
            v as f64,
            "count",
            ops,
            "registry delta over the traced pass",
        );
    }
    // Writer 0's point reads, in-process through every layer probe.
    let writer = &mut writers[0];
    writer.rewind(opts.seed);
    let saved_next = writer.next_create;
    let mut reads = Vec::new();
    let mut wants = Vec::new();
    for i in 0..TRACE_OPS_PER_WRITER {
        let op = writer.next();
        if op.class == Class::Point {
            wants.push((op.key, writer.expected_v(op.key, &prep.expected)));
            reads.push(Probe::query(i as u64, READ, op.params));
        }
    }
    // The probe pass drew create ids it never used; give them back.
    writer.next_create = saved_next;
    let mut tr = Tracer::new(epoch, 0);
    let out = probes::probe_pass(
        &mut tr,
        db,
        &mut sessions[0],
        &reads,
        |i, table| {
            let (k, want) = wants[i];
            if table.len() == 1 && table.cell(0, "v") == Some(&Value::int(want)) {
                Ok(())
            } else {
                Err(format!("probe read of {k}: got {table:?}, want {want}"))
            }
        },
        report,
        "of a point read",
    )?;
    probes::plan_cache_metrics(
        report,
        out.cache,
        reads.len(),
        "over the probed point reads",
    );
    let mut all = tracers;
    all.push(tr);
    Ok((out.session_hits, all))
}

/// Reopens the closed data directory and checks that every
/// acknowledged write is there: every person's `v`, every created node
/// and its edge, and the view's contents.
fn check_durable(
    cfg: &cypher::EngineConfig,
    writers: &[Writer],
    maintained: &Table,
    prep: &Prepared,
    report: &mut Report,
) -> Result<(), String> {
    let mut db = Database::open_with(cfg.clone()).map_err(|e| format!("reopen: {e}"))?;
    let params = Params::new();
    let persons = prep.expected.len() as i64;
    let all = db
        .query("MATCH (p:Person) RETURN p.i AS i, p.v AS v", &params)
        .map_err(|e| format!("reopen scan: {e}"))?;
    let mut found = BTreeMap::new();
    for r in 0..all.len() {
        let (Some(i), Some(v)) = (
            all.cell(r, "i").and_then(|x| x.as_int()),
            all.cell(r, "v").and_then(|x| x.as_int()),
        ) else {
            report.fail(format!("reopened row {r} lacks i or v"));
            continue;
        };
        found.insert(i, v);
    }
    let mut want: BTreeMap<i64, i64> = (0..persons)
        .map(|k| (k, prep.expected.v(k as usize)))
        .collect();
    let mut edges = BTreeSet::new();
    let mut acked = 0u64;
    for w in writers {
        want.extend(w.last.iter().map(|(&k, &v)| (k, v)));
        for (&i, &(v, t)) in &w.created {
            want.insert(i, v);
            edges.insert((i, t));
        }
        acked += (w.last.len() + w.created.len()) as u64;
    }
    report.attempted += want.len() as u64;
    for (k, v) in &want {
        if found.get(k) != Some(v) {
            report.fail(format!(
                "after reopen person {k} has v = {:?}, want {v}",
                found.get(k)
            ));
        }
    }
    let created = found.keys().filter(|&&i| i >= persons).count();
    let created_acked: usize = writers.iter().map(|w| w.created.len()).sum();
    if created != created_acked || found.len() != want.len() {
        report.fail(format!(
            "after reopen {created} created persons ({} in all), {created_acked} creates \
             acknowledged",
            found.len()
        ));
    }
    let mut p = Params::new();
    p.insert("n".into(), Value::int(persons));
    let follows = db
        .query(
            "MATCH (p:Person)-[:FOLLOWS]->(q) WHERE p.i >= $n RETURN p.i AS i, q.i AS t",
            &p,
        )
        .map_err(|e| format!("reopen edges: {e}"))?;
    let got: BTreeSet<(i64, i64)> = (0..follows.len())
        .filter_map(|r| {
            Some((
                follows.cell(r, "i")?.as_int()?,
                follows.cell(r, "t")?.as_int()?,
            ))
        })
        .collect();
    if got != edges || follows.len() != edges.len() {
        report.fail(format!(
            "after reopen {} FOLLOWS edges from created persons, {} acknowledged",
            follows.len(),
            edges.len()
        ));
    }
    let cold = db
        .query(VIEW, &params)
        .map_err(|e| format!("reopen view query: {e}"))?;
    if !cold.bag_eq(maintained) {
        report.fail("view before close differs from a cold re-run after reopen".to_string());
    }
    report.note(format!(
        "durability: reopened and checked {} persons, {acked} acknowledged writes \
         ({created_acked} creates), {} created edges and the view against a cold re-run",
        want.len(),
        edges.len()
    ));
    db.close().map_err(|e| format!("close after reopen: {e}"))
}
