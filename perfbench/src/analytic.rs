//! `analytic`: operator cost. One in-process session with a warm plan
//! cache cycles the seven named read queries (`ANALYTIC_QUERIES`) in a
//! closed loop, on `threads` engine workers.

use crate::common::{
    class_notes, config_lines, dir_mb, measure_setup, ns_to_ms, peak_rss_mb, pinned_config,
    EndToEnd, Opts, Prepared, Report, Samples,
};
use crate::probes::{self, Probe, PROBE_OP};
use crate::trace::Tracer;
use crate::ANALYTIC_QUERIES;
use cypher::{Database, FsyncMode, Params, Session, Table};
use std::time::{Duration, Instant};

/// Cheap per-op check against the query's warm-up answer: equal bags
/// for small results, equal row counts for large ones.
fn same_answer(got: &Table, want: &Table) -> bool {
    if want.len() > 1_000 {
        got.len() == want.len()
    } else {
        got.bag_eq(want)
    }
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
    let mut tr = if opts.trace {
        Tracer::new(Instant::now(), 0)
    } else {
        Tracer::disabled()
    };
    if opts.trace {
        probes::recovery_probe(&mut tr, &prep.data, opts.threads)?;
    }
    let ((mut db, mut session), setup_s) = measure_setup(
        || {
            let db = Database::open_with(cfg.clone()).map_err(|e| format!("open: {e}"))?;
            let session = db.session();
            Ok((db, session))
        },
        |(db, session): (Database, Session)| {
            drop(session);
            db.close().map_err(|e| format!("close: {e}"))
        },
    )?;
    // Warm the plan cache; these answers are checked against the oracle.
    let params = Params::new();
    let mut answers = Vec::with_capacity(ANALYTIC_QUERIES.len());
    for (name, text) in ANALYTIC_QUERIES {
        answers.push(
            session
                .query(text, &params)
                .map_err(|e| format!("{name}: {e}"))?,
        );
    }
    let mut session_hits = Vec::new();
    if opts.trace {
        session_hits = traced(&db, &mut session, &answers, &mut tr, report)?;
    } else {
        untraced(opts, &mut session, &answers, report, setup_s);
    }
    check_answers(&db, &answers, report)?;
    drop(session);
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
        let wal = probes::layer_probes(&mut tr, &db, &prep.root)?;
        let spans = probes::finish_trace(opts, vec![tr], report, &session_hits, wal)?;
        for (i, (name, _)) in ANALYTIC_QUERIES.iter().enumerate() {
            let warm = spans
                .op(i as u64)
                .and_then(|op| op.get("engine.exec_warm").copied())
                .ok_or(format!("{name}: no engine.exec_warm span"))?;
            report.metric(
                &format!("engine.q.{name}_ms"),
                ns_to_ms(warm as f64),
                "ms",
                1,
                "engine.exec_warm span of the traced cycle",
            );
        }
    }
    db.close().map_err(|e| format!("close: {e}"))
}

fn untraced(
    opts: &Opts,
    session: &mut Session,
    answers: &[Table],
    report: &mut Report,
    setup_s: f64,
) {
    let params = Params::new();
    let mut lat: Vec<Samples> = vec![Samples::default(); ANALYTIC_QUERIES.len()];
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(opts.seconds);
    let mut ops = 0u64;
    // Whole cycles only, so that every query counts equally.
    while Instant::now() < end {
        for (i, (name, text)) in ANALYTIC_QUERIES.iter().enumerate() {
            let t = Instant::now();
            let res = session.query(text, &params);
            lat[i].push(t.elapsed());
            ops += 1;
            match res {
                Ok(table) if same_answer(&table, &answers[i]) => {}
                Ok(table) => report.fail(format!("{name}: {} rows, answer changed", table.len())),
                Err(e) => report.fail(format!("{name}: {e}")),
            }
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();
    report.attempted += ops;
    let names: Vec<&str> = ANALYTIC_QUERIES.iter().map(|(n, _)| *n).collect();
    let class_medians_ms = class_notes(report, &names, &mut lat);
    let mut reads = Samples::default();
    for l in &lat {
        reads.extend(l);
    }
    report.end_to_end(EndToEnd {
        setup_s,
        setup_how: "open_with + session",
        ops,
        window_s,
        ops_how: "queries per second, closed loop, one session".to_string(),
        reads,
        reads_how: "every query execution",
        class_medians_ms,
        classes_how: "seven per-query",
        peak_rss_mb,
    });
}

/// Checks every warm-up answer against the reference evaluator (the
/// paper's semantics) on the same graph.
fn check_answers(db: &Database, answers: &[Table], report: &mut Report) -> Result<(), String> {
    let params = Params::new();
    for ((name, text), answer) in ANALYTIC_QUERIES.iter().zip(answers) {
        report.attempted += 1;
        let oracle = db
            .query_reference(text, &params)
            .map_err(|e| format!("{name} oracle: {e}"))?;
        if !answer.bag_eq(&oracle) {
            report.fail(format!("{name}: engine and oracle differ"));
        }
    }
    report.note("every answer equals query_reference (bag_eq) on the full graph".to_string());
    Ok(())
}

/// The traced run: one cycle untraced, traced and untraced again (the
/// overhead), one cycle through the layer probes, then a profile and an
/// executor-counter delta per query. Returns the in-process plan-cache
/// hit of every op; op `i` is query `i` of the probe cycle.
fn traced(
    db: &Database,
    session: &mut Session,
    answers: &[Table],
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<Vec<(u64, bool)>, String> {
    let params = Params::new();
    let queries = ANALYTIC_QUERIES.len();
    probes::overhead_passes(report, queries, |trace, report| {
        let mut off = Tracer::disabled();
        let tr: &mut Tracer = if trace { &mut *tr } else { &mut off };
        for (i, (name, text)) in ANALYTIC_QUERIES.iter().enumerate() {
            let op = PROBE_OP - 1 - i as u64;
            let table = tr
                .span("op", op, |tr| {
                    tr.span("cypher.session_query", op, |_| session.query(text, &params))
                })
                .map_err(|e| format!("{name}: {e}"))?;
            if !same_answer(&table, &answers[i]) {
                report.fail(format!("{name}: answer changed"));
            }
        }
        Ok(())
    })?;
    let ops: Vec<Probe> = ANALYTIC_QUERIES
        .iter()
        .enumerate()
        .map(|(i, (_, text))| Probe::query(i as u64, text, Params::new()))
        .collect();
    let out = probes::probe_pass(
        tr,
        db,
        session,
        &ops,
        |i, table| {
            if same_answer(table, &answers[i]) {
                Ok(())
            } else {
                Err(format!("{}: answer changed", ANALYTIC_QUERIES[i].0))
            }
        },
        report,
        "had the results gone over the wire",
    )?;
    probes::plan_cache_metrics(report, out.cache, queries, "over the probe cycle");
    let session_us = out.session_us;
    let exec = db.exec_metrics().ok_or("executor metrics are off")?;
    for (i, (name, text)) in ANALYTIC_QUERIES.iter().enumerate() {
        let before = (
            exec.morsels.get(),
            exec.parallel_runs.get(),
            exec.intersect_probes.get(),
        );
        session
            .query(text, &params)
            .map_err(|e| format!("{name}: {e}"))?;
        for (metric, b, a) in [
            ("morsels", before.0, exec.morsels.get()),
            ("parallel_runs", before.1, exec.parallel_runs.get()),
            ("intersect_probes", before.2, exec.intersect_probes.get()),
        ] {
            report.metric(
                &format!("engine.{metric}.{name}"),
                (a - b) as f64,
                "count",
                1,
                "exec_metrics delta over one execution",
            );
        }
        let profile = db
            .profile(text, &params)
            .map_err(|e| format!("profile {name}: {e}"))?;
        let ops: Vec<&cypher::OpProfile> = profile
            .profile
            .clauses
            .iter()
            .flat_map(|c| &c.operators)
            .collect();
        let rows: u64 = ops.iter().map(|o| o.rows).sum();
        let time: u64 = ops.iter().map(|o| o.time_us).sum();
        let qerror = ops
            .iter()
            .map(|o| {
                let (e, a) = (o.estimated_rows.max(1.0), (o.rows as f64).max(1.0));
                (e / a).max(a / e)
            })
            .fold(1.0f64, f64::max);
        report.metric(
            &format!("engine.op.{name}.rows"),
            rows as f64,
            "count",
            ops.len(),
            "rows over every profiled operator",
        );
        report.metric(
            &format!("engine.op.{name}.time_us"),
            time as f64,
            "us",
            ops.len(),
            "time over every profiled operator",
        );
        report.metric(
            &format!("engine.rows_examined_per_result.{name}"),
            rows as f64 / (profile.result.len().max(1)) as f64,
            "ratio",
            1,
            "operator rows per result row",
        );
        report.metric(
            &format!("engine.qerror_max.{name}"),
            qerror,
            "ratio",
            ops.len(),
            "max over operators of max(est/actual, actual/est), both floored at 1",
        );
        report.metric(
            &format!("engine.profile_gap_pct.{name}"),
            (profile.profile.elapsed_us as f64 - session_us[i]) / session_us[i] * 100.0,
            "%",
            1,
            "profiled elapsed against the unprofiled Session::query",
        );
        for c in &profile.profile.clauses {
            for o in &c.operators {
                report.note(format!(
                    "{name}: {} — est {:.1}, rows {}, batches {}, {} us",
                    o.operator, o.estimated_rows, o.rows, o.batches, o.time_us
                ));
            }
        }
    }
    Ok(out.session_hits)
}
