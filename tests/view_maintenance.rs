//! Differential harness for **incremental view maintenance**: standing
//! queries registered with [`Database::create_view`] must stay exactly
//! equal (as a bag) to cold re-evaluation of the same query at every
//! published version — whatever their maintenance mode (delta-folded
//! aggregates, counted row bags, or the full-recompute fallback) and
//! whatever the update stream does to the rows they materialized.
//!
//! Three layers:
//!
//! * **Generated views × generated update streams** — a fixed panel of
//!   maintainable and fallback-shaped views plus grammar-generated ones,
//!   driven by the default update mix and by the delete-heavy churn
//!   preset, checked against cold re-evaluation after every commit;
//! * **Concurrent writers × pinned readers** — writer sessions race
//!   while readers pin snapshots and demand the view at the pinned
//!   version equals the pinned cold re-evaluation;
//! * **TCP subscription replay** — a remote subscriber's `ViewChange`
//!   frames, applied in version order to the subscribe-time contents,
//!   must reproduce the final maintained table bit-for-bag;
//! * **Group churn** — aggregate views (ordered ones included) whose
//!   groups die and come back: every publication must equal the state's
//!   full finalization and a cold re-run, and every subscription frame —
//!   built from the changed groups alone — must equal the bag difference
//!   of consecutive publications.
//!
//! The engine knobs (threads, morsel size, group commit) come from the
//! environment via `EngineConfig::default()`, so CI can sweep the
//! matrix without code changes.

use cypher::workload::QueryGenerator;
use cypher::EvalContext;
use cypher::{parse_query, Database, EngineConfig, Params, PropertyGraph, Record, Schema, Session};
use cypher::{Table, Value};
use cypher_client::Client;
use cypher_core::project::{GroupedAggState, ProjectionPlan};
use cypher_server::{Server, ServerConfig};
use std::time::Duration;

fn memory_cfg() -> EngineConfig {
    let mut cfg = EngineConfig::default();
    cfg.persistence = None;
    cfg
}

/// The fixed view panel: names with the query and whether the classifier
/// is expected to maintain it incrementally (`true`) or fall back to
/// full recomputation (`false`) — asserted via `EXPLAIN VIEW` so a
/// classifier regression cannot silently turn the whole suite into a
/// test of the fallback path only.
fn view_panel() -> Vec<(&'static str, &'static str, bool)> {
    vec![
        (
            "agg_by_v",
            "MATCH (n:A) RETURN n.v AS v, count(*) AS c, sum(n.i) AS total",
            true,
        ),
        (
            "edge_rows",
            "MATCH (a:A)-[r:X]->(b) RETURN a.v AS av, r.w AS w, b.v AS bv",
            true,
        ),
        (
            "avg_per_pair",
            "MATCH (a)-[:Y]->(b:B) RETURN a.v AS av, b.v AS bv, avg(a.i) AS m",
            true,
        ),
        // min/max without DISTINCT cannot be retracted exactly: fallback.
        (
            "extrema",
            "MATCH (n:B) RETURN min(n.i) AS lo, max(n.i) AS hi",
            false,
        ),
        // Variable-length paths are outside the delta fragment: fallback.
        (
            "reach2",
            "MATCH (a:A)-[:X*1..2]->(b) RETURN b.v AS v, count(*) AS c",
            false,
        ),
        // LIMIT truncates: fallback.
        (
            "top3",
            "MATCH (n:A) RETURN n.i AS i ORDER BY n.i DESC LIMIT 3",
            false,
        ),
    ]
}

fn check_view_matches_cold(session: &mut Session, name: &str, query: &str, after: &str) {
    let maintained = session
        .view(name)
        .unwrap_or_else(|e| panic!("view {name} unreadable after {after:?}: {e}"));
    let cold = session
        .query(query, &Params::new())
        .unwrap_or_else(|e| panic!("cold re-evaluation of {name} failed after {after:?}: {e}"));
    assert!(
        maintained.bag_eq(&cold),
        "view {name} drifted from cold re-evaluation after {after:?}\n\
         maintained:\n{maintained:?}\ncold:\n{cold:?}"
    );
}

#[test]
fn generated_views_track_generated_update_streams() {
    let params = Params::new();
    let db = Database::open_with(memory_cfg()).unwrap();
    let mut session = db.session();
    let mut gen = QueryGenerator::new(0x1ea5);
    for _ in 0..30 {
        let u = gen.next_update();
        session.query(&u, &params).unwrap();
    }

    let mut views: Vec<(String, String)> = Vec::new();
    for (name, query, incremental) in view_panel() {
        db.create_view(name, query)
            .unwrap_or_else(|e| panic!("create_view({name}) failed: {e}"));
        let explain = db.explain_view(name).unwrap();
        assert_eq!(
            !explain.contains("full recomputation"),
            incremental,
            "classifier surprise for {name}:\n{explain}"
        );
        views.push((name.to_string(), query.to_string()));
    }
    // Grammar-generated views on top: whatever shape comes out, the
    // registry must classify it safely and keep it exact.
    let mut viewgen = QueryGenerator::new(0xbeef);
    for k in 0..3 {
        let q = viewgen.next_aggregate_query();
        let name = format!("gen_agg_{k}");
        db.create_view(&name, &q).unwrap();
        views.push((name, q));
    }
    for k in 0..3 {
        let q = viewgen.next_query();
        let name = format!("gen_match_{k}");
        db.create_view(&name, &q).unwrap();
        views.push((name, q));
    }

    // Creation materialized every view at the current version.
    for (name, query) in &views {
        check_view_matches_cold(&mut session, name, query, "creation");
    }

    // Phase 1: the default update mix. Phase 2: the delete/retraction-
    // heavy churn preset — the stream that actually exercises the
    // retraction algebra and the diverged-state rebuild path.
    for step in 0..60 {
        let u = if step < 30 {
            gen.next_update()
        } else {
            gen.next_churn_update()
        };
        session.query(&u, &params).unwrap();
        for (name, query) in &views {
            check_view_matches_cold(&mut session, name, query, &u);
        }
    }
}

#[test]
fn pinned_readers_see_exact_views_under_concurrent_writers() {
    let params = Params::new();
    let db = Database::open_with(memory_cfg()).unwrap();
    let mut seed_session = db.session();
    let mut gen = QueryGenerator::new(7);
    for _ in 0..20 {
        let u = gen.next_update();
        seed_session.query(&u, &params).unwrap();
    }
    let views = [
        ("w_agg", "MATCH (n:A) RETURN n.v AS v, count(*) AS c"),
        (
            "w_rows",
            "MATCH (a:A)-[:X]->(b:B) RETURN a.v AS av, b.v AS bv",
        ),
    ];
    for (name, query) in views {
        db.create_view(name, query).unwrap();
    }

    const WRITERS: usize = 2;
    const EACH: usize = 25;
    const READ_ROUNDS: usize = 15;
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let mut session = db.session();
            let mut wgen = QueryGenerator::new(100 + w as u64);
            scope.spawn(move || {
                for i in 0..EACH {
                    let u = if i % 2 == 0 {
                        wgen.next_update()
                    } else {
                        wgen.next_churn_update()
                    };
                    session.query(&u, &Params::new()).unwrap();
                }
            });
        }
        for r in 0..2 {
            let mut session = db.session();
            scope.spawn(move || {
                for round in 0..READ_ROUNDS {
                    let pinned = session.begin_read();
                    for (name, query) in views {
                        check_view_matches_cold(
                            &mut session,
                            name,
                            query,
                            &format!("reader {r} round {round} pinned at {pinned}"),
                        );
                    }
                    session.commit();
                }
            });
        }
    });

    // Quiesced: the final maintained tables equal final cold state too.
    let mut session = db.session();
    for (name, query) in views {
        check_view_matches_cold(&mut session, name, query, "all writers joined");
    }
}

/// Applies one subscription frame (a bag delta) to `rows`, panicking if
/// a removed row was not present — a frame that retracts a row the
/// subscriber never saw means the server's diffs are not replayable.
fn apply_frame(rows: &mut Vec<Record>, added: &Table, removed: &Table, version: u64) {
    for gone in removed.rows() {
        let at = rows
            .iter()
            .position(|r| r.equivalent(gone))
            .unwrap_or_else(|| panic!("frame v{version} removed a row the replay never had"));
        rows.swap_remove(at);
    }
    rows.extend(added.rows().iter().cloned());
}

#[test]
fn tcp_subscription_frames_replay_to_the_maintained_table() {
    let params = Params::new();
    let db = Database::open_with(memory_cfg()).unwrap();
    {
        let mut seed = db.session();
        let mut gen = QueryGenerator::new(21);
        for _ in 0..15 {
            let u = gen.next_update();
            seed.query(&u, &params).unwrap();
        }
    }
    db.create_view("sub", "MATCH (n:A) RETURN n.v AS v, count(*) AS c")
        .unwrap();

    let server = Server::bind(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut writer = Client::connect(addr).unwrap();
    let subscriber = Client::connect(addr).unwrap();
    // No writes happen between this baseline read and the subscribe, so
    // the frame stream continues exactly from `baseline`.
    let (v0, baseline) = writer.read_view("sub").unwrap();
    let mut sub = subscriber.subscribe("sub").unwrap();

    let mut gen = QueryGenerator::new(22);
    for i in 0..30 {
        let u = if i % 2 == 0 {
            gen.next_update()
        } else {
            gen.next_churn_update()
        };
        writer.query(&u, &params).unwrap();
    }
    let (v_final, final_table) = writer.read_view("sub").unwrap();
    assert!(v_final > v0, "the writer committed versions");

    let mut rows: Vec<Record> = baseline.rows().to_vec();
    let mut last_version = v0;
    while let Some(frame) = sub.next_timeout(Duration::from_secs(5)).unwrap() {
        assert_eq!(frame.name, "sub");
        assert!(
            frame.version > last_version,
            "frames must arrive in strictly increasing version order \
             ({} after {last_version})",
            frame.version
        );
        assert!(
            frame.added.len() + frame.removed.len() > 0,
            "v{}: empty frames are never pushed",
            frame.version
        );
        last_version = frame.version;
        apply_frame(&mut rows, &frame.added, &frame.removed, frame.version);
        if frame.version >= v_final {
            break;
        }
    }
    // Commits after the last view-changing one push no frame, so
    // `last_version` may stop short of `v_final`: the replay is judged
    // by whether it reproduces the final maintained table.
    let mut replayed = Table::empty(final_table.schema().clone());
    for r in rows {
        replayed.push(r);
    }
    assert!(
        replayed.bag_eq(&final_table),
        "replaying {last_version}-v{v0} frames over the baseline did not \
         reproduce the maintained table\nreplayed:\n{replayed:?}\n\
         maintained:\n{final_table:?}"
    );

    drop(writer);
    server.shutdown();
}

/// The bag difference `(new − old, old − new)` of two tables, by Cypher
/// equivalence — the reference a subscription frame must equal.
fn bag_diff(old: &Table, new: &Table) -> (Vec<Record>, Vec<Record>) {
    let mut removed: Vec<Record> = old.rows().to_vec();
    let mut added = Vec::new();
    for r in new.rows() {
        match removed.iter().position(|o| o.equivalent(r)) {
            Some(at) => {
                removed.swap_remove(at);
            }
            None => added.push(r.clone()),
        }
    }
    (added, removed)
}

fn rows_bag_eq(schema: &std::sync::Arc<Schema>, a: Vec<Record>, b: Vec<Record>) -> bool {
    Table::new(schema.clone(), a).bag_eq(&Table::new(schema.clone(), b))
}

#[test]
fn published_group_rows_track_finalization_under_group_churn() {
    let graph = PropertyGraph::new();
    let params = Params::new();
    let ctx = EvalContext::new(&graph, &params);
    let src = Schema::new(vec!["g".into(), "x".into()]);
    for ret in [
        "RETURN g AS g, count(*) AS c, sum(x) AS s",
        "RETURN DISTINCT g AS g",
        "RETURN count(*) AS c, sum(x) AS s",
    ] {
        let q = parse_query(&format!("MATCH (n) {ret}")).unwrap();
        let cypher::ast::query::Query::Single(sq) = q else {
            unreachable!()
        };
        let plan = ProjectionPlan::compile(sq.ret.as_ref().unwrap(), &src).unwrap();
        let out = plan.out_schema().clone();
        let mut state = GroupedAggState::new(false);
        let mut live: Vec<Record> = Vec::new();
        let mut prev = Table::empty(out.clone());
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..600 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = rng >> 33;
            // Few keys, frequent full retraction: groups die and return.
            let n = 1 + (r % 3) as usize;
            for k in 0..n {
                let retract = !live.is_empty() && (r >> (8 + k)).is_multiple_of(2);
                if retract {
                    let victim = live.swap_remove((r as usize >> 12) % live.len());
                    assert!(state.retract(&ctx, &plan, &src, &victim).unwrap());
                } else {
                    let g = ((r >> (16 + k)) % 5) as i64;
                    let row = Record::new(vec![Value::int(g), Value::int(step)]);
                    state.feed(&ctx, &plan, &src, &row).unwrap();
                    live.push(row);
                }
            }
            let published = state.publish(&ctx, &plan, &src).unwrap();
            let table = published.rows.to_table(out.clone());
            let full = state.finalize_snapshot(&ctx, &plan, &src).unwrap();
            assert!(
                table.bag_eq(&full),
                "{ret} step {step}: publication != finalization\n{table}\n{full}"
            );
            let (added, removed) = bag_diff(&prev, &table);
            assert!(
                rows_bag_eq(&out, published.added, added),
                "{ret} step {step}: added rows differ from the table diff"
            );
            assert!(
                rows_bag_eq(&out, published.removed, removed),
                "{ret} step {step}: removed rows differ from the table diff"
            );
            prev = table;
        }
        assert!(state.group_count() <= 5, "{ret}: tombstones leaked");
    }
}

#[test]
fn subscription_frames_are_publication_diffs_under_group_churn() {
    let params = Params::new();
    let db = Database::open_with(memory_cfg()).unwrap();
    let mut session = db.session();
    session
        .query(
            "UNWIND range(0, 39) AS i CREATE (:G {i: i, g: i % 4, x: i})",
            &params,
        )
        .unwrap();
    let views = [
        (
            "by_g",
            "MATCH (n:G) RETURN n.g AS g, count(*) AS c, sum(n.x) AS s",
            vec![],
        ),
        (
            "by_g_ordered",
            "MATCH (n:G) RETURN n.g AS g, count(*) AS c ORDER BY c DESC, g",
            vec![(1, false), (0, true)],
        ),
        (
            "distinct_g",
            "MATCH (n:G) RETURN DISTINCT n.g AS g ORDER BY g DESC",
            vec![(0, false)],
        ),
        (
            "total",
            "MATCH (n:G) RETURN count(*) AS c, sum(n.x) AS s",
            vec![],
        ),
    ];
    let mut subs = Vec::new();
    for (name, query, _) in &views {
        db.create_view(name, query).unwrap();
        assert!(
            db.explain_view(name)
                .unwrap()
                .contains("grouped-aggregate fold"),
            "{name} must be delta-maintained"
        );
        subs.push((db.subscribe(name).unwrap(), session.view(name).unwrap()));
    }
    let mut rng = 0x2545_f491_4f6c_dd1du64;
    let mut fresh = 40;
    for step in 0..150 {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = rng >> 33;
        let g = (r % 9) as i64;
        let g2 = ((r >> 8) % 9) as i64;
        // Moves, deletions and label removals empty whole groups; creates
        // bring keys back (and new ones up to 8).
        let u = match (r >> 16) % 5 {
            0 => format!("MATCH (n:G) WHERE n.g = {g} SET n.g = {g2}"),
            1 => format!("MATCH (n:G) WHERE n.g = {g} DETACH DELETE n"),
            2 => format!("MATCH (n:G) WHERE n.g = {g} REMOVE n:G"),
            _ => {
                fresh += 3;
                format!(
                    "UNWIND range({fresh}, {}) AS i CREATE (:G {{i: i, g: {g}, x: i}})",
                    fresh + 2
                )
            }
        };
        session.query(&u, &params).unwrap();
        for ((name, query, order), (sub, prev)) in views.iter().zip(subs.iter_mut()) {
            let now = session.view(name).unwrap();
            let cold = session.query(query, &params).unwrap();
            assert!(
                now.bag_eq(&cold),
                "{name} after {u:?}: maintained\n{now}\ncold\n{cold}"
            );
            let sorted = now.rows().windows(2).all(|w| {
                order
                    .iter()
                    .map(|&(col, asc): &(usize, bool)| {
                        let o = w[0].get(col).cmp_order(w[1].get(col));
                        if asc {
                            o
                        } else {
                            o.reverse()
                        }
                    })
                    .find(|o| o.is_ne())
                    .is_none_or(|o| o.is_lt())
            });
            assert!(sorted, "{name} after {u:?}: not in ORDER BY order\n{now}");
            let (added, removed) = bag_diff(prev, &now);
            if added.is_empty() && removed.is_empty() {
                assert!(
                    sub.try_next().is_none(),
                    "{name} step {step}: frame for an unchanged table"
                );
            } else {
                let frame = sub
                    .next_timeout(Duration::from_secs(5))
                    .unwrap_or_else(|| panic!("{name} step {step}: no frame for {u:?}"));
                let schema = now.schema();
                assert!(
                    rows_bag_eq(schema, frame.added.rows().to_vec(), added),
                    "{name} after {u:?}: frame added rows != publication diff"
                );
                assert!(
                    rows_bag_eq(schema, frame.removed.rows().to_vec(), removed),
                    "{name} after {u:?}: frame removed rows != publication diff"
                );
            }
            *prev = now;
        }
    }
}
