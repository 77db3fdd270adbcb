//! Differential testing of **WHERE pushdown**: the planner splits a
//! clause's `WHERE` into conjuncts, folds label tests and constant
//! equalities into the node patterns (where they can become index seeks),
//! and places every other conjunct right after the step that binds its
//! variables — but only when no conjunct can raise. Every query here must
//!
//! * agree with the reference evaluator as a bag (or fail exactly when it
//!   fails, with the same message);
//! * produce the same row sequence (or the same error) at every
//!   thread × morsel configuration, under both worst-case-optimal join
//!   policies.
//!
//! The corpus mixes movable and non-movable conjuncts, three-valued
//! connectives, null and numeric-tower parameters, driving variables of
//! every value kind, relationship lists, `OPTIONAL MATCH` null-padding and
//! cyclic patterns. A few plan-shape checks make sure the pushdown the
//! corpus exercises actually happens.

use cypher::{
    explain, run_read_with, run_reference, EngineConfig, Error, Params, PropertyGraph, Value,
    WcoJoinMode,
};

/// 60 nodes: every node `:N` with `i`; every third also `:A`, every fifth
/// `:B`; `x` is a string on even nodes; `v` cycles through integers and
/// floats (`5` and `5.0` both occur) and is missing on every seventh node.
/// `T` relationships form a ring with chords (triangles included), each
/// with an integer `w`.
fn graph() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let mut ids = Vec::new();
    for i in 0..60i64 {
        let mut labels = vec!["N"];
        if i % 3 == 0 {
            labels.push("A");
        }
        if i % 5 == 0 {
            labels.push("B");
        }
        let mut props = vec![("i", Value::int(i))];
        if i % 2 == 0 {
            props.push(("x", Value::str(format!("s{i}"))));
        }
        if i % 7 != 0 {
            let v = if i % 4 == 0 {
                Value::Float((i % 9) as f64)
            } else {
                Value::int(i % 9)
            };
            props.push(("v", v));
        }
        ids.push(g.add_node(&labels, props));
    }
    for i in 0..60usize {
        for d in [1usize, 2, 7] {
            let j = (i + d) % 60;
            g.add_rel(
                ids[i],
                ids[j],
                "T",
                [("w", Value::int(((i * d) % 11) as i64))],
            )
            .unwrap();
        }
    }
    g
}

fn params() -> Params {
    let mut p = Params::new();
    p.insert("five".into(), Value::int(5));
    p.insert("fivef".into(), Value::Float(5.0));
    p.insert("nul".into(), Value::Null);
    p.insert("s".into(), Value::str("s4"));
    p
}

const CORPUS: &[&str] = &[
    // Movable: comparisons, connectives, IS NULL, label tests.
    "MATCH (a:N)-[:T]->(b)-[:T]->(c) WHERE a.i < 10 RETURN a.i AS a, b.i AS b, c.i AS c",
    "MATCH (a:N)-[:T]->(b)-[:T]->(c) WHERE a.i < 10 RETURN count(*) AS n",
    "MATCH (a)-[r:T]->(b) WHERE r.w > 5 AND b.i % 2 = 0 RETURN a.i AS a, b.i AS b",
    "MATCH (a)-[r:T]->(b) WHERE r.w > 5 AND b.v <> 3 RETURN a.i AS a, r.w AS w",
    "MATCH (a)-[:T]->(b) WHERE a.i < 5 OR b:B RETURN a.i AS a, b.i AS b",
    "MATCH (a)-[:T]->(b) WHERE NOT a:A AND b.v IS NULL RETURN a.i AS a, b.i AS b",
    "MATCH (a)-[:T]->(b) WHERE a.x IS NOT NULL XOR b.x IS NULL RETURN a.i AS a, b.i AS b",
    "MATCH (a)-[:T]->(b) WHERE b:A:B RETURN a.i AS a, b.i AS b",
    "MATCH (a)-[:T]->(b) WHERE b:A AND a.v = 5 RETURN a.i AS a, b.i AS b",
    "MATCH (n) WHERE n.v = 5 RETURN n.i AS i",
    "MATCH (n) WHERE 5.0 = n.v RETURN count(*) AS c",
    "MATCH (n:N) WHERE n.v = $five RETURN n.i AS i",
    "MATCH (n:N) WHERE n.v = $fivef RETURN n.i AS i",
    "MATCH (n:N) WHERE n.v = $nul RETURN n.i AS i",
    "MATCH (n:N) WHERE n.v = null RETURN n.i AS i",
    "MATCH (n:N) WHERE $nul IS NULL AND n.i < 3 RETURN n.i AS i",
    "MATCH (n:N) WHERE n.x = $s OR n.x < 's2' RETURN n.i AS i",
    "MATCH (n) WHERE n.v > 'a' RETURN count(*) AS c",
    "MATCH (n) WHERE true AND n.i >= 58 RETURN n.i AS i",
    "MATCH (n) WHERE null RETURN n.i AS i",
    // Non-movable mixes: one conjunct may raise, so the WHERE stays whole
    // (and the three-valued short-circuit keeps hiding the raise).
    "MATCH (a:N)-[:T]->(b) WHERE a.i < 10 AND a.x + 1 > 0 RETURN a.i AS a, b.i AS b",
    "MATCH (a:N)-[:T]->(b) WHERE a.i < 0 AND a.x - 1 > 0 RETURN a.i AS a",
    "MATCH (a:N)-[:T]->(b) WHERE a.i > 100 OR a.x + 1 > 0 RETURN a.i AS a",
    "MATCH (a)-[:T]->(b) WHERE a.i < 10 AND size(b.x) > 2 RETURN a.i AS a, b.x AS x",
    "MATCH (a)-[:T]->(b) WHERE a.i IN [1, 2, 3] AND b.i > 0 RETURN a.i AS a, b.i AS b",
    "MATCH (a)-[:T]->(b) WHERE a.v RETURN a.i AS a",
    "MATCH (n:N) WHERE n.i < 5 AND n.v = $missing RETURN n.i AS i",
    "MATCH (n:N) WHERE n.i < 0 AND n.v = $missing RETURN n.i AS i",
    "MATCH (a:N)-[:T]->(b:B) WHERE a.i = $missing RETURN a.i AS a",
    "MATCH (a:N {i: $missing})-[:T]->(b) WHERE b.i < 0 RETURN a.i AS a",
    // Driving variables from WITH, of every kind of value.
    "MATCH (a:A) WITH a MATCH (a)-[:T]->(b) WHERE b.i < 20 RETURN a.i AS a, b.i AS b",
    "MATCH (a:A) WITH a, a.i AS k MATCH (a)-[:T]->(b) WHERE b.i > k RETURN a.i AS a, b.i AS b",
    "WITH 5 AS a MATCH (a)-[:T]->(b) WHERE b.i < 3 RETURN b.i AS b",
    "WITH 5 AS a MATCH (b:B)-[:T]->(c) WHERE b.i < 3 RETURN b.i AS b",
    "WITH 'x' AS a MATCH (b:B), (a)-[:T]->(c) WHERE b.i > 100 RETURN b.i AS b",
    "WITH null AS a MATCH (b:B), (a)-[:T]->(c) WHERE b.i < 30 RETURN b.i AS b",
    "WITH [1, 2] AS a MATCH (b)-[:T]->(c) WHERE a.x = 1 AND b.i < 3 RETURN b.i AS b",
    "MATCH (a:A) WITH a MATCH (b:B {i: a.i}) WHERE b.v > 0 RETURN b.i AS b",
    "UNWIND [0, 3, 6] AS k MATCH (n:A) WHERE n.i = k RETURN k, n.i AS i",
    // Relationship lists: `r.x` on a list raises exactly when the
    // reference raises.
    "MATCH (a)-[r:T*1..2]->(b) WHERE a.i < 3 AND r.w > 1 RETURN a.i AS a",
    "MATCH (a)-[r:T*1..2]->(b) WHERE a.i < 0 AND r.w > 1 RETURN a.i AS a",
    "MATCH (a)-[r:T*1..2]->(b) WHERE a.i < 2 AND size(r) = 2 RETURN a.i AS a, b.i AS b",
    "MATCH p = (a)-[:T*1..2]->(b) WHERE a.i < 2 AND b:A RETURN a.i AS a, length(p) AS l",
    "MATCH p = (a)-[:T]->(b) WHERE a.i < 2 AND length(p) = 1 RETURN a.i AS a",
    // OPTIONAL MATCH … WHERE null-pads inputs whose matches all fail.
    "MATCH (a:B) OPTIONAL MATCH (a)-[:T]->(b) WHERE b.i % 3 = 0 RETURN a.i AS a, b.i AS b",
    "MATCH (a:B) OPTIONAL MATCH (a)-[r:T]->(b:A) WHERE r.w > 3 RETURN a.i AS a, b.i AS b",
    "OPTIONAL MATCH (a:B)-[:T]->(b) WHERE a.i = 5 AND b.v IS NOT NULL RETURN a.i AS a, b.i AS b",
    "OPTIONAL MATCH (a:B) WHERE a.i > 1000 RETURN a",
    // Cyclic patterns (intersection vs chain plans).
    "MATCH (a)-[:T]->(b)-[:T]->(c), (a)-[:T]->(c) WHERE a.i < 30 RETURN a.i AS a, b.i AS b, c.i AS c",
    "MATCH (a)-[:T]->(b)-[:T]->(c), (a)-[:T]->(c) WHERE a.i < 30 RETURN count(*) AS n",
    "MATCH (a)-[r1:T]->(b)-[r2:T]->(c), (a)-[r3:T]->(c) WHERE c:A AND r1.w < r2.w RETURN count(*) AS n",
    "MATCH (a)-[:T]->(b)-[:T]->(c), (c)-[:T]->(a) WHERE b.v = 5 OR c.x IS NULL RETURN a.i AS a, c.i AS c",
    // Cartesian products and disconnected components.
    "MATCH (a:B), (b:B) WHERE a.i < b.i AND b.i < 20 RETURN a.i AS a, b.i AS b",
    "MATCH (a:B), (b) WHERE b.v = 5 RETURN a.i AS a, b.i AS b",
    // Aggregation and top-k over pushed filters (the fused path).
    "MATCH (a)-[:T]->(b) WHERE a.i < 40 RETURN b.v AS v, count(*) AS c",
    "MATCH (a)-[:T]->(b) WHERE b:A RETURN DISTINCT a.v AS v",
    "MATCH (a)-[r:T]->(b) WHERE r.w < 4 RETURN a.i AS a, b.i AS b ORDER BY b DESC, a LIMIT 7",
];

/// The configurations whose outputs must be the identical row sequence.
fn matrix(wco: WcoJoinMode) -> Vec<EngineConfig> {
    [(1, 1024), (2, 1), (4, 3), (3, 16)]
        .into_iter()
        .map(|(t, m)| {
            EngineConfig::default()
                .with_threads(t)
                .with_morsel_size(m)
                .with_wco_join(wco)
        })
        .collect()
}

/// An error's kind: its message, except that the pipeline and the
/// reference matcher word "a pattern variable holds no node" differently.
fn kind(e: &Error) -> String {
    let msg = match e {
        Error::Eval(e) => e.msg.clone(),
        other => other.to_string(),
    };
    if msg.starts_with("Expand source must be a node") || msg.contains("used as a node pattern") {
        "pattern variable bound to a non-node".to_string()
    } else {
        msg
    }
}

#[test]
fn corpus_agrees_with_the_reference_at_every_configuration() {
    let g = graph();
    let p = params();
    for q in CORPUS {
        let oracle = run_reference(&g, q, &p);
        for wco in [WcoJoinMode::Auto, WcoJoinMode::Force, WcoJoinMode::Off] {
            let cfgs = matrix(wco);
            let base = run_read_with(&g, q, &p, &cfgs[0]);
            match (&base, &oracle) {
                (Ok(t), Ok(o)) => assert!(
                    t.bag_eq(o),
                    "{q} ({wco:?}) diverges from the reference\nengine:\n{t}\nreference:\n{o}"
                ),
                (Err(e), Err(o)) => {
                    assert_eq!(kind(e), kind(o), "{q} ({wco:?}) raises a different error")
                }
                (Ok(t), Err(o)) => {
                    panic!("{q} ({wco:?}): engine returned\n{t}\nreference raised {o}")
                }
                (Err(e), Ok(_)) => panic!("{q} ({wco:?}): engine raised {e}, reference did not"),
            }
            for cfg in &cfgs[1..] {
                let run = run_read_with(&g, q, &p, cfg);
                match (&run, &base) {
                    (Ok(t), Ok(b)) => assert!(
                        t.ordered_eq(b),
                        "{q} ({wco:?}, threads={}, morsel={}) reorders rows",
                        cfg.num_threads,
                        cfg.morsel_size
                    ),
                    (Err(e), Err(b)) => assert_eq!(e, b, "{q}: error depends on scheduling"),
                    _ => panic!(
                        "{q} ({wco:?}, threads={}, morsel={}): {run:?} vs {base:?}",
                        cfg.num_threads, cfg.morsel_size
                    ),
                }
            }
        }
    }
}

/// The lines of the first `MATCH` plan, trimmed of indentation and
/// estimates.
fn plan_lines(g: &PropertyGraph, q: &str) -> Vec<String> {
    explain(g, q)
        .unwrap()
        .lines()
        .map(|l| l.trim().split("  (est rows").next().unwrap().to_string())
        .collect()
}

#[test]
fn the_corpus_really_pushes() {
    let g = graph();
    // A range conjunct sits right under its anchor scan.
    let two_hop = plan_lines(
        &g,
        "MATCH (a:N)-[:T]->(b)-[:T]->(c) WHERE a.i < 10 RETURN count(*) AS n",
    );
    assert_eq!(two_hop[1], "NodeIndexScan(a:N)", "{two_hop:#?}");
    assert_eq!(two_hop[2], "Filter((a.i < 10))", "{two_hop:#?}");
    // A constant equality becomes a seek; a label test joins the labels.
    let seek = plan_lines(&g, "MATCH (n:N) WHERE n.v = $five RETURN n.i AS i");
    assert_eq!(seek[1], "PropertyIndexSeek(n:N.v = $five)", "{seek:#?}");
    let label = plan_lines(&g, "MATCH (a)-[:T]->(b) WHERE b:B RETURN a");
    assert_eq!(label[1], "NodeIndexScan(b:B)", "{label:#?}");
    // A conjunct that may raise keeps the whole WHERE last.
    let whole = plan_lines(
        &g,
        "MATCH (a:N)-[:T]->(b) WHERE a.i < 10 AND a.x + 1 > 0 RETURN a",
    );
    assert!(
        whole
            .iter()
            .any(|l| l == "Filter(((a.i < 10) AND ((a.x + 1) > 0)))"),
        "{whole:#?}"
    );
    assert!(whole[2].starts_with("Expand"), "{whole:#?}");
    // A path that may raise (a driving variable of any kind) holds the
    // filters back until it is planned.
    let held = plan_lines(
        &g,
        "MATCH (b:B) WITH b MATCH (c:A), (b)-[:T]->(d) WHERE c.i < 3 RETURN c",
    );
    let filter = held.iter().position(|l| l == "Filter((c.i < 3))").unwrap();
    let expand = held
        .iter()
        .position(|l| l.starts_with("Expand(b)"))
        .unwrap();
    assert!(expand < filter, "{held:#?}");
}
