//! Property-based testing of **incremental index maintenance**: random
//! interleavings of every mutating operation the store offers must (a)
//! never panic, (b) leave every index family answering exactly what a
//! brute-force scan of the live graph answers, and (c) agree with the
//! indexes of a graph rebuilt from scratch out of the mutated graph's
//! live contents — the recomputation obligation of incremental view
//! maintenance (cf. Berkholz et al., "Answering FO+MOD queries under
//! updates").

use cypher_graph::index::value_bucket;
use cypher_graph::{NodeId, PropertyGraph, Value};
use proptest::prelude::*;

const LABELS: [&str; 2] = ["P", "Q"];
const KEYS: [&str; 2] = ["k", "m"];
const VALUES: i64 = 5;

/// One encoded mutation: `(kind, a, value, c)` with the indices taken
/// modulo the live entity lists at application time.
type Op = (u8, usize, i64, usize);

fn apply(
    g: &mut PropertyGraph,
    nodes: &mut Vec<NodeId>,
    rels: &mut Vec<cypher_graph::RelId>,
    op: Op,
) {
    let (kind, a, v, c) = op;
    let pick = |list: &[NodeId], i: usize| list[i % list.len()];
    match kind {
        // Node creation, with label subsets and one or two indexed props.
        0 | 1 => {
            let mut labels: Vec<&str> = Vec::new();
            if a % 2 == 0 {
                labels.push(LABELS[0]);
            }
            if c % 2 == 0 {
                labels.push(LABELS[1]);
            }
            let n = if c % 3 == 0 {
                g.add_node(&labels, [("k", Value::int(v)), ("m", Value::int(v % 2))])
            } else {
                g.add_node(&labels, [("k", Value::int(v))])
            };
            nodes.push(n);
        }
        2 if !nodes.is_empty() => {
            let r = g
                .add_rel(pick(nodes, a), pick(nodes, c), "T", [])
                .expect("live endpoints");
            rels.push(r);
        }
        3 if !rels.is_empty() => {
            let r = rels.swap_remove(a % rels.len());
            g.delete_rel(r).expect("live rel");
        }
        4 if !nodes.is_empty() => {
            let n = nodes.swap_remove(a % nodes.len());
            g.detach_delete_node(n).expect("live node");
            rels.retain(|&r| g.contains_rel(r));
        }
        5 if !nodes.is_empty() => {
            let k = g.intern(KEYS[c % KEYS.len()]);
            g.set_node_prop(pick(nodes, a), k, Value::int(v)).unwrap();
        }
        // `SET n.k = null` removes the key (and its index entries).
        6 if !nodes.is_empty() => {
            let k = g.intern(KEYS[c % KEYS.len()]);
            g.set_node_prop(pick(nodes, a), k, Value::Null).unwrap();
        }
        7 if !nodes.is_empty() => {
            let k = g.intern(KEYS[c % KEYS.len()]);
            g.remove_node_prop(pick(nodes, a), k).unwrap();
        }
        8 if !nodes.is_empty() => {
            let l = g.intern(LABELS[c % LABELS.len()]);
            g.add_label(pick(nodes, a), l).unwrap();
        }
        9 if !nodes.is_empty() => {
            let l = g.intern(LABELS[c % LABELS.len()]);
            g.remove_label(pick(nodes, a), l).unwrap();
        }
        10 if !nodes.is_empty() => {
            let k = g.intern("k");
            g.replace_node_props(pick(nodes, a), vec![(k, Value::int(v))])
                .unwrap();
        }
        _ => {} // mutation on an empty graph: no-op
    }
}

/// Brute-force oracle: scan every live node instead of consulting any
/// index (the "rebuilt from scratch" answer for membership queries).
fn brute_label(g: &PropertyGraph, label: &str) -> Vec<NodeId> {
    match g.interner().get(label) {
        Some(l) => g.nodes().filter(|&n| g.has_label(n, l)).collect(),
        None => Vec::new(),
    }
}

fn brute_prop(g: &PropertyGraph, key: &str, v: &Value) -> Vec<NodeId> {
    match g.interner().get(key) {
        Some(k) => g
            .nodes()
            .filter(|&n| g.node_prop(n, k).map(|w| w.equivalent(v)).unwrap_or(false))
            .collect(),
        None => Vec::new(),
    }
}

fn brute_label_prop(g: &PropertyGraph, label: &str, key: &str, v: &Value) -> Vec<NodeId> {
    let with_label = brute_label(g, label);
    match g.interner().get(key) {
        Some(k) => with_label
            .into_iter()
            .filter(|&n| g.node_prop(n, k).map(|w| w.equivalent(v)).unwrap_or(false))
            .collect(),
        None => Vec::new(),
    }
}

/// Every index family must answer exactly like the brute-force scan.
fn assert_indexes_match_scan(g: &PropertyGraph, when: &str) {
    for label in LABELS {
        if let Some(l) = g.interner().get(label) {
            let mut indexed: Vec<NodeId> = g.nodes_with_label(l).collect();
            indexed.sort_unstable();
            assert_eq!(indexed, brute_label(g, label), "label {label} ({when})");
        }
        for key in KEYS {
            for v in 0..VALUES {
                let v = Value::int(v);
                if let (Some(l), Some(k)) = (g.interner().get(label), g.interner().get(key)) {
                    assert_eq!(
                        g.nodes_with_label_prop(l, k, &v),
                        brute_label_prop(g, label, key, &v),
                        "composite ({label}, {key}, {v}) ({when})"
                    );
                }
            }
        }
    }
    for key in KEYS {
        let Some(k) = g.interner().get(key) else {
            continue;
        };
        for v in 0..VALUES {
            let v = Value::int(v);
            assert_eq!(
                g.nodes_with_prop(k, &v),
                brute_prop(g, key, &v),
                "property ({key}, {v}) ({when})"
            );
        }
        // Cardinality statistics: entries = live nodes carrying the key,
        // distinct = distinct value buckets among them.
        let card = g.prop_index_cardinality(k);
        let holders: Vec<NodeId> = g.nodes().filter(|&n| g.node_prop(n, k).is_some()).collect();
        let mut buckets: Vec<u64> = holders
            .iter()
            .map(|&n| value_bucket(g.node_prop(n, k).unwrap()))
            .collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert_eq!(card.entries, holders.len(), "entries of {key} ({when})");
        assert_eq!(card.distinct, buckets.len(), "distinct of {key} ({when})");
    }
}

/// Rebuilds a fresh graph from the live contents of `g` and checks that
/// its (from-scratch) indexes answer the same membership queries, modulo
/// the id renaming of the rebuild.
fn assert_matches_rebuild(g: &PropertyGraph) {
    let mut fresh = PropertyGraph::new();
    let mut map: std::collections::BTreeMap<NodeId, NodeId> = std::collections::BTreeMap::new();
    for n in g.nodes() {
        let labels: Vec<_> = g
            .labels(n)
            .iter()
            .map(|&l| fresh.intern(g.resolve(l)))
            .collect();
        let props: Vec<_> = g
            .node_props(n)
            .map(|(k, v)| (g.resolve(k).to_string(), v.clone()))
            .collect();
        let props = props
            .into_iter()
            .map(|(k, v)| (fresh.intern(&k), v))
            .collect();
        map.insert(n, fresh.add_node_syms(labels, props));
    }
    for label in LABELS {
        let old: Vec<NodeId> = brute_label(g, label).into_iter().map(|n| map[&n]).collect();
        let mut rebuilt = match fresh.interner().get(label) {
            Some(l) => fresh.nodes_with_label(l).collect(),
            None => Vec::new(),
        };
        rebuilt.sort_unstable();
        let mut old = old;
        old.sort_unstable();
        assert_eq!(rebuilt, old, "rebuilt label index for {label}");
        for key in KEYS {
            for v in 0..VALUES {
                let v = Value::int(v);
                let mut old: Vec<NodeId> = brute_label_prop(g, label, key, &v)
                    .into_iter()
                    .map(|n| map[&n])
                    .collect();
                old.sort_unstable();
                let rebuilt = match (fresh.interner().get(label), fresh.interner().get(key)) {
                    (Some(l), Some(k)) => fresh.nodes_with_label_prop(l, k, &v),
                    _ => Vec::new(),
                };
                assert_eq!(rebuilt, old, "rebuilt composite ({label}, {key}, {v})");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Interleaved mutations + index-backed seeks: no panics, and after
    // *every* operation each index family equals a from-scratch scan; at
    // the end the incrementally-maintained indexes also agree with a
    // graph rebuilt from the live contents.
    #[test]
    fn interleaved_mutations_keep_indexes_exact(
        ops in proptest::collection::vec((0u8..11, 0usize..128, 0i64..VALUES, 0usize..128), 1..40)
    ) {
        let mut g = PropertyGraph::new();
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut rels: Vec<cypher_graph::RelId> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            apply(&mut g, &mut nodes, &mut rels, *op);
            assert_indexes_match_scan(&g, &format!("after op {i} = {op:?}"));
        }
        assert_matches_rebuild(&g);
    }
}

/// Everything an index answers, rendered: the canonical dump plus every
/// label scan, label cardinality and key cardinality, and seeks for a
/// spread of values.
fn index_fingerprint(g: &PropertyGraph) -> String {
    let mut out = g.canonical_dump();
    for label in ["P", "Q"] {
        if let Some(l) = g.interner().get(label) {
            let scan: Vec<NodeId> = g.nodes_with_label(l).collect();
            out += &format!("{label}: {} {scan:?}\n", g.label_cardinality(l));
        }
    }
    for key in ["k", "u"] {
        let Some(k) = g.interner().get(key) else {
            continue;
        };
        out += &format!("{key}: {:?}\n", g.prop_index_cardinality(k));
        for v in (0..3000).step_by(37) {
            let v = Value::int(v);
            out += &format!("{key}={v}: {:?}\n", g.nodes_with_prop(k, &v));
            if let Some(l) = g.interner().get("P") {
                out += &format!(
                    "P {key}={v}: {:?} {:?}\n",
                    g.nodes_with_label_prop(l, k, &v),
                    g.label_prop_index_cardinality(l, k)
                );
            }
        }
    }
    out
}

/// One pseudorandom mutation against large postings: a unique key `u`
/// (thousands of single-node buckets, several trie levels), a 5-valued
/// key `k` (buckets of hundreds of ids, several list leaves) and two
/// labels (multi-leaf lists).
fn mutate(g: &mut PropertyGraph, nodes: &mut Vec<NodeId>, r: u64) {
    let pick = |nodes: &[NodeId]| nodes[(r >> 20) as usize % nodes.len()];
    let (k, u, p, q) = (g.intern("k"), g.intern("u"), g.intern("P"), g.intern("Q"));
    let value = Value::int(((r >> 8) % 3000) as i64);
    match r % 8 {
        0 | 1 => {
            let labels: &[&str] = if r & 0x100 == 0 { &["P"] } else { &["P", "Q"] };
            let i = ((r >> 9) % 3000) as i64;
            nodes.push(g.add_node(labels, [("k", Value::int(i % 5)), ("u", Value::int(i))]));
        }
        2 => g.set_node_prop(pick(nodes), u, value).unwrap(),
        3 => g
            .set_node_prop(pick(nodes), k, Value::int(((r >> 8) % 5) as i64))
            .unwrap(),
        4 => g.remove_node_prop(pick(nodes), u).unwrap(),
        5 => g.add_label(pick(nodes), q).unwrap(),
        6 => g
            .remove_label(pick(nodes), if r & 0x200 == 0 { p } else { q })
            .unwrap(),
        _ => {
            let n = nodes.swap_remove((r >> 20) as usize % nodes.len());
            g.detach_delete_node(n).unwrap();
        }
    }
}

#[test]
fn clones_are_frozen_snapshots_of_the_persistent_postings() {
    for seed in [1u64, 0x5eed] {
        let mut lcg = seed;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 24
        };
        let mut g = PropertyGraph::new();
        let mut nodes = Vec::new();
        for i in 0..2500i64 {
            let labels: &[&str] = if i % 3 == 0 { &["P", "Q"] } else { &["P"] };
            nodes.push(g.add_node(labels, [("k", Value::int(i % 5)), ("u", Value::int(i))]));
        }
        let base = g.clone();
        let mut stream = Vec::new();
        // A chain of clones, each frozen while its descendants mutate.
        let mut frozen: Vec<(PropertyGraph, String)> = Vec::new();
        for _ in 0..8 {
            let snap = g.clone();
            let print = index_fingerprint(&snap);
            frozen.push((snap, print));
            for _ in 0..300 {
                let r = next();
                stream.push(r);
                mutate(&mut g, &mut nodes, r);
            }
        }
        for (i, (snap, print)) in frozen.iter().enumerate() {
            assert!(
                index_fingerprint(snap) == *print,
                "seed {seed}: clone {i} changed after its descendants mutated"
            );
        }

        // The newest graph equals a from-scratch rebuild of its contents,
        // serial and on 4 threads.
        let dump = g.canonical_dump();
        for threads in [1, 4] {
            let rebuilt = PropertyGraph::restore_with_threads(
                g.node_slot_count(),
                g.rel_slot_count(),
                g.export_nodes(),
                g.export_rels(),
                threads,
            )
            .unwrap();
            assert_eq!(
                rebuilt.canonical_dump(),
                dump,
                "seed {seed}: rebuild on {threads}"
            );
            assert_eq!(index_fingerprint(&rebuilt), index_fingerprint(&g));
        }

        // Replaying the same stream with deferred index upkeep, applied in
        // bulk on 4 threads onto the populated base, equals incremental
        // maintenance.
        let mut bulk = base;
        let mut bulk_nodes: Vec<NodeId> = (0..2500).map(NodeId).collect();
        bulk.begin_bulk_index_maintenance();
        for &r in &stream {
            mutate(&mut bulk, &mut bulk_nodes, r);
        }
        bulk.finish_bulk_index_maintenance(4);
        assert_eq!(
            bulk.canonical_dump(),
            dump,
            "seed {seed}: deferred 4-thread apply"
        );
        assert_eq!(index_fingerprint(&bulk), index_fingerprint(&g));
    }
}
