//! Secondary indexes over nodes, with the cardinality statistics the
//! cost-based planner consumes.
//!
//! Three index families are maintained **incrementally** by every mutation
//! path of [`crate::graph::PropertyGraph`] (`CREATE`, `DELETE`, `SET`,
//! `REMOVE`, `MERGE` all bottom out in the store's mutators, so the
//! indexes can never drift from the base data — the concern the
//! incremental-view-maintenance literature calls *update correctness*):
//!
//! * the **label index** `ℓ → { n | ℓ ∈ λ(n) }`,
//! * the **property index** `k → (h(v) → { n | ι(n, k) ≡ v })`, and
//! * the **composite label/property index**
//!   `(ℓ, k) → (h(v) → { n | ℓ ∈ λ(n) ∧ ι(n, k) ≡ v })`,
//!
//! where `h` is the equivalence-respecting hash of [`Value`]
//! ([`Value::hash_equivalent`]). Buckets are hash classes, not exact value
//! classes: readers re-check candidates with [`Value::equivalent`], so a
//! hash collision costs time, never correctness.
//!
//! Every bucket map also carries running totals, from which
//! [`IndexCardinality`] derives the planner's selectivity estimate for an
//! equality seek: `entries / distinct` ≈ expected matches per looked-up
//! value, the classic uniform-values assumption (cf. the output-size
//! bounds of Abo Khamis et al., *Computing Join Queries with Functional
//! Dependencies*, which this per-key statistic crudely approximates).
//!
//! ## Copy-on-write cost
//!
//! The graph, indexes included, is cloned once per committed write batch,
//! so what a commit pays is the first write after a clone. Label lists
//! are persistent B+-trees and each bucket map is a path-copying
//! hash-array-mapped trie whose single-node buckets are stored inline
//! (see `postings.rs`). Cloning an
//! [`IndexSet`] bumps one `Arc` per indexed label, key and `(label, key)`
//! pair; the first write after it copies one root-to-leaf path of bounded
//! nodes per structure it touches — a few KiB, independent of how many
//! nodes, values or ids the touched index holds.

use crate::fxhash::FxHashMap;
use crate::graph::NodeId;
use crate::interner::Symbol;
use crate::postings::{root_branch, BucketTrie, IdList, Postings, TrieBranch};
use crate::value::Value;

/// Hashes a value into its index bucket, respecting Cypher equivalence
/// (so `9` and `9.0` land in the same bucket).
pub fn value_bucket(v: &Value) -> u64 {
    use std::hash::Hasher;
    let mut h = crate::fxhash::FxHasher::default();
    v.hash_equivalent(&mut h);
    h.finish()
}

/// Cardinality statistics for one indexed key (or one `(label, key)`
/// pair): how many index entries exist and how many distinct values they
/// spread over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexCardinality {
    /// Total `(node, value)` entries indexed under the key.
    pub entries: usize,
    /// Number of distinct indexed values (hash classes).
    pub distinct: usize,
}

impl IndexCardinality {
    /// Expected number of nodes returned by an equality seek, under the
    /// uniform-values assumption. Zero when nothing is indexed.
    pub fn seek_estimate(&self) -> f64 {
        if self.distinct == 0 {
            0.0
        } else {
            self.entries as f64 / self.distinct as f64
        }
    }
}

impl BucketTrie {
    fn cardinality(&self) -> IndexCardinality {
        IndexCardinality {
            entries: self.entries(),
            distinct: self.buckets(),
        }
    }

    /// Canonical rendering: buckets sorted by hash, lists in id order.
    fn dump(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (h, nodes) in self.sorted_buckets() {
            let nodes: Vec<NodeId> = nodes.collect();
            write!(s, "{h:016x}={nodes:?} ").unwrap();
        }
        s
    }
}

/// One primitive, fully-resolved index mutation. Bulk (deferred) mode
/// buffers these instead of touching posting structures, then applies
/// them grouped by **disjoint target unit** — a label's posting list, or
/// one root branch of a key's bucket trie — preserving per-unit emission
/// order, which makes the final state identical to incremental
/// maintenance while letting units apply on different threads.
#[derive(Debug, Clone, Copy)]
enum IndexOp {
    Label {
        insert: bool,
        l: Symbol,
        n: NodeId,
    },
    Bucket {
        insert: bool,
        target: BucketTarget,
        bucket: u64,
        n: NodeId,
    },
}

/// The bucket map an [`IndexOp`] targets: a key's, or a `(label, key)`
/// pair's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum BucketTarget {
    Prop(Symbol),
    Composite(Symbol, Symbol),
}

/// Below this many buffered ops the fan-out overhead outweighs the work.
const PARALLEL_APPLY_MIN_OPS: usize = 2048;

/// The full set of node indexes of one [`crate::graph::PropertyGraph`].
///
/// The store owns exactly one `IndexSet` and routes every node mutation
/// through the `on_*` hooks below; each hook is O(labels × properties
/// touched) primitive ops — the incremental cost of staying consistent.
/// Every posting structure is persistent (see the module docs): cloning
/// an `IndexSet` is one `Arc` bump per indexed label, key and
/// `(label, key)` pair, and a mutation after a clone copies one bounded
/// path per structure it touches (see [`crate::version`] for the
/// multi-version protocol this serves).
#[derive(Debug, Clone, Default)]
pub struct IndexSet {
    /// `ℓ → nodes`, in id order (scan order is deterministic *and*
    /// canonical: index state is a pure function of graph content, never
    /// of mutation history, which is what lets crash recovery rebuild
    /// every index bit-identical to the incrementally maintained one).
    labels: FxHashMap<Symbol, IdList>,
    /// `k → value → nodes`.
    props: FxHashMap<Symbol, BucketTrie>,
    /// `(ℓ, k) → value → nodes` — the composite index backing
    /// `PropertyIndexSeek`.
    label_props: FxHashMap<(Symbol, Symbol), BucketTrie>,
    /// `Some` while in bulk mode: hooks buffer [`IndexOp`]s here instead
    /// of applying them (see [`IndexSet::begin_deferred`]).
    deferred: Option<Vec<IndexOp>>,
}

impl IndexSet {
    /// Creates an empty index set.
    pub fn new() -> Self {
        Self::default()
    }

    // -- mutation hooks ------------------------------------------------------

    /// Applies one op now, or buffers it in bulk mode.
    fn emit(&mut self, op: IndexOp) {
        match &mut self.deferred {
            Some(buf) => buf.push(op),
            None => self.apply_op(op),
        }
    }

    /// Emits the key and composite entries of `(k, bucket)` on a node
    /// carrying `labels`.
    fn emit_prop(&mut self, insert: bool, n: NodeId, labels: &[Symbol], k: Symbol, bucket: u64) {
        let targets = std::iter::once(BucketTarget::Prop(k))
            .chain(labels.iter().map(|&l| BucketTarget::Composite(l, k)));
        for target in targets {
            self.emit(IndexOp::Bucket {
                insert,
                target,
                bucket,
                n,
            });
        }
    }

    /// Emits the label and composite entries of label `l` on a node with
    /// the given properties.
    fn emit_label(&mut self, insert: bool, n: NodeId, l: Symbol, props: &[(Symbol, u64)]) {
        self.emit(IndexOp::Label { insert, l, n });
        for &(k, bucket) in props {
            self.emit(IndexOp::Bucket {
                insert,
                target: BucketTarget::Composite(l, k),
                bucket,
                n,
            });
        }
    }

    /// A node was created with the given labels and properties. `labels`
    /// must already be deduplicated.
    pub fn on_node_added(&mut self, n: NodeId, labels: &[Symbol], props: &[(Symbol, u64)]) {
        for &l in labels {
            self.emit(IndexOp::Label { insert: true, l, n });
        }
        for &(k, bucket) in props {
            self.emit_prop(true, n, labels, k, bucket);
        }
    }

    /// A node is being removed; `labels`/`props` describe its state at
    /// removal time.
    pub fn on_node_removed(&mut self, n: NodeId, labels: &[Symbol], props: &[(Symbol, u64)]) {
        for &l in labels {
            self.emit(IndexOp::Label {
                insert: false,
                l,
                n,
            });
        }
        for &(k, bucket) in props {
            self.emit_prop(false, n, labels, k, bucket);
        }
    }

    /// A label was added to a live node with the given current properties.
    pub fn on_label_added(&mut self, n: NodeId, l: Symbol, props: &[(Symbol, u64)]) {
        self.emit_label(true, n, l, props);
    }

    /// A label was removed from a live node with the given current
    /// properties.
    pub fn on_label_removed(&mut self, n: NodeId, l: Symbol, props: &[(Symbol, u64)]) {
        self.emit_label(false, n, l, props);
    }

    /// A property value was set on a node carrying `labels`.
    pub fn on_prop_set(&mut self, n: NodeId, labels: &[Symbol], k: Symbol, bucket: u64) {
        self.emit_prop(true, n, labels, k, bucket);
    }

    /// A property value was removed from a node carrying `labels`.
    pub fn on_prop_removed(&mut self, n: NodeId, labels: &[Symbol], k: Symbol, bucket: u64) {
        self.emit_prop(false, n, labels, k, bucket);
    }

    // -- bulk (deferred) maintenance -----------------------------------------

    /// Enters bulk mode: subsequent hooks buffer primitive ops instead of
    /// touching posting structures. Lookups and statistics are stale until
    /// [`IndexSet::finish_deferred`] — bulk mode is for mutation-only
    /// phases (WAL replay, snapshot restore), never for live queries.
    pub(crate) fn begin_deferred(&mut self) {
        if self.deferred.is_none() {
            self.deferred = Some(Vec::new());
        }
    }

    /// Leaves bulk mode, applying every buffered op. Ops are grouped by
    /// disjoint posting unit — a label's list, or one root branch of a
    /// key's (or `(label, key)` pair's) bucket trie. A unit whose
    /// structure starts empty and receives only inserts is bulk-built in
    /// one sorted pass (the snapshot-restore case); any other unit
    /// replays its ops in emission order. With `threads > 1` and enough
    /// ops the units run on scoped threads. Either way the final index
    /// state is identical to incremental maintenance.
    pub(crate) fn finish_deferred(&mut self, threads: usize) {
        let Some(ops) = self.deferred.take() else {
            return;
        };
        let threads = if ops.len() < PARALLEL_APPLY_MIN_OPS {
            1
        } else {
            threads
        };
        self.apply_deferred(ops, threads);
    }

    /// Applies one op to the posting structures. Inserts create a label's
    /// list or a key's trie on first use; removals never create one.
    fn apply_op(&mut self, op: IndexOp) {
        match op {
            IndexOp::Label { insert: true, l, n } => {
                self.labels.entry(l).or_default().insert(n);
            }
            IndexOp::Label {
                insert: false,
                l,
                n,
            } => {
                if let Some(list) = self.labels.get_mut(&l) {
                    list.remove(n);
                }
            }
            IndexOp::Bucket {
                insert,
                target,
                bucket,
                n,
            } => {
                if let Some(trie) = self.trie_mut(target, insert) {
                    if insert {
                        trie.insert(bucket, n);
                    } else {
                        trie.remove(bucket, n);
                    }
                }
            }
        }
    }

    /// The unit-wise bulk apply behind [`IndexSet::finish_deferred`]:
    /// each unit's structure is detached, mutated (on a worker thread when
    /// `threads > 1`), and re-attached serially. A unit mirrors
    /// [`IndexSet::apply_op`] exactly, including when structures are
    /// created (inserts create, removes never do), so the result equals
    /// serial application — the recovery differential's canonical dumps
    /// witness this.
    fn apply_deferred(&mut self, ops: Vec<IndexOp>, threads: usize) {
        type BranchOps = Vec<(bool, u64, NodeId)>;
        enum Unit {
            Label {
                l: Symbol,
                list: IdList,
                ops: Vec<(bool, NodeId)>,
            },
            Branch {
                target: BucketTarget,
                branch: u32,
                trie: TrieBranch,
                ops: BranchOps,
            },
        }

        // Group ops by unit, preserving emission order within each.
        let mut label_ops: FxHashMap<Symbol, Vec<(bool, NodeId)>> = FxHashMap::default();
        let mut branch_ops: FxHashMap<(BucketTarget, u32), BranchOps> = FxHashMap::default();
        for op in ops {
            match op {
                IndexOp::Label { insert, l, n } => {
                    label_ops.entry(l).or_default().push((insert, n));
                }
                IndexOp::Bucket {
                    insert,
                    target,
                    bucket,
                    n,
                } => {
                    branch_ops
                        .entry((target, root_branch(bucket)))
                        .or_default()
                        .push((insert, bucket, n));
                }
            }
        }

        // Detach each unit's target structure. Remove-only units against
        // absent structures stay absent (removals never create one).
        let mut units: Vec<std::sync::Mutex<Unit>> = Vec::new();
        for (l, ops) in label_ops {
            if !self.labels.contains_key(&l) && !ops.iter().any(|&(ins, _)| ins) {
                continue;
            }
            let list = self.labels.remove(&l).unwrap_or_default();
            units.push(std::sync::Mutex::new(Unit::Label { l, list, ops }));
        }
        for ((target, branch), ops) in branch_ops {
            let create = ops.iter().any(|&(ins, _, _)| ins);
            let Some(trie) = self.trie_mut(target, create) else {
                continue;
            };
            units.push(std::sync::Mutex::new(Unit::Branch {
                target,
                branch,
                trie: trie.take_branch(branch),
                ops,
            }));
        }

        // Units are disjoint, so workers claim them off a shared cursor
        // and mutate independently; each per-unit mutex is uncontended.
        fn run_unit(u: &mut Unit) {
            match u {
                Unit::Label { list, ops, .. } if list.is_empty() && ops.iter().all(|op| op.0) => {
                    let mut ids: Vec<NodeId> = ops.iter().map(|op| op.1).collect();
                    ids.sort_unstable();
                    ids.dedup();
                    *list = IdList::from_sorted(&ids);
                }
                Unit::Branch { trie, ops, .. } if trie.is_empty() && ops.iter().all(|op| op.0) => {
                    trie.fill(ops.iter().map(|op| (op.1, op.2)).collect());
                }
                Unit::Label { list, ops, .. } => {
                    for &(insert, n) in ops.iter() {
                        if insert {
                            list.insert(n);
                        } else {
                            list.remove(n);
                        }
                    }
                }
                Unit::Branch { trie, ops, .. } => {
                    for &(insert, bucket, n) in ops.iter() {
                        if insert {
                            trie.insert(bucket, n);
                        } else {
                            trie.remove(bucket, n);
                        }
                    }
                }
            }
        }
        let workers = threads.min(units.len()).max(1);
        if workers <= 1 {
            for u in &units {
                run_unit(&mut u.lock().unwrap());
            }
        } else {
            let cursor = std::sync::atomic::AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(u) = units.get(i) else { break };
                        run_unit(&mut u.lock().unwrap());
                    });
                }
            });
        }

        // Serial writeback. Surviving label units had a prior list or an
        // insert op, and incremental inserts create lists that removals
        // never delete — so the list always exists afterwards, even when
        // it netted out empty.
        for u in units {
            match u.into_inner().unwrap() {
                Unit::Label { l, list, .. } => {
                    self.labels.insert(l, list);
                }
                Unit::Branch {
                    target,
                    branch,
                    trie,
                    ..
                } => {
                    self.trie_mut(target, false)
                        .expect("unit target exists")
                        .put_branch(branch, trie);
                }
            }
        }
    }

    /// The bucket trie of `target`; created empty when absent and
    /// `create` holds.
    fn trie_mut(&mut self, target: BucketTarget, create: bool) -> Option<&mut BucketTrie> {
        match (target, create) {
            (BucketTarget::Prop(k), true) => Some(self.props.entry(k).or_default()),
            (BucketTarget::Prop(k), false) => self.props.get_mut(&k),
            (BucketTarget::Composite(l, k), true) => {
                Some(self.label_props.entry((l, k)).or_default())
            }
            (BucketTarget::Composite(l, k), false) => self.label_props.get_mut(&(l, k)),
        }
    }

    // -- lookups -------------------------------------------------------------

    /// Live nodes with the given label, in id order.
    pub fn nodes_with_label(&self, l: Symbol) -> Postings<'_> {
        self.labels
            .get(&l)
            .map(IdList::iter)
            .unwrap_or_else(Postings::empty)
    }

    /// Candidate nodes whose property `k` hashes like `v`, in id order.
    /// Callers must re-check equivalence (hash classes may collide).
    pub fn prop_candidates(&self, k: Symbol, bucket: u64) -> Postings<'_> {
        self.props
            .get(&k)
            .map(|b| b.get(bucket))
            .unwrap_or_else(Postings::empty)
    }

    /// Candidate nodes with label `l` whose property `k` hashes like `v`,
    /// in id order.
    pub fn label_prop_candidates(&self, l: Symbol, k: Symbol, bucket: u64) -> Postings<'_> {
        self.label_props
            .get(&(l, k))
            .map(|b| b.get(bucket))
            .unwrap_or_else(Postings::empty)
    }

    // -- statistics ----------------------------------------------------------

    /// Number of nodes carrying the label.
    pub fn label_cardinality(&self, l: Symbol) -> usize {
        self.labels.get(&l).map_or(0, IdList::len)
    }

    /// Cardinality statistics of the property index for `k`.
    pub fn prop_cardinality(&self, k: Symbol) -> IndexCardinality {
        self.props
            .get(&k)
            .map(|b| b.cardinality())
            .unwrap_or_default()
    }

    /// Cardinality statistics of the composite index for `(l, k)`.
    pub fn label_prop_cardinality(&self, l: Symbol, k: Symbol) -> IndexCardinality {
        self.label_props
            .get(&(l, k))
            .map(|b| b.cardinality())
            .unwrap_or_default()
    }

    /// Iterates over `(label, node count)` pairs for every indexed label.
    pub fn label_cardinalities(&self) -> impl Iterator<Item = (Symbol, usize)> + '_ {
        self.labels.iter().map(|(&l, v)| (l, v.len()))
    }

    /// Iterates over `(key, cardinality)` pairs for every indexed
    /// property key.
    pub fn prop_cardinalities(&self) -> impl Iterator<Item = (Symbol, IndexCardinality)> + '_ {
        self.props.iter().map(|(&k, b)| (k, b.cardinality()))
    }

    // -- canonical dump ------------------------------------------------------

    /// Renders the complete index contents in a canonical, hash-map-order-
    /// independent form: labels/keys are resolved to strings through
    /// `resolve` and sorted, value buckets are sorted by bucket hash, and
    /// posting lists appear in id order.
    ///
    /// Two `IndexSet`s with equal dumps answer every lookup identically —
    /// this is the "bit-identical indexes" witness of the crash-recovery
    /// differential suite.
    pub fn canonical_dump(&self, resolve: &dyn Fn(Symbol) -> String, out: &mut String) {
        use std::fmt::Write;
        let mut labels: Vec<(String, &IdList)> = self
            .labels
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(&l, v)| (resolve(l), v))
            .collect();
        labels.sort_by(|a, b| a.0.cmp(&b.0));
        for (l, list) in labels {
            let nodes: Vec<NodeId> = list.iter().collect();
            writeln!(out, "label-index {l}: {nodes:?}").unwrap();
        }
        let mut props: Vec<(String, &BucketTrie)> = self
            .props
            .iter()
            .filter(|(_, b)| b.entries() > 0)
            .map(|(&k, b)| (resolve(k), b))
            .collect();
        props.sort_by(|a, b| a.0.cmp(&b.0));
        for (k, b) in props {
            writeln!(out, "prop-index {k}: {}", b.dump()).unwrap();
        }
        let mut composite: Vec<(String, String, &BucketTrie)> = self
            .label_props
            .iter()
            .filter(|(_, b)| b.entries() > 0)
            .map(|(&(l, k), b)| (resolve(l), resolve(k), b))
            .collect();
        composite.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        for (l, k, b) in composite {
            writeln!(out, "composite-index {l}/{k}: {}", b.dump()).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(i: u32) -> Symbol {
        // Symbols are plain newtyped indices; fabricate them directly.
        Symbol(i)
    }

    #[test]
    fn composite_index_tracks_label_and_prop_churn() {
        let mut idx = IndexSet::new();
        let (person, name) = (sym(0), sym(1));
        let n = NodeId(0);
        let bucket = value_bucket(&Value::str("Ada"));

        idx.on_node_added(n, &[person], &[(name, bucket)]);
        assert!(idx.label_prop_candidates(person, name, bucket).eq([n]));
        assert_eq!(idx.label_prop_cardinality(person, name).entries, 1);

        // Removing the label drops the composite entry but keeps the
        // key-only one.
        idx.on_label_removed(n, person, &[(name, bucket)]);
        assert_eq!(idx.label_prop_candidates(person, name, bucket).len(), 0);
        assert!(idx.prop_candidates(name, bucket).eq([n]));

        // Re-adding the label restores it.
        idx.on_label_added(n, person, &[(name, bucket)]);
        assert!(idx.label_prop_candidates(person, name, bucket).eq([n]));

        idx.on_node_removed(n, &[person], &[(name, bucket)]);
        assert_eq!(idx.label_prop_candidates(person, name, bucket).len(), 0);
        assert_eq!(idx.prop_candidates(name, bucket).len(), 0);
        assert_eq!(idx.label_cardinality(person), 0);
    }

    #[test]
    fn deferred_bulk_apply_is_bit_identical_to_incremental() {
        // Drive the same pseudorandom hook stream through an incremental
        // IndexSet and a deferred one applied on 4 threads; the canonical
        // dumps (posting lists verbatim) and statistics must coincide.
        let mut lcg = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let resolve = |s: Symbol| format!("s{}", s.0);
        let mut serial = IndexSet::new();
        let mut bulk = IndexSet::new();
        bulk.begin_deferred();
        for i in 0..4000u64 {
            let n = NodeId(next() % 64);
            let labels = [sym((next() % 4) as u32)];
            let props = [(sym(4 + (next() % 3) as u32), next() % 8)];
            for idx in [&mut serial, &mut bulk] {
                match i % 5 {
                    0 => idx.on_node_added(n, &labels, &props),
                    1 => idx.on_prop_set(n, &labels, props[0].0, props[0].1),
                    2 => idx.on_label_added(n, labels[0], &props),
                    3 => idx.on_prop_removed(n, &labels, props[0].0, props[0].1),
                    _ => idx.on_node_removed(n, &labels, &props),
                }
            }
        }
        bulk.finish_deferred(4);
        let (mut a, mut b) = (String::new(), String::new());
        serial.canonical_dump(&resolve, &mut a);
        bulk.canonical_dump(&resolve, &mut b);
        assert_eq!(a, b, "bulk apply diverged from incremental maintenance");
        for l in 0..4 {
            assert_eq!(
                serial.label_cardinality(sym(l)),
                bulk.label_cardinality(sym(l))
            );
        }
        for k in 4..7 {
            assert_eq!(
                serial.prop_cardinality(sym(k)),
                bulk.prop_cardinality(sym(k))
            );
            for l in 0..4 {
                assert_eq!(
                    serial.label_prop_cardinality(sym(l), sym(k)),
                    bulk.label_prop_cardinality(sym(l), sym(k))
                );
            }
        }
    }

    #[test]
    fn seek_estimate_is_entries_over_distinct() {
        let mut idx = IndexSet::new();
        let k = sym(0);
        for i in 0..10u64 {
            // Five distinct values, two nodes each.
            idx.on_prop_set(NodeId(i), &[], k, i % 5);
        }
        let c = idx.prop_cardinality(k);
        assert_eq!(c.entries, 10);
        assert_eq!(c.distinct, 5);
        assert!((c.seek_estimate() - 2.0).abs() < f64::EPSILON);
        assert_eq!(IndexCardinality::default().seek_estimate(), 0.0);
    }
}
