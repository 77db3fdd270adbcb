//! Persistent posting structures behind [`crate::index`].
//!
//! Every index of a [`crate::PropertyGraph`] is cloned once per committed
//! write batch (see [`crate::version`]), so the cost that matters is the
//! **first write after a clone**. Both structures here are path-copying:
//! a clone bumps one `Arc`, and the first write after it copies only the
//! nodes on one root-to-leaf path — each of bounded size — no matter how
//! large the indexed population is.
//!
//! * [`IdList`] — an id-ordered set of node ids, stored as a small B+-tree
//!   of `Arc`-shared nodes (leaves of at most 256 ids, branches of at most
//!   32 children) with its length cached at the top.
//!   Label posting lists and the multi-node value buckets are `IdList`s.
//! * [`BucketTrie`] — a hash-array-mapped trie from value-bucket hash to
//!   postings, consuming 5 bits of the (already avalanche-mixed)
//!   [`crate::index::value_bucket`] hash per level. A bucket holding a
//!   single node stores it inline, which is the common case for unique
//!   keys.
//!
//! Iteration over either yields ids in ascending order through
//! [`Postings`], an exact-size iterator.

use crate::graph::NodeId;
use std::sync::Arc;

/// Most ids one [`IdList`] leaf holds (2 KiB of ids).
const LEAF_CAP: usize = 256;
/// Most children one [`IdList`] branch holds.
const BRANCH_CAP: usize = 32;

#[derive(Debug, Clone)]
enum ListNode {
    /// Ascending ids.
    Leaf(Vec<NodeId>),
    /// Children in id order, each with its smallest id (the routing key).
    /// All leaves of a tree sit at the same depth.
    Branch(Vec<(NodeId, Arc<ListNode>)>),
}

impl ListNode {
    fn min(&self) -> Option<NodeId> {
        match self {
            ListNode::Leaf(ids) => ids.first().copied(),
            ListNode::Branch(kids) => kids.first().map(|k| k.0),
        }
    }

    /// Ids in a leaf, children in a branch.
    fn width(&self) -> usize {
        match self {
            ListNode::Leaf(ids) => ids.len(),
            ListNode::Branch(kids) => kids.len(),
        }
    }

    fn contains(&self, n: NodeId) -> bool {
        match self {
            ListNode::Leaf(ids) => ids.binary_search(&n).is_ok(),
            ListNode::Branch(kids) => kids[route(kids, n)].1.contains(n),
        }
    }
}

/// The child of `kids` whose id range covers `n`: the last one whose
/// smallest id is ≤ `n` (the first one when `n` precedes them all).
fn route(kids: &[(NodeId, Arc<ListNode>)], n: NodeId) -> usize {
    kids.partition_point(|(min, _)| *min <= n).saturating_sub(1)
}

/// A split-off right sibling: its smallest id and the node.
type Split = Option<(NodeId, Arc<ListNode>)>;

/// Inserts `n` below `node`; returns whether it was new, plus the right
/// sibling when the node had to split. A full node splits before the
/// insert: in the middle, or — when `n` lands past its end, the case of
/// every freshly created node — by starting a new sibling, so id-ordered
/// creation leaves full nodes behind.
fn list_insert(node: &mut Arc<ListNode>, n: NodeId) -> (bool, Split) {
    match Arc::make_mut(node) {
        ListNode::Leaf(ids) => {
            let pos = match ids.binary_search(&n) {
                Ok(_) => return (false, None),
                Err(pos) => pos,
            };
            if ids.len() < LEAF_CAP {
                ids.insert(pos, n);
                return (true, None);
            }
            if pos == ids.len() {
                let mut right = Vec::with_capacity(LEAF_CAP);
                right.push(n);
                return (true, Some((n, Arc::new(ListNode::Leaf(right)))));
            }
            let mut right = ids.split_off(LEAF_CAP / 2);
            if pos <= LEAF_CAP / 2 {
                ids.insert(pos, n);
            } else {
                right.insert(pos - LEAF_CAP / 2, n);
            }
            (true, Some((right[0], Arc::new(ListNode::Leaf(right)))))
        }
        ListNode::Branch(kids) => {
            let i = route(kids, n);
            let (added, split) = list_insert(&mut kids[i].1, n);
            kids[i].0 = kids[i].0.min(n);
            let Some(sibling) = split else {
                return (added, None);
            };
            if kids.len() < BRANCH_CAP {
                kids.insert(i + 1, sibling);
                return (added, None);
            }
            if i + 1 == kids.len() {
                let right = vec![sibling];
                return (added, Some((right[0].0, Arc::new(ListNode::Branch(right)))));
            }
            let mut right = kids.split_off(BRANCH_CAP / 2);
            if i < BRANCH_CAP / 2 {
                kids.insert(i + 1, sibling);
            } else {
                right.insert(i + 1 - BRANCH_CAP / 2, sibling);
            }
            (added, Some((right[0].0, Arc::new(ListNode::Branch(right)))))
        }
    }
}

/// Removes `n`, which must be present below `node`. Children emptied by
/// the removal are dropped; an underfull child is merged into a sibling
/// when the pair fits comfortably in one node.
fn list_remove(node: &mut Arc<ListNode>, n: NodeId) {
    match Arc::make_mut(node) {
        ListNode::Leaf(ids) => {
            if let Ok(pos) = ids.binary_search(&n) {
                ids.remove(pos);
            }
        }
        ListNode::Branch(kids) => {
            let i = route(kids, n);
            list_remove(&mut kids[i].1, n);
            match kids[i].1.min() {
                None => {
                    kids.remove(i);
                }
                Some(min) => {
                    kids[i].0 = min;
                    merge_underfull(kids, i);
                }
            }
        }
    }
}

/// Merges child `i` with a neighbour when it fell below a quarter of its
/// capacity and the pair fits in three quarters of one node.
fn merge_underfull(kids: &mut Vec<(NodeId, Arc<ListNode>)>, i: usize) {
    let cap = match &*kids[i].1 {
        ListNode::Leaf(_) => LEAF_CAP,
        ListNode::Branch(_) => BRANCH_CAP,
    };
    if kids[i].1.width() >= cap / 4 || kids.len() < 2 {
        return;
    }
    let left = if i + 1 < kids.len() { i } else { i - 1 };
    if kids[left].1.width() + kids[left + 1].1.width() > cap * 3 / 4 {
        return;
    }
    let (_, right) = kids.remove(left + 1);
    match (Arc::make_mut(&mut kids[left].1), &*right) {
        (ListNode::Leaf(a), ListNode::Leaf(b)) => a.extend_from_slice(b),
        (ListNode::Branch(a), ListNode::Branch(b)) => a.extend(b.iter().cloned()),
        _ => unreachable!("siblings of an IdList sit at the same depth"),
    }
}

/// A persistent, id-ordered set of node ids. See the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdList {
    root: Option<Arc<ListNode>>,
    len: usize,
}

impl IdList {
    /// Bulk-builds a list from strictly ascending ids: full leaves, full
    /// branches, one pass.
    pub(crate) fn from_sorted(ids: &[NodeId]) -> IdList {
        let mut level: Vec<(NodeId, Arc<ListNode>)> = ids
            .chunks(LEAF_CAP)
            .map(|c| (c[0], Arc::new(ListNode::Leaf(c.to_vec()))))
            .collect();
        while level.len() > 1 {
            level = level
                .chunks(BRANCH_CAP)
                .map(|c| (c[0].0, Arc::new(ListNode::Branch(c.to_vec()))))
                .collect();
        }
        IdList {
            root: level.pop().map(|(_, node)| node),
            len: ids.len(),
        }
    }

    /// Number of ids, O(1).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when no id is present.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when `n` is present.
    pub(crate) fn contains(&self, n: NodeId) -> bool {
        self.root.as_ref().is_some_and(|r| r.contains(n))
    }

    /// Inserts `n`; `false` when it was already present.
    pub(crate) fn insert(&mut self, n: NodeId) -> bool {
        let root = self
            .root
            .get_or_insert_with(|| Arc::new(ListNode::Leaf(Vec::new())));
        let (added, split) = list_insert(root, n);
        if let Some(sibling) = split {
            let left = std::mem::replace(root, Arc::new(ListNode::Leaf(Vec::new())));
            let left_min = left.min().expect("a split node is non-empty");
            *root = Arc::new(ListNode::Branch(vec![(left_min, left), sibling]));
        }
        self.len += added as usize;
        added
    }

    /// Removes `n`; `false` (touching nothing, so copying nothing) when
    /// it was absent.
    pub(crate) fn remove(&mut self, n: NodeId) -> bool {
        if !self.contains(n) {
            return false;
        }
        let root = self.root.as_mut().expect("contains implies a root");
        list_remove(root, n);
        self.len -= 1;
        // Collapse single-child roots so depth tracks the population.
        while let ListNode::Branch(kids) = &**root {
            if kids.len() != 1 {
                break;
            }
            let only = Arc::clone(&kids[0].1);
            *root = only;
        }
        if self.len == 0 {
            self.root = None;
        }
        true
    }

    /// The ids in ascending order.
    pub(crate) fn iter(&self) -> Postings<'_> {
        let mut it = Postings {
            cur: [].iter(),
            stack: Vec::new(),
            remaining: self.len,
        };
        match self.root.as_deref() {
            None => {}
            Some(ListNode::Leaf(ids)) => it.cur = ids.iter(),
            Some(ListNode::Branch(kids)) => it.stack.push(kids.iter()),
        }
        it
    }
}

/// Ascending node ids of one posting structure — a label's list or a
/// value bucket — with the exact count known up front.
#[derive(Debug, Clone)]
pub struct Postings<'a> {
    cur: std::slice::Iter<'a, NodeId>,
    stack: Vec<std::slice::Iter<'a, (NodeId, Arc<ListNode>)>>,
    remaining: usize,
}

impl Postings<'_> {
    /// The empty sequence.
    pub(crate) fn empty() -> Self {
        Postings {
            cur: [].iter(),
            stack: Vec::new(),
            remaining: 0,
        }
    }
}

impl Iterator for Postings<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            if let Some(&n) = self.cur.next() {
                self.remaining -= 1;
                return Some(n);
            }
            // Descend to the next leaf, depth first.
            loop {
                let top = self.stack.last_mut()?;
                match top.next() {
                    None => {
                        self.stack.pop();
                    }
                    Some((_, child)) => match &**child {
                        ListNode::Leaf(ids) => {
                            self.cur = ids.iter();
                            break;
                        }
                        ListNode::Branch(kids) => self.stack.push(kids.iter()),
                    },
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Postings<'_> {}

// ---------------------------------------------------------------------------
// Hash-array-mapped trie of value buckets
// ---------------------------------------------------------------------------

/// Hash bits consumed per trie level (32-way nodes).
const BITS: u32 = 5;

/// The nodes of one value bucket: one inline, or a persistent list of
/// two or more.
#[derive(Debug, Clone)]
enum Posting {
    One(NodeId),
    Many(IdList),
}

impl Posting {
    fn from_sorted(ids: &[NodeId]) -> Posting {
        match ids {
            [one] => Posting::One(*one),
            _ => Posting::Many(IdList::from_sorted(ids)),
        }
    }

    fn insert(&mut self, n: NodeId) -> bool {
        match self {
            Posting::One(m) if *m == n => false,
            Posting::One(m) => {
                let mut list = IdList::default();
                list.insert(*m);
                list.insert(n);
                *self = Posting::Many(list);
                true
            }
            Posting::Many(list) => list.insert(n),
        }
    }

    /// Returns `(removed, now empty)`.
    fn remove(&mut self, n: NodeId) -> (bool, bool) {
        match self {
            Posting::One(m) => (*m == n, *m == n),
            Posting::Many(list) => {
                if !list.remove(n) {
                    return (false, false);
                }
                if list.len() == 1 {
                    let only = list.iter().next().expect("one id left");
                    *self = Posting::One(only);
                }
                (true, false)
            }
        }
    }

    fn iter(&self) -> Postings<'_> {
        match self {
            Posting::One(n) => Postings {
                cur: std::slice::from_ref(n).iter(),
                stack: Vec::new(),
                remaining: 1,
            },
            Posting::Many(list) => list.iter(),
        }
    }
}

#[derive(Debug, Clone)]
enum Slot {
    /// One bucket: its full hash and its nodes.
    Bucket(u64, Posting),
    /// Two or more buckets sharing this slot's hash prefix.
    Sub(Arc<TrieNode>),
}

/// One trie node: a 32-bit occupancy bitmap over the level's hash
/// fragment and the occupied slots, compressed in fragment order.
#[derive(Debug, Clone, Default)]
struct TrieNode {
    bitmap: u32,
    slots: Vec<Slot>,
}

/// The hash fragment indexing level `level`. Distinct 64-bit hashes
/// differ in some bit, so they part ways by level 12 at the latest.
fn frag(hash: u64, level: u32) -> u32 {
    ((hash >> (BITS * level)) & ((1 << BITS) - 1)) as u32
}

/// The outcome of one posting mutation, for the running totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Delta {
    /// A `(bucket, node)` entry was added or removed.
    entry: bool,
    /// The bucket itself appeared or disappeared.
    bucket: bool,
}

const NO_DELTA: Delta = Delta {
    entry: false,
    bucket: false,
};

impl TrieNode {
    /// The slot bit for `hash` at `level` and its compressed position.
    fn locate(&self, hash: u64, level: u32) -> (u32, usize) {
        let bit = 1u32 << frag(hash, level);
        (bit, (self.bitmap & (bit - 1)).count_ones() as usize)
    }

    fn get(&self, hash: u64, level: u32) -> Option<&Posting> {
        let (bit, pos) = self.locate(hash, level);
        if self.bitmap & bit == 0 {
            return None;
        }
        match &self.slots[pos] {
            Slot::Bucket(h, p) => (*h == hash).then_some(p),
            Slot::Sub(node) => node.get(hash, level + 1),
        }
    }

    fn insert(&mut self, hash: u64, level: u32, n: NodeId) -> Delta {
        let (bit, pos) = self.locate(hash, level);
        if self.bitmap & bit == 0 {
            self.bitmap |= bit;
            self.slots.insert(pos, Slot::Bucket(hash, Posting::One(n)));
            return Delta {
                entry: true,
                bucket: true,
            };
        }
        slot_insert(&mut self.slots[pos], hash, level + 1, n)
    }

    fn remove(&mut self, hash: u64, level: u32, n: NodeId) -> Delta {
        let (bit, pos) = self.locate(hash, level);
        if self.bitmap & bit == 0 {
            return NO_DELTA;
        }
        let (delta, emptied) = slot_remove(&mut self.slots[pos], hash, level + 1, n);
        if emptied {
            self.bitmap &= !bit;
            self.slots.remove(pos);
        }
        delta
    }

    fn for_each<'a>(&'a self, f: &mut impl FnMut(u64, &'a Posting)) {
        for slot in &self.slots {
            slot_for_each(slot, f);
        }
    }
}

fn slot_for_each<'a>(slot: &'a Slot, f: &mut impl FnMut(u64, &'a Posting)) {
    match slot {
        Slot::Bucket(h, p) => f(*h, p),
        Slot::Sub(node) => node.for_each(f),
    }
}

/// Inserts into an occupied slot; a sub-node here indexes `level`.
fn slot_insert(slot: &mut Slot, hash: u64, level: u32, n: NodeId) -> Delta {
    match slot {
        Slot::Bucket(h, p) if *h == hash => Delta {
            entry: p.insert(n),
            bucket: false,
        },
        Slot::Bucket(h, _) => {
            // A second bucket reaches this slot: push the resident one
            // level down and insert beside it.
            let resident_hash = *h;
            let resident = std::mem::replace(slot, Slot::Bucket(0, Posting::One(NodeId(0))));
            let mut node = TrieNode {
                bitmap: 1 << frag(resident_hash, level),
                slots: vec![resident],
            };
            let delta = node.insert(hash, level, n);
            *slot = Slot::Sub(Arc::new(node));
            delta
        }
        Slot::Sub(node) => Arc::make_mut(node).insert(hash, level, n),
    }
}

/// Removes from an occupied slot; returns the delta and whether the slot
/// is now empty. A sub-node left holding a single bucket is replaced by
/// that bucket, so the trie's shape depends only on its contents.
fn slot_remove(slot: &mut Slot, hash: u64, level: u32, n: NodeId) -> (Delta, bool) {
    let node = match slot {
        Slot::Bucket(h, p) => {
            if *h != hash {
                return (NO_DELTA, false);
            }
            let (entry, empty) = p.remove(n);
            let delta = Delta {
                entry,
                bucket: empty,
            };
            return (delta, empty);
        }
        Slot::Sub(node) => node,
    };
    // Look before copying: a miss must not path-copy.
    if node.get(hash, level).is_none() {
        return (NO_DELTA, false);
    }
    let node = Arc::make_mut(node);
    let delta = node.remove(hash, level, n);
    match node.slots.len() {
        0 => (delta, true),
        1 if matches!(node.slots[0], Slot::Bucket(..)) => {
            *slot = node.slots.pop().expect("one slot");
            (delta, false)
        }
        _ => (delta, false),
    }
}

/// Orders hashes by their path through the trie: level-0 fragment
/// first, then level 1, and so on — so every sub-trie's hashes form one
/// contiguous run, with its slots in bitmap order.
fn trie_path(hash: u64) -> u128 {
    (0..13).fold(0u128, |key, level| {
        (key << BITS) | frag(hash, level) as u128
    })
}

/// Bulk-builds the slot at `level` from `(hash, id)` pairs sorted by
/// [`trie_path`] then id, without duplicates.
fn build_slot(entries: &[(u64, NodeId)], level: u32) -> Slot {
    let hash = entries[0].0;
    if entries[entries.len() - 1].0 == hash {
        let ids: Vec<NodeId> = entries.iter().map(|e| e.1).collect();
        return Slot::Bucket(hash, Posting::from_sorted(&ids));
    }
    let mut node = TrieNode::default();
    let mut rest = entries;
    while let Some(&(first, _)) = rest.first() {
        let f = frag(first, level);
        let run = rest.partition_point(|e| frag(e.0, level) == f);
        node.bitmap |= 1 << f;
        node.slots.push(build_slot(&rest[..run], level + 1));
        rest = &rest[run..];
    }
    Slot::Sub(Arc::new(node))
}

/// A persistent map from value-bucket hash to the bucket's node ids,
/// with running totals. See the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct BucketTrie {
    root: Arc<TrieNode>,
    /// `(bucket, node)` entries.
    entries: usize,
    /// Non-empty buckets.
    buckets: usize,
}

impl BucketTrie {
    /// Total `(bucket, node)` entries.
    pub(crate) fn entries(&self) -> usize {
        self.entries
    }

    /// Number of non-empty buckets.
    pub(crate) fn buckets(&self) -> usize {
        self.buckets
    }

    /// Adds `n` to bucket `hash`; `false` when it was already there.
    pub(crate) fn insert(&mut self, hash: u64, n: NodeId) -> bool {
        let delta = Arc::make_mut(&mut self.root).insert(hash, 0, n);
        self.apply(delta, 1);
        delta.entry
    }

    /// Removes `n` from bucket `hash`; `false` (copying nothing) when it
    /// was not there. An emptied bucket disappears.
    pub(crate) fn remove(&mut self, hash: u64, n: NodeId) -> bool {
        if self.root.get(hash, 0).is_none() {
            return false;
        }
        let delta = Arc::make_mut(&mut self.root).remove(hash, 0, n);
        self.apply(delta, -1);
        delta.entry
    }

    fn apply(&mut self, delta: Delta, sign: isize) {
        self.entries = (self.entries as isize + sign * delta.entry as isize) as usize;
        self.buckets = (self.buckets as isize + sign * delta.bucket as isize) as usize;
    }

    /// The ids in bucket `hash`, ascending.
    pub(crate) fn get(&self, hash: u64) -> Postings<'_> {
        self.root
            .get(hash, 0)
            .map(Posting::iter)
            .unwrap_or_else(Postings::empty)
    }

    /// Every non-empty bucket with its ids, in ascending hash order.
    pub(crate) fn sorted_buckets(&self) -> Vec<(u64, Postings<'_>)> {
        let mut out = Vec::with_capacity(self.buckets);
        self.root.for_each(&mut |h, p| out.push((h, p.iter())));
        out.sort_unstable_by_key(|&(h, _)| h);
        out
    }

    /// Detaches the root slot covering hashes whose level-0 fragment is
    /// `branch`, for mutation off to the side (the unit of the parallel
    /// bulk apply). Put it back with [`BucketTrie::put_branch`].
    pub(crate) fn take_branch(&mut self, branch: u32) -> TrieBranch {
        let root = Arc::make_mut(&mut self.root);
        let bit = 1u32 << branch;
        let slot = (root.bitmap & bit != 0).then(|| {
            let pos = (root.bitmap & (bit - 1)).count_ones() as usize;
            root.bitmap &= !bit;
            root.slots.remove(pos)
        });
        TrieBranch {
            slot,
            entries: 0,
            buckets: 0,
        }
    }

    /// Re-attaches a branch detached by [`BucketTrie::take_branch`],
    /// absorbing its running-total changes.
    pub(crate) fn put_branch(&mut self, branch: u32, b: TrieBranch) {
        let root = Arc::make_mut(&mut self.root);
        if let Some(slot) = b.slot {
            let bit = 1u32 << branch;
            let pos = (root.bitmap & (bit - 1)).count_ones() as usize;
            root.bitmap |= bit;
            root.slots.insert(pos, slot);
        }
        self.entries = (self.entries as isize + b.entries) as usize;
        self.buckets = (self.buckets as isize + b.buckets) as usize;
    }
}

/// The level-0 fragment of `hash`: which root branch of a
/// [`BucketTrie`] holds its bucket.
pub(crate) fn root_branch(hash: u64) -> u32 {
    frag(hash, 0)
}

/// One root branch of a [`BucketTrie`], detached for mutation; behaves
/// exactly like the trie restricted to its hashes.
pub(crate) struct TrieBranch {
    slot: Option<Slot>,
    entries: isize,
    buckets: isize,
}

impl TrieBranch {
    /// True when the branch holds no bucket.
    pub(crate) fn is_empty(&self) -> bool {
        self.slot.is_none()
    }

    /// Bulk-fills an empty branch with `(hash, id)` pairs in any order
    /// (duplicates allowed): one sort, then a bottom-up build.
    pub(crate) fn fill(&mut self, entries: Vec<(u64, NodeId)>) {
        debug_assert!(self.is_empty(), "bulk fill of a non-empty branch");
        let mut keyed: Vec<(u128, NodeId, u64)> = entries
            .into_iter()
            .map(|(h, n)| (trie_path(h), n, h))
            .collect();
        keyed.sort_unstable();
        let mut entries: Vec<(u64, NodeId)> = keyed.into_iter().map(|(_, n, h)| (h, n)).collect();
        entries.dedup();
        if entries.is_empty() {
            return;
        }
        self.entries += entries.len() as isize;
        self.buckets += 1 + entries.windows(2).filter(|w| w[0].0 != w[1].0).count() as isize;
        self.slot = Some(build_slot(&entries, 1));
    }

    pub(crate) fn insert(&mut self, hash: u64, n: NodeId) {
        let delta = match &mut self.slot {
            None => {
                self.slot = Some(Slot::Bucket(hash, Posting::One(n)));
                Delta {
                    entry: true,
                    bucket: true,
                }
            }
            Some(slot) => slot_insert(slot, hash, 1, n),
        };
        self.entries += delta.entry as isize;
        self.buckets += delta.bucket as isize;
    }

    pub(crate) fn remove(&mut self, hash: u64, n: NodeId) {
        let Some(slot) = &mut self.slot else { return };
        let (delta, emptied) = slot_remove(slot, hash, 1, n);
        if emptied {
            self.slot = None;
        }
        self.entries -= delta.entry as isize;
        self.buckets -= delta.bucket as isize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 33
        }
    }

    #[test]
    fn id_list_matches_a_btreeset_under_churn() {
        let mut next = lcg(7);
        let mut list = IdList::default();
        let mut oracle = BTreeSet::new();
        for step in 0..60_000u64 {
            // Mostly appends (fresh ids), plus inserts and removes of old
            // ids — the index workload's shape.
            let n = match next() % 4 {
                0 | 1 => NodeId(step),
                _ => NodeId(next() % (step + 1)),
            };
            if next().is_multiple_of(3) {
                assert_eq!(list.remove(n), oracle.remove(&n));
            } else {
                assert_eq!(list.insert(n), oracle.insert(n));
            }
            assert_eq!(list.len(), oracle.len());
        }
        let got: Vec<NodeId> = list.iter().collect();
        let want: Vec<NodeId> = oracle.iter().copied().collect();
        assert_eq!(got, want);
        assert_eq!(list.iter().len(), want.len());
        for n in want {
            assert!(list.remove(n));
        }
        assert!(list.is_empty() && list.root.is_none());
    }

    #[test]
    fn id_list_clone_is_a_frozen_snapshot() {
        let mut a = IdList::default();
        for i in 0..10_000 {
            a.insert(NodeId(i));
        }
        let b = a.clone();
        a.insert(NodeId(10_000));
        a.remove(NodeId(17));
        assert_eq!(b.len(), 10_000);
        assert!(b.contains(NodeId(17)) && !b.contains(NodeId(10_000)));
        assert_eq!(b.iter().collect::<Vec<_>>().len(), 10_000);
        assert_eq!(a.len(), 10_000);
        assert!(!a.contains(NodeId(17)) && a.contains(NodeId(10_000)));
    }

    #[test]
    fn trie_matches_a_btreemap_and_branches_agree() {
        let mut next = lcg(11);
        let mut trie = BucketTrie::default();
        let mut oracle: BTreeMap<u64, BTreeSet<NodeId>> = BTreeMap::new();
        let hash = |v: u64| crate::index::value_bucket(&crate::Value::int(v as i64));
        let mut ops = Vec::new();
        for _ in 0..20_000 {
            let h = if next().is_multiple_of(8) {
                // Force deep collisions on the low fragments.
                next() << 40
            } else {
                hash(next() % 3_000)
            };
            let n = NodeId(next() % 64);
            let insert = !next().is_multiple_of(3);
            ops.push((insert, h, n));
            if insert {
                let fresh = oracle.entry(h).or_default().insert(n);
                assert_eq!(trie.insert(h, n), fresh);
            } else {
                let gone = oracle.get_mut(&h).is_some_and(|s| s.remove(&n));
                if oracle.get(&h).is_some_and(|s| s.is_empty()) {
                    oracle.remove(&h);
                }
                assert_eq!(trie.remove(h, n), gone);
            }
        }
        let render = |t: &BucketTrie| -> Vec<(u64, Vec<NodeId>)> {
            t.sorted_buckets()
                .into_iter()
                .map(|(h, p)| (h, p.collect()))
                .collect()
        };
        let want: Vec<(u64, Vec<NodeId>)> = oracle
            .iter()
            .map(|(h, s)| (*h, s.iter().copied().collect()))
            .collect();
        assert_eq!(render(&trie), want);
        assert_eq!(trie.buckets(), oracle.len());
        assert_eq!(
            trie.entries(),
            oracle.values().map(BTreeSet::len).sum::<usize>()
        );

        // The same stream applied branch by branch lands in the same place.
        let mut split = BucketTrie::default();
        for b in 0..32 {
            let mut branch = split.take_branch(b);
            for &(insert, h, n) in ops.iter().filter(|op| root_branch(op.1) == b) {
                if insert {
                    branch.insert(h, n);
                } else {
                    branch.remove(h, n);
                }
            }
            split.put_branch(b, branch);
        }
        assert_eq!(render(&split), want);
        assert_eq!(
            (split.entries(), split.buckets()),
            (trie.entries(), trie.buckets())
        );

        // Bulk-filling each branch with the surviving pairs, shuffled and
        // duplicated, lands there too — and stays mutable afterwards.
        let mut bulk = BucketTrie::default();
        for b in 0..32 {
            let mut pairs: Vec<(u64, NodeId)> = want
                .iter()
                .filter(|(h, _)| root_branch(*h) == b)
                .flat_map(|(h, ids)| ids.iter().map(move |&n| (*h, n)))
                .collect();
            pairs.reverse();
            pairs.extend(pairs.clone().iter().step_by(3));
            let mut branch = bulk.take_branch(b);
            branch.fill(pairs);
            bulk.put_branch(b, branch);
        }
        assert_eq!(render(&bulk), want);
        assert_eq!(
            (bulk.entries(), bulk.buckets()),
            (trie.entries(), trie.buckets())
        );
        for &(_, h, n) in ops.iter().rev().take(500) {
            assert_eq!(bulk.insert(h, n), trie.insert(h, n));
            let other = NodeId(n.0 ^ 1);
            assert_eq!(bulk.remove(h, other), trie.remove(h, other));
        }
        assert_eq!(render(&bulk), render(&trie));
    }

    #[test]
    fn bulk_built_id_list_equals_incremental() {
        for len in [0usize, 1, 255, 256, 257, 8_192, 70_001] {
            let ids: Vec<NodeId> = (0..len as u64).map(|i| NodeId(i * 3)).collect();
            let mut bulk = IdList::from_sorted(&ids);
            assert_eq!(bulk.len(), len);
            assert!(bulk.iter().eq(ids.iter().copied()));
            // Mutations keep working on the bulk-built shape.
            for i in (0..len as u64).step_by(7) {
                assert!(bulk.remove(NodeId(i * 3)));
                assert!(bulk.insert(NodeId(i * 3 + 1)));
            }
            let mut inc = IdList::default();
            for &n in &ids {
                inc.insert(n);
            }
            for i in (0..len as u64).step_by(7) {
                inc.remove(NodeId(i * 3));
                inc.insert(NodeId(i * 3 + 1));
            }
            assert!(bulk.iter().eq(inc.iter()));
            assert_eq!(bulk.len(), inc.len());
        }
    }
}
