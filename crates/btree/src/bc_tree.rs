//! The Cumulative B-Tree (B^c tree) of paper §4.1.
//!
//! The B^c tree stores one set of overlay row-sum values. Two modifications
//! distinguish it from a standard b-tree (paper §4.1):
//!
//! 1. **Keys are positions.** Each leaf value corresponds to one row-sum
//!    cell, keyed by the cell's index in the one-dimensional sequence of
//!    row sums — so the tree is an order-statistics (positional) b-tree and
//!    stores the sum of each *individual* row, generating cumulative sums
//!    on demand.
//! 2. **Interior nodes carry subtree sums (STS).** Alongside each child
//!    pointer an interior node maintains the sum of that child's subtree.
//!    A prefix query descends one path, adding the STSs of the children
//!    that precede the descent; a point update adjusts exactly one STS per
//!    visited node, bottom-up, with the difference between the old and new
//!    value — both `O(f · log_f k)`.
//!
//! The paper's figure stores `f − 1` STSs per node (left branches only);
//! we store one sum per child, which is the same information plus the
//! node total and keeps insertion code symmetric. Leaves hold up to `f`
//! values rather than exactly one, as any practical b-tree does; the
//! worked example of Figure 14 is reproduced in the tests in terms of the
//! observable sums.

use crate::store::CumulativeStore;
use ddc_array::{AbelianGroup, OpCounter};

/// Minimum supported fanout. Fanout 3 matches the paper's Figure 14.
pub const MIN_FANOUT: usize = 3;

/// Default fanout used by the Dynamic Data Cube when none is specified.
pub const DEFAULT_FANOUT: usize = 16;

#[derive(Clone, Debug)]
enum Node<G> {
    /// Leaf holding the individual row-sum values.
    Leaf(Vec<G>),
    /// Interior node: children plus per-child cardinalities and subtree
    /// sums. `counts[i]` and `sums[i]` describe `children[i]`.
    Internal {
        children: Vec<Node<G>>,
        counts: Vec<usize>,
        sums: Vec<G>,
    },
}

impl<G: AbelianGroup> Node<G> {
    fn count(&self) -> usize {
        match self {
            Node::Leaf(values) => values.len(),
            Node::Internal { counts, .. } => counts.iter().sum(),
        }
    }

    /// Direct entries held by this node (values or children).
    fn entry_count(&self) -> usize {
        match self {
            Node::Leaf(values) => values.len(),
            Node::Internal { children, .. } => children.len(),
        }
    }

    fn sum(&self) -> G {
        match self {
            Node::Leaf(values) => values.iter().fold(G::ZERO, |acc, &v| acc.add(v)),
            Node::Internal { sums, .. } => sums.iter().fold(G::ZERO, |acc, &v| acc.add(v)),
        }
    }

    fn height(&self) -> usize {
        match self {
            Node::Leaf(_) => 1,
            Node::Internal { children, .. } => 1 + children[0].height(),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Node::Leaf(values) => values.capacity() * std::mem::size_of::<G>(),
            Node::Internal {
                children,
                counts,
                sums,
            } => {
                children.capacity() * std::mem::size_of::<Node<G>>()
                    + counts.capacity() * std::mem::size_of::<usize>()
                    + sums.capacity() * std::mem::size_of::<G>()
                    + children.iter().map(Node::heap_bytes).sum::<usize>()
            }
        }
    }
}

/// The Cumulative B-Tree: a positional b-tree with subtree sums.
///
/// See the module documentation and paper §4.1. Supports `O(f log_f k)`
/// prefix queries and point updates, plus position insertion and removal
/// (splitting/merging nodes) used when a data cube grows (§5).
///
/// # Examples
///
/// The paper's Figure 14 tree — individual row sums 14, 9, 10, 12, 8, 13
/// at fanout 3:
///
/// ```
/// use ddc_btree::{BcTree, CumulativeStore};
///
/// let mut t = BcTree::from_values(3, &[14i64, 9, 10, 12, 8, 13]);
/// assert_eq!(t.prefix(4), 53);      // row sum cell 5: 33 + 12 + 8
/// assert_eq!(t.set(2, 15), 10);     // cell 3 changes from 10 to 15
/// assert_eq!(t.prefix(4), 58);
/// t.insert(6, 4);                   // the cube grew a row
/// assert_eq!(t.total(), 75);
/// ```
#[derive(Debug)]
pub struct BcTree<G: AbelianGroup> {
    root: Node<G>,
    fanout: usize,
    len: usize,
    counter: OpCounter,
}

impl<G: AbelianGroup> Clone for BcTree<G> {
    fn clone(&self) -> Self {
        Self {
            root: self.root.clone(),
            fanout: self.fanout,
            len: self.len,
            counter: OpCounter::new(),
        }
    }
}

impl<G: AbelianGroup> BcTree<G> {
    /// An empty tree with the given fanout (maximum children per interior
    /// node and values per leaf).
    ///
    /// # Panics
    ///
    /// Panics if `fanout < MIN_FANOUT`.
    pub fn new(fanout: usize) -> Self {
        assert!(fanout >= MIN_FANOUT, "fanout must be at least {MIN_FANOUT}");
        Self {
            root: Node::Leaf(Vec::new()),
            fanout,
            len: 0,
            counter: OpCounter::new(),
        }
    }

    /// Bulk-builds a balanced tree over `values` (row sums in positional
    /// order), in `O(k)`.
    pub fn from_values(fanout: usize, values: &[G]) -> Self {
        assert!(fanout >= MIN_FANOUT, "fanout must be at least {MIN_FANOUT}");
        let len = values.len();
        if len == 0 {
            return Self::new(fanout);
        }
        // Leaf level: chunks of `fanout` values.
        let mut level: Vec<Node<G>> = values
            .chunks(fanout)
            .map(|c| Node::Leaf(c.to_vec()))
            .collect();
        // Merge a trailing undersized leaf into its neighbour's split to
        // keep ≥ ceil(fanout/2) occupancy (cosmetic; correctness does not
        // depend on it, but it keeps heights tight).
        while level.len() > 1 {
            level = level
                .chunks(fanout)
                .map(|group| {
                    let children: Vec<Node<G>> = group.to_vec();
                    let counts: Vec<usize> = children.iter().map(Node::count).collect();
                    let sums: Vec<G> = children.iter().map(Node::sum).collect();
                    Node::Internal {
                        children,
                        counts,
                        sums,
                    }
                })
                .collect();
        }
        let root = level.pop().expect("non-empty level");
        Self {
            root,
            fanout,
            len,
            counter: OpCounter::new(),
        }
    }

    /// A tree of `len` zero values.
    pub fn zeroed(fanout: usize, len: usize) -> Self {
        Self::from_values(fanout, &vec![G::ZERO; len])
    }

    /// The configured fanout `f`.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Tree height in nodes (a single leaf has height 1).
    pub fn height(&self) -> usize {
        self.root.height()
    }

    /// Subtree sums stored at the root, exposed for tests mirroring the
    /// paper's Figure 14 walk-through.
    pub fn root_subtree_sums(&self) -> Vec<G> {
        match &self.root {
            Node::Leaf(values) => values.clone(),
            Node::Internal { sums, .. } => sums.clone(),
        }
    }

    /// Appends a value at the end (position `len`).
    pub fn push(&mut self, value: G) {
        let pos = self.len;
        self.insert(pos, value);
    }

    /// Inserts `value` at `pos`, shifting subsequent positions up by one.
    ///
    /// # Panics
    ///
    /// Panics if `pos > len`.
    pub fn insert(&mut self, pos: usize, value: G) {
        assert!(
            pos <= self.len,
            "insert position {pos} beyond length {}",
            self.len
        );
        if let Some(right) =
            Self::insert_rec(&mut self.root, pos, value, self.fanout, &self.counter)
        {
            // Root split: grow the tree by one level.
            let old_root = std::mem::replace(&mut self.root, Node::Leaf(Vec::new()));
            let counts = vec![old_root.count(), right.count()];
            let sums = vec![old_root.sum(), right.sum()];
            self.counter.write(2);
            self.root = Node::Internal {
                children: vec![old_root, right],
                counts,
                sums,
            };
        }
        self.len += 1;
    }

    /// Recursive insertion; returns a new right sibling if `node` split.
    fn insert_rec(
        node: &mut Node<G>,
        pos: usize,
        value: G,
        fanout: usize,
        counter: &OpCounter,
    ) -> Option<Node<G>> {
        match node {
            Node::Leaf(values) => {
                values.insert(pos, value);
                counter.write(1);
                if values.len() <= fanout {
                    return None;
                }
                let right = values.split_off(values.len() / 2);
                Some(Node::Leaf(right))
            }
            Node::Internal {
                children,
                counts,
                sums,
            } => {
                // Locate the child containing `pos` (appends go to the
                // last child).
                let mut child_idx = 0;
                let mut rel = pos;
                while child_idx + 1 < children.len() && rel > counts[child_idx] {
                    rel -= counts[child_idx];
                    child_idx += 1;
                }
                // `rel == counts[child_idx]` inserts at that child's end.
                if rel > counts[child_idx] {
                    rel -= counts[child_idx];
                    child_idx += 1;
                    debug_assert!(child_idx < children.len());
                }
                let split = Self::insert_rec(&mut children[child_idx], rel, value, fanout, counter);
                counts[child_idx] = children[child_idx].count();
                sums[child_idx] = children[child_idx].sum();
                counter.write(1);
                if let Some(right) = split {
                    counts.insert(child_idx + 1, right.count());
                    sums.insert(child_idx + 1, right.sum());
                    children.insert(child_idx + 1, right);
                    counter.write(1);
                    if children.len() > fanout {
                        let at = children.len() / 2;
                        let rc = children.split_off(at);
                        let rcounts = counts.split_off(at);
                        let rsums = sums.split_off(at);
                        return Some(Node::Internal {
                            children: rc,
                            counts: rcounts,
                            sums: rsums,
                        });
                    }
                }
                None
            }
        }
    }

    /// Removes and returns the value at `pos`, shifting subsequent
    /// positions down by one. Underfull nodes rebalance by borrowing from
    /// or merging with a sibling, and the root collapses when it has a
    /// single child — the standard b-tree deletion adapted to positional
    /// keys and subtree sums.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len`.
    pub fn remove(&mut self, pos: usize) -> G {
        assert!(
            pos < self.len,
            "remove position {pos} beyond length {}",
            self.len
        );
        let removed = Self::remove_rec(&mut self.root, pos, self.fanout, &self.counter);
        self.len -= 1;
        // Collapse chains of single-child roots left by merges.
        loop {
            let promote = match &mut self.root {
                Node::Internal { children, .. } if children.len() == 1 => {
                    Some(children.pop().expect("one child"))
                }
                _ => None,
            };
            match promote {
                Some(child) => self.root = child,
                None => break,
            }
        }
        removed
    }

    fn remove_rec(node: &mut Node<G>, pos: usize, fanout: usize, counter: &OpCounter) -> G {
        match node {
            Node::Leaf(values) => {
                counter.write(1);
                values.remove(pos)
            }
            Node::Internal {
                children,
                counts,
                sums,
            } => {
                let mut child_idx = 0;
                let mut rel = pos;
                while rel >= counts[child_idx] {
                    rel -= counts[child_idx];
                    child_idx += 1;
                }
                let removed = Self::remove_rec(&mut children[child_idx], rel, fanout, counter);
                counts[child_idx] = children[child_idx].count();
                sums[child_idx] = children[child_idx].sum();
                counter.write(1);
                // Rebalance an underfull child (minimum occupancy ⌈f/2⌉,
                // matching the split point used on insertion).
                let min = fanout.div_ceil(2);
                if children[child_idx].entry_count() < min {
                    Self::rebalance(children, counts, sums, child_idx, min, counter);
                }
                removed
            }
        }
    }

    /// Restores the occupancy of `children[idx]` by borrowing one entry
    /// from an adjacent sibling when it can spare one, merging otherwise.
    fn rebalance(
        children: &mut Vec<Node<G>>,
        counts: &mut Vec<usize>,
        sums: &mut Vec<G>,
        idx: usize,
        min: usize,
        counter: &OpCounter,
    ) {
        if children.len() == 1 {
            return; // root child chain; handled by root collapse
        }
        let (left, right) = if idx > 0 {
            (idx - 1, idx)
        } else {
            (idx, idx + 1)
        };
        let can_borrow_from_left = idx > 0 && children[left].entry_count() > min;
        let can_borrow_from_right = idx == 0 && children[right].entry_count() > min;

        if can_borrow_from_left {
            // Move the left sibling's last entry to the child's front.
            let (a, b) = children.split_at_mut(idx);
            Self::shift_last_to_front(&mut a[left], &mut b[0]);
        } else if can_borrow_from_right {
            // Move the right sibling's first entry to the child's back.
            let (a, b) = children.split_at_mut(right);
            Self::shift_first_to_back(&mut b[0], &mut a[idx]);
        } else {
            // Merge `right` into `left`.
            let removed = children.remove(right);
            Self::absorb(&mut children[left], removed);
            counts.remove(right);
            sums.remove(right);
        }
        counts[left] = children[left].count();
        sums[left] = children[left].sum();
        if right < children.len() {
            counts[right] = children[right].count();
            sums[right] = children[right].sum();
        }
        counter.write(2);
    }

    fn shift_last_to_front(from: &mut Node<G>, to: &mut Node<G>) {
        match (from, to) {
            (Node::Leaf(a), Node::Leaf(b)) => {
                let v = a.pop().expect("donor non-empty");
                b.insert(0, v);
            }
            (
                Node::Internal {
                    children: ac,
                    counts: an,
                    sums: asum,
                },
                Node::Internal {
                    children: bc,
                    counts: bn,
                    sums: bsum,
                },
            ) => {
                bc.insert(0, ac.pop().expect("donor non-empty"));
                bn.insert(0, an.pop().expect("donor non-empty"));
                bsum.insert(0, asum.pop().expect("donor non-empty"));
            }
            _ => unreachable!("siblings are at the same level"),
        }
    }

    fn shift_first_to_back(from: &mut Node<G>, to: &mut Node<G>) {
        match (from, to) {
            (Node::Leaf(a), Node::Leaf(b)) => b.push(a.remove(0)),
            (
                Node::Internal {
                    children: ac,
                    counts: an,
                    sums: asum,
                },
                Node::Internal {
                    children: bc,
                    counts: bn,
                    sums: bsum,
                },
            ) => {
                bc.push(ac.remove(0));
                bn.push(an.remove(0));
                bsum.push(asum.remove(0));
            }
            _ => unreachable!("siblings are at the same level"),
        }
    }

    fn absorb(into: &mut Node<G>, from: Node<G>) {
        match (into, from) {
            (Node::Leaf(a), Node::Leaf(mut b)) => a.append(&mut b),
            (
                Node::Internal {
                    children: ac,
                    counts: an,
                    sums: asum,
                },
                Node::Internal {
                    children: mut bc,
                    counts: mut bn,
                    sums: mut bsum,
                },
            ) => {
                ac.append(&mut bc);
                an.append(&mut bn);
                asum.append(&mut bsum);
            }
            _ => unreachable!("siblings are at the same level"),
        }
    }

    fn prefix_rec(&self, node: &Node<G>, index: usize) -> G {
        match node {
            Node::Leaf(values) => {
                self.counter.read(index as u64 + 1);
                values[..=index].iter().fold(G::ZERO, |acc, &v| acc.add(v))
            }
            Node::Internal {
                children,
                counts,
                sums,
            } => {
                let mut acc = G::ZERO;
                let mut rel = index;
                let mut child_idx = 0;
                while rel >= counts[child_idx] {
                    acc = acc.add(sums[child_idx]);
                    self.counter.read(1);
                    rel -= counts[child_idx];
                    child_idx += 1;
                }
                acc.add(self.prefix_rec(&children[child_idx], rel))
            }
        }
    }

    fn value_rec(&self, node: &Node<G>, index: usize) -> G {
        match node {
            Node::Leaf(values) => {
                self.counter.read(1);
                values[index]
            }
            Node::Internal {
                children, counts, ..
            } => {
                let mut rel = index;
                let mut child_idx = 0;
                while rel >= counts[child_idx] {
                    rel -= counts[child_idx];
                    child_idx += 1;
                }
                self.value_rec(&children[child_idx], rel)
            }
        }
    }

    fn add_rec(node: &mut Node<G>, index: usize, delta: G, counter: &OpCounter) {
        match node {
            Node::Leaf(values) => {
                values[index] = values[index].add(delta);
                counter.write(1);
            }
            Node::Internal {
                children,
                counts,
                sums,
            } => {
                let mut rel = index;
                let mut child_idx = 0;
                while rel >= counts[child_idx] {
                    rel -= counts[child_idx];
                    child_idx += 1;
                }
                // Exactly one STS per visited node changes (paper §4.1).
                sums[child_idx] = sums[child_idx].add(delta);
                counter.write(1);
                Self::add_rec(&mut children[child_idx], rel, delta, counter);
            }
        }
    }
}

impl<G: AbelianGroup> CumulativeStore<G> for BcTree<G> {
    fn name(&self) -> &'static str {
        "bc-tree"
    }

    fn len(&self) -> usize {
        self.len
    }

    fn prefix(&self, index: usize) -> G {
        assert!(
            index < self.len,
            "prefix index {index} beyond length {}",
            self.len
        );
        self.prefix_rec(&self.root, index)
    }

    fn value(&self, index: usize) -> G {
        assert!(index < self.len, "index {index} beyond length {}", self.len);
        self.value_rec(&self.root, index)
    }

    fn add(&mut self, index: usize, delta: G) {
        assert!(index < self.len, "index {index} beyond length {}", self.len);
        if delta.is_zero() {
            return;
        }
        Self::add_rec(&mut self.root, index, delta, &self.counter);
    }

    fn counter(&self) -> &OpCounter {
        &self.counter
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.root.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The row-sum set of the paper's Figure 14: individual row sums
    /// 14, 9, 10, 12, 8, 13 (cumulative row sums 14, 23, 33, 45, 53, 66),
    /// fanout 3.
    fn figure14() -> BcTree<i64> {
        BcTree::from_values(3, &[14, 9, 10, 12, 8, 13])
    }

    #[test]
    fn paper_figure14_prefix_query() {
        let t = figure14();
        // "Suppose we wish to find the value of row sum cell 5 … yielding
        // 33 + 12 + 8 = 53." (1-based key 5 = index 4.)
        assert_eq!(t.prefix(4), 53);
        // The left subtree sum seen from the root is 33 (14 + 9 + 10).
        assert_eq!(t.root_subtree_sums()[0], 33);
        // All cumulative values.
        let expect = [14, 23, 33, 45, 53, 66];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(t.prefix(i), e, "prefix({i})");
        }
    }

    #[test]
    fn paper_figure14_update() {
        // "Suppose an update … causes row sum cell 3 to change from 10 to
        // 15 … we update the STS value in the root with the difference,
        // yielding (33 + 5 = 38)."
        let mut t = figure14();
        let old = t.set(2, 15);
        assert_eq!(old, 10);
        assert_eq!(t.root_subtree_sums()[0], 38);
        assert_eq!(t.prefix(2), 38);
        assert_eq!(t.prefix(4), 58);
        assert_eq!(t.total(), 71);
    }

    #[test]
    fn empty_and_single() {
        let mut t = BcTree::<i64>::new(4);
        assert!(t.is_empty());
        assert_eq!(t.total(), 0);
        t.push(7);
        assert_eq!(t.len(), 1);
        assert_eq!(t.prefix(0), 7);
        assert_eq!(t.value(0), 7);
    }

    #[test]
    fn zeroed_build() {
        let t = BcTree::<i64>::zeroed(5, 100);
        assert_eq!(t.len(), 100);
        assert_eq!(t.total(), 0);
        assert_eq!(t.prefix(57), 0);
    }

    #[test]
    fn prefix_matches_scan_across_fanouts() {
        for fanout in [3, 4, 7, 16] {
            let values: Vec<i64> = (0..200).map(|i| (i * 37 % 101) - 50).collect();
            let t = BcTree::from_values(fanout, &values);
            let mut acc = 0i64;
            for (i, &v) in values.iter().enumerate() {
                acc += v;
                assert_eq!(t.prefix(i), acc, "fanout {fanout} prefix({i})");
                assert_eq!(t.value(i), v, "fanout {fanout} value({i})");
            }
        }
    }

    #[test]
    fn updates_match_scan() {
        let mut values: Vec<i64> = (0..64).map(|i| i as i64).collect();
        let mut t = BcTree::from_values(4, &values);
        for step in 0..200 {
            let idx = (step * 13) % values.len();
            let delta = (step as i64 % 17) - 8;
            values[idx] += delta;
            t.add(idx, delta);
        }
        for (i, _) in values.iter().enumerate() {
            let expect: i64 = values[..=i].iter().sum();
            assert_eq!(t.prefix(i), expect);
        }
    }

    #[test]
    fn insertion_shifts_positions() {
        let mut t = BcTree::from_values(3, &[1i64, 2, 3]);
        t.insert(1, 10); // sequence: 1, 10, 2, 3
        assert_eq!(t.len(), 4);
        assert_eq!(t.value(1), 10);
        assert_eq!(t.value(2), 2);
        assert_eq!(t.prefix(3), 16);
        t.insert(0, -1); // -1, 1, 10, 2, 3
        assert_eq!(t.value(0), -1);
        assert_eq!(t.prefix(4), 15);
        t.insert(5, 100); // append
        assert_eq!(t.value(5), 100);
        assert_eq!(t.total(), 115);
    }

    #[test]
    fn many_insertions_stay_consistent_and_balanced() {
        let mut reference: Vec<i64> = Vec::new();
        let mut t = BcTree::<i64>::new(3);
        for i in 0..500u64 {
            let pos = ((i * 2_654_435_761) % (reference.len() as u64 + 1)) as usize;
            let v = (i as i64 * 7) % 23 - 11;
            reference.insert(pos, v);
            t.insert(pos, v);
        }
        assert_eq!(t.len(), 500);
        let mut acc = 0;
        for (i, &v) in reference.iter().enumerate() {
            acc += v;
            assert_eq!(t.prefix(i), acc, "prefix({i})");
        }
        // Height must stay logarithmic: fanout-3 tree of 500 values splits
        // at 4, so each node holds ≥ 2 entries → height ≤ log2(500) + 2.
        assert!(t.height() <= 11, "height {} too large", t.height());
    }

    #[test]
    fn to_values_roundtrips_between_store_kinds() {
        let values: Vec<i64> = (0..40).map(|i| i * 3 % 17 - 8).collect();
        let bc = BcTree::from_values(4, &values);
        assert_eq!(bc.to_values(), values);
        // Migrate pointer B^c → blocked layout via to_values.
        let blocked = crate::BlockedBc::from_values(&bc.to_values());
        for i in 0..values.len() {
            assert_eq!(blocked.prefix(i), bc.prefix(i));
        }
    }

    #[test]
    fn remove_shifts_positions() {
        let mut t = BcTree::from_values(3, &[10i64, 20, 30, 40, 50]);
        assert_eq!(t.remove(2), 30); // 10 20 40 50
        assert_eq!(t.len(), 4);
        assert_eq!(t.value(2), 40);
        assert_eq!(t.prefix(3), 120);
        assert_eq!(t.remove(0), 10); // 20 40 50
        assert_eq!(t.remove(2), 50); // 20 40
        assert_eq!(t.total(), 60);
    }

    #[test]
    fn remove_everything_collapses_tree() {
        let values: Vec<i64> = (0..100).collect();
        let mut t = BcTree::from_values(3, &values);
        for _ in 0..100 {
            t.remove(0);
        }
        assert!(t.is_empty());
        assert_eq!(t.total(), 0);
        assert_eq!(t.height(), 1);
        t.push(5);
        assert_eq!(t.prefix(0), 5);
    }

    #[test]
    fn interleaved_insert_remove_matches_vec() {
        let mut reference: Vec<i64> = Vec::new();
        let mut t = BcTree::<i64>::new(4);
        for i in 0..800u64 {
            let roll = (i * 2_654_435_761) % 100;
            if roll < 60 || reference.is_empty() {
                let pos = (roll as usize * 37) % (reference.len() + 1);
                let v = (i as i64 % 43) - 21;
                reference.insert(pos, v);
                t.insert(pos, v);
            } else {
                let pos = (roll as usize * 31) % reference.len();
                assert_eq!(t.remove(pos), reference.remove(pos), "step {i}");
            }
        }
        assert_eq!(t.len(), reference.len());
        let mut acc = 0;
        for (i, &v) in reference.iter().enumerate() {
            acc += v;
            assert_eq!(t.prefix(i), acc, "prefix({i})");
        }
        // Occupancy invariants keep the height logarithmic.
        assert!(t.height() <= 8, "height {}", t.height());
    }

    #[test]
    fn update_touches_one_sts_per_level() {
        let t = BcTree::<i64>::zeroed(3, 81);
        let h = t.height();
        let mut t = t;
        t.reset_ops();
        t.add(40, 5);
        let ops = t.ops();
        // One leaf write plus at most one STS write per interior level.
        assert!(
            ops.writes as usize <= h,
            "writes {} exceed height {h}",
            ops.writes
        );
    }

    #[test]
    fn prefix_cost_is_logarithmic() {
        let t = BcTree::<i64>::zeroed(16, 65_536);
        t.reset_ops();
        let _ = t.prefix(65_535);
        let ops = t.ops();
        // ≤ f reads per level, ~4 levels at fanout 16.
        assert!(ops.reads <= 16 * 5, "reads {} not logarithmic", ops.reads);
    }

    #[test]
    fn range_queries_via_store_trait() {
        let values: Vec<i64> = (1..=10).collect();
        let t = BcTree::from_values(4, &values);
        assert_eq!(t.range(0, 9), 55);
        assert_eq!(t.range(3, 5), 4 + 5 + 6);
        assert_eq!(t.range(9, 9), 10);
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn fanout_too_small_rejected() {
        BcTree::<i64>::new(2);
    }

    #[test]
    fn heap_bytes_nonzero() {
        let t = BcTree::<i64>::zeroed(8, 1000);
        assert!(t.heap_bytes() >= 1000 * 8);
    }
}
