//! Implicit blocked cumulative store — the B^c tree flattened into two
//! arrays (Pibiri–Venturini's truncated-tree layout).
//!
//! The paper's B^c tree (§4.1) groups values into fanout-sized blocks
//! with cumulative counts above them; this store keeps exactly that
//! shape but drops the pointers. Raw values live in dense leaf blocks of
//! [`DEFAULT_BLOCK`] slots; one implicit Fenwick-layout array over the
//! per-block totals replaces the interior nodes. A prefix sum reads
//! `O(log(k / B))` summary slots — the descent loop clears one bit per
//! step (`i &= i - 1`), no compare-and-branch — then sums at most `B`
//! raw slots from one contiguous block (the truncated tail). Updates
//! touch one raw slot plus the summary path.
//!
//! Leaf blocks materialize on first write: an all-zero block is an
//! absent entry in the block table and reads as zeros, so a long row-sum
//! group that a sparse cube (§5) touches at a few positions holds a few
//! blocks plus the summary (one slot per block), not `k` raw values.
//! Once every block is live the store reorders them into place and drops
//! the table, so dense groups keep the plain identity layout.
//!
//! Compared to the pointer-based [`crate::BcTree`] this loses positional
//! insertion (growth requires a rebuild) and wins the constant factor:
//! every access is an index walk over flat arrays.

use crate::store::CumulativeStore;
use ddc_array::{AbelianGroup, OpCounter, OpSnapshot};

/// Raw slots per dense leaf block (power of two; the truncated tail
/// sums at most this many raw values per query).
pub const DEFAULT_BLOCK: usize = 16;

/// Block-table entry of a block that holds only zeros.
const ABSENT: u32 = u32::MAX;

/// An implicit blocked B^c layout over group values, 0-based external
/// indices.
///
/// # Examples
///
/// ```
/// use ddc_btree::{BlockedBc, CumulativeStore};
///
/// let mut b = BlockedBc::from_values(&[3i64, 1, 4, 1, 5]);
/// assert_eq!(b.prefix(2), 8);
/// b.add(1, 10);
/// assert_eq!(b.range(1, 3), 16);
/// assert_eq!(b.total(), 24);
/// ```
#[derive(Debug)]
pub struct BlockedBc<G: AbelianGroup> {
    /// Materialized leaf blocks, [`DEFAULT_BLOCK`] slots each.
    raw: Vec<G>,
    /// Per block: its position in `raw` (in blocks), or [`ABSENT`].
    /// Empty once every block is live: block `b` then sits at `b · B`.
    table: Box<[u32]>,
    /// 1-based implicit Fenwick layout over per-block totals;
    /// `summary[0]` is unused padding.
    summary: Box<[G]>,
    len: usize,
    counter: OpCounter,
}

impl<G: AbelianGroup> Clone for BlockedBc<G> {
    fn clone(&self) -> Self {
        Self {
            raw: self.raw.clone(),
            table: self.table.clone(),
            summary: self.summary.clone(),
            len: self.len,
            counter: OpCounter::new(),
        }
    }
}

impl<G: AbelianGroup> BlockedBc<G> {
    /// A store of `len` zero values.
    pub fn zeroed(len: usize) -> Self {
        let blocks = len.div_ceil(DEFAULT_BLOCK);
        // A single block starts live: the tree creates a group on its
        // first write, so a table would be dropped at once.
        let (raw, table) = if blocks <= 1 {
            (vec![G::ZERO; blocks * DEFAULT_BLOCK], Box::default())
        } else {
            (Vec::new(), vec![ABSENT; blocks].into_boxed_slice())
        };
        Self {
            raw,
            table,
            summary: vec![G::ZERO; blocks + 1].into_boxed_slice(),
            len,
            counter: OpCounter::new(),
        }
    }

    /// Builds from raw values in `O(k)`: one copy of every block holding
    /// a non-zero value plus the Fenwick parent-propagation pass over the
    /// block totals.
    pub fn from_values(values: &[G]) -> Self {
        let mut store = Self::zeroed(values.len());
        let blocks = store.summary.len() - 1;
        for (b, chunk) in values.chunks(DEFAULT_BLOCK).enumerate() {
            let mut sum = G::ZERO;
            if chunk.iter().any(|v| !v.is_zero()) {
                let base = store.materialize(b);
                store.raw[base..base + chunk.len()].copy_from_slice(chunk);
                sum = chunk.iter().fold(G::ZERO, |acc, &v| acc.add(v));
            }
            let pos = b + 1;
            store.summary[pos] = store.summary[pos].add(sum);
            let parent = pos + (pos & pos.wrapping_neg());
            if parent <= blocks {
                let t = store.summary[pos];
                store.summary[parent] = store.summary[parent].add(t);
            }
        }
        store.raw.shrink_to_fit();
        store
    }

    /// [`CumulativeStore::prefix`], counting its reads into `tally`
    /// instead of the store's own counter (the tree's per-operation
    /// accounting).
    pub fn prefix_counted(&self, index: usize, tally: &mut OpSnapshot) -> G {
        assert!(
            index < self.len,
            "prefix index {index} beyond length {}",
            self.len
        );
        let block = index / DEFAULT_BLOCK;
        // Whole blocks before the target: implicit Fenwick prefix.
        let mut acc = G::ZERO;
        let mut i = block;
        let mut summary_reads = 0;
        while i > 0 {
            acc = acc.add(self.summary[i]);
            summary_reads += 1;
            i &= i - 1;
        }
        // Truncated tail: contiguous raw slots of the target's block (an
        // absent block contributes zero and is not read).
        let mut tail_reads = 0;
        if let Some(base) = self.block_base(block) {
            let end = base + index % DEFAULT_BLOCK;
            for &v in &self.raw[base..=end] {
                acc = acc.add(v);
            }
            tail_reads = (end - base + 1) as u64;
        }
        tally.reads += summary_reads + tail_reads;
        acc
    }

    /// [`CumulativeStore::add`], counting its writes into `tally`.
    pub fn add_counted(&mut self, index: usize, delta: G, tally: &mut OpSnapshot) {
        assert!(index < self.len, "index {index} beyond length {}", self.len);
        if delta.is_zero() {
            return;
        }
        let slot = self.materialize(index / DEFAULT_BLOCK) + index % DEFAULT_BLOCK;
        self.raw[slot] = self.raw[slot].add(delta);
        let mut writes = 1;
        let blocks = self.summary.len() - 1;
        // Queries Fenwick-walk the blocks *before* the target and then
        // scan the target block raw, so no prefix ever reads a summary
        // position ≥ `blocks`; stopping the update path there skips the
        // dead root entry (and all summary work for single-block stores).
        let mut i = index / DEFAULT_BLOCK + 1;
        while i < blocks {
            self.summary[i] = self.summary[i].add(delta);
            writes += 1;
            i += i & i.wrapping_neg();
        }
        tally.writes += writes;
    }

    /// Start of `block`'s slots in `raw`, or `None` while it is all zero.
    #[inline]
    fn block_base(&self, block: usize) -> Option<usize> {
        match self.table.get(block) {
            None => Some(block * DEFAULT_BLOCK),
            Some(&ABSENT) => None,
            Some(&at) => Some(at as usize * DEFAULT_BLOCK),
        }
    }

    /// Start of `block`'s slots in `raw`, appending a zero block first
    /// if it is absent. Materializing the last absent block moves every
    /// block to its identity position and drops the table.
    fn materialize(&mut self, block: usize) -> usize {
        if let Some(base) = self.block_base(block) {
            return base;
        }
        let base = self.raw.len();
        self.raw.resize(base + DEFAULT_BLOCK, G::ZERO);
        self.table[block] = (base / DEFAULT_BLOCK) as u32;
        if self.raw.len() < self.table.len() * DEFAULT_BLOCK {
            return base;
        }
        let mut dense = vec![G::ZERO; self.raw.len()];
        for (dst, &at) in dense.chunks_mut(DEFAULT_BLOCK).zip(self.table.iter()) {
            let from = at as usize * DEFAULT_BLOCK;
            dst.copy_from_slice(&self.raw[from..from + DEFAULT_BLOCK]);
        }
        self.raw = dense;
        self.table = Box::default();
        block * DEFAULT_BLOCK
    }
}

impl<G: AbelianGroup> CumulativeStore<G> for BlockedBc<G> {
    fn name(&self) -> &'static str {
        "blocked-bc"
    }

    fn len(&self) -> usize {
        self.len
    }

    fn prefix(&self, index: usize) -> G {
        let mut tally = OpSnapshot::default();
        let v = self.prefix_counted(index, &mut tally);
        self.counter.absorb(tally);
        v
    }

    fn value(&self, index: usize) -> G {
        assert!(index < self.len, "index {index} beyond length {}", self.len);
        self.counter.read(1);
        match self.block_base(index / DEFAULT_BLOCK) {
            Some(base) => self.raw[base + index % DEFAULT_BLOCK],
            None => G::ZERO,
        }
    }

    fn add(&mut self, index: usize, delta: G) {
        let mut tally = OpSnapshot::default();
        self.add_counted(index, delta, &mut tally);
        self.counter.absorb(tally);
    }

    fn counter(&self) -> &OpCounter {
        &self.counter
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + (self.raw.capacity() + self.summary.len()) * std::mem::size_of::<G>()
            + self.table.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_matches_scan() {
        let values: Vec<i64> = (0..300).map(|i| (i * 31 % 97) - 48).collect();
        let b = BlockedBc::from_values(&values);
        let mut acc = 0;
        for (i, &v) in values.iter().enumerate() {
            acc += v;
            assert_eq!(b.prefix(i), acc, "prefix({i})");
            assert_eq!(b.value(i), v, "value({i})");
        }
    }

    #[test]
    fn updates_match_scan() {
        let mut values = vec![0i64; 50];
        let mut b = BlockedBc::<i64>::zeroed(50);
        for step in 0..300 {
            let idx = (step * 7) % 50;
            let delta = (step as i64 % 11) - 5;
            values[idx] += delta;
            b.add(idx, delta);
        }
        for i in 0..50 {
            let expect: i64 = values[..=i].iter().sum();
            assert_eq!(b.prefix(i), expect);
        }
    }

    #[test]
    fn lengths_straddling_block_boundaries() {
        for len in [
            1,
            DEFAULT_BLOCK - 1,
            DEFAULT_BLOCK,
            DEFAULT_BLOCK + 1,
            3 * DEFAULT_BLOCK + 5,
        ] {
            let values: Vec<i64> = (0..len as i64).map(|i| i * 3 - 7).collect();
            let b = BlockedBc::from_values(&values);
            assert_eq!(b.len(), len);
            let mut acc = 0;
            for (i, &v) in values.iter().enumerate() {
                acc += v;
                assert_eq!(b.prefix(i), acc, "len {len} prefix({i})");
            }
            assert_eq!(b.total(), acc, "len {len} total");
        }
    }

    #[test]
    fn set_and_range() {
        let mut b = BlockedBc::from_values(&[10i64, 20, 30]);
        assert_eq!(b.set(1, 25), 20);
        assert_eq!(b.range(0, 2), 65);
        assert_eq!(b.range(1, 1), 25);
    }

    #[test]
    fn query_cost_is_summary_path_plus_one_block() {
        let b = BlockedBc::<i64>::zeroed(1 << 20);
        b.reset_ops();
        let _ = b.prefix((1 << 20) - 1);
        // ≤ log2(2^20 / B) summary reads + B raw reads.
        let bound = (20 - DEFAULT_BLOCK.trailing_zeros() as u64) + DEFAULT_BLOCK as u64;
        assert!(b.ops().reads <= bound, "read {} values", b.ops().reads);
    }

    #[test]
    fn sparse_population_allocates_proportionally() {
        let len = 1 << 20;
        let mut b = BlockedBc::<i64>::zeroed(len);
        let summary_bytes = (len / DEFAULT_BLOCK + 1) * 8;
        let table_bytes = (len / DEFAULT_BLOCK) * 4;
        let fixed = std::mem::size_of::<BlockedBc<i64>>() + summary_bytes + table_bytes;
        assert_eq!(b.heap_bytes(), fixed);
        b.add(3, 5);
        b.add(700_000, -2);
        b.add(700_001, 4);
        assert!(b.heap_bytes() <= fixed + 2 * 2 * DEFAULT_BLOCK * 8);
        assert_eq!(b.prefix(2), 0);
        assert_eq!(b.prefix(699_999), 5);
        assert_eq!(b.prefix(700_000), 3);
        assert_eq!(b.prefix(len - 1), 7);
        assert_eq!(b.value(700_001), 4);
        assert_eq!(b.value(12_345), 0);
        // Bulk builds skip all-zero blocks too.
        let mut values = vec![0i64; 10 * DEFAULT_BLOCK];
        values[5 * DEFAULT_BLOCK + 1] = 9;
        let sparse = BlockedBc::from_values(&values);
        assert_eq!(sparse.raw.len(), DEFAULT_BLOCK);
        assert_eq!(sparse.prefix(values.len() - 1), 9);
        assert_eq!(sparse.prefix(5 * DEFAULT_BLOCK), 0);
    }

    #[test]
    fn filling_every_block_restores_the_identity_layout() {
        let blocks = 8;
        let mut b = BlockedBc::<i64>::zeroed(blocks * DEFAULT_BLOCK);
        let mut reference = vec![0i64; blocks * DEFAULT_BLOCK];
        // Touch blocks out of order so the pool order differs from `b`.
        for (step, block) in [5usize, 0, 7, 2, 6, 1, 4, 3].into_iter().enumerate() {
            let i = block * DEFAULT_BLOCK + step;
            b.add(i, step as i64 + 1);
            reference[i] += step as i64 + 1;
        }
        assert!(b.table.is_empty());
        assert_eq!(b.raw, reference);
        assert_eq!(b.to_values(), reference);
        let dense = BlockedBc::from_values(&reference);
        assert!(dense.table.is_empty());
        assert_eq!(dense.raw, reference);
    }

    #[test]
    fn matches_the_pointer_based_bc_tree() {
        use crate::BcTree;
        let values: Vec<i64> = (0..200).map(|i| (i * 13 % 53) - 26).collect();
        let blocked = BlockedBc::from_values(&values);
        let pointered = BcTree::from_values(4, &values);
        for i in 0..values.len() {
            assert_eq!(blocked.prefix(i), pointered.prefix(i), "prefix({i})");
        }
    }
}
