//! The primary tree of the Dynamic Data Cube (§3.2, §4.2), stored in
//! flat arenas.
//!
//! A [`DdcTree`] recursively bisects the (power-of-two) data space. Each
//! node holds `2^d` **overlay boxes** of side `k` (half the node's side);
//! a box stores the **subtotal** of its region and `d` row-sum groups,
//! each `(d−1)`-dimensional (§3.1), held in a [`Secondary`] structure.
//!
//! Queries ([`DdcTree::prefix_sum`]) implement Figure 10: at each node,
//! every overlay box contributes at most one value —
//!
//! * nothing, if the target cell precedes the box in some dimension;
//! * its subtotal, if the target region covers the box entirely;
//! * one row-sum group value, if the target region cuts the box; or
//! * a recursive descent, for the single box that covers the target cell.
//!
//! Updates ([`DdcTree::apply_delta`]) implement Figure 12 bottom-up with
//! the difference value: one box per level absorbs the delta into its
//! subtotal and its `d` row-sum groups.
//!
//! ## Arena layout (DESIGN §43)
//!
//! Nodes are not heap objects: the tree is four parallel `Vec`s indexed
//! by a packed u32 [`ChildRef`]. Node `n` owns the `2^d` consecutive
//! slots `[n·2^d, (n+1)·2^d)` of `children` (packed child references)
//! and `boxes` (inline overlay boxes); dense leaf blocks live in the
//! separate `leaves` arena. Descent is an index walk over contiguous
//! memory — no pointer chasing — and box classification is branchless:
//! the boxes contributing to a prefix query at a node are exactly the
//! submasks of the "high-half" bitmask of the target coordinates, so
//! the query enumerates submasks and mask-selects the cross coordinates
//! instead of testing per-dimension statuses.
//!
//! [`DdcTree::prune`] returns dead slots to per-arena free lists;
//! allocation pops a free slot before growing the arena, and when free
//! slots outnumber live ones the whole tree is compacted into fresh
//! exactly-sized arenas, releasing the memory. [`DdcTree::check_arena`]
//! audits this bookkeeping (reachability ∪ free lists = all slots, with
//! no overlap and no dangling or duplicated references).
//!
//! Additional paper features carried by this type:
//!
//! * **Level elision (§4.4)** — the `h` lowest levels are replaced by
//!   dense [`LeafBlock`]s of side `2^{h+1}`, shrinking storage toward
//!   `|A|` at the cost of summing at most `2^{(h+1)d}` leaf cells per
//!   query.
//! * **Sparsity (§5)** — nodes, boxes, and secondary structures
//!   materialize lazily; an all-zero region costs nothing.
//! * **Growth (§5)** — [`DdcTree::grow`] doubles the space in one step by
//!   re-rooting: the old root becomes one child of a fresh root, and only
//!   the new root-level overlay box is rebuilt (cost proportional to the
//!   populated cells, not the space).

use ddc_array::{AbelianGroup, NdArray, OpCounter, OpSnapshot, Region, Shape};

use crate::config::{DdcConfig, LeafBackend};
use crate::pager::{PoolStats, WalBarrier};
use crate::persist::ValueCodec;
use crate::secondary::Secondary;
use crate::store::{MemStore, NodeStore, PagedStore, RecordCodec};

/// Most dimensions a tree supports. A node holds `2^d` box slots, so
/// wider trees are impractical well before this bound; it sizes the
/// stack scratch of the query and update walks.
pub(crate) const MAX_DIMS: usize = 16;

/// Tag bit distinguishing leaf-arena from node-arena references.
const LEAF_BIT: u32 = 1 << 31;

/// Packed reference to a child: empty, a node-arena id, or a
/// leaf-arena id (tagged with [`LEAF_BIT`]). `u32::MAX` is the empty
/// sentinel — it has the leaf bit set, so emptiness must be checked
/// before the leaf tag.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct ChildRef(u32);

impl ChildRef {
    const EMPTY: ChildRef = ChildRef(u32::MAX);

    fn node(ix: u32) -> Self {
        assert!(ix < LEAF_BIT, "node arena overflow");
        ChildRef(ix)
    }

    fn leaf(ix: u32) -> Self {
        assert!(ix < LEAF_BIT - 1, "leaf arena overflow");
        ChildRef(ix | LEAF_BIT)
    }

    #[inline]
    fn is_empty(self) -> bool {
        self.0 == u32::MAX
    }

    #[inline]
    fn is_leaf(self) -> bool {
        !self.is_empty() && self.0 & LEAF_BIT != 0
    }

    /// Arena index, valid for non-empty references only.
    #[inline]
    fn index(self) -> usize {
        (self.0 & !LEAF_BIT) as usize
    }
}

/// One overlay box: subtotal plus `d` row-sum groups (§3.1). Stored
/// inline in the node arena, parallel to the child slot it covers.
#[derive(Debug)]
pub(crate) struct OverlayBox<G: AbelianGroup> {
    /// Sum of every cell of `A` covered by the box.
    subtotal: G,
    /// Row-sum group per dimension; group `j` is indexed by the box-local
    /// coordinates of the other `d − 1` dimensions and accumulates whole
    /// rows along dimension `j`.
    faces: Box<[Secondary<G>]>,
}

impl<G: AbelianGroup> OverlayBox<G> {
    fn new(d: usize) -> Self {
        let faces: Vec<Secondary<G>> = (0..d).map(|_| Secondary::Empty).collect();
        Self {
            subtotal: G::ZERO,
            faces: faces.into_boxed_slice(),
        }
    }

    /// Heap bytes owned *behind* the box (the arena slot itself is
    /// billed by capacity in [`DdcTree::heap_bytes`]).
    fn inner_heap_bytes(&self) -> usize {
        self.faces.len() * std::mem::size_of::<Secondary<G>>()
            + self.faces.iter().map(Secondary::heap_bytes).sum::<usize>()
    }
}

/// Dense block of raw `A` cells standing in for the elided subtree
/// (§4.4); with `h = 0` blocks have side 2 and hold exactly the cells the
/// paper's leaf-level (`k = 1`) overlay boxes would.
#[derive(Debug)]
pub(crate) struct LeafBlock<G: AbelianGroup> {
    cells: NdArray<G>,
}

impl<G: AbelianGroup> LeafBlock<G> {
    fn zeroed(d: usize, side: usize) -> Self {
        Self {
            cells: NdArray::zeroed(Shape::cube(d, side)),
        }
    }

    /// Sum of the block-local prefix region ending at `rel` — the "sum the
    /// appropriate leaf cells" step of §4.4.
    fn prefix(&self, rel: &[usize], tally: &mut OpSnapshot) -> G {
        let region = Region::prefix(rel);
        tally.reads += region.cells() as u64;
        self.cells.region_sum(&region)
    }

    fn total(&self) -> G {
        self.cells.total()
    }
}

impl<G: AbelianGroup + ValueCodec> LeafBlock<G> {
    /// Upper bound on a block's encoded size for trees of the given
    /// config: side header plus a full dense block of values. Every
    /// block a tree allocates has side ≤ `leaf_block_side()` (smaller
    /// only while the whole space is one degenerate leaf).
    fn record_cap(d: usize, leaf_block_side: usize) -> usize {
        4 + leaf_block_side.pow(d as u32) * G::WIDTH
    }

    /// Serializes as `side: u32 LE` + row-major cells ([`ValueCodec`]).
    fn encode_into(&self, out: &mut Vec<u8>) {
        let side = self.cells.shape().dims()[0] as u32;
        out.extend_from_slice(&side.to_le_bytes());
        for v in self.cells.as_slice() {
            if let Err(e) = v.encode(out) {
                panic!("leaf block encode failed: {e}");
            }
        }
    }

    fn decode_from(d: usize, bytes: &[u8]) -> Self {
        assert!(bytes.len() >= 4, "truncated leaf record");
        let side = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        let shape = Shape::cube(d, side);
        let mut input = &bytes[4..];
        let data: Vec<G> = (0..shape.cells())
            .map(|_| match G::decode(&mut input) {
                Ok(v) => v,
                Err(e) => panic!("leaf block decode failed: {e}"),
            })
            .collect();
        Self {
            cells: NdArray::from_vec(shape, data),
        }
    }
}

/// The leaf-block arena behind a tree: the in-memory slab, or records
/// paged through a capped buffer pool (ROADMAP #1). Both expose the
/// same [`NodeStore`] contract, so every tree operation below is
/// backend-agnostic.
#[derive(Debug)]
pub(crate) enum LeafArena<G: AbelianGroup> {
    Mem(MemStore<LeafBlock<G>>),
    // Boxed: the pool + slot directory are much bigger than the slab's
    // two Vec headers, and Mem is the overwhelmingly common variant.
    Paged(Box<PagedStore<LeafBlock<G>>>),
}

impl<G: AbelianGroup> LeafArena<G> {
    fn insert(&mut self, block: LeafBlock<G>) -> u32 {
        match self {
            Self::Mem(m) => m.insert(block),
            Self::Paged(p) => p.insert(block),
        }
    }

    fn remove(&mut self, id: u32) {
        match self {
            Self::Mem(m) => m.remove(id),
            Self::Paged(p) => p.remove(id),
        }
    }

    fn slots(&self) -> usize {
        match self {
            Self::Mem(m) => m.slots(),
            Self::Paged(p) => p.slots(),
        }
    }

    fn free_len(&self) -> usize {
        match self {
            Self::Mem(m) => m.free_len(),
            Self::Paged(p) => p.free_len(),
        }
    }

    fn free_ids(&self) -> Vec<u32> {
        match self {
            Self::Mem(m) => m.free_ids(),
            Self::Paged(p) => p.free_ids(),
        }
    }

    fn is_occupied(&self, id: u32) -> bool {
        match self {
            Self::Mem(m) => m.is_occupied(id),
            Self::Paged(p) => p.is_occupied(id),
        }
    }

    fn with<R>(&self, id: u32, f: impl FnOnce(Option<&LeafBlock<G>>) -> R) -> R {
        match self {
            Self::Mem(m) => m.with(id, f),
            Self::Paged(p) => p.with(id, f),
        }
    }

    fn with_mut<R>(&mut self, id: u32, f: impl FnOnce(Option<&mut LeafBlock<G>>) -> R) -> R {
        match self {
            Self::Mem(m) => m.with_mut(id, f),
            Self::Paged(p) => p.with_mut(id, f),
        }
    }
}

/// How one overlay box contributed to a traced query (Figure 11's
/// per-box walkthrough, machine-readable).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Contribution {
    /// Target region covers the box entirely: its subtotal was added.
    Subtotal,
    /// Target region cuts the box: a row-sum group value was added
    /// (the group's axis is recorded).
    RowSum {
        /// The dimension whose group answered.
        axis: usize,
    },
    /// The box covers the target cell: the query descended into it.
    Descend,
    /// Cells summed directly from a leaf block (§4.4 elided levels).
    LeafCells {
        /// Number of raw cells added.
        cells: usize,
    },
}

/// One step of a traced prefix query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceStep<G> {
    /// Tree depth (0 = root node).
    pub level: usize,
    /// Anchor of the overlay box (or leaf block) that contributed.
    pub box_anchor: Vec<usize>,
    /// Side `k` of the box.
    pub box_side: usize,
    /// What the box contributed.
    pub kind: Contribution,
    /// The value added to the running total (zero for `Descend`).
    pub value: G,
}

/// Structural statistics of one tree (see [`DdcTree::stats`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Materialized interior nodes.
    pub nodes: usize,
    /// Materialized overlay boxes.
    pub boxes: usize,
    /// Materialized dense leaf blocks.
    pub leaf_blocks: usize,
    /// Raw cells held by leaf blocks.
    pub leaf_cells: usize,
    /// Heap bytes attributable to secondary (row-sum) structures.
    pub secondary_bytes: usize,
    /// Total heap bytes of the tree.
    pub total_bytes: usize,
    /// Deepest materialized level (root node = 0).
    pub depth: usize,
    /// Per-level breakdown, index = level.
    pub per_level: Vec<LevelStats>,
    /// Node-arena slots (live + free-listed).
    pub node_slots: usize,
    /// Node-arena slots on the free list.
    pub free_node_slots: usize,
    /// Leaf-arena slots (live + free-listed).
    pub leaf_slots: usize,
    /// Leaf-arena slots on the free list.
    pub free_leaf_slots: usize,
}

/// One level's slice of [`TreeStats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Region side covered by children at this level.
    pub side: usize,
    /// Interior nodes at this level.
    pub nodes: usize,
    /// Overlay boxes at this level.
    pub boxes: usize,
    /// Dense leaf blocks at this level.
    pub leaf_blocks: usize,
}

/// The Dynamic Data Cube's primary tree over a `d`-dimensional space of
/// power-of-two side.
#[derive(Debug)]
pub struct DdcTree<G: AbelianGroup> {
    d: usize,
    side: usize,
    config: DdcConfig,
    root: ChildRef,
    /// Node arena: node `n` owns slots `[n·2^d, (n+1)·2^d)`.
    children: Vec<ChildRef>,
    /// Overlay boxes, parallel to `children` slot for slot.
    boxes: Vec<Option<OverlayBox<G>>>,
    /// Leaf-block arena, indexed by [`ChildRef::leaf`] ids — in-memory
    /// slab by default, paged once `enable_paging` has run.
    leaves: LeafArena<G>,
    /// Free node ids awaiting reuse (slots cleared).
    node_free: Vec<u32>,
    counter: OpCounter,
}

impl<G: AbelianGroup> DdcTree<G> {
    /// An empty (all-zero) tree covering `[0, side)^d`.
    ///
    /// # Panics
    ///
    /// Panics if `side` is not a power of two, `d == 0` or `d > 16`.
    pub fn new(d: usize, side: usize, config: DdcConfig) -> Self {
        assert!(d >= 1, "dimensionality must be at least 1");
        assert!(d <= MAX_DIMS, "dimensionality {d} exceeds {MAX_DIMS}");
        assert!(side.is_power_of_two(), "side {side} must be a power of two");
        Self {
            d,
            side,
            config,
            root: ChildRef::EMPTY,
            children: Vec::new(),
            boxes: Vec::new(),
            leaves: LeafArena::Mem(MemStore::new()),
            node_free: Vec::new(),
            counter: OpCounter::new(),
        }
    }

    /// Box slots per node.
    #[inline]
    fn stride(&self) -> usize {
        1 << self.d
    }

    /// Allocates a node id, preferring the free list; fresh slots are
    /// already cleared (children empty, boxes vacant).
    fn alloc_node(&mut self) -> u32 {
        if let Some(id) = self.node_free.pop() {
            return id;
        }
        let stride = self.stride();
        let id = (self.children.len() / stride) as u32;
        assert!(id < LEAF_BIT, "node arena overflow");
        self.children
            .resize(self.children.len() + stride, ChildRef::EMPTY);
        self.boxes.resize_with(self.boxes.len() + stride, || None);
        id
    }

    /// Stores a leaf block, preferring a free slot.
    fn alloc_leaf(&mut self, block: LeafBlock<G>) -> u32 {
        let id = self.leaves.insert(block);
        assert!(id < LEAF_BIT - 1, "leaf arena overflow");
        id
    }

    /// Clears one node's slots (dropping its boxes) and free-lists it.
    fn free_node(&mut self, id: u32) {
        let base = (id as usize) << self.d;
        for s in 0..self.stride() {
            self.children[base + s] = ChildRef::EMPTY;
            self.boxes[base + s] = None;
        }
        self.node_free.push(id);
    }

    /// Vacates one leaf slot and free-lists it.
    fn free_leaf(&mut self, id: u32) {
        self.leaves.remove(id);
    }

    /// Returns a whole subtree's slots to the free lists.
    fn free_subtree(&mut self, c: ChildRef) {
        if c.is_empty() {
            return;
        }
        if c.is_leaf() {
            self.free_leaf(c.index() as u32);
            return;
        }
        let base = c.index() << self.d;
        for s in 0..self.stride() {
            self.free_subtree(self.children[base + s]);
        }
        self.free_node(c.index() as u32);
    }

    /// Bulk-builds a tree over `a` (padded with zeros up to `side`) in one
    /// bottom-up pass: each overlay box's subtotal and raw row-sum groups
    /// are accumulated by a single scan of its region and handed to the
    /// secondary structures' `from_values` constructors — `O(d · N log n)`
    /// cell visits in total, with none of the per-cell structure descents
    /// the incremental path pays.
    pub fn from_array_sized(a: &NdArray<G>, side: usize, config: DdcConfig) -> Self {
        let d = a.shape().ndim();
        assert!(side.is_power_of_two());
        assert!(
            a.shape().dims().iter().all(|&n| n <= side),
            "array {} exceeds side {side}",
            a.shape()
        );
        let mut tree = Self::new(d, side, config);
        let lo = vec![0usize; d];
        tree.root = tree.build_child(a, side, &lo);
        tree
    }

    /// Builds the subtree covering `[lo, lo + side)` into the arenas;
    /// `EMPTY` when the region holds no non-zero cells.
    fn build_child(&mut self, a: &NdArray<G>, side: usize, lo: &[usize]) -> ChildRef {
        let d = self.d;
        for (&l, &n) in lo.iter().zip(a.shape().dims()) {
            if l >= n {
                return ChildRef::EMPTY; // fully in the zero padding
            }
        }
        if side <= self.leaf_side() {
            // Intersection of the covered region with the array's extent.
            let mut hi = Vec::with_capacity(d);
            for (&l, &n) in lo.iter().zip(a.shape().dims()) {
                hi.push((l + side - 1).min(n - 1));
            }
            let region = Region::new(lo, &hi);
            let mut block = LeafBlock::zeroed(d, side);
            let mut any = false;
            let mut buf = vec![0usize; d];
            let mut rel = vec![0usize; d];
            let mut iter = region.iter_points();
            while iter.next_into(&mut buf) {
                let v = a.get(&buf);
                if !v.is_zero() {
                    any = true;
                    for (r, (&c, &l)) in rel.iter_mut().zip(buf.iter().zip(lo.iter())) {
                        *r = c - l;
                    }
                    block.cells.add_assign(&rel, v);
                }
            }
            return if any {
                ChildRef::leaf(self.alloc_leaf(block))
            } else {
                ChildRef::EMPTY
            };
        }

        let k = side / 2;
        let id = self.alloc_node();
        let mut any_box = false;
        let mut box_lo = vec![0usize; d];
        for bi in 0..self.stride() {
            for i in 0..d {
                box_lo[i] = lo[i] + if bi & (1 << i) != 0 { k } else { 0 };
            }
            if let Some(obox) = Self::scan_box(a, k, &box_lo, d, &self.config) {
                any_box = true;
                let child = self.build_child(a, k, &box_lo);
                let base = (id as usize) << d;
                self.boxes[base + bi] = Some(obox);
                self.children[base + bi] = child;
            }
        }
        if any_box {
            ChildRef::node(id)
        } else {
            self.free_node(id);
            ChildRef::EMPTY
        }
    }

    /// Scans region `[box_lo, box_lo + k)` of `a`, accumulating one
    /// overlay box (subtotal + row-sum groups); `None` when the region
    /// holds no non-zero cells.
    fn scan_box(
        a: &NdArray<G>,
        k: usize,
        box_lo: &[usize],
        d: usize,
        config: &DdcConfig,
    ) -> Option<OverlayBox<G>> {
        let mut hi = Vec::with_capacity(d);
        for (&l, &n) in box_lo.iter().zip(a.shape().dims()) {
            if l >= n {
                return None;
            }
            hi.push((l + k - 1).min(n - 1));
        }
        let box_region = Region::new(box_lo, &hi);
        let mut subtotal = G::ZERO;
        let mut any = false;
        let mut raws: Vec<NdArray<G>> = if d >= 2 {
            (0..d)
                .map(|_| NdArray::zeroed(Shape::cube(d - 1, k)))
                .collect()
        } else {
            Vec::new()
        };
        let mut buf = vec![0usize; d];
        let mut cross = vec![0usize; d.saturating_sub(1)];
        let mut iter = box_region.iter_points();
        while iter.next_into(&mut buf) {
            let v = a.get(&buf);
            if v.is_zero() {
                continue;
            }
            any = true;
            subtotal = subtotal.add(v);
            for (j, raw) in raws.iter_mut().enumerate() {
                let mut w = 0;
                for i in 0..d {
                    if i != j {
                        cross[w] = buf[i] - box_lo[i];
                        w += 1;
                    }
                }
                raw.add_assign(&cross, v);
            }
        }
        if !any {
            return None;
        }
        let faces: Vec<Secondary<G>> = raws
            .iter()
            .map(|raw| Secondary::build_from_raw(raw, config))
            .collect();
        Some(OverlayBox {
            subtotal,
            faces: faces.into_boxed_slice(),
        })
    }

    /// Dimensionality `d`.
    pub fn ndim(&self) -> usize {
        self.d
    }

    /// Covered side length (power of two).
    pub fn side(&self) -> usize {
        self.side
    }

    /// The construction configuration.
    pub fn config(&self) -> &DdcConfig {
        &self.config
    }

    /// The tree's operation counter.
    pub fn counter(&self) -> &OpCounter {
        &self.counter
    }

    /// Snapshot of the operation counter.
    pub fn ops(&self) -> OpSnapshot {
        self.counter.snapshot()
    }

    fn leaf_side(&self) -> usize {
        // Boxes of this side hold dense leaf blocks instead of child
        // nodes; see §4.4 and the module docs.
        self.config.leaf_block_side().min(self.side)
    }

    /// `SUM(A[0,…,0] : A[x])` — Figure 10's `CalculateRegionSum`, as an
    /// iterative arena walk. At a node of half-side `k`, let `h` be the
    /// bitmask of dimensions whose (node-local) target coordinate is in
    /// the high half; the contributing boxes are exactly the submasks
    /// `s ⊆ h` — the box covers the target region fully in the
    /// dimensions `h \ s`, so it contributes its subtotal when
    /// `h \ s` is every dimension, a row-sum value otherwise, and the
    /// query descends into the `s = h` box. Cross coordinates are
    /// mask-selected (full → `k−1`, cut → `x & (k−1)`) with no
    /// per-dimension branching.
    ///
    /// The values read are tallied locally and published to the tree's
    /// counter once, when the walk returns.
    pub fn prefix_sum(&self, x: &[usize]) -> G {
        let mut tally = OpSnapshot::default();
        let v = self.prefix_counted(x, &mut tally);
        self.counter.absorb(tally);
        v
    }

    /// [`DdcTree::prefix_sum`], counting into the caller's `tally` (a
    /// secondary tree reads on behalf of its owner's operation).
    pub(crate) fn prefix_counted(&self, x: &[usize], tally: &mut OpSnapshot) -> G {
        assert_eq!(x.len(), self.d);
        debug_assert!(x.iter().all(|&c| c < self.side));
        let mut scratch = [0usize; MAX_DIMS];
        self.prefix_walk(x, &mut scratch[..self.d], tally)
    }

    /// The walk behind [`DdcTree::prefix_counted`]. `cross` (length `d`)
    /// holds face and leaf coordinates. It arrives as a slice: with the
    /// array declared in this function the walk measured about 1.5×
    /// slower (d = 2, side 256).
    fn prefix_walk(&self, x: &[usize], cross: &mut [usize], tally: &mut OpSnapshot) -> G {
        let d = self.d;
        let all_mask = (1usize << d) - 1;
        // Sides are powers of two, so the node-local target is just the
        // low bits of `x`: at a node of side `2k` bit `k` picks the half
        // and `x & (k − 1)` is the box-local offset. No copy of `x`.
        let mut cur = self.root;
        let mut side = self.side;
        let mut acc = G::ZERO;
        loop {
            if cur.is_empty() {
                return acc;
            }
            if cur.is_leaf() {
                let rel = &mut cross[..d];
                for (r, &c) in rel.iter_mut().zip(x) {
                    *r = c & (side - 1);
                }
                let rel = &*rel;
                acc = acc.add(self.leaves.with(cur.index() as u32, |b| match b {
                    Some(block) => block.prefix(rel, tally),
                    None => G::ZERO,
                }));
                return acc;
            }
            let k = side >> 1;
            let base = cur.index() << d;
            let mut h_mask = 0usize;
            for (i, &c) in x.iter().enumerate() {
                h_mask |= usize::from(c & k != 0) << i;
            }
            // Ascending submask enumeration of h_mask; the final
            // submask (h_mask itself) is the descend box, handled
            // after the loop so its subtotal never contributes.
            let mut s = 0usize;
            while s != h_mask {
                if let Some(b) = &self.boxes[base + s] {
                    let full = h_mask & !s;
                    if full == all_mask {
                        tally.reads += 1;
                        acc = acc.add(b.subtotal);
                    } else {
                        let j = full.trailing_zeros() as usize;
                        let mut w = 0;
                        for (i, &c) in x.iter().enumerate() {
                            if i == j {
                                continue;
                            }
                            let f = ((full >> i) & 1).wrapping_neg();
                            cross[w] = ((k - 1) & f) | (c & (k - 1) & !f);
                            w += 1;
                        }
                        acc = acc.add(b.faces[j].prefix(&cross[..w], tally));
                    }
                }
                s = s.wrapping_sub(h_mask) & h_mask;
            }
            cur = self.children[base + h_mask];
            side = k;
        }
    }

    /// Like [`DdcTree::prefix_sum`], additionally recording which overlay
    /// box contributed what — the paper's Figure 11 walkthrough as data.
    /// Returns the steps in visit order (box index ascending, descent
    /// last at each node); the sum of their values is the prefix sum.
    pub fn trace_prefix(&self, x: &[usize]) -> Vec<TraceStep<G>> {
        assert_eq!(x.len(), self.d);
        let mut steps = Vec::new();
        let mut tally = OpSnapshot::default();
        if self.root.is_leaf() {
            self.leaves.with(self.root.index() as u32, |b| {
                if let Some(block) = b {
                    let cells = Region::prefix(x).cells();
                    steps.push(TraceStep {
                        level: 0,
                        box_anchor: vec![0; self.d],
                        box_side: self.side,
                        kind: Contribution::LeafCells { cells },
                        value: block.prefix(x, &mut tally),
                    });
                }
            });
        } else if !self.root.is_empty() {
            let lo = vec![0usize; self.d];
            self.trace_node(self.root.index(), self.side, &lo, x, &mut steps, &mut tally);
        }
        self.counter.absorb(tally);
        steps
    }

    fn trace_node(
        &self,
        node_ix: usize,
        side: usize,
        lo: &[usize],
        x: &[usize],
        steps: &mut Vec<TraceStep<G>>,
        tally: &mut OpSnapshot,
    ) {
        let d = self.d;
        let k = side / 2;
        let level = (self.side / side).trailing_zeros() as usize;
        let base = node_ix << d;
        let all_mask = (1usize << d) - 1;
        let mut h_mask = 0usize;
        for i in 0..d {
            h_mask |= usize::from(x[i] >= lo[i] + k) << i;
        }
        let mut s = 0usize;
        loop {
            let box_lo: Vec<usize> = (0..d)
                .map(|i| lo[i] + if s & (1 << i) != 0 { k } else { 0 })
                .collect();
            if s == h_mask {
                // The box covering the target cell: descend.
                steps.push(TraceStep {
                    level,
                    box_anchor: box_lo.clone(),
                    box_side: k,
                    kind: Contribution::Descend,
                    value: G::ZERO,
                });
                let c = self.children[base + s];
                if c.is_leaf() {
                    self.leaves.with(c.index() as u32, |b| {
                        if let Some(block) = b {
                            let rel: Vec<usize> =
                                x.iter().zip(box_lo.iter()).map(|(&c, &l)| c - l).collect();
                            let cells = Region::prefix(&rel).cells();
                            steps.push(TraceStep {
                                level: level + 1,
                                box_anchor: box_lo,
                                box_side: k,
                                kind: Contribution::LeafCells { cells },
                                value: block.prefix(&rel, tally),
                            });
                        }
                    });
                } else if !c.is_empty() {
                    self.trace_node(c.index(), k, &box_lo, x, steps, tally);
                }
                return;
            }
            if let Some(b) = &self.boxes[base + s] {
                let full = h_mask & !s;
                if full == all_mask {
                    steps.push(TraceStep {
                        level,
                        box_anchor: box_lo,
                        box_side: k,
                        kind: Contribution::Subtotal,
                        value: b.subtotal,
                    });
                } else {
                    let j = full.trailing_zeros() as usize;
                    let mut cross = Vec::with_capacity(d - 1);
                    for i in 0..d {
                        if i == j {
                            continue;
                        }
                        cross.push(if (full >> i) & 1 != 0 {
                            k - 1
                        } else {
                            x[i] - box_lo[i]
                        });
                    }
                    steps.push(TraceStep {
                        level,
                        box_anchor: box_lo,
                        box_side: k,
                        kind: Contribution::RowSum { axis: j },
                        value: b.faces[j].prefix(&cross, tally),
                    });
                }
            }
            s = s.wrapping_sub(h_mask) & h_mask;
        }
    }

    /// Adds `delta` to cell `x` — Figure 12's `UpdateCell`, expressed with
    /// the difference value directly. Iterative: one box per level
    /// absorbs the delta, then the walk descends to the leaf cell,
    /// materializing arena slots on demand. The values written are
    /// tallied locally and published to the tree's counter once.
    pub fn apply_delta(&mut self, x: &[usize], delta: G) {
        let mut tally = OpSnapshot::default();
        self.apply_delta_counted(x, delta, &mut tally);
        self.counter.absorb(tally);
    }

    /// [`DdcTree::apply_delta`], counting into the caller's `tally`.
    pub(crate) fn apply_delta_counted(&mut self, x: &[usize], delta: G, tally: &mut OpSnapshot) {
        let d = self.d;
        assert_eq!(x.len(), d);
        assert!(
            x.iter().all(|&c| c < self.side),
            "{x:?} outside side {}",
            self.side
        );
        if delta.is_zero() {
            return;
        }
        let leaf_side = self.leaf_side();
        if self.side <= leaf_side {
            // Degenerate: the whole space is one leaf block.
            if self.root.is_empty() {
                let block = LeafBlock::zeroed(d, self.side);
                self.root = ChildRef::leaf(self.alloc_leaf(block));
            }
            let ix = self.root.index() as u32;
            self.leaves.with_mut(ix, |b| {
                if let Some(block) = b {
                    block.cells.add_assign(x, delta);
                    tally.writes += 1;
                }
            });
            return;
        }
        if self.root.is_empty() {
            let id = self.alloc_node();
            self.root = ChildRef::node(id);
        }
        let mut rel = [0usize; MAX_DIMS];
        let rel = &mut rel[..d];
        rel.copy_from_slice(x);
        let mut cross = [0usize; MAX_DIMS];
        let mut cur = self.root.index();
        let mut k = self.side >> 1;
        loop {
            let base = cur << d;
            // Exactly one box covers the cell (§3.2): its index comes
            // from the coordinate high bits; rel becomes box-local.
            let mut bi = 0usize;
            for (i, r) in rel.iter_mut().enumerate() {
                bi |= usize::from(*r >= k) << i;
                *r &= k - 1;
            }
            let bix = base + bi;
            // Disjoint field borrows: boxes mutably, config shared.
            let config = &self.config;
            let obox = self.boxes[bix].get_or_insert_with(|| OverlayBox::new(d));
            obox.subtotal = obox.subtotal.add(delta);
            tally.writes += 1;
            // "for each set of row sum values (d sets): add difference"
            // — group j is indexed by the box-local offsets of the
            // other dims.
            if d >= 2 {
                for j in 0..d {
                    let mut w = 0;
                    for (i, &r) in rel.iter().enumerate() {
                        if i != j {
                            cross[w] = r;
                            w += 1;
                        }
                    }
                    obox.faces[j].add(&cross[..w], delta, k, config, tally);
                }
            }
            // Descend to the leaf holding the raw cell.
            debug_assert!(k >= leaf_side, "box side {k} below leaf side {leaf_side}");
            let child = self.children[bix];
            if k == leaf_side {
                let leaf_ix = if child.is_empty() {
                    let id = self.alloc_leaf(LeafBlock::zeroed(d, k));
                    self.children[bix] = ChildRef::leaf(id);
                    id
                } else {
                    child.index() as u32
                };
                let rel = &*rel;
                self.leaves.with_mut(leaf_ix, |b| {
                    if let Some(block) = b {
                        block.cells.add_assign(rel, delta);
                        tally.writes += 1;
                    }
                });
                return;
            }
            cur = if child.is_empty() {
                let id = self.alloc_node();
                self.children[bix] = ChildRef::node(id);
                id as usize
            } else {
                child.index()
            };
            k >>= 1;
        }
    }

    /// Reads one raw cell by direct descent (`O(log n)`).
    pub fn cell(&self, x: &[usize]) -> G {
        assert_eq!(x.len(), self.d);
        assert!(x.iter().all(|&c| c < self.side));
        let mut cur = self.root;
        let mut side = self.side;
        loop {
            if cur.is_empty() {
                return G::ZERO;
            }
            if cur.is_leaf() {
                let mut rel = [0usize; MAX_DIMS];
                let rel = &mut rel[..self.d];
                for (r, &c) in rel.iter_mut().zip(x) {
                    *r = c & (side - 1);
                }
                self.counter.read(1);
                return self.leaves.with(cur.index() as u32, |b| match b {
                    Some(block) => block.cells.get(rel),
                    None => G::ZERO,
                });
            }
            let k = side / 2;
            let base = cur.index() << self.d;
            let mut bi = 0usize;
            for (i, &c) in x.iter().enumerate() {
                bi |= usize::from(c & k != 0) << i;
            }
            cur = self.children[base + bi];
            side = k;
        }
    }

    /// Sum of the whole space.
    pub fn total(&self) -> G {
        if self.root.is_empty() {
            return G::ZERO;
        }
        if self.root.is_leaf() {
            return self.leaves.with(self.root.index() as u32, |b| match b {
                Some(block) => block.total(),
                None => G::ZERO,
            });
        }
        let base = self.root.index() << self.d;
        self.boxes[base..base + self.stride()]
            .iter()
            .flatten()
            .fold(G::ZERO, |acc, b| acc.add(b.subtotal))
    }

    /// Invokes `f` for every non-zero raw cell with its coordinates.
    pub fn for_each_nonzero(&self, f: &mut impl FnMut(&[usize], G)) {
        let lo = vec![0usize; self.d];
        self.walk_nonzero(self.root, self.side, &lo, f);
    }

    fn walk_nonzero(
        &self,
        c: ChildRef,
        side: usize,
        lo: &[usize],
        f: &mut impl FnMut(&[usize], G),
    ) {
        if c.is_empty() {
            return;
        }
        if c.is_leaf() {
            self.leaves.with(c.index() as u32, |b| {
                if let Some(block) = b {
                    let mut abs = lo.to_vec();
                    for rel in block.cells.shape().iter_points() {
                        let v = block.cells.get(&rel);
                        if !v.is_zero() {
                            for (a, (&l, &r)) in abs.iter_mut().zip(lo.iter().zip(rel.iter())) {
                                *a = l + r;
                            }
                            f(&abs, v);
                        }
                    }
                }
            });
            return;
        }
        let d = self.d;
        let k = side / 2;
        let base = c.index() << d;
        let mut box_lo = vec![0usize; d];
        for bi in 0..self.stride() {
            for i in 0..d {
                box_lo[i] = lo[i] + if bi & (1 << i) != 0 { k } else { 0 };
            }
            self.walk_nonzero(self.children[base + bi], k, &box_lo, f);
        }
    }

    /// Number of non-zero raw cells.
    pub fn populated_cells(&self) -> usize {
        let mut n = 0;
        self.for_each_nonzero(&mut |_, _| n += 1);
        n
    }

    /// Doubles the covered side. Dimensions flagged `true` in `low` grow
    /// toward smaller coordinates: existing content shifts up by the old
    /// side in those dimensions (callers track the logical origin with
    /// [`ddc_array::CoordMap`]). Other dimensions grow append-style.
    ///
    /// The old root becomes one child of the new root; only the new
    /// root-level overlay box is rebuilt, by replaying the populated cells
    /// into its subtotal and row-sum groups.
    pub fn grow(&mut self, low: &[bool]) {
        assert_eq!(low.len(), self.d);
        let old_side = self.side;
        self.side = old_side.checked_mul(2).expect("side overflow");
        let old_root = self.root;
        self.root = ChildRef::EMPTY;
        if old_root.is_empty() {
            return;
        }
        let d = self.d;
        if self.side <= self.config.leaf_block_side() {
            // The grown space still fits in one dense leaf block: rebuild
            // it with the content shifted in the lowered dimensions.
            let mut block = LeafBlock::zeroed(d, self.side);
            let shift: Vec<usize> = low.iter().map(|&l| if l { old_side } else { 0 }).collect();
            let mut q = vec![0usize; d];
            self.walk_nonzero(old_root, old_side, &vec![0usize; d], &mut |p, v| {
                for (qi, (&pi, &s)) in q.iter_mut().zip(p.iter().zip(shift.iter())) {
                    *qi = pi + s;
                }
                block.cells.add_assign(&q, v);
            });
            self.free_subtree(old_root);
            self.root = ChildRef::leaf(self.alloc_leaf(block));
            return;
        }
        // The old region lands in the high half of every lowered dim.
        let mut bi = 0usize;
        for (i, &l) in low.iter().enumerate() {
            if l {
                bi |= 1 << i;
            }
        }
        let mut obox = OverlayBox::<G>::new(d);
        // Rebuild this box's values from the populated cells of the old
        // space (coordinates are already box-local).
        let k = old_side;
        let config = self.config;
        let mut tally = OpSnapshot::default();
        {
            let mut cross = vec![0usize; d.saturating_sub(1)];
            self.walk_nonzero(old_root, old_side, &vec![0usize; d], &mut |p, v| {
                obox.subtotal = obox.subtotal.add(v);
                tally.writes += 1;
                if d >= 2 {
                    for j in 0..d {
                        let mut w = 0;
                        for (i, &c) in p.iter().enumerate() {
                            if i != j {
                                cross[w] = c;
                                w += 1;
                            }
                        }
                        obox.faces[j].add(&cross[..w], v, k, &config, &mut tally);
                    }
                }
            });
        }
        self.counter.absorb(tally);
        let id = self.alloc_node();
        let base = (id as usize) << d;
        self.boxes[base + bi] = Some(obox);
        self.children[base + bi] = old_root;
        self.root = ChildRef::node(id);
    }

    /// Reclaims storage left behind by cancelling updates: all-zero leaf
    /// blocks and subtrees whose every cell returned to zero go back to
    /// the arena free lists (with their overlay boxes and secondary
    /// structures), and when free slots outnumber live ones the arenas
    /// are compacted into exactly-sized replacements, releasing the
    /// memory. Returns the number of heap bytes released.
    ///
    /// Lazily materialized structures never free themselves on the update
    /// path (a cell may go through zero transiently); churn-heavy
    /// workloads call this at their own cadence.
    pub fn prune(&mut self) -> usize {
        let before = self.heap_bytes();
        let root = self.root;
        if !self.prune_live(root) {
            self.free_subtree(root);
            self.root = ChildRef::EMPTY;
        }
        self.maybe_compact();
        before.saturating_sub(self.heap_bytes())
    }

    /// Returns whether the child still holds any non-zero content; dead
    /// descendants are freed and their slots cleared.
    fn prune_live(&mut self, c: ChildRef) -> bool {
        if c.is_empty() {
            return false;
        }
        if c.is_leaf() {
            return self.leaves.with(c.index() as u32, |b| match b {
                Some(block) => block.cells.populated_cells() > 0,
                None => false,
            });
        }
        let base = c.index() << self.d;
        let mut any = false;
        for s in 0..self.stride() {
            let child = self.children[base + s];
            if self.prune_live(child) {
                any = true;
            } else {
                self.free_subtree(child);
                self.children[base + s] = ChildRef::EMPTY;
                // A box over an empty region contributes only zeros;
                // drop it with its secondary structures.
                if let Some(b) = &self.boxes[base + s] {
                    debug_assert!(b.subtotal.is_zero());
                }
                self.boxes[base + s] = None;
            }
        }
        any
    }

    /// Compacts when free slots outnumber live ones in either arena.
    /// Paged leaf slots are excluded from the trigger: compaction cannot
    /// renumber them (ids are stable on pages), so they must not be able
    /// to force it either.
    fn maybe_compact(&mut self) {
        let live_nodes = self.children.len() / self.stride() - self.node_free.len();
        let leaf_free = match &self.leaves {
            LeafArena::Mem(m) => m.free_len(),
            LeafArena::Paged(_) => 0,
        };
        let live_leaves = self.leaves.slots() - self.leaves.free_len();
        if self.node_free.len() + leaf_free > live_nodes + live_leaves {
            self.compact();
        }
    }

    /// Rewrites the arenas to hold exactly the reachable slots (pre-order
    /// renumbering), dropping all free-list capacity. A paged leaf arena
    /// keeps its slot ids — its records live on pages, not in a `Vec`
    /// whose capacity could be returned, so only the node arena (and a
    /// slab leaf arena, when present) is rebuilt.
    fn compact(&mut self) {
        let stride = self.stride();
        let live_nodes = self.children.len() / stride - self.node_free.len();
        let mut children = Vec::with_capacity(live_nodes * stride);
        let mut boxes = Vec::with_capacity(live_nodes * stride);
        let mut leaves = match self.leaves {
            LeafArena::Mem(_) => Some(MemStore::new()),
            LeafArena::Paged(_) => None,
        };
        let root = self.root;
        let new_root = self.move_child(root, &mut children, &mut boxes, &mut leaves);
        self.children = children;
        self.boxes = boxes;
        if let Some(store) = leaves {
            self.leaves = LeafArena::Mem(store);
        }
        self.node_free = Vec::new();
        self.root = new_root;
    }

    /// Moves one subtree into the replacement arenas, reserving the
    /// parent's slot block before recursing so ids are pre-order.
    /// `leaves` is `None` when the leaf arena is paged and keeps its ids.
    fn move_child(
        &mut self,
        c: ChildRef,
        children: &mut Vec<ChildRef>,
        boxes: &mut Vec<Option<OverlayBox<G>>>,
        leaves: &mut Option<MemStore<LeafBlock<G>>>,
    ) -> ChildRef {
        if c.is_empty() {
            return ChildRef::EMPTY;
        }
        if c.is_leaf() {
            let Some(store) = leaves else {
                return c; // paged arena: leaf ids are stable
            };
            let block = match &mut self.leaves {
                LeafArena::Mem(m) => m.take(c.index() as u32),
                LeafArena::Paged(_) => unreachable!("slab replacement built for slab arena"),
            };
            let Some(block) = block else {
                panic!("reachable leaf slot {} is vacant", c.index());
            };
            return ChildRef::leaf(store.insert(block));
        }
        let stride = self.stride();
        let old_base = c.index() << self.d;
        let id = (children.len() / stride) as u32;
        let new_base = children.len();
        children.resize(new_base + stride, ChildRef::EMPTY);
        boxes.resize_with(new_base + stride, || None);
        for s in 0..stride {
            boxes[new_base + s] = self.boxes[old_base + s].take();
            let moved = self.move_child(self.children[old_base + s], children, boxes, leaves);
            children[new_base + s] = moved;
        }
        ChildRef::node(id)
    }

    /// Collects structural statistics by one traversal — the storage
    /// profile behind Table 2 and §4.4 ("most of the additional storage
    /// … is found in the lowest levels of the tree") plus the arena
    /// occupancy counters.
    pub fn stats(&self) -> TreeStats {
        let mut stats = TreeStats {
            node_slots: self.children.len() / self.stride(),
            free_node_slots: self.node_free.len(),
            leaf_slots: self.leaves.slots(),
            free_leaf_slots: self.leaves.free_len(),
            ..TreeStats::default()
        };
        self.collect_stats(self.root, self.side, 0, &mut stats);
        stats.total_bytes = self.heap_bytes();
        stats
    }

    fn collect_stats(&self, c: ChildRef, side: usize, level: usize, stats: &mut TreeStats) {
        while stats.per_level.len() <= level {
            stats.per_level.push(LevelStats::default());
        }
        stats.per_level[level].side = side;
        if c.is_empty() {
            return;
        }
        if c.is_leaf() {
            self.leaves.with(c.index() as u32, |b| {
                if let Some(block) = b {
                    stats.leaf_blocks += 1;
                    stats.leaf_cells += block.cells.shape().cells();
                    stats.depth = stats.depth.max(level);
                    stats.per_level[level].leaf_blocks += 1;
                }
            });
            return;
        }
        stats.nodes += 1;
        stats.depth = stats.depth.max(level);
        stats.per_level[level].nodes += 1;
        let k = side / 2;
        let base = c.index() << self.d;
        for s in 0..self.stride() {
            if let Some(b) = &self.boxes[base + s] {
                stats.boxes += 1;
                stats.per_level[level].boxes += 1;
                stats.secondary_bytes += b.faces.iter().map(Secondary::heap_bytes).sum::<usize>();
            }
            self.collect_stats(self.children[base + s], k, level + 1, stats);
        }
    }

    /// Approximate heap bytes held by the whole structure: arena
    /// capacities plus the heap behind live boxes and leaf blocks.
    pub fn heap_bytes(&self) -> usize {
        let mut bytes = std::mem::size_of::<Self>()
            + self.children.capacity() * std::mem::size_of::<ChildRef>()
            + self.boxes.capacity() * std::mem::size_of::<Option<OverlayBox<G>>>()
            + self.node_free.capacity() * std::mem::size_of::<u32>();
        for b in self.boxes.iter().flatten() {
            bytes += b.inner_heap_bytes();
        }
        bytes += match &self.leaves {
            LeafArena::Mem(m) => {
                m.slab_bytes()
                    + m.iter_occupied()
                        .map(|(_, block)| block.cells.heap_bytes())
                        .sum::<usize>()
            }
            // Paged: only *resident* bytes count — spilled pages are the
            // whole point of the backend.
            LeafArena::Paged(p) => p.heap_bytes(),
        };
        bytes
    }

    /// Validates structural invariants, returning the tree total:
    /// every overlay box's subtotal equals its child's content sum, and
    /// every row-sum group's full-prefix equals the subtotal.
    ///
    /// # Panics
    ///
    /// Panics on any violation (test/diagnostic use).
    pub fn check_invariants(&self) -> G {
        self.check_child(self.root, self.side)
    }

    fn check_child(&self, c: ChildRef, side: usize) -> G {
        let d = self.d;
        if c.is_empty() {
            return G::ZERO;
        }
        if c.is_leaf() {
            return self.leaves.with(c.index() as u32, |b| {
                let Some(block) = b else {
                    panic!("leaf ref {} points at a vacant slot", c.index());
                };
                assert_eq!(
                    block.cells.shape().dims(),
                    &vec![side; d][..],
                    "leaf block shape mismatch"
                );
                block.total()
            });
        }
        let k = side / 2;
        let base = c.index() << d;
        let mut total = G::ZERO;
        for bi in 0..self.stride() {
            let child_total = self.check_child(self.children[base + bi], k);
            match &self.boxes[base + bi] {
                None => assert!(
                    child_total.is_zero(),
                    "missing box over non-empty child (sum {child_total:?})"
                ),
                Some(b) => {
                    assert_eq!(
                        b.subtotal, child_total,
                        "subtotal does not match child content"
                    );
                    if d >= 2 {
                        let full = vec![k - 1; d - 1];
                        let mut tally = OpSnapshot::default();
                        for (j, face) in b.faces.iter().enumerate() {
                            if matches!(face, Secondary::Empty) {
                                assert!(b.subtotal.is_zero(), "empty face under non-zero subtotal");
                                continue;
                            }
                            let fp = face.prefix(&full, &mut tally);
                            assert_eq!(
                                fp, b.subtotal,
                                "face {j} full prefix disagrees with subtotal"
                            );
                        }
                        self.counter.absorb(tally);
                    }
                    total = total.add(b.subtotal);
                }
            }
        }
        total
    }

    /// Audits the arena bookkeeping: every reachable reference is in
    /// bounds and occupied, no slot is reached twice, free-list entries
    /// are valid, unique, cleared, and disjoint from the reachable set,
    /// and every slot is either reachable or free (no leaks). Returns
    /// `(reachable_nodes, reachable_leaves)`.
    ///
    /// # Panics
    ///
    /// Panics on any violation (test/diagnostic use).
    pub fn check_arena(&self) -> (usize, usize) {
        let stride = self.stride();
        assert_eq!(
            self.children.len() % stride,
            0,
            "node arena length not a slot multiple"
        );
        assert_eq!(
            self.children.len(),
            self.boxes.len(),
            "children/boxes arenas out of step"
        );
        let node_slots = self.children.len() / stride;
        let mut node_seen = vec![false; node_slots];
        let mut leaf_seen = vec![false; self.leaves.slots()];
        self.mark_reachable(self.root, &mut node_seen, &mut leaf_seen);
        let mut node_freed = vec![false; node_slots];
        for &id in &self.node_free {
            let ix = id as usize;
            assert!(ix < node_slots, "free node id {id} out of bounds");
            assert!(!node_freed[ix], "node id {id} twice on the free list");
            node_freed[ix] = true;
            assert!(!node_seen[ix], "node id {id} both free and reachable");
            let base = ix * stride;
            for s in 0..stride {
                assert!(
                    self.children[base + s].is_empty(),
                    "free node {id} still has a child"
                );
                assert!(
                    self.boxes[base + s].is_none(),
                    "free node {id} still holds a box"
                );
            }
        }
        let mut leaf_freed = vec![false; self.leaves.slots()];
        for id in self.leaves.free_ids() {
            let ix = id as usize;
            assert!(ix < self.leaves.slots(), "free leaf id {id} out of bounds");
            assert!(!leaf_freed[ix], "leaf id {id} twice on the free list");
            leaf_freed[ix] = true;
            assert!(!leaf_seen[ix], "leaf id {id} both free and reachable");
            assert!(
                !self.leaves.is_occupied(id),
                "free leaf slot {id} still holds a block"
            );
        }
        for ix in 0..node_slots {
            assert!(node_seen[ix] || node_freed[ix], "node slot {ix} leaked");
        }
        for ix in 0..self.leaves.slots() {
            assert!(leaf_seen[ix] || leaf_freed[ix], "leaf slot {ix} leaked");
        }
        if let LeafArena::Paged(p) = &self.leaves {
            p.audit();
        }
        (
            node_seen.iter().filter(|&&v| v).count(),
            leaf_seen.iter().filter(|&&v| v).count(),
        )
    }

    fn mark_reachable(&self, c: ChildRef, node_seen: &mut [bool], leaf_seen: &mut [bool]) {
        if c.is_empty() {
            return;
        }
        if c.is_leaf() {
            let ix = c.index();
            assert!(ix < leaf_seen.len(), "dangling leaf ref {ix}");
            assert!(!leaf_seen[ix], "leaf slot {ix} referenced twice");
            assert!(
                self.leaves.is_occupied(ix as u32),
                "reachable leaf slot {ix} is vacant"
            );
            leaf_seen[ix] = true;
            return;
        }
        let ix = c.index();
        assert!(ix < node_seen.len(), "dangling node ref {ix}");
        assert!(!node_seen[ix], "node slot {ix} referenced twice");
        node_seen[ix] = true;
        let base = ix << self.d;
        for s in 0..self.stride() {
            self.mark_reachable(self.children[base + s], node_seen, leaf_seen);
        }
    }

    /// True once `enable_paging` has moved the leaf arena onto pages.
    pub fn is_paged(&self) -> bool {
        matches!(self.leaves, LeafArena::Paged(_))
    }

    /// Buffer-pool counters of the paged leaf arena (`None` on the slab).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        match &self.leaves {
            LeafArena::Mem(_) => None,
            LeafArena::Paged(p) => Some(p.pool_stats()),
        }
    }

    /// The WAL barrier gating dirty-page write-back (`None` on the
    /// slab). Created on first call; the log writer advances it after
    /// each synced append so eviction never writes a page whose update
    /// is not yet durable.
    pub fn pager_barrier(&self) -> Option<WalBarrier> {
        match &self.leaves {
            LeafArena::Mem(_) => None,
            LeafArena::Paged(p) => Some(p.ensure_barrier()),
        }
    }
}

impl<G: AbelianGroup + ValueCodec> DdcTree<G> {
    /// Activates the paged leaf backend requested by
    /// [`crate::LeafBackend::Paged`], converting the slab arena in place
    /// (slot ids are preserved, so every [`ChildRef`] stays valid).
    ///
    /// Lives in a [`ValueCodec`]-bounded impl because the pager needs a
    /// serialization for leaf blocks; the codec is captured as plain
    /// `fn` pointers, so once enabled, every unbounded code path (grow,
    /// prune, updates) keeps working. Returns whether the tree is paged
    /// afterwards: `Ok(false)` means the config never asked for paging.
    /// Idempotent.
    pub fn enable_paging(&mut self) -> std::io::Result<bool> {
        let LeafBackend::Paged(pager) = self.config.leaf_backend else {
            return Ok(false);
        };
        if matches!(self.leaves, LeafArena::Paged(_)) {
            return Ok(true);
        }
        let codec = RecordCodec::<LeafBlock<G>> {
            encode: |block, out| block.encode_into(out),
            decode: LeafBlock::<G>::decode_from,
        };
        let record_cap = LeafBlock::<G>::record_cap(self.d, self.config.leaf_block_side());
        let slab = match std::mem::replace(&mut self.leaves, LeafArena::Mem(MemStore::new())) {
            LeafArena::Mem(m) => m,
            LeafArena::Paged(_) => unreachable!("checked above"),
        };
        self.leaves = LeafArena::Paged(Box::new(PagedStore::from_mem(
            slab, pager, self.d, record_cap, codec,
        )?));
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DdcConfig;

    fn reference_and_tree(
        side: usize,
        d: usize,
        config: DdcConfig,
        updates: &[(Vec<usize>, i64)],
    ) -> (NdArray<i64>, DdcTree<i64>) {
        let mut a = NdArray::<i64>::zeroed(Shape::cube(d, side));
        let mut t = DdcTree::<i64>::new(d, side, config);
        for (p, delta) in updates {
            a.add_assign(p, *delta);
            t.apply_delta(p, *delta);
        }
        (a, t)
    }

    fn assert_all_prefixes(a: &NdArray<i64>, t: &DdcTree<i64>) {
        for p in a.shape().iter_points() {
            assert_eq!(t.prefix_sum(&p), a.prefix_sum(&p), "prefix {p:?}");
        }
    }

    fn dense_updates(side: usize, d: usize) -> Vec<(Vec<usize>, i64)> {
        Shape::cube(d, side)
            .iter_points()
            .enumerate()
            .map(|(i, p)| (p, (i as i64 * 31 % 17) - 8))
            .collect()
    }

    #[test]
    fn dense_2d_dynamic_matches_reference() {
        let (a, t) = reference_and_tree(8, 2, DdcConfig::dynamic(), &dense_updates(8, 2));
        assert_all_prefixes(&a, &t);
        assert_eq!(t.check_invariants(), a.total());
    }

    #[test]
    fn dense_2d_basic_matches_reference() {
        let (a, t) = reference_and_tree(8, 2, DdcConfig::basic(), &dense_updates(8, 2));
        assert_all_prefixes(&a, &t);
    }

    #[test]
    fn dense_3d_matches_reference() {
        for config in [DdcConfig::dynamic(), DdcConfig::basic()] {
            let (a, t) = reference_and_tree(8, 3, config, &dense_updates(8, 3));
            assert_all_prefixes(&a, &t);
            assert_eq!(t.check_invariants(), a.total());
        }
    }

    #[test]
    fn dense_4d_matches_reference() {
        let (a, t) = reference_and_tree(4, 4, DdcConfig::dynamic(), &dense_updates(4, 4));
        assert_all_prefixes(&a, &t);
    }

    #[test]
    fn prune_reclaims_cancelled_subtrees() {
        let mut t = DdcTree::<i64>::new(2, 256, DdcConfig::dynamic());
        // Populate a diagonal, then cancel it all.
        for i in 0..256usize {
            t.apply_delta(&[i, i], 7);
        }
        let populated_bytes = t.heap_bytes();
        for i in 0..256usize {
            t.apply_delta(&[i, i], -7);
        }
        assert_eq!(t.total(), 0);
        // Structures linger until pruned…
        assert!(t.heap_bytes() > populated_bytes / 2);
        let released = t.prune();
        assert!(released > 0);
        assert!(
            t.heap_bytes() < populated_bytes / 10,
            "{} bytes left",
            t.heap_bytes()
        );
        assert_eq!(t.prefix_sum(&[255, 255]), 0);
        // The tree stays fully usable afterwards.
        t.apply_delta(&[100, 100], 3);
        assert_eq!(t.prefix_sum(&[255, 255]), 3);
        t.check_invariants();
    }

    #[test]
    fn prune_keeps_live_content_intact() {
        let mut t = DdcTree::<i64>::new(2, 64, DdcConfig::dynamic());
        for (p, v) in dense_updates(8, 2) {
            t.apply_delta(&[p[0] * 8, p[1] * 8], v);
        }
        t.apply_delta(&[5, 5], 9);
        t.apply_delta(&[5, 5], -9); // one cancelled cell
        let reference_total = t.total();
        t.prune();
        assert_eq!(t.total(), reference_total);
        assert_eq!(t.cell(&[5, 5]), 0);
        assert_eq!(t.cell(&[8, 8]), t.cell(&[8, 8]));
        t.check_invariants();
    }

    #[test]
    fn stats_profile_matches_structure() {
        let (a, t) = reference_and_tree(16, 2, DdcConfig::dynamic(), &dense_updates(16, 2));
        let s = t.stats();
        // Dense 16² tree, h = 0: nodes at sides 16, 8, 4; leaf blocks of
        // side 2 under the side-4 nodes.
        assert_eq!(s.per_level[0].nodes, 1);
        assert_eq!(s.per_level[0].side, 16);
        assert_eq!(s.per_level[1].nodes, 4);
        assert_eq!(s.per_level[2].nodes, 16);
        assert_eq!(s.per_level[3].leaf_blocks, 64);
        assert_eq!(s.leaf_cells, 256);
        assert_eq!(s.nodes, 21);
        assert_eq!(s.boxes, 21 * 4);
        assert_eq!(s.depth, 3);
        assert_eq!(s.total_bytes, t.heap_bytes());
        assert!(s.secondary_bytes > 0 && s.secondary_bytes < s.total_bytes);
        // Arena occupancy: no frees have happened, so every slot is live.
        assert_eq!(s.node_slots, s.nodes);
        assert_eq!(s.leaf_slots, s.leaf_blocks);
        assert_eq!(s.free_node_slots, 0);
        assert_eq!(s.free_leaf_slots, 0);
        let _ = a;
        // Sparse tree: statistics shrink to the populated paths.
        let mut sparse = DdcTree::<i64>::new(2, 16, DdcConfig::dynamic());
        sparse.apply_delta(&[0, 0], 1);
        let ss = sparse.stats();
        assert_eq!(ss.nodes, 3);
        assert_eq!(ss.boxes, 3);
        assert_eq!(ss.leaf_blocks, 1);
    }

    #[test]
    fn five_dimensional_recursion() {
        // d = 5 exercises four levels of secondary-tree recursion
        // (4-D → 3-D → 2-D → 1-D B^c trees).
        let (a, t) = reference_and_tree(4, 5, DdcConfig::dynamic(), &dense_updates(4, 5));
        for p in [[0usize; 5], [3; 5], [1, 2, 3, 0, 2], [3, 0, 3, 0, 3]] {
            assert_eq!(t.prefix_sum(&p), a.prefix_sum(&p), "{p:?}");
        }
        assert_eq!(t.check_invariants(), a.total());
    }

    #[test]
    fn one_dimensional_tree() {
        let (a, t) = reference_and_tree(16, 1, DdcConfig::dynamic(), &dense_updates(16, 1));
        assert_all_prefixes(&a, &t);
        assert_eq!(t.total(), a.total());
    }

    #[test]
    fn elided_levels_match_reference() {
        for h in 0..=3 {
            let config = DdcConfig::dynamic().with_elision(h);
            let (a, t) = reference_and_tree(16, 2, config, &dense_updates(16, 2));
            assert_all_prefixes(&a, &t);
            assert_eq!(t.check_invariants(), a.total());
        }
    }

    #[test]
    fn elision_shrinks_storage() {
        let updates = dense_updates(32, 2);
        let sizes: Vec<usize> = (0..=3)
            .map(|h| {
                let config = DdcConfig::dynamic().with_elision(h);
                let (_, t) = reference_and_tree(32, 2, config, &updates);
                t.heap_bytes()
            })
            .collect();
        assert!(
            sizes.windows(2).all(|w| w[1] < w[0]),
            "heap bytes should fall as h grows: {sizes:?}"
        );
    }

    /// The row-sum base case (`BlockedBc`, the only one-dimensional base
    /// store) answers every prefix of a dense 16 x 16 cube correctly. The
    /// name dates from when Fenwick and segment-tree bases were also looped.
    #[test]
    fn fenwick_and_seg_bases_match() {
        let (a, t) = reference_and_tree(16, 2, DdcConfig::dynamic(), &dense_updates(16, 2));
        assert_all_prefixes(&a, &t);
        assert_eq!(t.check_invariants(), a.total());
    }

    #[test]
    fn empty_tree_reads_zero_everywhere() {
        let t = DdcTree::<i64>::new(3, 16, DdcConfig::dynamic());
        assert_eq!(t.prefix_sum(&[15, 15, 15]), 0);
        assert_eq!(t.cell(&[3, 4, 5]), 0);
        assert_eq!(t.total(), 0);
        assert_eq!(t.populated_cells(), 0);
    }

    #[test]
    fn cell_reads_match_updates() {
        let updates = dense_updates(8, 2);
        let (a, t) = reference_and_tree(8, 2, DdcConfig::dynamic(), &updates);
        for p in a.shape().iter_points() {
            assert_eq!(t.cell(&p), a.get(&p), "cell {p:?}");
        }
    }

    #[test]
    fn sparse_population_costs_little_memory() {
        let mut dense = DdcTree::<i64>::new(2, 1024, DdcConfig::dynamic());
        dense.apply_delta(&[3, 900], 5);
        dense.apply_delta(&[800, 2], -9);
        let sparse_bytes = dense.heap_bytes();
        // The dense space would be 1024² cells = 8 MiB of i64 alone.
        assert!(
            sparse_bytes < 200_000,
            "sparse cube used {sparse_bytes} bytes"
        );
        assert_eq!(dense.prefix_sum(&[1023, 1023]), -4);
        assert_eq!(dense.populated_cells(), 2);
    }

    #[test]
    fn heap_bytes_bills_each_face_slot_once() {
        // Side 4, h = 0: one root node over side-2 leaf blocks; one update
        // materializes the row-sum faces (k = 2) of one root box.
        let mut t = DdcTree::<i64>::new(2, 4, DdcConfig::dynamic());
        t.apply_delta(&[0, 0], 5);
        let face_heap = (ddc_btree::DEFAULT_BLOCK + 2) * std::mem::size_of::<i64>();
        assert_eq!(t.stats().secondary_bytes, 2 * face_heap);
        let billed = t.heap_bytes();
        let mut materialized = 0;
        for b in t.boxes.iter_mut().flatten() {
            for face in b.faces.iter_mut() {
                if matches!(face, Secondary::Blocked(_)) {
                    materialized += 1;
                    *face = Secondary::Empty;
                }
            }
            // An all-empty box is billed its face slots and nothing more.
            assert_eq!(
                b.inner_heap_bytes(),
                2 * std::mem::size_of::<Secondary<i64>>()
            );
        }
        assert_eq!(materialized, 2);
        assert_eq!(billed - t.heap_bytes(), 2 * face_heap);
    }

    #[test]
    fn growth_high_preserves_content() {
        let mut t = DdcTree::<i64>::new(2, 8, DdcConfig::dynamic());
        let updates = dense_updates(8, 2);
        let mut a = NdArray::<i64>::zeroed(Shape::cube(2, 16));
        for (p, delta) in &updates {
            t.apply_delta(p, *delta);
            a.add_assign(p, *delta);
        }
        t.grow(&[false, false]);
        assert_eq!(t.side(), 16);
        t.apply_delta(&[12, 15], 100);
        a.add_assign(&[12, 15], 100);
        assert_all_prefixes(&a, &t);
        assert_eq!(t.check_invariants(), a.total());
    }

    #[test]
    fn growth_low_shifts_content() {
        let mut t = DdcTree::<i64>::new(2, 4, DdcConfig::dynamic());
        t.apply_delta(&[0, 0], 7);
        t.apply_delta(&[3, 3], 2);
        t.grow(&[true, false]); // dim 0 grows low: content shifts up by 4
        assert_eq!(t.cell(&[4, 0]), 7);
        assert_eq!(t.cell(&[7, 3]), 2);
        assert_eq!(t.cell(&[0, 0]), 0);
        assert_eq!(t.prefix_sum(&[7, 7]), 9);
        assert_eq!(t.check_invariants(), 9);
    }

    #[test]
    fn growth_of_empty_tree_is_free() {
        let mut t = DdcTree::<i64>::new(3, 4, DdcConfig::dynamic());
        t.grow(&[true, true, true]);
        assert_eq!(t.side(), 8);
        assert_eq!(t.total(), 0);
        t.apply_delta(&[7, 7, 7], 1);
        assert_eq!(t.prefix_sum(&[7, 7, 7]), 1);
    }

    #[test]
    fn repeated_growth_stays_consistent() {
        let mut t = DdcTree::<i64>::new(2, 4, DdcConfig::dynamic());
        t.apply_delta(&[1, 1], 10);
        for step in 0..4 {
            t.grow(&[step % 2 == 0, step % 2 == 1]);
        }
        assert_eq!(t.side(), 64);
        // Shifts: dim0 grew low at steps 0,2 (+4, +16); dim1 at 1,3 (+8, +32).
        assert_eq!(t.cell(&[1 + 4 + 16, 1 + 8 + 32]), 10);
        assert_eq!(t.total(), 10);
        assert_eq!(t.check_invariants(), 10);
    }

    #[test]
    fn for_each_nonzero_reports_cells() {
        let mut t = DdcTree::<i64>::new(2, 16, DdcConfig::dynamic());
        t.apply_delta(&[2, 3], 5);
        t.apply_delta(&[10, 0], -1);
        let mut seen = Vec::new();
        t.for_each_nonzero(&mut |p, v| seen.push((p.to_vec(), v)));
        seen.sort();
        assert_eq!(seen, vec![(vec![2, 3], 5), (vec![10, 0], -1)]);
    }

    #[test]
    fn cancelling_update_keeps_queries_correct() {
        let mut t = DdcTree::<i64>::new(2, 8, DdcConfig::dynamic());
        t.apply_delta(&[4, 4], 5);
        t.apply_delta(&[4, 4], -5);
        assert_eq!(t.prefix_sum(&[7, 7]), 0);
        assert_eq!(t.cell(&[4, 4]), 0);
    }

    #[test]
    fn update_cost_is_polylogarithmic() {
        let mut t = DdcTree::<i64>::new(2, 256, DdcConfig::dynamic());
        // Warm the path so materialization costs are excluded.
        t.apply_delta(&[0, 0], 1);
        t.counter().reset();
        t.apply_delta(&[0, 0], 1);
        let w = t.ops().writes;
        // log2(256) = 8 levels × (1 subtotal + 2 B^c paths of ≤ ~2·log k).
        assert!(w <= 8 * 40, "update wrote {w} values");
        // …versus the Basic tree, which cascades O(n) at the root.
        let mut b = DdcTree::<i64>::new(2, 256, DdcConfig::basic());
        b.apply_delta(&[0, 0], 1);
        b.counter().reset();
        b.apply_delta(&[0, 0], 1);
        assert!(
            b.ops().writes > w,
            "basic ({}) should exceed dynamic ({w})",
            b.ops().writes
        );
    }

    #[test]
    fn query_cost_is_polylogarithmic() {
        let mut t = DdcTree::<i64>::new(2, 256, DdcConfig::dynamic());
        for (p, v) in dense_updates(16, 2) {
            t.apply_delta(&[p[0] * 16, p[1] * 16], v);
        }
        t.counter().reset();
        let _ = t.prefix_sum(&[255, 255]);
        let r = t.ops().reads;
        assert!(r <= 8 * 3 * 20, "query read {r} values");
    }

    #[test]
    fn concurrent_readers_count_exactly() {
        // Each query publishes only its own reads, so two threads sharing
        // one tree must count exactly what one thread counts twice.
        let mut t = DdcTree::<i64>::new(2, 256, DdcConfig::dynamic());
        for (i, p) in Shape::cube(2, 64).iter_points().enumerate() {
            t.apply_delta(&[p[0] * 4 + i % 4, p[1] * 4 + i % 3], (i % 7) as i64 - 3);
        }
        let points: Vec<[usize; 2]> = (0..1000usize)
            .map(|i| [(i * 97) % 256, (i * 61 + 17) % 256])
            .collect();
        let pass = |t: &DdcTree<i64>| {
            for p in &points {
                std::hint::black_box(t.prefix_sum(p));
            }
        };
        t.counter().reset();
        pass(&t);
        let per_pass = t.ops().reads;
        assert!(per_pass > 0);
        let (threads, passes) = (2, 20);
        t.counter().reset();
        let start = std::sync::Barrier::new(threads as usize);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    start.wait();
                    (0..passes).for_each(|_| pass(&t));
                });
            }
        });
        assert_eq!(t.ops().reads, threads * passes * per_pass);
        assert_eq!(t.ops().writes, 0);
    }

    #[test]
    fn arena_free_list_is_reused_after_prune() {
        let mut t = DdcTree::<i64>::new(2, 64, DdcConfig::dynamic());
        for i in 0..64usize {
            t.apply_delta(&[i, i], 3);
        }
        t.check_arena();
        // Materialize one off-diagonal path, then cancel it so prune
        // frees part of the tree without compacting everything away.
        t.apply_delta(&[0, 63], 5);
        let slots_before = t.stats().node_slots;
        t.apply_delta(&[0, 63], -5);
        t.prune();
        t.check_arena();
        let s = t.stats();
        assert_eq!(s.node_slots - s.free_node_slots, s.nodes);
        assert_eq!(s.leaf_slots - s.free_leaf_slots, s.leaf_blocks);
        // Repopulating pops free slots (or reuses the compacted arena)
        // instead of growing past the original footprint.
        t.apply_delta(&[0, 63], 5);
        t.check_arena();
        assert!(
            t.stats().node_slots <= slots_before,
            "arena grew past its pre-prune footprint"
        );
        assert_eq!(t.check_invariants(), 64 * 3 + 5);
    }

    #[test]
    fn arena_stays_sound_through_grow_update_prune_cycles() {
        let mut t = DdcTree::<i64>::new(2, 8, DdcConfig::dynamic());
        let mut a = NdArray::<i64>::zeroed(Shape::cube(2, 32));
        for (step, (p, v)) in dense_updates(8, 2).into_iter().enumerate() {
            t.apply_delta(&p, v);
            a.add_assign(&p, v);
            if step % 17 == 0 {
                t.prune();
                t.check_arena();
            }
        }
        t.grow(&[false, false]);
        t.check_arena();
        t.grow(&[true, true]);
        t.check_arena();
        // One high grow then one low grow shifts content by 16 (the
        // side at the low grow) in both dims.
        for p in [[0usize, 0], [31, 31], [16, 16], [23, 8]] {
            let shifted = [p[0].wrapping_sub(16), p[1].wrapping_sub(16)];
            let expect = if shifted[0] < 32 && shifted[1] < 32 {
                a.get(&shifted)
            } else {
                0
            };
            assert_eq!(t.cell(&p), expect, "cell {p:?}");
        }
        assert_eq!(t.check_invariants(), a.total());
        // Cancel everything: prune must return the tree to (near) empty
        // with a fully consistent arena.
        let mut cells = Vec::new();
        t.for_each_nonzero(&mut |p, v| cells.push((p.to_vec(), v)));
        for (p, v) in cells {
            t.apply_delta(&p, -v);
        }
        t.prune();
        t.check_arena();
        assert_eq!(t.total(), 0);
        let s = t.stats();
        assert_eq!(s.nodes, 0);
        assert_eq!(s.leaf_blocks, 0);
    }

    #[test]
    fn compaction_triggers_when_free_slots_dominate() {
        let mut t = DdcTree::<i64>::new(2, 128, DdcConfig::dynamic());
        for i in 0..128usize {
            t.apply_delta(&[i, i], 2);
        }
        // Keep one corner live; cancel the rest.
        for i in 1..128usize {
            t.apply_delta(&[i, i], -2);
        }
        t.prune();
        t.check_arena();
        let s = t.stats();
        // Free slots may not outnumber live ones after a compaction.
        assert!(
            s.free_node_slots + s.free_leaf_slots
                <= (s.node_slots - s.free_node_slots) + (s.leaf_slots - s.free_leaf_slots),
            "compaction left {} free vs {} live slots",
            s.free_node_slots + s.free_leaf_slots,
            (s.node_slots - s.free_node_slots) + (s.leaf_slots - s.free_leaf_slots)
        );
        assert_eq!(t.cell(&[0, 0]), 2);
        assert_eq!(t.check_invariants(), 2);
    }

    #[test]
    fn paged_tree_matches_slab_through_full_lifecycle() {
        use crate::config::PagerConfig;
        // Cap far below the leaf data so the walk below churns through
        // real evictions, with a tiny page size to multiply traffic.
        let pager = PagerConfig::in_mem(2048).with_page_bytes(128);
        let config = DdcConfig::dynamic()
            .with_elision(1)
            .with_paged_leaves(pager);
        let mut paged = DdcTree::<i64>::new(2, 32, config);
        assert!(paged.enable_paging().unwrap());
        assert!(paged.is_paged());
        assert!(paged.enable_paging().unwrap(), "must be idempotent");
        let mut slab = DdcTree::<i64>::new(2, 32, DdcConfig::dynamic().with_elision(1));
        let mut a = NdArray::<i64>::zeroed(Shape::cube(2, 32));
        for i in 0..600usize {
            let p = [(i * 7) % 32, (i * 13) % 32];
            let v = (i as i64 % 9) - 4;
            paged.apply_delta(&p, v);
            slab.apply_delta(&p, v);
            a.add_assign(&p, v);
        }
        for p in [[0usize, 0], [31, 31], [15, 16], [7, 29]] {
            assert_eq!(paged.prefix_sum(&p), a.prefix_sum(&p), "prefix {p:?}");
            assert_eq!(paged.cell(&p), slab.cell(&p), "cell {p:?}");
        }
        assert_eq!(paged.check_invariants(), a.total());
        paged.check_arena();
        let stats = paged.pool_stats().expect("paged tree has pool stats");
        assert!(
            stats.evictions > 0,
            "cap too generous to exercise eviction: {stats:?}"
        );
        // Growth re-roots in place, so the paged arena must survive it.
        paged.grow(&[false, false]);
        slab.grow(&[false, false]);
        assert!(paged.is_paged(), "growth must not drop the paged arena");
        paged.apply_delta(&[40, 40], 11);
        slab.apply_delta(&[40, 40], 11);
        assert_eq!(paged.total(), slab.total());
        assert_eq!(paged.prefix_sum(&[63, 63]), slab.prefix_sum(&[63, 63]));
        // Cancel and prune: free-listing + node compaction on pages.
        let mut cells = Vec::new();
        paged.for_each_nonzero(&mut |p, v| cells.push((p.to_vec(), v)));
        for (p, v) in cells {
            paged.apply_delta(&p, -v);
        }
        paged.prune();
        paged.check_arena();
        assert_eq!(paged.total(), 0);
        assert_eq!(paged.stats().leaf_blocks, 0);
    }
}
