//! Secondary structures: how one overlay row-sum group is stored.
//!
//! Section 4.2: "the overlay box values of a d-dimensional data cube can
//! be stored as (d−1)-dimensional data cubes using Dynamic Data Cubes,
//! recursively; when d = 2, we use the B^c tree to store the row sum
//! values." [`Secondary`] is that recursion — the B^c tree in its
//! implicit blocked layout ([`BlockedBc`]) at the base — with two extra
//! arms:
//!
//! * `Flat` — the Basic DDC's direct arrays (§3), kept so the §3.3 cost
//!   analysis can be measured against §4 on identical trees;
//! * `Empty` — nothing materialized yet: an all-zero group occupies no
//!   memory, which is how empty regions of a sparse cube stay free (§5).

use ddc_array::{AbelianGroup, OpSnapshot};
use ddc_btree::{BlockedBc, CumulativeStore};

use crate::config::{DdcConfig, Mode};
use crate::flat_face::FlatFace;
use crate::tree::DdcTree;

/// Storage for one `(d−1)`-dimensional row-sum group of an overlay box of
/// side `k`.
#[derive(Debug)]
pub(crate) enum Secondary<G: AbelianGroup> {
    /// All-zero group; materialized on first update.
    Empty,
    /// Basic mode (§3): cumulative values stored directly.
    Flat(FlatFace<G>),
    /// Dynamic mode base case (§4.1): the B^c tree flattened into
    /// implicit blocked arrays (branchless hot path).
    Blocked(BlockedBc<G>),
    /// Dynamic mode, `d − 1 ≥ 2`: the group is itself a Dynamic Data Cube
    /// (§4.2's secondary trees).
    Tree(Box<DdcTree<G>>),
}

impl<G: AbelianGroup> Secondary<G> {
    /// Materializes the appropriate structure for a group with `face_dims`
    /// dimensions of extent `k` each.
    fn materialize(face_dims: usize, k: usize, config: &DdcConfig) -> Self {
        debug_assert!(face_dims >= 1);
        match config.mode {
            Mode::Basic => Secondary::Flat(FlatFace::zeroed(ddc_array::Shape::cube(face_dims, k))),
            Mode::Dynamic => {
                if face_dims == 1 {
                    Secondary::Blocked(BlockedBc::zeroed(k))
                } else {
                    Secondary::Tree(Box::new(DdcTree::new(face_dims, k, *config)))
                }
            }
        }
    }

    /// Bulk-builds a group from its raw slab-sum array (`raw[c]` is the
    /// sum of the full row along the group axis at cross-position `c`).
    /// Used by the bottom-up constructor; equivalent to applying
    /// [`Secondary::add`] per populated slab but without per-value
    /// structure descents.
    pub(crate) fn build_from_raw(raw: &ddc_array::NdArray<G>, config: &DdcConfig) -> Self {
        let k = raw.shape().dim(0);
        match config.mode {
            Mode::Basic => {
                let mut flat = FlatFace::zeroed(raw.shape().clone());
                flat.fill_cumulative(raw);
                Secondary::Flat(flat)
            }
            Mode::Dynamic => {
                if raw.shape().ndim() == 1 {
                    Secondary::Blocked(BlockedBc::from_values(raw.as_slice()))
                } else {
                    Secondary::Tree(Box::new(DdcTree::from_array_sized(raw, k, *config)))
                }
            }
        }
    }

    /// Cumulative group value at `idx` (each coordinate `< k`); `Empty`
    /// groups are implicit zeros. Reads are counted into the caller's
    /// per-operation `tally`.
    pub(crate) fn prefix(&self, idx: &[usize], tally: &mut OpSnapshot) -> G {
        match self {
            Secondary::Empty => G::ZERO,
            Secondary::Flat(f) => f.prefix(idx, tally),
            Secondary::Blocked(t) => t.prefix_counted(idx[0], tally),
            Secondary::Tree(t) => t.prefix_counted(idx, tally),
        }
    }

    /// Adds `delta` to the raw slab at `idx`, materializing first if
    /// needed. `k` and `config` describe the owning overlay box.
    pub(crate) fn add(
        &mut self,
        idx: &[usize],
        delta: G,
        k: usize,
        config: &DdcConfig,
        tally: &mut OpSnapshot,
    ) {
        if matches!(self, Secondary::Empty) {
            *self = Self::materialize(idx.len(), k, config);
        }
        match self {
            Secondary::Empty => unreachable!("materialized above"),
            Secondary::Flat(f) => f.add(idx, delta, tally),
            Secondary::Blocked(t) => t.add_counted(idx[0], delta, tally),
            Secondary::Tree(t) => t.apply_delta_counted(idx, delta, tally),
        }
    }

    /// Heap bytes held *behind* this group's slot. The slot itself
    /// (`size_of::<Secondary<G>>()`) is billed by its owner, so the
    /// inline `BlockedBc` header is not counted a second time; the boxed
    /// `DdcTree` header lives on the heap and is.
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Secondary::Empty => 0,
            Secondary::Flat(f) => f.heap_bytes(),
            Secondary::Blocked(t) => t.heap_bytes() - std::mem::size_of::<BlockedBc<G>>(),
            Secondary::Tree(t) => t.heap_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_reads_zero_and_costs_nothing() {
        let mut c = OpSnapshot::default();
        let s = Secondary::<i64>::Empty;
        assert_eq!(s.prefix(&[3], &mut c), 0);
        assert_eq!(c.reads, 0);
        assert_eq!(s.heap_bytes(), 0);
    }

    #[test]
    fn one_dimensional_base_stores_agree() {
        // The blocked base case against the pointer-based §4.1 B^c tree.
        let config = DdcConfig::dynamic();
        let mut c = OpSnapshot::default();
        let mut s = Secondary::<i64>::Empty;
        let mut reference = ddc_btree::BcTree::<i64>::zeroed(3, 8);
        for (i, delta) in [(2, 10), (0, 4), (7, -1)] {
            s.add(&[i], delta, 8, &config, &mut c);
            reference.add(i, delta);
        }
        assert!(matches!(s, Secondary::Blocked(_)));
        for i in 0..8 {
            assert_eq!(s.prefix(&[i], &mut c), reference.prefix(i), "prefix({i})");
        }
        // One raw block plus a two-slot summary, all behind the slot.
        let slots = ddc_btree::DEFAULT_BLOCK + 2;
        assert_eq!(s.heap_bytes(), slots * std::mem::size_of::<i64>());
    }

    #[test]
    fn basic_mode_materializes_flat() {
        let config = DdcConfig::basic();
        let mut c = OpSnapshot::default();
        let mut s = Secondary::<i64>::Empty;
        s.add(&[1, 1], 5, 4, &config, &mut c);
        assert!(matches!(s, Secondary::Flat(_)));
        assert_eq!(s.prefix(&[0, 0], &mut c), 0);
        assert_eq!(s.prefix(&[3, 3], &mut c), 5);
    }

    #[test]
    fn counter_absorbs_substore_costs() {
        let config = DdcConfig::dynamic();
        let mut c = OpSnapshot::default();
        let mut s = Secondary::<i64>::Empty;
        s.add(&[5], 1, 16, &config, &mut c);
        assert!(c.writes > 0);
        let before = c;
        let _ = s.prefix(&[10], &mut c);
        assert!(c.reads > before.reads);
    }
}
