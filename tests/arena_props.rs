//! Arena invariant properties (satellite of the flat-arena rewrite).
//!
//! The primary tree now lives in `Vec`-indexed arenas with free-list
//! slot reuse and opportunistic compaction. These suites churn trees
//! through randomized update / cancel / grow / prune cycles and, after
//! every phase, audit the bookkeeping the pointer-based tree never
//! needed: every slot reachable-or-free, no dangling or duplicated
//! references, free-list entries cleared — plus the structural
//! invariants and a sparse oracle for answers. A deterministic
//! regression test pins `TreeStats`' arena-slot accounting and the
//! `heap_bytes` reclamation curve across a full lifecycle.

use std::collections::HashMap;

use ddc_core::{DdcConfig, DdcTree};
use ddc_tests::for_cases;

type Oracle = HashMap<Vec<usize>, i64>;

fn oracle_add(oracle: &mut Oracle, p: &[usize], delta: i64) {
    let v = oracle.entry(p.to_vec()).or_insert(0);
    *v += delta;
    if *v == 0 {
        oracle.remove(p);
    }
}

fn oracle_total(oracle: &Oracle) -> i64 {
    oracle.values().sum()
}

fn oracle_prefix(oracle: &Oracle, x: &[usize]) -> i64 {
    oracle
        .iter()
        .filter(|(p, _)| p.iter().zip(x).all(|(&c, &b)| c <= b))
        .map(|(_, &v)| v)
        .sum()
}

/// Full audit after a phase: arena bookkeeping, structural invariants,
/// and the invariant-walk total against the oracle.
fn audit(tree: &DdcTree<i64>, oracle: &Oracle) {
    let (reachable_nodes, reachable_leaves) = tree.check_arena();
    assert_eq!(tree.check_invariants(), oracle_total(oracle));
    let stats = tree.stats();
    assert_eq!(
        stats.node_slots - stats.free_node_slots,
        reachable_nodes,
        "live node slots vs reachable nodes"
    );
    assert_eq!(
        stats.leaf_slots - stats.free_leaf_slots,
        reachable_leaves,
        "live leaf slots vs reachable leaves"
    );
}

fn configs() -> [DdcConfig; 2] {
    [DdcConfig::dynamic(), DdcConfig::dynamic().with_elision(1)]
}

for_cases! {
    /// Randomized churn: interleaved updates, cancellations (driving
    /// cells back to zero), growth in random directions, and prunes.
    /// After every phase the arena audit passes, the invariant walk
    /// reconciles with the oracle total, and sampled prefix sums agree.
    fn arena_survives_update_cancel_grow_prune_churn(rng, cases = 24) {
        let d = rng.gen_range(1usize..=3);
        let side = [8, 16][rng.gen_range(0usize..2)];
        let config = configs()[rng.gen_range(0usize..2)];
        let mut tree = DdcTree::<i64>::new(d, side, config);
        let mut oracle = Oracle::new();
        let mut side_now = side;

        for _phase in 0..6 {
            match rng.gen_range(0usize..10) {
                // Mostly updates: a burst of random deltas.
                0..=5 => {
                    for _ in 0..rng.gen_range(4usize..20) {
                        let p: Vec<usize> =
                            (0..d).map(|_| rng.gen_range(0..side_now)).collect();
                        let delta = rng.gen_range(-30i64..=30);
                        tree.apply_delta(&p, delta);
                        oracle_add(&mut oracle, &p, delta);
                    }
                }
                // Cancellation: zero out a handful of populated cells.
                6..=7 => {
                    let cells: Vec<(Vec<usize>, i64)> =
                        oracle.iter().map(|(p, &v)| (p.clone(), v)).collect();
                    for (p, v) in cells.into_iter().take(5) {
                        tree.apply_delta(&p, -v);
                        oracle_add(&mut oracle, &p, -v);
                    }
                }
                // Growth: double the side, shifting content on the
                // low-grown axes by the old side.
                8 => {
                    let low: Vec<bool> = (0..d).map(|_| rng.gen_range(0usize..2) == 0).collect();
                    tree.grow(&low);
                    oracle = oracle
                        .into_iter()
                        .map(|(p, v)| {
                            let q: Vec<usize> = p
                                .iter()
                                .zip(&low)
                                .map(|(&c, &l)| if l { c + side_now } else { c })
                                .collect();
                            (q, v)
                        })
                        .collect();
                    side_now *= 2;
                }
                // Prune: structure-only, answers must not move.
                _ => {
                    tree.prune();
                }
            }
            audit(&tree, &oracle);
            for _ in 0..4 {
                let x: Vec<usize> = (0..d).map(|_| rng.gen_range(0..side_now)).collect();
                assert_eq!(tree.prefix_sum(&x), oracle_prefix(&oracle, &x), "prefix at {x:?}");
                assert_eq!(tree.cell(&x), oracle.get(&x).copied().unwrap_or(0));
            }
        }
        assert_eq!(tree.total(), oracle_total(&oracle));
    }

    /// Free-list discipline: cancelling and pruning a populated tree
    /// frees slots without leaking them, and rebuilding the same
    /// population reuses freed slots rather than growing the arenas —
    /// the arena never exceeds its previous peak across the cycle.
    fn freed_slots_are_reused_not_leaked(rng, cases = 16) {
        let d = rng.gen_range(1usize..=2);
        let side = 16;
        let config = configs()[rng.gen_range(0usize..2)];
        let mut tree = DdcTree::<i64>::new(d, side, config);
        let points: Vec<Vec<usize>> = (0..12)
            .map(|_| (0..d).map(|_| rng.gen_range(0..side)).collect())
            .collect();

        for p in &points {
            tree.apply_delta(p, 7);
        }
        let peak = tree.stats().node_slots;
        // Cancel everything; prune reclaims the dead structure.
        for p in &points {
            tree.apply_delta(p, -7);
        }
        tree.prune();
        tree.check_arena();
        assert_eq!(tree.total(), 0);

        // The same population must fit in the recycled (or compacted)
        // arena: no monotonic slot growth across cycles.
        for p in &points {
            tree.apply_delta(p, 9);
        }
        let after = tree.stats();
        assert!(
            after.node_slots <= peak,
            "node arena grew across a cancel/prune/rebuild cycle: {} -> {}",
            peak,
            after.node_slots
        );
        tree.check_arena();
        assert_eq!(tree.check_invariants(), 9 * points.len() as i64);
    }

    /// Build-path equivalence: a tree grown update-by-update and one
    /// built by the bulk path land on identical answers and pass the
    /// same arena audit.
    fn bulk_builds_match_incremental_and_pass_audit(rng, cases = 12) {
        use ddc_array::NdArray;
        let d = rng.gen_range(1usize..=2);
        let side = 16;
        let config = configs()[rng.gen_range(0usize..2)];
        let shape = ddc_array::Shape::new(&vec![side; d]);
        let mut cells = Oracle::new();
        let mut incremental = DdcTree::<i64>::new(d, side, config);
        for _ in 0..rng.gen_range(5usize..40) {
            let p: Vec<usize> = (0..d).map(|_| rng.gen_range(0..side)).collect();
            let delta = rng.gen_range(-20i64..=20);
            oracle_add(&mut cells, &p, delta);
            incremental.apply_delta(&p, delta);
        }
        let dense = NdArray::from_fn(shape, |p| cells.get(p).copied().unwrap_or(0));
        let bulk = DdcTree::from_array_sized(&dense, side, config);
        for t in [&incremental, &bulk] {
            t.check_arena();
            t.check_invariants();
        }
        for _ in 0..8 {
            let x: Vec<usize> = (0..d).map(|_| rng.gen_range(0..side)).collect();
            let want = incremental.prefix_sum(&x);
            assert_eq!(bulk.prefix_sum(&x), want, "bulk prefix at {x:?}");
        }
    }
}

/// Deterministic `TreeStats` / `heap_bytes` regression (satellite 4):
/// a fixed lifecycle on a d=2 tree pins the arena-slot accounting at
/// every stage. Structural counts are exact; byte totals are asserted
/// relationally (monotone under reclamation, consistent with `stats`)
/// so the test does not depend on allocator or `Vec` growth policy.
#[test]
fn stats_and_heap_bytes_track_the_arena_lifecycle() {
    let mut tree = DdcTree::<i64>::new(2, 16, DdcConfig::dynamic());

    // Empty tree: no slots anywhere.
    let s0 = tree.stats();
    assert_eq!(
        (
            s0.node_slots,
            s0.free_node_slots,
            s0.leaf_slots,
            s0.free_leaf_slots
        ),
        (0, 0, 0, 0)
    );
    assert_eq!(s0.nodes, 0);
    assert_eq!(s0.total_bytes, tree.heap_bytes());

    // One deep path: root(16) -> node(8) -> node(4) -> leaf block(2x2).
    tree.apply_delta(&[0, 0], 5);
    let s1 = tree.stats();
    assert_eq!(s1.nodes, 3, "three interior levels above the leaf block");
    assert_eq!(s1.leaf_blocks, 1);
    assert_eq!(s1.leaf_cells, 4);
    assert_eq!((s1.node_slots, s1.free_node_slots), (3, 0));
    assert_eq!((s1.leaf_slots, s1.free_leaf_slots), (1, 0));
    assert_eq!(s1.boxes, 3, "one overlay box per interior level");
    assert_eq!(s1.depth, 3);
    assert_eq!(s1.total_bytes, tree.heap_bytes());
    assert!(s1.secondary_bytes > 0, "faces must be accounted");

    // A second, disjoint path shares the root only.
    tree.apply_delta(&[15, 15], 7);
    let s2 = tree.stats();
    assert_eq!(
        s2.nodes, 5,
        "two extra interior nodes under the shared root"
    );
    assert_eq!(s2.leaf_blocks, 2);
    assert_eq!((s2.node_slots, s2.free_node_slots), (5, 0));
    assert_eq!((s2.leaf_slots, s2.free_leaf_slots), (2, 0));
    let populated_bytes = tree.heap_bytes();
    assert_eq!(s2.total_bytes, populated_bytes);

    // Cancel one path and prune: its slots are freed (or the arena is
    // compacted outright), and the accounting stays reconciled.
    tree.apply_delta(&[15, 15], -7);
    let freed = tree.prune();
    assert!(freed > 0, "prune must reclaim the dead path");
    let s3 = tree.stats();
    let (reach_nodes, reach_leaves) = tree.check_arena();
    assert_eq!(reach_nodes, 3, "back to the single-path structure");
    assert_eq!(reach_leaves, 1);
    assert_eq!(s3.node_slots - s3.free_node_slots, reach_nodes);
    assert_eq!(s3.leaf_slots - s3.free_leaf_slots, reach_leaves);
    assert_eq!(s3.total_bytes, tree.heap_bytes());

    // Cancel the last path: after prune + compaction the tree is empty
    // and the bytes drop strictly below the populated peak.
    tree.apply_delta(&[0, 0], -5);
    tree.prune();
    let s4 = tree.stats();
    assert_eq!(tree.check_arena(), (0, 0));
    assert_eq!((s4.nodes, s4.leaf_blocks), (0, 0));
    assert_eq!(
        s4.node_slots, s4.free_node_slots,
        "every remaining node slot is on the free list"
    );
    assert_eq!(s4.leaf_slots, s4.free_leaf_slots);
    assert!(
        tree.heap_bytes() < populated_bytes,
        "empty tree must not hold the populated peak: {} vs {}",
        tree.heap_bytes(),
        populated_bytes
    );
    assert_eq!(tree.total(), 0);
}
