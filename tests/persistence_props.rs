//! Property tests for the binary snapshot format and float-measure cubes.

use ddc_array::{RangeSumEngine, Shape};
use ddc_core::{DdcConfig, DdcEngine, GrowableCube};
use ddc_tests::for_cases;

for_cases! {
    fn engine_snapshots_roundtrip(rng, cases = 32) {
        let d = rng.gen_range(1usize..=3);
        let dims: Vec<usize> = (0..d).map(|_| rng.gen_range(1usize..12)).collect();
        let cells: Vec<(Vec<f64>, i64)> = (0..rng.gen_range(0usize..25))
            .map(|_| {
                let frac: Vec<f64> = (0..3).map(|_| rng.next_f64()).collect();
                (frac, rng.gen_range(-1000i64..1000))
            })
            .collect();
        let shape = Shape::new(&dims);
        let mut e = DdcEngine::<i64>::dynamic(shape.clone());
        for (frac, v) in &cells {
            let p: Vec<usize> = dims.iter().enumerate()
                .map(|(i, &n)| ((frac[i % 3] * n as f64) as usize).min(n - 1)).collect();
            e.apply_delta(&p, *v);
        }
        let mut buf = Vec::new();
        e.save(&mut buf).unwrap();
        let restored = DdcEngine::<i64>::load(&mut buf.as_slice(), DdcConfig::dynamic()).unwrap();
        for p in shape.iter_points() {
            assert_eq!(restored.cell(&p), e.cell(&p));
        }
        // Snapshot size is header + entries only.
        let entries = e.entries().len();
        assert!(buf.len() <= 17 + dims.len() * 8 + entries * (dims.len() + 1) * 8 + 8);
    }

    fn growable_snapshots_roundtrip(rng, cases = 32) {
        let points: Vec<(Vec<i64>, i64)> = (0..rng.gen_range(0usize..20))
            .map(|_| {
                let p: Vec<i64> = (0..2).map(|_| rng.gen_range(-500i64..500)).collect();
                (p, rng.gen_range(-100i64..100))
            })
            .collect();
        let mut cube = GrowableCube::<i64>::new(2, DdcConfig::dynamic());
        for (p, v) in &points {
            cube.add(p, *v);
        }
        let mut buf = Vec::new();
        cube.save(&mut buf).unwrap();
        let restored =
            GrowableCube::<i64>::load(&mut buf.as_slice(), DdcConfig::dynamic()).unwrap();
        assert_eq!(restored.total(), cube.total());
        assert_eq!(restored.populated_cells(), cube.populated_cells());
        for (p, _) in &points {
            assert_eq!(restored.cell(p), cube.cell(p), "{:?}", p);
        }
    }

    fn truncated_snapshots_error_not_panic(rng, cases = 32) {
        let cut = rng.gen_range(0usize..64);
        let mut e = DdcEngine::<i64>::dynamic(Shape::new(&[4, 4]));
        e.apply_delta(&[1, 2], 7);
        e.apply_delta(&[3, 3], -2);
        let mut buf = Vec::new();
        e.save(&mut buf).unwrap();
        if cut < buf.len() {
            let r = DdcEngine::<i64>::load(&mut &buf[..cut], DdcConfig::dynamic());
            assert!(r.is_err(), "truncation at {} accepted", cut);
        }
    }
}

/// Float cubes: tree summation reorders additions, so engines may differ
/// from the naive scan by rounding. Verify agreement within an epsilon
/// scaled to the magnitudes involved.
#[test]
fn float_cube_engines_agree_within_epsilon() {
    use ddc_baselines::NaiveEngine;
    use ddc_workload::{rng, uniform_regions};

    let shape = Shape::cube(2, 32);
    let mut r = rng(91);
    let mut ddc = DdcEngine::<f64>::dynamic(shape.clone());
    let mut naive = NaiveEngine::<f64>::zeroed(shape.clone());
    for p in shape.iter_points() {
        let v: f64 = r.gen_range(-1.0..1.0);
        ddc.apply_delta(&p, v);
        naive.apply_delta(&p, v);
    }
    for q in uniform_regions(&shape, 64, &mut r) {
        let a = ddc.range_sum(&q);
        let b = naive.range_sum(&q);
        assert!(
            (a - b).abs() < 1e-9 * (1.0 + q.cells() as f64),
            "{q:?}: {a} vs {b}"
        );
    }
}

/// Pair snapshots preserve both components.
#[test]
fn pair_snapshot_components_survive() {
    use ddc_array::Pair;
    let mut e = DdcEngine::<Pair<i64, i64>>::dynamic(Shape::new(&[6, 6]));
    e.apply_delta(&[2, 2], Pair::new(100, 1));
    e.apply_delta(&[2, 2], Pair::new(50, 1));
    e.apply_delta(&[5, 0], Pair::new(-10, 1));
    let mut buf = Vec::new();
    e.save(&mut buf).unwrap();
    let restored =
        DdcEngine::<Pair<i64, i64>>::load(&mut buf.as_slice(), DdcConfig::dynamic()).unwrap();
    assert_eq!(restored.cell(&[2, 2]), Pair::new(150, 2));
    assert_eq!(restored.cell(&[5, 0]), Pair::new(-10, 1));
}

/// A snapshot taken mid-life — after the cube has grown low on one axis
/// and high on another (§5 growth in any direction) — restores every
/// cell, including the ones in grown territory, and keeps answering
/// range sums that straddle the original and grown regions.
#[test]
fn snapshot_after_two_direction_growth_restores_exactly() {
    let mut cube = GrowableCube::<i64>::new(2, DdcConfig::dynamic());
    // Seed the initial neighborhood.
    cube.add(&[0, 0], 10);
    cube.add(&[2, 3], -4);
    // Grow low on axis 0 and high on axis 1 by addressing cells there.
    cube.add(&[-7, 1], 5);
    cube.add(&[1, 50], 8);

    let mut buf = Vec::new();
    cube.save(&mut buf).unwrap();
    let restored = GrowableCube::<i64>::load(&mut buf.as_slice(), DdcConfig::dynamic()).unwrap();

    for (p, v) in cube.entries() {
        assert_eq!(restored.cell(&p), v, "{p:?}");
    }
    assert_eq!(restored.total(), 19);
    // Straddling queries: original box only, grown-low only, and the
    // whole covered region.
    assert_eq!(restored.range_sum(&[0, 0], &[2, 3]), 6);
    assert_eq!(restored.range_sum(&[-7, 0], &[-1, 10]), 5);
    assert_eq!(restored.range_sum(&[-7, 0], &[2, 50]), 19);
}

/// Malformed headers surface as descriptive errors, not panics or blind
/// allocations: overflowing shapes, lying entry counts, and oversized
/// extents are all rejected before any payload is trusted.
#[test]
fn malformed_headers_are_rejected_descriptively() {
    let header = |dims: &[u64], count: u64| -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"DDC1");
        buf.push(0);
        buf.extend_from_slice(&(dims.len() as u32).to_le_bytes());
        for &n in dims {
            buf.extend_from_slice(&n.to_le_bytes());
        }
        buf.extend_from_slice(&count.to_le_bytes());
        buf
    };
    // Cell-count overflow must not reach an allocator.
    let buf = header(&[1 << 40, 1 << 40], 0);
    let e = DdcEngine::<i64>::load(&mut buf.as_slice(), DdcConfig::dynamic()).unwrap_err();
    assert!(e.to_string().contains("implausible shape"), "{e}");
    // Entry count beyond the cube's capacity.
    let buf = header(&[3, 3], 10);
    let e = DdcEngine::<i64>::load(&mut buf.as_slice(), DdcConfig::dynamic()).unwrap_err();
    assert!(e.to_string().contains("entry count"), "{e}");
}
