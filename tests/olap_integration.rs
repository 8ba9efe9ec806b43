//! End-to-end integration: the OLAP layer over generated workloads, every
//! engine kind answering the same analytical questions, and the paper's
//! §1/§2 aggregate semantics (SUM / COUNT / AVERAGE with retraction).

use ddc_olap::{CubeBuilder, DataCube, Dimension, EngineKind, RangeSpec, SumCountCube};
use ddc_workload::rng;

fn build_cube(kind: EngineKind) -> SumCountCube {
    CubeBuilder::new()
        .dimension(Dimension::int_range("customer_age", 18, 81)) // 64 ages
        .dimension(Dimension::bucketed("time", 0, 3_600, 128)) // hours
        .engine(kind)
        .build()
}

/// One synthetic day of commerce: deterministic, replayed into every
/// engine.
fn workload() -> Vec<(i64, i64, i64)> {
    let mut r = rng(20_000);
    (0..500)
        .map(|_| {
            let age = r.gen_range(18..=81);
            let t = r.gen_range(0..128 * 3_600);
            let amount = r.gen_range(1..500);
            (age, t, amount)
        })
        .collect()
}

#[test]
fn every_engine_answers_the_same_analytics() {
    let sales = workload();
    let questions: Vec<[RangeSpec<'static>; 2]> = vec![
        [RangeSpec::All, RangeSpec::All],
        [RangeSpec::Between(27.into(), 45.into()), RangeSpec::All],
        [
            RangeSpec::Between(27.into(), 45.into()),
            RangeSpec::Between((24 * 3_600).into(), (48 * 3_600 - 1).into()),
        ],
        [
            RangeSpec::Eq(37.into()),
            RangeSpec::Between(0.into(), 3_599.into()),
        ],
    ];

    let mut answers: Vec<Vec<(i64, i64)>> = Vec::new();
    for kind in EngineKind::ALL {
        let mut cube = build_cube(kind);
        for (age, t, amount) in &sales {
            cube.add_observation(&[(*age).into(), (*t).into()], *amount)
                .unwrap();
        }
        let per_engine: Vec<(i64, i64)> = questions
            .iter()
            .map(|q| (cube.sum(q).unwrap(), cube.count(q).unwrap()))
            .collect();
        answers.push(per_engine);
    }
    for a in &answers[1..] {
        assert_eq!(a, &answers[0]);
    }
    // Whole-cube totals equal the raw workload totals.
    let total: i64 = sales.iter().map(|(_, _, v)| v).sum();
    assert_eq!(answers[0][0], (total, sales.len() as i64));
}

#[test]
fn average_consistency_under_retraction() {
    let mut cube = build_cube(EngineKind::DynamicDdc);
    let sales = workload();
    for (age, t, amount) in &sales {
        cube.add_observation(&[(*age).into(), (*t).into()], *amount)
            .unwrap();
    }
    // Retract every other sale; averages must match a recomputed cube.
    let mut fresh = build_cube(EngineKind::DynamicDdc);
    for (i, (age, t, amount)) in sales.iter().enumerate() {
        if i % 2 == 0 {
            cube.retract_observation(&[(*age).into(), (*t).into()], *amount)
                .unwrap();
        } else {
            fresh
                .add_observation(&[(*age).into(), (*t).into()], *amount)
                .unwrap();
        }
    }
    let q = [RangeSpec::Between(30.into(), 60.into()), RangeSpec::All];
    assert_eq!(cube.sum(&q).unwrap(), fresh.sum(&q).unwrap());
    assert_eq!(cube.count(&q).unwrap(), fresh.count(&q).unwrap());
    assert_eq!(cube.average(&q).unwrap(), fresh.average(&q).unwrap());
}

#[test]
fn three_dimensional_cube_with_categorical_dimension() {
    let mut cube: DataCube<i64> = CubeBuilder::new()
        .dimension(Dimension::categorical("region", &["na", "eu", "apac"]))
        .dimension(Dimension::categorical(
            "product",
            &["widget", "gadget", "gizmo", "doodad"],
        ))
        .dimension(Dimension::int_range("week", 1, 52))
        .engine(EngineKind::DynamicDdc)
        .build();

    let mut r = rng(5_000);
    let regions = ["na", "eu", "apac"];
    let products = ["widget", "gadget", "gizmo", "doodad"];
    let mut eu_gadget_total = 0i64;
    for _ in 0..300 {
        let region = regions[r.gen_range(0usize..3)];
        let product = products[r.gen_range(0usize..4)];
        let week = r.gen_range(1..=52i64);
        let revenue = r.gen_range(10..1_000i64);
        cube.add(&[region.into(), product.into(), week.into()], revenue)
            .unwrap();
        if region == "eu" && product == "gadget" {
            eu_gadget_total += revenue;
        }
    }
    assert_eq!(
        cube.range_sum(&[
            RangeSpec::Eq("eu".into()),
            RangeSpec::Eq("gadget".into()),
            RangeSpec::All
        ])
        .unwrap(),
        eu_gadget_total
    );
}

#[test]
fn heap_accounting_is_monotone_in_data() {
    let mut cube: DataCube<i64> = CubeBuilder::new()
        .dimension(Dimension::int_range("x", 0, 255))
        .dimension(Dimension::int_range("y", 0, 255))
        .engine(EngineKind::CustomDdc(ddc_core::DdcConfig::dynamic()))
        .build();
    let empty = cube.heap_bytes();
    let mut r = rng(1);
    for _ in 0..100 {
        let x = r.gen_range(0..256i64);
        let y = r.gen_range(0..256i64);
        cube.add(&[x.into(), y.into()], 1).unwrap();
    }
    assert!(cube.heap_bytes() > empty);
}
