//! Stock ticker: "Stock brokers might wish to dynamically analyze the
//! implications of millions of trades as they occur" (§1). A
//! [`DynamicDataCube`] learns ticker symbols as trades arrive and buckets
//! timestamps into minutes; analysts read volume aggregates and rolling
//! windows while the stream is live — no batch loading window.
//!
//! ```text
//! cargo run --release -p ddc-examples --example stock_ticker
//! ```

use ddc_core::DdcConfig;
use ddc_olap::{DynamicDataCube, DynamicDimension, DynamicRange};
use ddc_workload::rng;
use std::time::Instant;

fn main() {
    // Dimensions: symbol (learned), minute (bucketed seconds), signed
    // price-move in ticks (can be negative — the cube grows both ways).
    let mut cube: DynamicDataCube<i64> = DynamicDataCube::new(
        vec![
            DynamicDimension::categorical("symbol"),
            DynamicDimension::bucketed("minute", 60),
            DynamicDimension::int("tick_move"),
        ],
        DdcConfig::dynamic(),
    );

    let symbols = ["ACME", "GLOBEX", "INITECH", "UMBRELLA", "WONKA", "STARK"];
    let mut r = rng(404);
    let trades = 200_000usize;
    let start = Instant::now();
    for i in 0..trades {
        let symbol = symbols[r.gen_range(0..symbols.len())];
        let t = i as i64 / 8; // ≈8 trades per second of tape
        let ticks: i64 = r.gen_range(-12..=12);
        let volume = r.gen_range(1..=500i64);
        cube.add(&[symbol.into(), t.into(), ticks.into()], volume)
            .unwrap();
    }
    let ingest = start.elapsed();
    println!(
        "ingested {trades} trades in {ingest:?} ({:.0} trades/s)\n",
        trades as f64 / ingest.as_secs_f64()
    );

    let t0 = Instant::now();
    let total = cube.total();
    for symbol in &symbols[..3] {
        let vol = cube
            .range_sum(&[
                DynamicRange::Eq((*symbol).into()),
                DynamicRange::All,
                DynamicRange::All,
            ])
            .unwrap();
        let down_vol = cube
            .range_sum(&[
                DynamicRange::Eq((*symbol).into()),
                DynamicRange::All,
                DynamicRange::Between((-12).into(), (-1).into()),
            ])
            .unwrap();
        println!(
            "{symbol:<9} volume {vol:>10}  on down-ticks {down_vol:>10}  ({:.1}%)",
            100.0 * down_vol as f64 / vol as f64
        );
    }
    // Minute-window market scan: last 5 minutes of tape.
    let last_min = (trades as i64 / 8) / 60;
    let recent = cube
        .range_sum(&[
            DynamicRange::All,
            DynamicRange::Between(((last_min - 5) * 60).into(), (last_min * 60).into()),
            DynamicRange::All,
        ])
        .unwrap();
    println!("\nmarket volume, last 5 minutes    : {recent}");
    println!("market volume, whole session     : {total}");
    println!("analytics time                   : {:?}", t0.elapsed());
    println!(
        "\ncube: {} populated cells, {} KiB — every query above ran against\n\
         live data with no batch-load window (the paper's §1 thesis).",
        cube.storage().populated_cells(),
        cube.storage().heap_bytes() / 1024
    );
}
