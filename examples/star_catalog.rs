//! Star catalog: the paper's §5 astronomy scenario. Stars are discovered
//! in *any* direction relative to existing systems; the cube grows to suit
//! the data instead of preallocating "all possible locations of star
//! systems in the Universe".
//!
//! ```text
//! cargo run -p ddc-examples --example star_catalog
//! ```

use ddc_core::{DdcConfig, GrowableCube};
use ddc_workload::{clustered_points, random_clusters, rng};

fn main() {
    // 3-D sky cube counting stars per sector; row-sum groups materialize
    // on first update, so empty space costs nothing.
    let mut sky = GrowableCube::<i64>::new(3, DdcConfig::dynamic());
    let mut r = rng(42);

    // Discovery proceeds in surveys, each probing farther out — in every
    // direction, including negative coordinates.
    for survey in 0..5u32 {
        let reach = 50i64 << (2 * survey);
        let clusters = random_clusters(3, 3, reach, (reach as f64 / 30.0).max(1.5), &mut r);
        let stars = clustered_points(&clusters, 400, 1, &mut r);
        for (pos, _) in &stars {
            sky.add(pos, 1); // one star counted at its sector
        }
        println!(
            "survey {survey}: reach ±{reach:<8} covered extent {:>9}  stars {:>5}  heap {:>6} KiB",
            sky.extent()[0],
            sky.total(),
            sky.heap_bytes() / 1024
        );
    }

    // Aggregate astronomy queries over arbitrary sky boxes.
    let hemisphere = sky.range_sum(
        &[0, i64::MIN / 2, i64::MIN / 2],
        &[i64::MAX / 2, i64::MAX / 2, i64::MAX / 2],
    );
    println!("\nstars with x ≥ 0                : {hemisphere}");
    let core = sky.range_sum(&[-100, -100, -100], &[100, 100, 100]);
    println!("stars within ±100 of the origin : {core}");
    println!(
        "densest storage fact: {} populated sectors in a {:.2e}-cell space",
        sky.populated_cells(),
        sky.extent().iter().map(|&e| e as f64).product::<f64>()
    );

    sky.check_invariants();
    println!("\nstructure invariants verified — total {}", sky.total());
}
