//! EOSDIS-style environmental grid: the paper's §5 clustered-data
//! scenario. Methane production is concentrated around agricultural and
//! industrial centers; oceans are empty; new point sources appear when
//! "new cattle ranches or factories come on-line in previously
//! undeveloped areas". Scientists ask for aggregates over arbitrary
//! regions of the globe.
//!
//! ```text
//! cargo run -p ddc-examples --example eosdis_grid
//! ```

use ddc_core::{DdcConfig, GrowableCube};
use ddc_workload::{clustered_points, random_clusters, rng};

fn main() {
    // 2-D grid: 0.01-degree cells, longitude ∈ [-18000, 18000),
    // latitude ∈ [-9000, 9000). Measure: methane production units.
    let mut grid = GrowableCube::<i64>::new(2, DdcConfig::dynamic());
    let mut r = rng(7);

    // Industrial/agricultural centers: tight clusters on the populated
    // fraction of the grid.
    let centers = random_clusters(2, 12, 8000, 40.0, &mut r);
    let readings = clustered_points(&centers, 20_000, 50, &mut r);
    for (pos, units) in &readings {
        grid.add(pos, *units);
    }

    println!(
        "ingested {} readings around {} centers",
        readings.len(),
        centers.len()
    );
    println!("populated cells : {}", grid.populated_cells());
    println!(
        "covered space   : {:.2e} cells",
        grid.extent().iter().map(|&e| e as f64).product::<f64>()
    );
    println!("heap            : {} KiB", grid.heap_bytes() / 1024);

    // Regional aggregates: any rectangle of the globe, O(log² n) each.
    let global = grid.range_sum(&[-18000, -9000], &[17999, 8999]);
    println!("\nglobal production                : {global}");
    for (name, lo, hi) in [
        ("north-east quadrant", [0i64, 0i64], [17999i64, 8999i64]),
        ("equatorial band ±500", [-18000, -500], [17999, 500]),
        ("one degree at origin", [-50, -50], [49, 49]),
    ] {
        println!("{name:<32} : {}", grid.range_sum(&lo, &hi));
    }

    // A new factory comes on-line in a previously undeveloped area —
    // a single O(log² n) update, no restructuring:
    let before = grid.heap_bytes();
    grid.add(&[-17990, 8990], 35);
    println!(
        "\nnew point source added; heap grew by only {} KiB",
        (grid.heap_bytes() - before) / 1024
    );
    assert_eq!(grid.range_sum(&[-18000, 8900], &[-17900, 8999]), 35);
    grid.check_invariants();
    println!("invariants verified — total {}", grid.total());
}
