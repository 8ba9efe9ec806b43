//! Base-store comparison (§4.1): the paper's pointer-based B^c tree at
//! three fanouts versus its implicit blocked layout (a Fenwick summary
//! over dense leaf blocks, the store the DDC uses) on the one-dimensional
//! cumulative workload that forms the DDC's recursion base case.
//!
//! ```text
//! cargo bench -p ddc-bench --features bench-ext --bench bc_vs_fenwick
//! ```

use ddc_bench::timer::{report, time_quick};
use ddc_btree::{BcTree, BlockedBc, CumulativeStore};
use ddc_workload::rng;

const SIZES: [usize; 2] = [1 << 10, 1 << 16];

fn stores(values: &[i64]) -> Vec<(&'static str, Box<dyn CumulativeStore<i64>>)> {
    vec![
        ("bc-f4", Box::new(BcTree::from_values(4, values))),
        ("bc-f16", Box::new(BcTree::from_values(16, values))),
        ("bc-f64", Box::new(BcTree::from_values(64, values))),
        ("blocked", Box::new(BlockedBc::from_values(values))),
    ]
}

fn main() {
    for k in SIZES {
        let values: Vec<i64> = (0..k as i64).map(|i| i % 101 - 50).collect();
        let mut r = rng(17);
        let probes: Vec<usize> = (0..256).map(|_| r.gen_range(0..k)).collect();
        for (label, store) in &stores(&values) {
            let mut i = 0usize;
            let t = time_quick(|| {
                let idx = probes[i % probes.len()];
                i += 1;
                std::hint::black_box(store.prefix(idx));
            });
            report("store_prefix", label, k, &t);
        }
    }

    for k in SIZES {
        let values: Vec<i64> = (0..k as i64).map(|i| i % 101 - 50).collect();
        let mut r = rng(18);
        let probes: Vec<usize> = (0..256).map(|_| r.gen_range(0..k)).collect();
        for (label, store) in stores(&values).iter_mut() {
            let mut i = 0usize;
            let t = time_quick(|| {
                let idx = probes[i % probes.len()];
                i += 1;
                store.add(idx, 1);
            });
            report("store_update", label, k, &t);
        }
    }
}
