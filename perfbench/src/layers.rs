//! Single-threaded replays that time one layer at a time through its
//! public functions, and the exact counts of the paper's cost measure.

use crate::setup::{cube_config, server_config};
use crate::stats::{median, ratio, LatHist};
use crate::workload::{stream_rng, Op, OpStream, Workload, CONNECTIONS, TRACE_SAMPLE, WINDOW};
use ddc_array::Region;
use ddc_core::{Contribution, DdcConfig, DdcTree, LeafBackend};
use ddc_serve::{protocol, Admission, Frame, RequestParser};
use std::hint::black_box;
use std::time::Instant;

/// The first `windows` windows of every connection, interleaved window
/// by window: the traffic the run itself sent first.
pub fn replay_ops(workload: Workload, seed: u64, windows: usize) -> Vec<Op> {
    let mut streams: Vec<OpStream> = (0..CONNECTIONS)
        .map(|c| OpStream::new(workload, seed, c))
        .collect();
    let mut ops = Vec::with_capacity(windows * CONNECTIONS * WINDOW);
    for _ in 0..windows {
        for s in streams.iter_mut() {
            ops.extend((0..WINDOW).map(|_| s.next_op()));
        }
    }
    ops
}

/// Per-request cost of the wire layers, in nanoseconds: parse
/// (`RequestParser::feed` + `poll`), decode (`protocol::decode`) and
/// admission (`Admission::admit` under the server's policy). Each is
/// the median of three passes over the same bytes.
pub struct WireCost {
    pub parse_ns: f64,
    pub decode_ns: f64,
    pub admit_ns: f64,
}

pub fn wire_cost(ops: &[Op]) -> WireCost {
    let windows: Vec<Vec<u8>> = ops
        .chunks(WINDOW)
        .map(|w| {
            let mut wire = Vec::new();
            for op in w {
                op.write_wire(&mut wire);
            }
            wire
        })
        .collect();
    let n = ops.len() as f64;
    let config = server_config();
    let mut frames: Vec<Frame> = Vec::with_capacity(ops.len());
    let mut parse = Vec::new();
    for pass in 0..3 {
        let mut parser = RequestParser::new(config.parser);
        let t = Instant::now();
        for wire in &windows {
            parser.feed(wire);
            while let Some(frame) = parser.poll().expect("generated wire parses") {
                if pass == 0 {
                    frames.push(frame);
                } else {
                    black_box(frame);
                }
            }
        }
        parse.push(t.elapsed().as_nanos() as f64 / n);
    }
    assert_eq!(frames.len(), ops.len(), "one frame per request");
    let decode: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for f in &frames {
                black_box(protocol::decode(black_box(f)).expect("generated frames decode"));
            }
            t.elapsed().as_nanos() as f64 / n
        })
        .collect();
    let admit: Vec<f64> = (0..3)
        .map(|_| {
            let admission = Admission::new(config.admission);
            let epoch = Instant::now();
            let t = Instant::now();
            for _ in 0..ops.len() {
                let now = epoch.elapsed().as_nanos() as u64;
                black_box(admission.admit(black_box("default"), now));
            }
            t.elapsed().as_nanos() as f64 / n
        })
        .collect();
    WireCost {
        parse_ns: median(&parse),
        decode_ns: median(&decode),
        admit_ns: median(&admit),
    }
}

/// A tree with the workload's config and pre-population.
pub fn twin(workload: Workload, config: DdcConfig, prepop: &[([i64; 2], i64)]) -> DdcTree<i64> {
    let mut tree = DdcTree::<i64>::new(2, workload.side(), config);
    tree.enable_paging().expect("paging a twin tree");
    for &(p, d) in prepop {
        tree.apply_delta(&[p[0] as usize, p[1] as usize], d);
    }
    tree
}

/// What a replay on a twin tree measured.
pub struct TreeCost {
    pub prefix_ns: f64,
    pub range_ns: f64,
    pub update_ns: f64,
    /// Stored values read per prefix query (exact).
    pub reads_per_prefix: f64,
    /// Stored values read or written per update (exact).
    pub touched_per_update: f64,
    /// Wall seconds of the whole replay.
    pub total_s: f64,
}

fn range_sum(tree: &DdcTree<i64>, lo: [i64; 2], hi: [i64; 2]) -> i64 {
    let region = Region::new(
        &[lo[0] as usize, lo[1] as usize],
        &[hi[0] as usize, hi[1] as usize],
    );
    region
        .prefix_decomposition()
        .iter()
        .map(|t| i64::from(t.sign) * tree.prefix_sum(&t.corner))
        .sum()
}

/// Replays `ops` on `tree`, timing each call and counting the stored
/// values it touched.
pub fn replay(tree: &mut DdcTree<i64>, ops: &[Op]) -> TreeCost {
    let (mut prefix, mut range, mut update) =
        (LatHist::default(), LatHist::default(), LatHist::default());
    let (mut prefix_reads, mut update_touched) = (0u64, 0u64);
    let started = Instant::now();
    for op in ops {
        let before = tree.ops();
        let t = Instant::now();
        match *op {
            Op::Prefix { p } => {
                black_box(tree.prefix_sum(&[p[0] as usize, p[1] as usize]));
                prefix.record(t.elapsed().as_nanos() as u64);
                prefix_reads += (tree.ops() - before).reads;
            }
            Op::Range { lo, hi } => {
                black_box(range_sum(tree, lo, hi));
                range.record(t.elapsed().as_nanos() as u64);
            }
            Op::Update { p, delta } => {
                tree.apply_delta(&[p[0] as usize, p[1] as usize], delta);
                update.record(t.elapsed().as_nanos() as u64);
                update_touched += (tree.ops() - before).touched();
            }
        }
    }
    TreeCost {
        prefix_ns: prefix.quantile(0.5),
        range_ns: range.quantile(0.5),
        update_ns: update.quantile(0.5),
        reads_per_prefix: ratio(prefix_reads as f64, prefix.count() as f64),
        touched_per_update: ratio(update_touched as f64, update.count() as f64),
        total_s: started.elapsed().as_secs_f64(),
    }
}

/// Where prefix queries find their answer (`DdcTree::trace_prefix`),
/// per query, and the tree's bytes per populated cell.
pub struct Shape {
    pub descend_per_prefix: f64,
    pub rowsum_per_prefix: f64,
    pub leaf_cells_per_prefix: f64,
    pub bytes_per_cell: f64,
}

pub fn shape(workload: Workload, seed: u64, tree: &DdcTree<i64>) -> Shape {
    let mut rng = stream_rng(workload, seed, TRACE_SAMPLE);
    let side = workload.side();
    let queries = 1000;
    let (mut descend, mut rowsum, mut leaf) = (0usize, 0usize, 0usize);
    for _ in 0..queries {
        let x = [rng.gen_range(0..side), rng.gen_range(0..side)];
        for step in tree.trace_prefix(&x) {
            match step.kind {
                Contribution::Descend => descend += 1,
                Contribution::RowSum { .. } => rowsum += 1,
                Contribution::LeafCells { cells } => leaf += cells,
                Contribution::Subtotal => {}
            }
        }
    }
    let q = queries as f64;
    Shape {
        descend_per_prefix: descend as f64 / q,
        rowsum_per_prefix: rowsum as f64 / q,
        leaf_cells_per_prefix: leaf as f64 / q,
        bytes_per_cell: ratio(
            tree.stats().total_bytes as f64,
            tree.populated_cells() as f64,
        ),
    }
}

/// The workload's config with the leaves kept in memory: the unpaged
/// twin `pager.time_share` compares against.
pub fn unpaged(workload: Workload) -> DdcConfig {
    DdcConfig {
        leaf_backend: LeafBackend::Mem,
        ..cube_config(workload)
    }
}
