//! The post-run correctness check.
//!
//! Updates commute, so the final state does not depend on how the two
//! connections interleaved: it is the pre-population plus every
//! acknowledged delta. The oracle regenerates each connection's stream
//! up to the number of requests it sent, skips the ones that were not
//! acknowledged, and answers range sums from a dense 2-D prefix table.

use crate::client::Traffic;
use crate::workload::{stream_rng, Op, OpStream, Workload, CHECK_SAMPLE};
use ddc_serve::ServeBackend;

pub struct Oracle {
    side: usize,
    /// `(side + 1)²` inclusive prefix sums, row-major, with a zero
    /// border.
    prefix: Vec<i64>,
}

impl Oracle {
    pub fn build(
        workload: Workload,
        seed: u64,
        prepop: &[([i64; 2], i64)],
        traffic: &Traffic,
    ) -> Self {
        let side = workload.side();
        let w = side + 1;
        let mut prefix = vec![0i64; w * w];
        let mut add = |p: [i64; 2], d: i64| {
            prefix[(p[0] as usize + 1) * w + p[1] as usize + 1] += d;
        };
        for &(p, d) in prepop {
            add(p, d);
        }
        for (conn, res) in traffic.conns.iter().enumerate() {
            let mut failed = res.failed.clone();
            failed.sort_unstable();
            let mut stream = OpStream::new(workload, seed, conn);
            for seq in 0..res.sent {
                let op = stream.next_op();
                if let Op::Update { p, delta } = op {
                    if failed.binary_search(&seq).is_err() {
                        add(p, delta);
                    }
                }
            }
        }
        for x in 1..w {
            for y in 1..w {
                prefix[x * w + y] +=
                    prefix[(x - 1) * w + y] + prefix[x * w + y - 1] - prefix[(x - 1) * w + y - 1];
            }
        }
        Self { side, prefix }
    }

    fn at(&self, x: i64, y: i64) -> i64 {
        // Coordinates are inclusive; -1 reads the zero border.
        self.prefix[(x + 1) as usize * (self.side + 1) + (y + 1) as usize]
    }

    pub fn range(&self, lo: [i64; 2], hi: [i64; 2]) -> i64 {
        self.at(hi[0], hi[1]) - self.at(lo[0] - 1, hi[1]) - self.at(hi[0], lo[1] - 1)
            + self.at(lo[0] - 1, lo[1] - 1)
    }
}

/// The seeded sample the check asks: the grand total, 64 prefix sums
/// and 256 range sums.
pub fn sample(workload: Workload, seed: u64) -> Vec<Op> {
    let side = workload.side() as i64;
    let mut rng = stream_rng(workload, seed, CHECK_SAMPLE);
    let point = |rng: &mut ddc_workload::DdcRng| [rng.gen_range(0..side), rng.gen_range(0..side)];
    let mut ops = vec![Op::Range {
        lo: [0, 0],
        hi: [side - 1, side - 1],
    }];
    for _ in 0..64 {
        ops.push(Op::Prefix { p: point(&mut rng) });
    }
    for _ in 0..256 {
        let (a, b) = (point(&mut rng), point(&mut rng));
        ops.push(Op::Range {
            lo: [a[0].min(b[0]), a[1].min(b[1])],
            hi: [a[0].max(b[0]), a[1].max(b[1])],
        });
    }
    ops
}

/// Asks `backend` every sampled query; returns the wrong answers.
pub fn check(oracle: &Oracle, ops: &[Op], backend: &dyn ServeBackend) -> Vec<String> {
    let mut wrong = Vec::new();
    for op in ops {
        let (want, got) = match *op {
            Op::Prefix { p } => (oracle.range([0, 0], p), backend.prefix(&p)),
            Op::Range { lo, hi } => (oracle.range(lo, hi), backend.query(&lo, &hi)),
            Op::Update { .. } => continue,
        };
        if got.as_ref() != Ok(&want) {
            wrong.push(format!("{op:?}: expected {want}, got {got:?}"));
        }
    }
    wrong
}
