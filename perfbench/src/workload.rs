//! The three workloads and the seeded traffic each one sends.
//!
//! Every input the system sees comes from here: the pre-population,
//! the prepared files and the per-connection request streams are all
//! drawn from `DdcRng` streams derived from the `--seed` argument, so
//! one seed always produces the same bytes on the wire.

use ddc_workload::{zipf_index, DdcRng};

/// Client connections, one thread each (sized for a two-vCPU machine).
pub const CONNECTIONS: usize = 2;
/// Requests written per window before the client reads the replies.
pub const WINDOW: usize = 16;

/// A named traffic mix over one serving configuration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// In-memory `ShardedBackend`, 50 % updates.
    MemMixed,
    /// `--durable` backend, 90 % Zipf-skewed updates.
    DurableIngest,
    /// `--durable --mem-cap` backend, 98 % queries over data 4× the pool.
    CappedScan,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MemMixed,
        Workload::DurableIngest,
        Workload::CappedScan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MemMixed => "mem-mixed",
            Workload::DurableIngest => "durable-ingest",
            Workload::CappedScan => "capped-scan",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Side of the square 2-D cube the traffic addresses.
    pub fn side(self) -> usize {
        match self {
            Workload::MemMixed | Workload::DurableIngest => 1024,
            Workload::CappedScan => 2048,
        }
    }

    /// Separates the workloads' random streams under one seed.
    fn salt(self) -> u64 {
        match self {
            Workload::MemMixed => 0x6d65_6d2d,
            Workload::DurableIngest => 0x6475_7261,
            Workload::CappedScan => 0x6361_7070,
        }
    }

    /// The flush policy in force, for the record.
    pub fn flush_policy(self) -> &'static str {
        match self {
            Workload::MemMixed => "none (in-memory; group commit at 128 queued deltas per shard)",
            Workload::DurableIngest | Workload::CappedScan => {
                "one sync_data per acknowledged update"
            }
        }
    }
}

/// A generator for one purpose, derived from the run seed.
pub fn stream_rng(workload: Workload, seed: u64, purpose: u64) -> DdcRng {
    DdcRng::seed_from_u64(
        seed ^ workload.salt().wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ purpose.wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

/// Purpose ids for [`stream_rng`]; connections use `CONN_BASE + c`.
pub const PREPOPULATE: u64 = 1;
pub const CHECK_SAMPLE: u64 = 2;
pub const TRACE_SAMPLE: u64 = 3;
pub const CONN_BASE: u64 = 16;

/// One line-protocol request.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Update { p: [i64; 2], delta: i64 },
    Prefix { p: [i64; 2] },
    Range { lo: [i64; 2], hi: [i64; 2] },
}

impl Op {
    pub fn is_update(&self) -> bool {
        matches!(self, Op::Update { .. })
    }

    /// Appends the request's wire form (`u x,y d`, `p x,y`, `q x,y x,y`).
    pub fn write_wire(&self, out: &mut Vec<u8>) {
        use std::io::Write as _;
        let r = match self {
            Op::Update { p, delta } => writeln!(out, "u {},{} {delta}", p[0], p[1]),
            Op::Prefix { p } => writeln!(out, "p {},{}", p[0], p[1]),
            Op::Range { lo, hi } => writeln!(out, "q {},{} {},{}", lo[0], lo[1], hi[0], hi[1]),
        };
        r.expect("writing to a Vec cannot fail");
    }
}

fn uniform_point(rng: &mut DdcRng, side: usize) -> [i64; 2] {
    [rng.gen_range(0..side) as i64, rng.gen_range(0..side) as i64]
}

fn uniform_box(rng: &mut DdcRng, side: usize) -> ([i64; 2], [i64; 2]) {
    let (a, b) = (uniform_point(rng, side), uniform_point(rng, side));
    (
        [a[0].min(b[0]), a[1].min(b[1])],
        [a[0].max(b[0]), a[1].max(b[1])],
    )
}

fn delta(rng: &mut DdcRng) -> i64 {
    rng.gen_range(1..=99i64)
}

/// A Zipf(θ = 1) cell of the `side × side` cube. The rank is scattered
/// by an odd multiplier (a bijection modulo a power of two), so the hot
/// cells are spread over the cube instead of piled at the origin.
fn zipf_point(rng: &mut DdcRng, side: usize) -> [i64; 2] {
    let cells = side * side;
    debug_assert!(cells.is_power_of_two());
    let rank = zipf_index(cells, 1.0, rng);
    let cell = rank.wrapping_mul(0x9E37_79B1) & (cells - 1);
    [(cell / side) as i64, (cell % side) as i64]
}

/// The request stream of one connection.
pub struct OpStream {
    workload: Workload,
    rng: DdcRng,
}

impl OpStream {
    pub fn new(workload: Workload, seed: u64, conn: usize) -> Self {
        Self {
            workload,
            rng: stream_rng(workload, seed, CONN_BASE + conn as u64),
        }
    }

    pub fn next_op(&mut self) -> Op {
        let side = self.workload.side();
        let rng = &mut self.rng;
        // Percent thresholds: updates below `u`, prefix queries below
        // `p`, range queries above.
        let (u, p) = match self.workload {
            Workload::MemMixed => (50, 75),
            Workload::DurableIngest => (90, 95),
            Workload::CappedScan => (2, 51),
        };
        let roll = rng.gen_range(0..100usize);
        if roll < u {
            let p = match self.workload {
                Workload::DurableIngest => zipf_point(rng, side),
                Workload::MemMixed | Workload::CappedScan => uniform_point(rng, side),
            };
            Op::Update {
                p,
                delta: delta(rng),
            }
        } else if roll < p {
            Op::Prefix {
                p: uniform_point(rng, side),
            }
        } else {
            let (lo, hi) = uniform_box(rng, side);
            Op::Range { lo, hi }
        }
    }
}

/// The data present before traffic starts, as `(point, delta)` pairs.
///
/// * `mem-mixed`: 10^5 uniform points, applied through the cube's
///   update path at setup.
/// * `durable-ingest`: 10^5 records with the traffic's Zipf skew,
///   framed into the WAL the setup replays.
/// * `capped-scan`: one cell per 4×4 leaf block (262,144 cells), at a
///   seeded offset inside the block, written as the snapshot the setup
///   loads.
pub fn prepopulation(workload: Workload, seed: u64) -> Vec<([i64; 2], i64)> {
    let mut rng = stream_rng(workload, seed, PREPOPULATE);
    let side = workload.side();
    match workload {
        Workload::MemMixed => (0..100_000)
            .map(|_| (uniform_point(&mut rng, side), delta(&mut rng)))
            .collect(),
        Workload::DurableIngest => (0..100_000)
            .map(|_| (zipf_point(&mut rng, side), delta(&mut rng)))
            .collect(),
        Workload::CappedScan => {
            let blocks = side / 4;
            let mut cells = Vec::with_capacity(blocks * blocks);
            for bx in 0..blocks {
                for by in 0..blocks {
                    let p = [
                        (bx * 4 + rng.gen_range(0..4usize)) as i64,
                        (by * 4 + rng.gen_range(0..4usize)) as i64,
                    ];
                    cells.push((p, delta(&mut rng)));
                }
            }
            cells
        }
    }
}
