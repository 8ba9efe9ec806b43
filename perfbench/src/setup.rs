//! Builds each workload's server the way `ddc serve` builds it, from
//! files and data prepared from the seed.

use crate::workload::{prepopulation, Workload};
use ddc_array::Shape;
use ddc_core::vfs::StdVfs;
use ddc_core::wal::{self, RetryPolicy, WalOp, WalWriter};
use ddc_core::{
    DdcConfig, GrowableCube, PagerConfig, ShardConfig, ShardedCube, SharedDurableCube, WalConfig,
};
use ddc_serve::{
    AdmissionConfig, DurableBackend, ServeBackend, Server, ServerConfig, ShardedBackend,
};
use std::sync::Arc;
use std::time::Instant;

/// The pool cap of `capped-scan`: 2,048 pages of 4 KiB.
pub const MEM_CAP_BYTES: usize = 8 << 20;

/// The cube configuration each workload serves with (`ddc serve`'s
/// choice for that mode).
pub fn cube_config(workload: Workload) -> DdcConfig {
    match workload {
        Workload::MemMixed => DdcConfig::default(),
        Workload::DurableIngest => DdcConfig::dynamic(),
        Workload::CappedScan => DdcConfig::dynamic()
            .with_elision(1)
            .with_paged_leaves(PagerConfig::disk(MEM_CAP_BYTES)),
    }
}

/// `ddc serve`'s defaults: 4 workers, 256 connections, admission off.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        max_connections: 256,
        admission: AdmissionConfig {
            rate_per_sec: 0,
            burst: 256,
            ..AdmissionConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// A handle on the served store, kept beside the server for metrics
/// and the post-run checks.
pub enum Store {
    Mem(Arc<ShardedBackend>),
    Durable(SharedDurableCube<i64, std::fs::File>),
}

impl Store {
    /// The backend `Server::start` receives (before any wrapper).
    pub fn backend(&self) -> Arc<dyn ServeBackend> {
        match self {
            Store::Mem(b) => Arc::clone(b) as Arc<dyn ServeBackend>,
            Store::Durable(c) => Arc::new(DurableBackend::new(c.clone())),
        }
    }
}

/// The prepared inputs of one run.
pub struct Prepared {
    pub workload: Workload,
    pub dir: String,
    /// The cells present before traffic starts.
    pub prepop: Vec<([i64; 2], i64)>,
}

impl Prepared {
    pub fn wal_path(&self) -> String {
        format!("{}/wal.log", self.dir)
    }

    pub fn snapshot_path(&self) -> String {
        format!("{}/snapshot.ddc", self.dir)
    }
}

/// Generates the seed's data and, for the durable workloads, writes the
/// files the server recovers from: a WAL framed in memory and written
/// once (`durable-ingest`), or a snapshot (`capped-scan`).
pub fn prepare(workload: Workload, seed: u64, dir: &str) -> Result<Prepared, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let prepared = Prepared {
        workload,
        dir: dir.to_string(),
        prepop: prepopulation(workload, seed),
    };
    match workload {
        Workload::MemMixed => {}
        Workload::DurableIngest => {
            let mut log = WalWriter::create(Vec::<u8>::new()).map_err(|e| e.to_string())?;
            for (p, delta) in &prepared.prepop {
                log.append(&WalOp::Update {
                    point: p.to_vec(),
                    delta: *delta,
                })
                .map_err(|e| e.to_string())?;
            }
            std::fs::write(prepared.wal_path(), log.into_inner())
                .map_err(|e| format!("cannot write the WAL: {e}"))?;
        }
        Workload::CappedScan => {
            let mut cube = GrowableCube::<i64>::new(2, DdcConfig::dynamic().with_elision(1));
            for (p, delta) in &prepared.prepop {
                cube.add(p, *delta);
            }
            let mut image = Vec::new();
            cube.save(&mut image).map_err(|e| e.to_string())?;
            std::fs::write(prepared.snapshot_path(), image)
                .map_err(|e| format!("cannot write the snapshot: {e}"))?;
        }
    }
    Ok(prepared)
}

/// Recovers the durable cube from the prepared directory, exactly as
/// `ddc serve --durable DIR [--mem-cap BYTES]` does.
pub fn recover(prepared: &Prepared) -> Result<ddc_core::DurableCube<i64, std::fs::File>, String> {
    let (cube, _report) = wal::recover_vfs::<i64, _>(
        &StdVfs,
        &prepared.wal_path(),
        Some(&prepared.snapshot_path()),
        2,
        cube_config(prepared.workload),
        WalConfig::default(),
        RetryPolicy::default(),
    )
    .map_err(|e| format!("cannot recover from {}: {e}", prepared.dir))?;
    Ok(cube)
}

/// One setup: build or recover the store and start the server.
pub struct Setup {
    pub store: Store,
    pub server: Server,
    /// Seconds from the start of construction to a listening server.
    pub setup_s: f64,
    /// Seconds spent in `wal::recover_vfs` (durable workloads).
    pub recover_s: f64,
}

/// Builds the store and starts a server over `wrap(backend)`.
pub fn start(
    prepared: &Prepared,
    wrap: impl FnOnce(Arc<dyn ServeBackend>) -> Arc<dyn ServeBackend>,
) -> Result<Setup, String> {
    let t0 = Instant::now();
    let mut recover_s = 0.0;
    let store = match prepared.workload {
        Workload::MemMixed => {
            let side = prepared.workload.side();
            let cube = ShardedCube::<i64>::new(
                Shape::new(&[side, side]),
                cube_config(prepared.workload),
                ShardConfig::with_shards(4),
            );
            for (p, delta) in &prepared.prepop {
                cube.try_update(&[p[0] as usize, p[1] as usize], *delta)
                    .map_err(|e| format!("pre-population rejected: {e}"))?;
            }
            cube.flush();
            Store::Mem(Arc::new(ShardedBackend::new(cube)))
        }
        Workload::DurableIngest | Workload::CappedScan => {
            let cube = recover(prepared)?;
            recover_s = t0.elapsed().as_secs_f64();
            Store::Durable(SharedDurableCube::from_cube(cube))
        }
    };
    let server = Server::start(wrap(store.backend()), server_config())
        .map_err(|e| format!("cannot start the server: {e}"))?;
    Ok(Setup {
        store,
        server,
        setup_s: t0.elapsed().as_secs_f64(),
        recover_s,
    })
}
