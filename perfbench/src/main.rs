//! `perfbench`: the repository's serving benchmark.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--repeat K]
//! ```
//!
//! One run prepares the workload's inputs from `--seed`, builds the
//! server the way `ddc serve` builds it for that configuration, drives
//! it over TCP with a closed loop of two connections for `--seconds`,
//! then checks every answer it can against an oracle of acknowledged
//! updates (and, for the durable workloads, against a cube recovered
//! from the run's files). `--trace 0` reports the end-to-end metrics;
//! `--trace 1` reports the per-layer metrics. The last line of stdout
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! `--repeat K` runs the same workload K times in child processes
//! (seeds N, N+1, …) and prints each metric's median, quartiles and
//! largest deviation from the median. See `perfbench/README.md`.

mod client;
mod layers;
mod oracle;
mod setup;
mod stats;
mod steady;
mod trace;
mod workload;

use crate::client::Traffic;
use crate::setup::{Prepared, Setup, Store};
use crate::stats::{median, obs_delta, obs_snapshot, p50_us, ratio};
use crate::trace::TracedBackend;
use crate::workload::{Workload, CONNECTIONS, WINDOW};
use ddc_core::{obs, PoolStats};
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str =
    "usage: perfbench --workload mem-mixed|durable-ingest|capped-scan [--seed N] [--seconds S] \
     [--trace 0|1] [--repeat K]";

/// Slices of the measured time. Slice 0 is an extra warm-up slice of
/// the same length that no metric counts; of the measured slices
/// `1..=SLICES`, a traced run traces the even ones.
const SLICES: usize = 30;

fn measured(k: usize) -> bool {
    k >= 1
}

fn traced_slice(k: usize) -> bool {
    measured(k) && k & 1 == 0
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<Option<&String>, String> {
        match args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => args
                .get(i + 1)
                .map(Some)
                .ok_or_else(|| format!("{flag} needs a value")),
        }
    };
    for a in args.iter().filter(|a| a.starts_with("--")) {
        if !["--workload", "--seed", "--seconds", "--trace", "--repeat"].contains(&a.as_str()) {
            return Err(format!("unknown flag {a}"));
        }
    }
    let name = value("--workload")?.ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let num = |flag: &str, default: u64| -> Result<u64, String> {
        value(flag)?.map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag}: not a whole number: {v:?}"))
        })
    };
    let seconds = num("--seconds", 10)?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    let trace = match num("--trace", 0)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let repeat = match value("--repeat")? {
        None => None,
        Some(_) => Some(num("--repeat", 0)? as usize).filter(|&k| k >= 1),
    };
    if value("--repeat")?.is_some() && repeat.is_none() {
        return Err("--repeat must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed", 1)?,
        seconds: seconds as f64,
        trace,
        repeat,
    })
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    notes: Vec<String>,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(k) = args.repeat {
        std::process::exit(steady::run(&args, k));
    }
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&outcome));
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// The run's scratch directory under the working directory, removed
/// when the run ends.
struct WorkDir(String);

impl WorkDir {
    fn create(workload: Workload) -> Result<Self, String> {
        let dir = format!(".bench_work/{}-{}", workload.name(), std::process::id());
        std::fs::create_dir_all(format!("{dir}/tmp"))
            .map_err(|e| format!("cannot create {dir}: {e}"))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_work` itself only if other runs still use it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Counters read before and after the measured window.
struct Gauges {
    shard: (u64, u64, u64),
    pool: Option<PoolStats>,
    wal_bytes: u64,
}

fn gauges(store: &Store) -> Gauges {
    match store {
        Store::Mem(b) => {
            let m = b.cube().metrics();
            Gauges {
                shard: (
                    m.iter().map(|s| s.ops_applied).sum(),
                    m.iter().map(|s| s.batches_flushed).sum(),
                    m.iter().map(|s| s.lock_hold_nanos).sum(),
                ),
                pool: None,
                wal_bytes: 0,
            }
        }
        Store::Durable(c) => Gauges {
            shard: (0, 0, 0),
            pool: c.pool_stats(),
            wal_bytes: c.wal_stats().0,
        },
    }
}

const OBS_HISTOGRAMS: [&str; 6] = [
    "shard.queue_wait",
    "shard.commit",
    "wal.append",
    "wal.fsync",
    "engine.prefix_sum.dynamic_ddc",
    "engine.update.dynamic_ddc",
];

fn run(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let work = WorkDir::create(workload)?;
    // The pager's spill file goes to the temp dir: keep it in the run's
    // own directory. No other thread is running yet.
    std::env::set_var("TMPDIR", format!("{}/tmp", work.0));
    // `ddc serve`'s defaults: latency histograms on, trace ring off.
    obs::set_timing_enabled(true);
    obs::set_trace_enabled(false);

    let prepared = setup::prepare(workload, args.seed, &format!("{}/data", work.0))?;
    // Setup time is the median of several setups; the traced run needs
    // only one (it reports no setup time).
    let setups = if args.trace { 1 } else { 7 };
    let mut traced: Option<Arc<TracedBackend>> = None;
    let (mut setup_s, mut recover_s) = (Vec::new(), Vec::new());
    let mut live: Option<Setup> = None;
    for i in 0..setups {
        let s = setup::start(&prepared, |b| {
            if args.trace {
                let t = Arc::new(TracedBackend::new(b));
                traced = Some(Arc::clone(&t));
                t
            } else {
                b
            }
        })?;
        setup_s.push(s.setup_s);
        recover_s.push(s.recover_s);
        if i + 1 < setups {
            s.server.shutdown();
        } else {
            live = Some(s);
        }
    }
    let Setup { store, server, .. } = live.expect("at least one setup");

    let before: Vec<_> = OBS_HISTOGRAMS.iter().map(|n| obs_snapshot(n)).collect();
    let g0 = gauges(&store);
    let t0 = Instant::now();
    let trace_slice = |k: usize| args.trace && traced_slice(k);
    let traffic = client::drive(
        server.local_addr(),
        workload,
        args.seed,
        args.seconds / SLICES as f64,
        SLICES + 1,
        &trace_slice,
        &|k| {
            if let Some(t) = &traced {
                t.set_on(trace_slice(k));
            }
        },
    );
    let wall_s = t0.elapsed().as_secs_f64();
    let g1 = gauges(&store);
    let delta: Vec<_> = OBS_HISTOGRAMS
        .iter()
        .zip(&before)
        .map(|(n, b)| obs_delta(n, b))
        .collect();
    let peak_rss_mib = stats::peak_rss_mib();
    let node_heap_mib = match &store {
        Store::Durable(c) => c.with_cube(|d| {
            let resident = d.pool_stats().map_or(0, |p| p.resident_bytes());
            d.cube().heap_bytes().saturating_sub(resident) as f64 / (1 << 20) as f64
        }),
        Store::Mem(_) => 0.0,
    };
    let backend = store.backend();
    backend.flush();
    server.shutdown();

    let mut notes = vec![format!(
        "workload {} seed {} seconds {} trace {} | nproc {} | {} connections, one client thread each, \
         windows of {} | flush policy: {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        CONNECTIONS,
        WINDOW,
        workload.flush_policy()
    )];
    notes.push(format!(
        "ops/s per slice (slice 0 is warm-up): {}",
        (0..=SLICES)
            .map(|k| format!("{:.0}", traffic.ops_per_s(|s| s == k)))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    notes.push(format!(
        "setup seconds: {}",
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let mut correct = true;
    let mut failed = traffic.failed();
    for (c, res) in traffic.conns.iter().enumerate() {
        if let Some(e) = &res.first_error {
            notes.push(format!("connection {c}: first failure: {e}"));
        }
    }

    // Correctness: the served state, then (durable) a cold restart.
    let oracle = oracle::Oracle::build(workload, args.seed, &prepared.prepop, &traffic);
    let sample = oracle::sample(workload, args.seed);
    let wrong = oracle::check(&oracle, &sample, backend.as_ref());
    notes.push(format!(
        "oracle: {} of {} sampled sums (grand total included) match",
        sample.len() - wrong.len(),
        sample.len()
    ));
    correct &= wrong.is_empty();
    failed += wrong.len() as u64;
    notes.extend(wrong.iter().take(5).map(|w| format!("wrong answer: {w}")));

    let spans = traced.as_ref().map(|t| t.take());
    drop((traced, backend, store));
    if matches!(workload, Workload::DurableIngest | Workload::CappedScan) {
        let (wrong, note) = restart_check(&prepared, &oracle, &sample)?;
        correct &= wrong.is_empty();
        failed += wrong.len() as u64;
        notes.push(note);
        notes.extend(
            wrong
                .iter()
                .take(5)
                .map(|w| format!("wrong after restart: {w}")),
        );
    }
    drop(oracle);

    let metrics = if args.trace {
        let spans = spans.expect("traced run keeps its spans");
        let joined = trace::join(
            &traffic
                .conns
                .iter()
                .map(|c| c.traced.clone())
                .collect::<Vec<_>>(),
            &spans,
        );
        let joined = match joined {
            Ok(j) => j,
            Err(e) => {
                correct = false;
                notes.push(format!("span join failed: {e}"));
                Vec::new()
            }
        };
        per_layer(
            args,
            &prepared,
            &traffic,
            &joined,
            &delta,
            (&g0, &g1),
            wall_s,
            median(&recover_s),
            node_heap_mib,
            &mut notes,
        )
    } else {
        end_to_end(&traffic, median(&setup_s), peak_rss_mib, &mut notes)
    };
    Ok(Outcome {
        correct,
        attempted: traffic.attempted(),
        failed,
        metrics,
        notes,
    })
}

/// Recovers a fresh cube from the run's files only and asks it the
/// same sample: every acknowledged update must survive a restart.
fn restart_check(
    prepared: &Prepared,
    oracle: &oracle::Oracle,
    sample: &[workload::Op],
) -> Result<(Vec<String>, String), String> {
    let t = Instant::now();
    let cube = setup::recover(prepared)?;
    let backend = ddc_serve::DurableBackend::new(ddc_core::SharedDurableCube::from_cube(cube));
    let wrong = oracle::check(oracle, sample, &backend);
    let note = format!(
        "restart: cube recovered from the run's files in {:.3} s; {} of {} sampled sums match",
        t.elapsed().as_secs_f64(),
        sample.len() - wrong.len(),
        sample.len()
    );
    Ok((wrong, note))
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Each figure is taken per measured slice and reported as the median
/// over the slices, so a burst of stolen CPU or a slow disk in a few
/// slices cannot move it. p99 is printed beside the metrics but not
/// bounded: on a shared two-vCPU virtual machine its run-to-run spread is too
/// wide (see README.md).
fn end_to_end(
    traffic: &Traffic,
    setup_s: f64,
    peak_rss_mib: f64,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let slices: Vec<_> = (1..=SLICES).map(|k| (k, traffic.slice(k))).collect();
    let per_slice = |f: &dyn Fn(usize, &client::SliceStats) -> f64| -> f64 {
        median(&slices.iter().map(|(k, s)| f(*k, s)).collect::<Vec<_>>())
    };
    let q = |s: &client::SliceStats, update: bool, p: f64| {
        let h = if update { &s.update_lat } else { &s.query_lat };
        h.quantile(p) / 1e3
    };
    notes.push(format!(
        "per-slice samples (median): {} queries, {} updates; unbounded p99: query {:.1} us, \
         update {:.1} us",
        per_slice(&|_, s| s.query_lat.count() as f64),
        per_slice(&|_, s| s.update_lat.count() as f64),
        per_slice(&|_, s| q(s, false, 0.99)),
        per_slice(&|_, s| q(s, true, 0.99)),
    ));
    vec![
        m(
            "ops_per_s",
            per_slice(&|k, _| traffic.ops_per_s(|s| s == k)),
            "1/s",
        ),
        m("query_p50_us", per_slice(&|_, s| q(s, false, 0.50)), "us"),
        m("query_p90_us", per_slice(&|_, s| q(s, false, 0.90)), "us"),
        m("update_p50_us", per_slice(&|_, s| q(s, true, 0.50)), "us"),
        m("update_p90_us", per_slice(&|_, s| q(s, true, 0.90)), "us"),
        m("setup_s", setup_s, "s"),
        m("peak_rss_mib", peak_rss_mib, "MiB"),
    ]
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    args: &Args,
    prepared: &Prepared,
    traffic: &Traffic,
    joined: &[trace::Joined],
    hists: &[ddc_core::obs::HistogramSnapshot],
    (g0, g1): (&Gauges, &Gauges),
    wall_s: f64,
    recover_s: f64,
    node_heap_mib: f64,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let workload = args.workload;
    let [queue_wait, commit, append, fsync, engine_prefix, engine_update] = hists else {
        unreachable!("one delta per OBS_HISTOGRAMS entry")
    };
    let span_p50 = |f: &dyn Fn(&trace::Joined) -> Option<u64>| -> f64 {
        let v: Vec<f64> = joined
            .iter()
            .filter_map(f)
            .map(|ns| ns as f64 / 1e3)
            .collect();
        median(&v)
    };
    let acked_updates = traffic.acked_updates() as f64;
    let acked_ops = traffic.acked() as f64;
    let pool = g0.pool.zip(g1.pool);
    let pool_delta =
        |f: fn(&PoolStats) -> u64| pool.as_ref().map_or(0, |(a, b)| f(b) - f(a)) as f64;
    let (hits, misses) = (pool_delta(|p| p.hits), pool_delta(|p| p.misses));

    // Single-threaded replays of the run's first requests.
    let windows = match workload {
        Workload::MemMixed | Workload::DurableIngest => 2000,
        Workload::CappedScan => 1000,
    };
    let ops = layers::replay_ops(workload, args.seed, windows);
    let wire = layers::wire_cost(&ops);
    let config = setup::cube_config(workload);
    let mut tree = layers::twin(workload, config, &prepared.prepop);
    let shape = layers::shape(workload, args.seed, &tree);
    let cost = layers::replay(&mut tree, &ops);
    drop(tree);
    let time_share = if workload == Workload::CappedScan {
        let mut flat = layers::twin(workload, layers::unpaged(workload), &prepared.prepop);
        let flat_cost = layers::replay(&mut flat, &ops);
        1.0 - ratio(flat_cost.total_s, cost.total_s)
    } else {
        0.0
    };
    let model = ddc_costmodel::complexity::ddc_2d_cost(workload.side() as f64);
    notes.push(format!(
        "exact counts (twin tree, {} replayed requests): {} reads per prefix, {} touched per update; \
         ddc_2d_cost(n = {}) = {model}",
        ops.len(),
        cost.reads_per_prefix,
        cost.touched_per_update,
        workload.side()
    ));
    notes.push(format!(
        "trace_prefix over 1000 sampled points: {} descents, {} row sums, {} leaf cells per prefix",
        shape.descend_per_prefix, shape.rowsum_per_prefix, shape.leaf_cells_per_prefix
    ));
    if joined.is_empty() {
        notes.push("no joined spans".to_string());
    }

    vec![
        m("serve.http.parse_ns", wire.parse_ns, "ns"),
        m("serve.protocol.decode_ns", wire.decode_ns, "ns"),
        m("serve.admission.admit_ns", wire.admit_ns, "ns"),
        m(
            "serve.backend.update_us_p50",
            span_p50(&|j| j.update.then_some(j.backend_ns)),
            "us",
        ),
        m(
            "serve.backend.query_us_p50",
            span_p50(&|j| (!j.update).then_some(j.backend_ns)),
            "us",
        ),
        m(
            "serve.client_us_p50",
            span_p50(&|j| Some(j.client_ns)),
            "us",
        ),
        m(
            "serve.residual_us_p50",
            span_p50(&|j| Some(j.client_ns - j.backend_ns)),
            "us",
        ),
        m("shard.queue_wait_us_p50", p50_us(queue_wait), "us"),
        m("shard.commit_us_p50", p50_us(commit), "us"),
        m(
            "shard.updates_per_commit",
            ratio(
                (g1.shard.0 - g0.shard.0) as f64,
                (g1.shard.1 - g0.shard.1) as f64,
            ),
            "count",
        ),
        m(
            "shard.lock_hold_frac",
            ratio((g1.shard.2 - g0.shard.2) as f64 / 1e9, wall_s),
            "frac",
        ),
        m("wal.append_us_p50", p50_us(append), "us"),
        m("wal.fsync_us_p50", p50_us(fsync), "us"),
        m(
            "wal.syncs_per_update",
            ratio(fsync.count as f64, acked_updates),
            "count",
        ),
        m(
            "wal.bytes_per_update",
            ratio((g1.wal_bytes - g0.wal_bytes) as f64, acked_updates),
            "B",
        ),
        m("wal.recover_s", recover_s, "s"),
        m("tree.prefix_ns", cost.prefix_ns, "ns"),
        m("tree.range_ns", cost.range_ns, "ns"),
        m("tree.update_ns", cost.update_ns, "ns"),
        m("engine.prefix_us_p50", p50_us(engine_prefix), "us"),
        m("engine.update_us_p50", p50_us(engine_update), "us"),
        m("tree.reads_per_prefix", cost.reads_per_prefix, "count"),
        m("tree.touched_per_update", cost.touched_per_update, "count"),
        m("costmodel.ddc_2d_cost", model, "count"),
        m("tree.descend_per_prefix", shape.descend_per_prefix, "count"),
        m("tree.rowsum_per_prefix", shape.rowsum_per_prefix, "count"),
        m(
            "tree.leaf_cells_per_prefix",
            shape.leaf_cells_per_prefix,
            "count",
        ),
        m("tree.bytes_per_cell", shape.bytes_per_cell, "B"),
        m("pager.hit_frac", ratio(hits, hits + misses), "frac"),
        m("pager.misses_per_op", ratio(misses, acked_ops), "count"),
        m(
            "pager.write_backs_per_op",
            ratio(pool_delta(|p| p.write_backs), acked_ops),
            "count",
        ),
        m(
            "pager.barrier_stalls",
            pool_delta(|p| p.barrier_stalls),
            "count",
        ),
        m(
            "pager.stall_rounds",
            pool_delta(|p| p.stall_rounds),
            "count",
        ),
        m("pager.io_retries", pool_delta(|p| p.io_retries), "count"),
        m("pager.time_share", time_share, "frac"),
        m("store.node_heap_mib", node_heap_mib, "MiB"),
        m(
            "obs.trace_overhead_frac",
            1.0 - ratio(
                traffic.ops_per_s(traced_slice),
                traffic.ops_per_s(|k| measured(k) && !traced_slice(k)),
            ),
            "frac",
        ),
    ]
}
