//! `--repeat K`: the steadiness tool. Runs one workload K times, each
//! in its own child process (so `peak_rss_mib` stays per run) with
//! seeds N, N+1, …, and prints each metric's median, quartiles and
//! largest deviation from the median. Bounds in `BENCHMARK.json` come
//! from this measured spread.

use crate::stats::{median, quartiles};
use crate::workload::{CONNECTIONS, WINDOW};
use crate::Args;
use std::process::Command;

/// One run's parsed result line: `correct` and `(name, value, unit)`.
type RunResult = (bool, Vec<(String, f64, String)>);

/// Parses the JSON object this program prints as its last line.
fn parse_result(line: &str) -> Option<RunResult> {
    let correct = line.contains("\"correct\": true");
    let mut rest = &line[line.find("\"metrics\": {")? + 12..];
    let mut metrics = Vec::new();
    while let Some(q) = rest.find('"') {
        rest = &rest[q + 1..];
        let name_end = rest.find('"')?;
        let name = rest[..name_end].to_string();
        let v = rest.find("\"value\": ")? + 9;
        rest = &rest[v..];
        let value: f64 = rest[..rest.find(',')?].trim().parse().ok()?;
        let u = rest.find("\"unit\": \"")? + 9;
        rest = &rest[u..];
        let unit = rest[..rest.find('"')?].to_string();
        rest = &rest[rest.find('}')? + 1..];
        metrics.push((name, value, unit));
    }
    Some((correct, metrics))
}

pub fn run(args: &Args, k: usize) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return 1;
        }
    };
    let name = args.workload.name();
    println!(
        "# steadiness: workload {name}, {k} runs, seeds {}..={}, {} s each, trace {} | nproc {} | \
         {CONNECTIONS} connections, one client thread each, windows of {WINDOW} | flush policy: {}",
        args.seed,
        args.seed + k as u64 - 1,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        args.workload.flush_policy(),
    );
    let mut runs: Vec<RunResult> = Vec::new();
    for i in 0..k as u64 {
        let seed = args.seed + i;
        let out = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &(args.seconds as u64).to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let parsed = out
            .as_ref()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| {
                String::from_utf8_lossy(&o.stdout)
                    .lines()
                    .last()
                    .and_then(parse_result)
            });
        match parsed {
            Some(r) => {
                println!(
                    "# run {} (seed {seed}): correct {}{}",
                    i + 1,
                    r.0,
                    r.1.iter()
                        .map(|(n, v, _)| format!(" {n}={v:.4}"))
                        .collect::<String>()
                );
                runs.push(r);
            }
            None => {
                eprintln!(
                    "perfbench: run {} (seed {seed}) failed: {}",
                    i + 1,
                    match &out {
                        Ok(o) => String::from_utf8_lossy(&o.stderr).into_owned(),
                        Err(e) => e.to_string(),
                    }
                );
                return 1;
            }
        }
    }
    println!(
        "{:<32} {:>14} {:>14} {:>14} {:>9} {:>9}  unit",
        "metric", "q1", "median", "q3", "iqr/med", "maxdev"
    );
    for (j, (name, _, unit)) in runs[0].1.iter().enumerate() {
        let values: Vec<f64> = runs.iter().map(|r| r.1[j].1).collect();
        let med = median(&values);
        let (q1, _, q3) = quartiles(&values);
        let rel = |x: f64| if med == 0.0 { 0.0 } else { x / med.abs() };
        let maxdev = values.iter().map(|v| (v - med).abs()).fold(0.0, f64::max);
        println!(
            "{name:<32} {q1:>14.4} {med:>14.4} {q3:>14.4} {:>9.4} {:>9.4}  {unit}",
            rel(q3 - q1),
            rel(maxdev)
        );
    }
    let all_correct = runs.iter().all(|r| r.0);
    println!("# all runs correct: {all_correct}");
    i32::from(!all_correct)
}
