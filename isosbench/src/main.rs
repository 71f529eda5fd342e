//! End-to-end benchmark of the ISOSceles reproduction's user surfaces.
//!
//! ```text
//! isosbench --workload serve-cold|serve-warm|stream-batch|dse-sweep
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! One process, one client thread, one loopback connection drives the
//! release `serve` binary (or runs `dse` as one child per op). Each run
//! sends a fixed number of ops per workload, their seeds derived from
//! `--seed`, into a fresh cache directory, then checks every reply against an
//! in-process reference. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` additionally replays the same ops in-process, timing the
//! calls into each layer, and prints the per-layer metrics. The last
//! stdout line is the result object; the line before it is the run's
//! health record. See `README.md`.

mod drive;
mod host;
mod measure;
mod ops;
mod replay;
mod stats;
mod verify;

use serde::json::Value;

use crate::measure::{measure, Measured, RunDir, KEPT_ROUNDS, ROUNDS};
use crate::ops::Workload;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(error: &str) -> String {
    format!(
        "{error}\nusage: isosbench --workload serve-cold|serve-warm|stream-batch|dse-sweep \
         --seed N --seconds S --trace 0|1"
    )
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| usage(&format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| usage(&format!("unknown workload {value}")))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| usage("--seed needs an integer"))?,
                )
            }
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if s >= 1 => seconds = Some(s),
                _ => return Err(usage("--seconds needs an integer >= 1")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(usage("--trace takes 0 or 1")),
            },
            other => return Err(usage(&format!("unknown flag {other}"))),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| usage("--workload is required"))?,
        seed: seed.ok_or_else(|| usage("--seed is required"))?,
        seconds: seconds.ok_or_else(|| usage("--seconds is required"))?,
        trace: trace.unwrap_or(false),
    })
}

/// A `{"value": v, "unit": u}` metric entry.
fn metric(value: f64, unit: &str) -> Value {
    Value::Obj(vec![
        ("value".to_string(), Value::F64(value)),
        ("unit".to_string(), Value::Str(unit.to_string())),
    ])
}

/// The end-to-end metrics. Set-up time is the median over all rounds
/// and peak RSS the largest; rate, latencies and CPU pool every op of
/// the [`KEPT_ROUNDS`] fastest rounds, each op with the latency it had
/// there: the rate is their ops over their summed wall time, the
/// percentiles are taken over their per-op latencies, and CPU is their
/// summed CPU time per op.
fn end_to_end(m: &Measured) -> Vec<(String, Value)> {
    let kept = m.fastest_rounds(KEPT_ROUNDS);
    let latencies: Vec<f64> = kept
        .iter()
        .flat_map(|&r| m.latencies_ms[r].iter().copied())
        .collect();
    let n = latencies.len() as f64;
    let kept_sum = |per_round: &[f64]| kept.iter().map(|&r| per_round[r]).sum::<f64>();
    [
        ("setup_s", stats::median(&m.setups_s).unwrap_or(0.0), "s"),
        ("ops_per_s", n / kept_sum(&m.walls_s), "1/s"),
        (
            "latency_p50_ms",
            stats::median(&latencies).unwrap_or(0.0),
            "ms",
        ),
        (
            "latency_p95_ms",
            stats::percentile(&latencies, 95.0).unwrap_or(0.0),
            "ms",
        ),
        ("cpu_ms_per_op", kept_sum(&m.cpus_s) * 1e3 / n, "ms"),
        ("peak_rss_mb", m.peak_rss_mb, "MiB"),
    ]
    .into_iter()
    .map(|(name, v, unit)| (name.to_string(), metric(v, unit)))
    .collect()
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let bins = drive::Bins::locate()?;
    // In-process work (references, replay) simulates on one thread, as
    // the server does, whatever ISOS_THREADS says.
    isos_sim::threads::set_run_threads(1);
    let nproc = host::nproc();
    let dir = RunDir::create(args.workload)?;
    let count = args.workload.round_ops();
    let ops = ops::ops(args.workload, args.seed, count);
    let attempted = count * ROUNDS;

    let pinned = host::Pinned::to_one_cpu();
    let pinned_cpu = pinned.as_ref().map(|p| p.cpu);
    let measured = measure(args.workload, args.seed, &ops, &bins, &dir)?;
    drop(pinned);
    let every_round: Vec<ops::Op> = ops.iter().cycle().take(attempted).cloned().collect();
    let verdict = verify::verify(&every_round, &measured.answers, nproc);
    for message in &verdict.messages {
        eprintln!("isosbench: verification failed: {message}");
    }

    let root = std::path::Path::new(".");
    let best = measured.best_latencies_ms();
    let rates: Vec<f64> = measured.walls_s.iter().map(|w| count as f64 / w).collect();
    let round_rates: Vec<Value> = rates.iter().map(|&r| Value::F64(r)).collect();
    let mut health = vec![
        ("workload", Value::Str(args.workload.name().to_string())),
        ("seed", Value::U64(args.seed)),
        ("seconds", Value::U64(args.seconds)),
        ("rounds", Value::U64(ROUNDS as u64)),
        ("ops_per_round", Value::U64(count as u64)),
        ("round_ops_per_s", Value::Arr(round_rates)),
        (
            "round_rate_spread",
            stats::relative_iqr(&rates).map_or(Value::Null, Value::F64),
        ),
        (
            "round_cpu_ms_per_op",
            Value::Arr(
                measured
                    .cpus_s
                    .iter()
                    .map(|c| Value::F64(c * 1e3 / count as f64))
                    .collect(),
            ),
        ),
        ("nproc", Value::U64(nproc as u64)),
        (
            "pinned_cpu",
            pinned_cpu.map_or(Value::Null, |c| Value::U64(c as u64)),
        ),
        ("workers", Value::U64(1)),
        ("threads", Value::U64(drive::ENGINE_THREADS as u64)),
        ("steal_pct", Value::F64(measured.steal_pct())),
        (
            "error_rate",
            Value::F64(verdict.failed as f64 / attempted as f64),
        ),
        (
            "cycles_checksum",
            Value::Str(format!("{:016x}", verdict.cycles_checksum)),
        ),
        (
            "best_ops_per_s",
            Value::F64(best.len() as f64 * 1e3 / best.iter().sum::<f64>()),
        ),
        (
            "best_latency_p50_ms",
            stats::median(&best).map_or(Value::Null, Value::F64),
        ),
        (
            "kept_rounds",
            Value::Arr(
                measured
                    .fastest_rounds(KEPT_ROUNDS)
                    .into_iter()
                    .map(|r| Value::U64(r as u64))
                    .collect(),
            ),
        ),
        (
            "p95_samples_beyond",
            Value::U64(stats::samples_beyond(count * KEPT_ROUNDS, 95.0) as u64),
        ),
        (
            "p95_supported",
            Value::Bool(stats::percentile_supported(count * KEPT_ROUNDS, 95.0)),
        ),
        (
            "latency_growth_ratio",
            stats::quarter_growth(&best).map_or(Value::Null, Value::F64),
        ),
        (
            "setups_s",
            Value::Arr(measured.setups_s.iter().map(|&s| Value::F64(s)).collect()),
        ),
        ("commit", host::commit(root).map_or(Value::Null, Value::Str)),
    ];

    let metrics = if args.trace {
        let layers = replay::per_layer(args.workload, args.seed, &ops, &measured, &bins, &dir)?;
        health.push(("trace", Value::Bool(true)));
        layers
            .into_iter()
            .map(|(name, value, unit)| (name, metric(value, unit)))
            .collect()
    } else {
        end_to_end(&measured)
    };

    let health = Value::Obj(
        health
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    println!(
        "{}",
        Value::Obj(vec![("health".to_string(), health)]).render()
    );
    let result = Value::Obj(vec![
        ("correct".to_string(), Value::Bool(verdict.failed == 0)),
        ("attempted".to_string(), Value::U64(attempted as u64)),
        ("failed".to_string(), Value::U64(verdict.failed as u64)),
        ("metrics".to_string(), Value::Obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("isosbench: {e}");
        std::process::exit(1);
    }
}
