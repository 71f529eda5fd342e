//! Checks every reply against an in-process reference computed on the
//! same inputs, outside the timed window: `Accelerator::simulate` for
//! `run` rows, `run_stream` for `stream` rows, `search_arch` for `dse`
//! reports. Simulated statistics must be bit-identical.

use std::collections::HashMap;
use std::path::Path;

use isos_explore::search::{search_arch, SearchOptions};
use isos_explore::space::{ArchPoint, ArchSpace};
use isos_nn::models::try_suite_workload;
use isos_sim::metrics::{RunMetrics, StreamMetrics};
use isos_stream::{run_stream, StreamConfig};
use isosceles_bench::engine::{EngineOptions, SuiteEngine};
use isosceles_bench::trace::accel_by_name;
use serde::json::Value;
use serde::{Deserialize, Serialize};

use crate::drive::{has_type, Reply};
use crate::ops::{Op, OpKind, STREAM_BATCH, STREAM_REQUESTS};

/// The scenario every `stream-batch` op requests.
pub fn stream_config() -> StreamConfig {
    StreamConfig {
        requests: STREAM_REQUESTS,
        batch: STREAM_BATCH,
        ..StreamConfig::default()
    }
}

/// What one op's reply is checked against.
pub enum Answer {
    /// The row of a `run` or `stream` request.
    Wire(Reply),
    /// The JSON report a `dse` child wrote.
    Report(String),
    /// The op failed before producing anything to check.
    Failed(String),
}

/// Verification outcome of a whole run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Ops whose reply was an error or did not match the reference.
    pub failed: usize,
    /// First few failure descriptions, for the log.
    pub messages: Vec<String>,
    /// FNV-1a over every simulated cycle count in op order: equal on two
    /// commits exactly when their simulations agree on this run's inputs.
    pub cycles_checksum: u64,
}

/// The reference result of one op, reduced to what is compared.
enum Reference {
    /// Rendered `metrics` object of a `run` row, and its total cycles.
    Run {
        metrics: String,
        cycles: u64,
    },
    Stream(StreamMetrics),
    Dse(Value),
}

/// Fields of a `dse-arch-<net>.json` report that are simulation results
/// (the rest, wall time and cache counters, legitimately differ).
const DSE_FIELDS: [&str; 5] = [
    "workload",
    "screened",
    "over_budget",
    "evaluated",
    "frontier",
];

fn dse_fields(report: &Value) -> Result<Value, String> {
    DSE_FIELDS
        .iter()
        .map(|k| {
            report
                .field(k)
                .map(|v| (k.to_string(), v.clone()))
                .map_err(|e| format!("report without `{k}`: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Value::Obj)
}

/// The full 10,800-point described-architecture space `dse --arch-space`
/// explores.
pub fn arch_space() -> Vec<ArchPoint> {
    ArchSpace::default().enumerate()
}

fn reference(op: &Op, points: &[ArchPoint]) -> Result<Reference, String> {
    let net = op.net();
    match &op.kind {
        OpKind::Run { model, .. } => {
            let accel = accel_by_name(model).ok_or_else(|| format!("unknown model {model}"))?;
            let workload =
                try_suite_workload(net, op.seed).ok_or_else(|| format!("unknown net {net}"))?;
            let metrics = accel.simulate(&workload.network, op.seed);
            Ok(Reference::Run {
                metrics: metrics.to_value().render(),
                cycles: metrics.total.cycles,
            })
        }
        OpKind::Stream { .. } => {
            let accel = accel_by_name("isosceles").ok_or("isosceles model missing")?;
            Ok(Reference::Stream(run_stream(
                accel.as_ref(),
                net,
                op.seed,
                &stream_config(),
            )))
        }
        OpKind::Dse { .. } => {
            let workload =
                try_suite_workload(net, op.seed).ok_or_else(|| format!("unknown net {net}"))?;
            let engine = SuiteEngine::new(EngineOptions {
                threads: 1,
                use_cache: false,
                quiet: true,
                ..EngineOptions::default()
            });
            let result = search_arch(
                &engine,
                &workload,
                points,
                &SearchOptions::default(),
                op.seed,
            )
            .map_err(|e| format!("reference search: {e}"))?;
            dse_fields(&result.to_value()).map(Reference::Dse)
        }
    }
}

/// The simulated statistics a `stream` row carries, as the server
/// renders them.
fn stream_fields(m: &StreamMetrics) -> Vec<(&'static str, u64)> {
    vec![
        ("cycles", m.total.cycles),
        ("p50_cycles", m.p50()),
        ("p95_cycles", m.p95()),
        ("p99_cycles", m.p99()),
        ("busy_cycles", m.busy_cycles),
        ("idle_cycles", m.idle_cycles),
        ("formation_cycles", m.formation_cycles),
        ("batches", m.batches),
        ("queue_max_depth", m.queue.max_depth),
    ]
}

/// The reply's single `row` line, or why there is none.
fn row_line(reply: &Reply) -> Result<&str, String> {
    if let Some(err) = reply.lines.iter().find(|l| has_type(l, "error")) {
        return Err(format!("error reply: {err}"));
    }
    reply
        .lines
        .iter()
        .find(|l| has_type(l, "row"))
        .map(String::as_str)
        .ok_or_else(|| "reply without a row".to_string())
}

/// Compares one answer with its reference; `Ok(cycles)` lists the
/// simulated cycle counts that enter the checksum.
fn check(op: &Op, answer: &Answer, reference: &Reference) -> Result<Vec<u64>, String> {
    match (answer, reference) {
        (Answer::Failed(message), _) => Err(format!("{op:?}: {message}")),
        (Answer::Wire(reply), Reference::Run { metrics, cycles }) => {
            // The server renders `metrics` last with the same renderer,
            // so bit-identical statistics give byte-identical text; no
            // need to parse the row.
            let row = row_line(reply)?;
            let tail = row
                .strip_suffix('}')
                .and_then(|r| r.strip_suffix(metrics.as_str()))
                .is_some_and(|r| r.ends_with(r#","metrics":"#));
            if !tail {
                return Err(format!("{op:?}: row metrics differ from the reference"));
            }
            Ok(vec![*cycles])
        }
        (Answer::Wire(reply), Reference::Stream(want)) => {
            let row = serde::json::parse(row_line(reply)?).map_err(|e| format!("row JSON: {e}"))?;
            let metrics = row.field("metrics").map_err(|e| format!("row: {e}"))?;
            for (key, expected) in stream_fields(want) {
                let got = metrics
                    .field(key)
                    .and_then(Value::as_u64)
                    .map_err(|e| format!("stream row `{key}`: {e}"))?;
                if got != expected {
                    return Err(format!("{op:?}: `{key}` {got} vs reference {expected}"));
                }
            }
            let total = metrics
                .field("total")
                .map_err(|e| e.to_string())
                .and_then(|t| RunMetrics::from_value(t).map_err(|e| e.to_string()))
                .map_err(|e| format!("stream row total: {e}"))?;
            if total != want.total {
                return Err(format!("{op:?}: stream totals differ"));
            }
            Ok(vec![want.total.cycles])
        }
        (Answer::Report(text), Reference::Dse(want)) => {
            let report = serde::json::parse(text).map_err(|e| format!("dse report: {e}"))?;
            let got = dse_fields(&report)?;
            if got.render() != want.render() {
                return Err(format!("{op:?}: dse report differs from search_arch"));
            }
            let evaluated = got
                .field("evaluated")
                .and_then(Value::as_arr)
                .map_err(|e| e.to_string())?;
            evaluated
                .iter()
                .map(|e| {
                    e.field("cycles")
                        .and_then(Value::as_u64)
                        .map_err(|e| e.to_string())
                })
                .collect()
        }
        _ => Err(format!("{op:?}: answer does not fit the op kind")),
    }
}

/// Maps `f` over `items` on up to `threads` scoped threads, each taking
/// one contiguous share, and returns the results in item order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let share = items.len().div_ceil(threads.max(1)).max(1);
    let f = &f;
    std::thread::scope(|s| {
        let workers: Vec<_> = items
            .chunks(share)
            .map(|part| s.spawn(move || part.iter().map(f).collect::<Vec<R>>()))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("par_map worker panicked"))
            .collect()
    })
}

/// Verifies every answer against its reference on `threads` workers.
/// Ops that share inputs share one reference.
pub fn verify(ops: &[Op], answers: &[Answer], threads: usize) -> Verdict {
    let points = if ops.iter().any(|op| matches!(op.kind, OpKind::Dse { .. })) {
        arch_space()
    } else {
        Vec::new()
    };
    // One reference per distinct op (serve-warm repeats 44 keys).
    let mut distinct: Vec<&Op> = Vec::new();
    let mut slot_of: HashMap<&Op, usize> = HashMap::new();
    let slots: Vec<usize> = ops
        .iter()
        .map(|op| {
            *slot_of.entry(op).or_insert_with(|| {
                distinct.push(op);
                distinct.len() - 1
            })
        })
        .collect();
    let refs = par_map(&distinct, threads, |op| reference(op, &points));
    let checks: Vec<(usize, &Answer, usize)> = ops
        .iter()
        .zip(answers)
        .zip(slots)
        .enumerate()
        .map(|(i, ((_, answer), slot))| (i, answer, slot))
        .collect();
    let outcomes = par_map(&checks, threads, |&(i, answer, slot)| match &refs[slot] {
        Ok(reference) => check(&ops[i], answer, reference),
        Err(e) => Err(e.clone()),
    });

    let mut verdict = Verdict {
        cycles_checksum: 0xcbf2_9ce4_8422_2325,
        ..Verdict::default()
    };
    for outcome in outcomes {
        match outcome {
            Ok(cycles) => {
                for b in cycles.iter().flat_map(|c| c.to_le_bytes()) {
                    verdict.cycles_checksum = (verdict.cycles_checksum ^ u64::from(b))
                        .wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            Err(message) => {
                verdict.failed += 1;
                if verdict.messages.len() < 5 {
                    verdict.messages.push(message);
                }
            }
        }
    }
    verdict.failed += ops.len().saturating_sub(answers.len());
    verdict
}

/// Reads the report a `dse` child wrote for `net` under `dir`.
pub fn read_dse_report(dir: &Path, net: &str) -> Result<String, String> {
    let path = dir.join(format!("dse-arch-{net}.json"));
    std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use isos_serve::protocol::{parse_request, Request, Response};
    use isos_sim::metrics::NetworkMetrics;

    /// A `run` op on the cheapest suite key and the reply the server
    /// would send for it, rendered by the server's own row renderer.
    fn op_and_reply(tamper: impl Fn(&mut NetworkMetrics)) -> (Op, Reply) {
        let op = Op {
            kind: OpKind::Run {
                workload: "G58",
                model: "sparten",
            },
            seed: 7,
        };
        let Ok(Request::Run(spec)) = parse_request(&op.request_line().unwrap()) else {
            panic!("run request expected");
        };
        let accel = accel_by_name("sparten").unwrap();
        let w = try_suite_workload("G58", 7).unwrap();
        let mut metrics = accel.simulate(&w.network, 7);
        tamper(&mut metrics);
        let row = Response::row(
            0,
            &spec,
            "sparten",
            false,
            false,
            1.0,
            &metrics.to_value(),
            None,
        );
        let done = Response::done(1, 0, 1, 0, 1.0);
        let reply = Reply {
            bytes: row.len() + done.len() + 2,
            lines: vec![row, done],
        };
        (op, reply)
    }

    #[test]
    fn matching_rows_pass_and_enter_the_checksum() {
        let (op, reply) = op_and_reply(|_| {});
        let verdict = verify(std::slice::from_ref(&op), &[Answer::Wire(reply)], 1);
        assert_eq!(verdict.failed, 0, "{:?}", verdict.messages);
        let (_, other) = op_and_reply(|_| {});
        let again = verify(&[op], &[Answer::Wire(other)], 1);
        assert_eq!(verdict.cycles_checksum, again.cycles_checksum);
    }

    #[test]
    fn a_row_that_differs_in_any_statistic_fails() {
        let (op, reply) = op_and_reply(|m| m.total.cycles += 1);
        let verdict = verify(std::slice::from_ref(&op), &[Answer::Wire(reply)], 1);
        assert_eq!(verdict.failed, 1);
        // One ulp in one layer's traffic is enough.
        let (_, reply) = op_and_reply(|m| {
            let (_, layer) = m.layers.last_mut().expect("G58 has layers");
            layer.weight_traffic = f64::from_bits(layer.weight_traffic.to_bits() + 1);
        });
        assert_eq!(verify(&[op], &[Answer::Wire(reply)], 1).failed, 1);
    }

    #[test]
    fn error_replies_and_missing_answers_fail() {
        let (op, _) = op_and_reply(|_| {});
        let error = Reply {
            lines: vec![
                Response::error("boom", Some(0)),
                Response::done(1, 0, 0, 0, 1.0),
            ],
            bytes: 0,
        };
        assert_eq!(
            verify(std::slice::from_ref(&op), &[Answer::Wire(error)], 1).failed,
            1
        );
        let failed = Answer::Failed("child exited with 1".to_string());
        assert_eq!(verify(std::slice::from_ref(&op), &[failed], 1).failed, 1);
        assert_eq!(verify(&[op.clone(), op], &[], 1).failed, 2);
    }
}
