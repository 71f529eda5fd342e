//! The traced run: the run's ops replayed in-process through the same
//! public functions the server and `dse` call, with a span around each
//! call into a layer.
//!
//! The replay goes twice over the ops, each time on a fresh cache. The
//! *plain* pass calls only the chain the server runs (parse, workload
//! build, engine, render); the *spanned* pass times each of those calls
//! and adds the calls that the chain makes out of sight (mapping,
//! cache load/store, JSON encode/parse, scheduling, screening) as extra
//! timed calls on the same inputs. The spanned pass's chain time, which
//! excludes the extra calls, against the plain pass's time is the
//! tracing overhead.
//!
//! A layer the workload never reaches (say `explore` on `serve-cold`)
//! is measured by a fixed probe: a few ops on the smallest suite
//! workload (G58) covering every layer, replayed the same way.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use isos_explore::report::{arch_to_markdown, write_all_arch};
use isos_explore::search::{screen_arch, search_arch, SearchOptions};
use isos_explore::{pareto_indices, ArchPoint};
use isos_nn::models::try_suite_workload;
use isos_serve::protocol::{parse_request, JobSpec, Request, Response};
use isos_sim::metrics::{NetworkMetrics, RunMetrics};
use isos_stream::gen::request_workload;
use isos_stream::{arrivals, schedule};
use isosceles::accel::Accelerator;
use isosceles::{map_network, ExecMode, IsoscelesConfig};
use isosceles_bench::cache::{CacheStore, EntryMeta};
use isosceles_bench::engine::{job_key, EngineOptions, SuiteEngine, WorkloadId};
use isosceles_bench::stream::{run_stream_cached, stream_key, STREAM_KIND};
use isosceles_bench::trace::{accel_by_name, MODEL_NAMES};
use serde::json::Value;
use serde::Serialize;

use crate::drive::{has_type, Bins, ENGINE_THREADS};
use crate::measure::{measure, Measured, RunDir};
use crate::ops::{mix, Op, OpKind, Workload};
use crate::stats::{median, quarter_growth};
use crate::verify::{arch_space, Answer};

/// One simulation observed through [`TimedAccel`].
struct SimCall {
    model: String,
    seed: u64,
    ms: f64,
    total: RunMetrics,
}

/// Wraps a model so every `simulate` the engine makes through it is
/// timed: the span around `sim` inside `SuiteEngine::run_one` and
/// `run_stream_cached`, which take the model as a trait object.
struct TimedAccel<'a> {
    inner: &'a dyn Accelerator,
    calls: &'a Mutex<Vec<SimCall>>,
}

impl Accelerator for TimedAccel<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn cache_key(&self) -> u64 {
        self.inner.cache_key()
    }

    fn simulate(&self, net: &isos_nn::graph::Network, seed: u64) -> NetworkMetrics {
        let started = Instant::now();
        let metrics = self.inner.simulate(net, seed);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.calls.lock().expect("sim call log lock").push(SimCall {
            model: self.inner.name().to_string(),
            seed,
            ms,
            total: metrics.total,
        });
        metrics
    }
}

/// Span samples of one replay pass.
#[derive(Default)]
struct Spans {
    /// Time spans and add extra calls (the spanned pass).
    enabled: bool,
    /// Duration samples in ms per span name, in op order.
    ms: BTreeMap<&'static str, Vec<f64>>,
    /// Counters per name (bytes, hits, lookups, simulations, ...).
    counts: BTreeMap<&'static str, f64>,
    /// Time spent in extra calls during the current op, in ms.
    extra_ms: f64,
    /// Chain time of every op, in ms (op time minus its extra calls).
    chain_ms: Vec<f64>,
}

impl Spans {
    fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            ..Spans::default()
        }
    }

    /// A call on the chain the server runs: always made, timed when
    /// enabled.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let started = Instant::now();
        let out = f();
        self.sample(name, started.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// A call the chain makes out of sight, repeated on the same inputs
    /// to time it: made only when enabled, and excluded from chain time.
    fn extra<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> Option<T> {
        if !self.enabled {
            return None;
        }
        let started = Instant::now();
        let out = f();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.extra_ms += ms;
        self.sample(name, ms);
        Some(out)
    }

    fn sample(&mut self, name: &'static str, ms: f64) {
        self.ms.entry(name).or_default().push(ms);
    }

    fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }

    fn median(&self, name: &str) -> Option<f64> {
        self.ms.get(name).and_then(|v| median(v))
    }

    fn total(&self, name: &str) -> f64 {
        self.ms.get(name).map_or(0.0, |v| v.iter().sum())
    }

    fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

/// Fresh state one replay pass runs against, mirroring what the server
/// or a `dse` child starts with.
struct Ctx<'a> {
    /// The engine the server would share (fresh cache).
    engine: SuiteEngine,
    /// A second store the extra cache calls go to, grown in step with
    /// the engine's, so they never disturb the chain's cache.
    shadow: CacheStore,
    /// Where the `explore` report writers write.
    reports: PathBuf,
    points: &'a [ArchPoint],
    calls: Mutex<Vec<SimCall>>,
}

impl<'a> Ctx<'a> {
    fn new(dir: &RunDir, tag: &str, points: &'a [ArchPoint]) -> Ctx<'a> {
        Ctx {
            engine: SuiteEngine::new(EngineOptions {
                threads: ENGINE_THREADS,
                use_cache: true,
                cache_dir: dir.join(&format!("{tag}-cache")),
                cache_bytes: None,
                quiet: true,
            }),
            shadow: CacheStore::open(dir.join(&format!("{tag}-shadow")), None),
            reports: dir.join(&format!("{tag}-reports")),
            points,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Fills the engine's and the shadow's cache with the 44
    /// `serve-warm` keys, as the `matrix` request of its set-up does.
    fn fill(&self, keys: &[Op]) -> Result<(), String> {
        for key in keys {
            let OpKind::Run { model, .. } = key.kind else {
                continue;
            };
            let accel = accel_by_name(model).ok_or("unknown model")?;
            let w = try_suite_workload(key.net(), key.seed).ok_or("unknown net")?;
            let (metrics, _) = self.engine.run_one(&w, accel.as_ref(), key.seed);
            let (k, meta) = run_key(accel.as_ref(), w.id, key.seed);
            self.shadow.store(k, &meta, &metrics);
        }
        Ok(())
    }
}

fn run_key(accel: &dyn Accelerator, workload: &str, seed: u64) -> (u64, EntryMeta) {
    let id = WorkloadId::new(workload);
    let meta = EntryMeta {
        accel: accel.name().to_string(),
        accel_key: accel.cache_key(),
        workload: id.clone(),
        seed,
    };
    (job_key(accel, &id, seed), meta)
}

/// Extra JSON work on a payload: encode (as the cache store does) and
/// parse back (as a cache load does).
fn json_extras<T: Serialize>(spans: &mut Spans, payload: &T) {
    if let Some(text) = spans.extra("json.serialize", || serde::json::to_string(payload)) {
        spans.extra("json.parse", || serde::json::parse(&text));
        spans.count("json.parse_bytes", text.len() as f64);
    }
}

/// Extra cache work on the shadow store: a load, and on a miss the
/// store the engine follows it with.
fn cache_extras<T: Serialize + serde::Deserialize>(
    spans: &mut Spans,
    shadow: &CacheStore,
    key: u64,
    kind: &'static str,
    meta: &EntryMeta,
    payload: &T,
) {
    let hit = spans.extra("cache.load", || shadow.load_payload::<T>(key, kind, meta));
    if let Some(None) = hit {
        spans.extra("cache.store", || {
            shadow.store_payload(key, kind, meta, payload)
        });
    }
}

fn mapping_extra(spans: &mut Spans, net: &isos_nn::graph::Network) {
    spans.extra("mapping.map", || {
        map_network(net, &IsoscelesConfig::default(), ExecMode::Pipelined)
    });
}

/// The simulated-statistics fields of a stream row, as the server's
/// dispatcher renders them.
fn stream_row_value(m: &isos_sim::metrics::StreamMetrics, batch: u64, clock_ghz: f64) -> Value {
    Value::Obj(vec![
        ("requests".to_string(), Value::U64(m.requests.len() as u64)),
        ("batch".to_string(), Value::U64(batch)),
        ("cycles".to_string(), Value::U64(m.total.cycles)),
        (
            "throughput_imgs_per_sec".to_string(),
            Value::F64(m.throughput_imgs_per_sec(clock_ghz)),
        ),
        ("p50_cycles".to_string(), Value::U64(m.p50())),
        ("p95_cycles".to_string(), Value::U64(m.p95())),
        ("p99_cycles".to_string(), Value::U64(m.p99())),
        ("busy_cycles".to_string(), Value::U64(m.busy_cycles)),
        ("idle_cycles".to_string(), Value::U64(m.idle_cycles)),
        (
            "formation_cycles".to_string(),
            Value::U64(m.formation_cycles),
        ),
        ("batches".to_string(), Value::U64(m.batches)),
        ("queue_max_depth".to_string(), Value::U64(m.queue.max_depth)),
        (
            "queue_mean_depth".to_string(),
            Value::F64(m.queue.mean_depth),
        ),
        ("total".to_string(), m.total.to_value()),
    ])
}

fn parse_run(spans: &mut Spans, op: &Op) -> Result<JobSpec, String> {
    let line = op.request_line().ok_or("op has no request line")?;
    match spans.span("serve.parse", || parse_request(&line))? {
        Request::Run(spec) => Ok(*spec),
        other => Err(format!("unexpected request {other:?}")),
    }
}

/// Replays one op.
fn replay_op(op: &Op, ctx: &Ctx, spans: &mut Spans) -> Result<(), String> {
    spans.extra_ms = 0.0;
    let started = Instant::now();
    match op.kind {
        OpKind::Run { model, .. } => {
            let spec = parse_run(spans, op)?;
            let w = spans
                .span("nn.build", || try_suite_workload(&spec.workload, spec.seed))
                .ok_or("unknown workload")?;
            let inner = accel_by_name(model).ok_or("unknown model")?;
            let accel = TimedAccel {
                inner: inner.as_ref(),
                calls: &ctx.calls,
            };
            let (metrics, record) = spans.span("engine.run_one", || {
                ctx.engine.run_one(&w, &accel, spec.seed)
            });
            spans.span("serve.render", || {
                Response::row(
                    0,
                    &spec,
                    &record.accel,
                    record.cache_hit,
                    record.deduped,
                    record.millis,
                    &metrics.to_value(),
                    None,
                )
            });
            spans.count("engine.lookups", 1.0);
            spans.count("engine.hits", f64::from(u8::from(record.cache_hit)));
            if spans.enabled {
                mapping_extra(spans, &w.network);
                json_extras(spans, &metrics);
                let (key, meta) = run_key(&accel, w.id, spec.seed);
                cache_extras(spans, &ctx.shadow, key, "metrics", &meta, &metrics);
            }
        }
        OpKind::Stream { workload } => {
            let spec = parse_run(spans, op)?;
            let cfg = spec.stream.ok_or("stream request without a scenario")?;
            let inner = accel_by_name("isosceles").ok_or("isosceles model missing")?;
            let accel = TimedAccel {
                inner: inner.as_ref(),
                calls: &ctx.calls,
            };
            let first_call = ctx.calls.lock().expect("sim call log lock").len();
            let (metrics, hit) = spans.span("engine.stream", || {
                run_stream_cached(&ctx.engine, &accel, workload, spec.seed, &cfg)
            });
            spans.span("serve.render", || {
                Response::row(
                    0,
                    &spec,
                    accel.name(),
                    hit,
                    false,
                    0.0,
                    &stream_row_value(&metrics, cfg.batch, cfg.clock_ghz),
                    None,
                )
            });
            spans.count("engine.lookups", 1.0);
            spans.count("engine.hits", f64::from(u8::from(hit)));
            if spans.enabled {
                for r in 0..cfg.requests {
                    spans.extra("nn.build", || request_workload(workload, spec.seed, r));
                }
                if let Some(w) = request_workload(workload, spec.seed, 0) {
                    mapping_extra(spans, &w.network);
                }
                // The per-request results the engine just simulated, in
                // request order, scheduled again on their own.
                let mut singles: Vec<(u64, RunMetrics)> =
                    ctx.calls.lock().expect("sim call log lock")[first_call..]
                        .iter()
                        .map(|c| (c.seed, c.total))
                        .collect();
                singles.sort_by_key(|&(seed, _)| seed);
                if singles.len() == cfg.requests as usize {
                    let singles: Vec<RunMetrics> = singles.into_iter().map(|(_, m)| m).collect();
                    let due = arrivals(&cfg, spec.seed);
                    spans.extra("stream.schedule", || schedule(&singles, &due, &cfg));
                }
                json_extras(spans, &metrics);
                let id = WorkloadId::new(workload);
                let key = stream_key(&accel, &id, &cfg, spec.seed);
                let (_, meta) = run_key(&accel, workload, spec.seed);
                cache_extras(spans, &ctx.shadow, key, STREAM_KIND, &meta, &metrics);
            }
        }
        OpKind::Dse { net } => {
            let w = spans
                .span("nn.build", || try_suite_workload(net, op.seed))
                .ok_or("unknown net")?;
            let opts = SearchOptions::default();
            let result = spans
                .span("explore.search", || {
                    search_arch(&ctx.engine, &w, ctx.points, &opts, op.seed)
                })
                .map_err(|e| format!("search_arch: {e}"))?;
            spans
                .span("explore.report", || {
                    let written = write_all_arch(&result, &ctx.reports);
                    (written, arch_to_markdown(&result))
                })
                .0
                .map_err(|e| format!("write reports: {e}"))?;
            spans.count("engine.lookups", result.cache.total() as f64);
            spans.count("engine.hits", result.cache.hits as f64);
            spans.count("explore.simulations", result.evaluated.len() as f64);
            if spans.enabled {
                spans.sample("explore.sim", result.sim_wall_millis);
                spans.extra("explore.screen", || screen_arch(&w, ctx.points));
                let objectives: Vec<Vec<f64>> = result
                    .evaluated
                    .iter()
                    .map(|e| vec![e.cycles as f64, e.area_mm2, e.energy_mj])
                    .collect();
                spans.extra("explore.pareto", || pareto_indices(&objectives));
                mapping_extra(spans, &w.network);
                json_extras(spans, &result);
            }
        }
    }
    let op_ms = started.elapsed().as_secs_f64() * 1e3;
    spans.chain_ms.push(op_ms - spans.extra_ms);
    Ok(())
}

/// What one replay leaves behind.
struct Replayed {
    spans: Spans,
    calls: Vec<SimCall>,
    computes: usize,
}

/// Replays `ops` through `spanned.len()` independent contexts in
/// lockstep (op `i` on every context before op `i + 1`), so host noise
/// hits every pass alike. Pass `k` is spanned when `spanned[k]` is set.
fn replay(
    ops: &[Op],
    warm_keys: Option<&[Op]>,
    dir: &RunDir,
    tag: &str,
    points: &[ArchPoint],
    spanned: &[bool],
) -> Result<Vec<Replayed>, String> {
    let ctxs: Vec<Ctx> = (0..spanned.len())
        .map(|k| Ctx::new(dir, &format!("{tag}-{k}"), points))
        .collect();
    for ctx in &ctxs {
        if let Some(keys) = warm_keys {
            ctx.fill(keys)?;
        }
        ctx.calls.lock().expect("sim call log lock").clear();
    }
    let mut spans: Vec<Spans> = spanned.iter().map(|&on| Spans::new(on)).collect();
    for (i, op) in ops.iter().enumerate() {
        // Alternate which pass goes first, so neither always runs on
        // caches the other just warmed (or churned).
        let mut order: Vec<usize> = (0..ctxs.len()).collect();
        if i % 2 == 1 {
            order.reverse();
        }
        for k in order {
            replay_op(op, &ctxs[k], &mut spans[k])?;
        }
    }
    Ok(ctxs
        .into_iter()
        .zip(spans)
        .map(|(ctx, spans)| Replayed {
            spans,
            computes: ctx.engine.lifetime_computes(),
            calls: ctx.calls.into_inner().expect("sim call log lock"),
        })
        .collect())
}

/// The probe: one `run` op per model, one `stream` op and one `dse` op,
/// all on G58 with seeds derived from the run's seed.
fn probe_ops(seed: u64) -> Vec<Op> {
    let base = mix(seed ^ 0x9e0b_e000_0000_0001);
    let mut ops: Vec<Op> = MODEL_NAMES
        .iter()
        .enumerate()
        .map(|(i, model)| Op {
            kind: OpKind::Run {
                workload: "G58",
                model,
            },
            seed: base.wrapping_add(i as u64),
        })
        .collect();
    ops.push(Op {
        kind: OpKind::Stream { workload: "G58" },
        seed: base,
    });
    ops.push(Op {
        kind: OpKind::Dse { net: "G58" },
        seed: base,
    });
    ops
}

/// The server's `millis` field of a reply's row, found without parsing
/// the whole row.
fn row_millis(answer: &Answer) -> Option<f64> {
    let Answer::Wire(reply) = answer else {
        return None;
    };
    let row = reply.lines.iter().find(|l| has_type(l, "row"))?;
    let rest = &row[row.find(r#","millis":"#)? + r#","millis":"#.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Layer metrics taken from the timed (loopback) phase of a serve run.
struct Wire {
    reply_kb: f64,
    overhead_ms: f64,
    busy_ratio: f64,
    bytes_written_per_op: f64,
    computes_per_op: f64,
}

fn wire_metrics(m: &Measured) -> Option<Wire> {
    let server = m.server.as_ref()?;
    let n = m.answers.len() as f64;
    let overheads: Vec<f64> = m
        .latencies_ms
        .iter()
        .flatten()
        .zip(&m.answers)
        .filter_map(|(lat, a)| row_millis(a).map(|millis| lat - millis))
        .collect();
    Some(Wire {
        reply_kb: server.reply_bytes as f64 / n / 1024.0,
        overhead_ms: median(&overheads)?,
        busy_ratio: server.busy_ms / (m.walls_s.iter().sum::<f64>() * 1e3),
        bytes_written_per_op: server.file_bytes as f64 / n,
        computes_per_op: server.computes as f64 / n,
    })
}

/// Per-layer metrics as `(name, value, unit)`, in `BENCHMARK.json`
/// order.
pub fn per_layer(
    workload: Workload,
    seed: u64,
    ops: &[Op],
    measured: &Measured,
    bins: &Bins,
    dir: &RunDir,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let points = arch_space();
    let warm = (workload == Workload::ServeWarm).then(|| crate::ops::warm_keys(seed));
    let warm = warm.as_deref();
    let mut passes = replay(ops, warm, dir, "replay", &points, &[false, true])?;
    let Replayed {
        spans,
        calls,
        computes,
    } = passes.pop().expect("spanned pass");
    let plain = passes.pop().expect("plain pass").spans;
    let plain_ms: f64 = plain.chain_ms.iter().sum();
    let spanned_ms: f64 = spans.chain_ms.iter().sum();

    // The probe covers layers this workload does not reach.
    let probes = probe_ops(seed);
    let Replayed {
        spans: probe,
        calls: probe_calls,
        ..
    } = replay(&probes, None, dir, "probe", &points, &[true])?
        .pop()
        .expect("probe pass");
    let wire = match wire_metrics(measured) {
        Some(w) => w,
        None => {
            let runs: Vec<Op> = probes
                .iter()
                .filter(|op| matches!(op.kind, OpKind::Run { .. }))
                .cloned()
                .collect();
            let m = measure(Workload::ServeCold, seed, &runs, bins, dir)?;
            wire_metrics(&m).ok_or("probe server reported nothing")?
        }
    };

    let n = ops.len() as f64;
    let first = |name: &str| {
        spans
            .median(name)
            .or_else(|| probe.median(name))
            .unwrap_or(0.0)
    };
    let sim_median = |model: &str| {
        let of = |cs: &[SimCall]| {
            let v: Vec<f64> = cs
                .iter()
                .filter(|c| c.model == model)
                .map(|c| c.ms)
                .collect();
            median(&v)
        };
        of(&calls).or_else(|| of(&probe_calls)).unwrap_or(0.0)
    };
    let mcycles = {
        let rate = |cs: &[SimCall]| {
            let ms: f64 = cs.iter().map(|c| c.ms).sum();
            (ms > 0.0).then(|| cs.iter().map(|c| c.total.cycles as f64).sum::<f64>() / ms / 1e3)
        };
        rate(&calls).or_else(|| rate(&probe_calls)).unwrap_or(0.0)
    };
    let parse_rate = {
        let rate = |s: &Spans| {
            let ms = s.total("json.parse");
            (ms > 0.0).then(|| s.counted("json.parse_bytes") / ms / 1e3)
        };
        rate(&spans).or_else(|| rate(&probe)).unwrap_or(0.0)
    };
    let lookups = spans.counted("engine.lookups");
    let hit_ratio = if lookups > 0.0 {
        spans.counted("engine.hits") / lookups
    } else {
        0.0
    };
    let simulations = if workload == Workload::DseSweep {
        spans.counted("explore.simulations")
    } else {
        calls.len() as f64
    };
    let computes_per_op = if workload == Workload::DseSweep {
        computes as f64 / n
    } else {
        wire.computes_per_op
    };
    let growth = {
        let g = |s: &Spans| s.ms.get("cache.store").and_then(|v| quarter_growth(v));
        g(&spans)
            .or_else(|| spans.ms.get("cache.load").and_then(|v| quarter_growth(v)))
            .or_else(|| g(&probe))
            .unwrap_or(1.0)
    };
    let screen_ms = first("explore.screen");

    let mut out: Vec<(String, f64, &'static str)> = vec![
        ("serve.parse_us".into(), first("serve.parse") * 1e3, "us"),
        ("serve.render_us".into(), first("serve.render") * 1e3, "us"),
        ("serve.reply_kb".into(), wire.reply_kb, "KiB"),
        ("serve.overhead_ms".into(), wire.overhead_ms, "ms"),
        ("dispatch.busy_ratio".into(), wire.busy_ratio, "ratio"),
        ("engine.run_one_ms".into(), first("engine.run_one"), "ms"),
        ("engine.hit_ratio".into(), hit_ratio, "ratio"),
        ("engine.computes_per_op".into(), computes_per_op, "count"),
        ("cache.load_ms".into(), first("cache.load"), "ms"),
        ("cache.store_ms".into(), first("cache.store"), "ms"),
        (
            "cache.manifest_kb".into(),
            measured.manifest_bytes as f64 / 1024.0,
            "KiB",
        ),
        (
            "cache.bytes_written_per_op".into(),
            wire.bytes_written_per_op,
            "B",
        ),
        ("cache.store_growth_ratio".into(), growth, "ratio"),
        ("json.parse_ms_per_row".into(), first("json.parse"), "ms"),
        (
            "json.serialize_ms_per_row".into(),
            first("json.serialize"),
            "ms",
        ),
        ("json.parse_mb_per_s".into(), parse_rate, "MB/s"),
        ("nn.build_ms".into(), first("nn.build"), "ms"),
        ("mapping.map_ms".into(), first("mapping.map"), "ms"),
    ];
    for model in MODEL_NAMES {
        out.push((format!("sim.{model}_ms"), sim_median(model), "ms"));
    }
    out.extend([
        ("sim.mcycles_per_host_s".into(), mcycles, "Mcycles/s"),
        ("sim.simulations_per_op".into(), simulations / n, "count"),
        ("stream.schedule_ms".into(), first("stream.schedule"), "ms"),
        ("explore.screen_ms".into(), screen_ms, "ms"),
        (
            "explore.points_per_s".into(),
            if screen_ms > 0.0 {
                points.len() as f64 / screen_ms * 1e3
            } else {
                0.0
            },
            "1/s",
        ),
        ("explore.sim_ms".into(), first("explore.sim"), "ms"),
        ("explore.pareto_ms".into(), first("explore.pareto"), "ms"),
        ("explore.report_ms".into(), first("explore.report"), "ms"),
        ("host.steal_pct".into(), measured.steal_pct(), "%"),
        (
            "trace.overhead_pct".into(),
            100.0 * (spanned_ms - plain_ms) / plain_ms,
            "%",
        ),
    ]);
    Ok(out)
}
