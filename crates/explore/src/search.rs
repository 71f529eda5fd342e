//! The search driver: analytically screen every enumerated design point,
//! then dispatch the survivors to the cycle-level simulator through the
//! parallel, cached suite engine.
//!
//! Two parallel flows share the pattern. [`search`] sweeps
//! [`IsoscelesConfig`] points ([`DesignSpace`]); [`search_arch`] sweeps
//! declarative [`ArchPoint`]s — descriptions of whole architecture
//! families — screening each through its interpreter's
//! [`ArchAccel::estimate`] and simulating survivors through the same
//! cached engine (described points cache under their description hash).

use crate::arch::{described_area_mm2, lower, reference, ArchAccel, ArchError, MappingMemo};
use crate::model::{area_mm2, estimate_network, LayerTable, NetworkEstimate};
use crate::pareto::pareto_indices;
use crate::space::{ArchPoint, DesignPoint, DesignSpace};
use isos_nn::models::Workload;
use isos_sim::energy::{energy_of, EnergyParams};
use isos_stream::StreamConfig;
use isosceles::accel::Accelerator;
use isosceles::IsoscelesConfig;
use isosceles_bench::engine::{CacheStats, SuiteEngine};
use isosceles_bench::stream::run_stream_cached;
use serde::{Deserialize, Serialize};

/// One analytically screened design point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScreenedPoint {
    /// The candidate.
    pub point: DesignPoint,
    /// Analytical estimate for the workload.
    pub estimate: NetworkEstimate,
    /// Total area in mm² at 45 nm.
    pub area_mm2: f64,
    /// Estimated energy per inference in millijoules.
    pub energy_mj: f64,
}

/// Screens every point of `space` against `workload` analytically —
/// thousands of points cost milliseconds, no simulation — sorted by
/// estimated cycles ascending.
pub fn screen(workload: &Workload, space: &DesignSpace) -> Vec<ScreenedPoint> {
    let mut screened: Vec<ScreenedPoint> = space
        .enumerate()
        .into_iter()
        .map(|point| {
            let estimate = estimate_network(&workload.network, &point.config);
            let area_mm2 = area_mm2(&point.config);
            let energy_mj = estimate.energy_mj(&point.config);
            ScreenedPoint {
                point,
                estimate,
                area_mm2,
                energy_mj,
            }
        })
        .collect();
    screened.sort_by(|a, b| a.estimate.cycles.total_cmp(&b.estimate.cycles));
    screened
}

/// Search parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SearchOptions {
    /// How many screened survivors to simulate cycle-level.
    pub top_k: usize,
    /// Area budget in mm² at 45 nm; screened points above it are
    /// discarded before the top-K cut (the paper-default reference point
    /// is always simulated regardless, so speedups stay anchored).
    pub budget_mm2: Option<f64>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            top_k: 8,
            budget_mm2: None,
        }
    }
}

/// One cycle-level-simulated design point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EvaluatedPoint {
    /// Label from the design space (`paper-default` for the anchor).
    pub label: String,
    /// The full configuration.
    pub config: IsoscelesConfig,
    /// Cycle-level simulated cycles.
    pub cycles: u64,
    /// Analytical estimate, for model-error reporting.
    pub est_cycles: f64,
    /// Total area in mm² at 45 nm.
    pub area_mm2: f64,
    /// Simulated energy per inference in millijoules.
    pub energy_mj: f64,
    /// Speedup over the paper-default configuration (>1 = faster).
    pub speedup_vs_default: f64,
}

impl EvaluatedPoint {
    /// Relative error of the analytical estimate vs the simulation.
    pub fn model_error(&self) -> f64 {
        (self.est_cycles - self.cycles as f64).abs() / self.cycles as f64
    }
}

/// A finished search.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SearchResult {
    /// Workload id (`"R96"`, ...).
    pub workload: String,
    /// Points analytically screened.
    pub screened: usize,
    /// Points discarded by the area budget.
    pub over_budget: usize,
    /// Simulated points, sorted by simulated cycles ascending.
    pub evaluated: Vec<EvaluatedPoint>,
    /// Indices into `evaluated` of the (cycles, area, energy) Pareto
    /// frontier, minimizing all three.
    pub frontier: Vec<usize>,
    /// Engine cache counters for the simulation batch.
    pub cache: CacheStats,
    /// Wall time of the simulation batch in milliseconds.
    pub sim_wall_millis: f64,
}

impl SearchResult {
    /// The frontier as evaluated points.
    pub fn frontier_points(&self) -> Vec<&EvaluatedPoint> {
        self.frontier.iter().map(|&i| &self.evaluated[i]).collect()
    }
}

/// Runs the full screen-then-simulate search for one workload.
///
/// The analytical model ranks every point in `space`; the area budget
/// (if any) and the top-K cut pick the survivors; the suite engine
/// simulates them — in parallel, memoized across repeated searches — and
/// the Pareto frontier is extracted from the simulated (cycles, mm², mJ).
pub fn search(
    engine: &SuiteEngine,
    workload: &Workload,
    space: &DesignSpace,
    opts: &SearchOptions,
    seed: u64,
) -> SearchResult {
    let screened = screen(workload, space);
    let total = screened.len();
    let within: Vec<ScreenedPoint> = screened
        .into_iter()
        .filter(|s| opts.budget_mm2.is_none_or(|b| s.area_mm2 <= b))
        .collect();
    let over_budget = total - within.len();

    // Survivors: best-estimated K, plus the paper default as the anchor
    // every speedup is measured against.
    let mut survivors: Vec<DesignPoint> = within
        .into_iter()
        .take(opts.top_k.max(1))
        .map(|s| s.point)
        .collect();
    let default_cfg = IsoscelesConfig::default();
    if !survivors.iter().any(|p| p.config == default_cfg) {
        survivors.push(DesignPoint {
            label: "paper-default".into(),
            config: default_cfg,
        });
    }

    let accels: Vec<&dyn Accelerator> = survivors
        .iter()
        .map(|p| &p.config as &dyn Accelerator)
        .collect();
    let (grid, stats) = engine.run_matrix(std::slice::from_ref(workload), &accels, seed);
    let metrics = &grid[0];

    let default_cycles = survivors
        .iter()
        .zip(metrics)
        .find(|(p, _)| p.config == default_cfg)
        .map(|(_, m)| m.total.cycles)
        .expect("default anchor always simulated");

    let mut evaluated: Vec<EvaluatedPoint> = survivors
        .iter()
        .zip(metrics)
        .map(|(p, m)| {
            let est = estimate_network(&workload.network, &p.config);
            let energy = energy_of(&m.total.activity, &EnergyParams::default());
            EvaluatedPoint {
                label: p.label.clone(),
                config: p.config,
                cycles: m.total.cycles,
                est_cycles: est.cycles,
                area_mm2: area_mm2(&p.config),
                energy_mj: energy.total_mj(),
                speedup_vs_default: default_cycles as f64 / m.total.cycles as f64,
            }
        })
        .collect();
    evaluated.sort_by_key(|e| e.cycles);

    let objectives: Vec<Vec<f64>> = evaluated
        .iter()
        .map(|e| vec![e.cycles as f64, e.area_mm2, e.energy_mj])
        .collect();
    let frontier = pareto_indices(&objectives);

    SearchResult {
        workload: workload.id.to_string(),
        screened: total,
        over_budget,
        evaluated,
        frontier,
        cache: stats.cache(),
        sim_wall_millis: stats.wall_millis,
    }
}

/// One simulated `(design point, batch size)` streaming scenario.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamEvaluatedPoint {
    /// Label from the design space (`paper-default` for the anchor).
    pub label: String,
    /// The full configuration.
    pub config: IsoscelesConfig,
    /// Batch size of this scenario.
    pub batch: u64,
    /// Stream makespan in cycles.
    pub cycles: u64,
    /// Median request latency in cycles.
    pub p50_cycles: u64,
    /// 95th-percentile request latency in cycles.
    pub p95_cycles: u64,
    /// 99th-percentile request latency in cycles.
    pub p99_cycles: u64,
    /// Throughput in images per second at the modeled clock.
    pub throughput_imgs_per_sec: f64,
    /// Total area in mm² at 45 nm.
    pub area_mm2: f64,
    /// Simulated energy for the whole stream in millijoules.
    pub energy_mj: f64,
}

impl StreamEvaluatedPoint {
    /// Average cycles per image (inverse throughput in cycle units).
    pub fn cycles_per_image(&self, requests: u64) -> f64 {
        self.cycles as f64 / requests.max(1) as f64
    }
}

/// A finished streaming search over the `(design point, batch)` grid.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamSearchResult {
    /// Workload id.
    pub workload: String,
    /// Requests per stream.
    pub requests: u64,
    /// Batch sizes swept.
    pub batches: Vec<u64>,
    /// Points analytically screened.
    pub screened: usize,
    /// Points discarded by the area budget.
    pub over_budget: usize,
    /// Simulated scenarios, sorted by cycles-per-image ascending.
    pub evaluated: Vec<StreamEvaluatedPoint>,
    /// Indices into `evaluated` of the (p99, cycles-per-image, mm²)
    /// Pareto frontier — the latency-vs-throughput trade batching buys.
    pub frontier: Vec<usize>,
}

impl StreamSearchResult {
    /// The frontier as evaluated scenarios.
    pub fn frontier_points(&self) -> Vec<&StreamEvaluatedPoint> {
        self.frontier.iter().map(|&i| &self.evaluated[i]).collect()
    }
}

/// Runs the screen-then-simulate search under a streaming scenario,
/// adding the batch size as an explicit design axis.
///
/// Screening and survivor selection are identical to [`search`] (the
/// arrival process does not change the per-image analytical ranking);
/// each survivor then streams `base.requests` requests at every batch
/// size in `batches`, and the Pareto frontier is extracted from
/// (p99 latency, cycles-per-image, area) — batching trades tail
/// latency against amortized weight traffic, so both must be
/// objectives for the trade to be visible.
pub fn search_stream(
    engine: &SuiteEngine,
    workload: &Workload,
    space: &DesignSpace,
    opts: &SearchOptions,
    batches: &[u64],
    base: &StreamConfig,
    seed: u64,
) -> StreamSearchResult {
    let batches: Vec<u64> = if batches.is_empty() {
        vec![base.batch]
    } else {
        batches.to_vec()
    };
    let screened = screen(workload, space);
    let total = screened.len();
    let within: Vec<ScreenedPoint> = screened
        .into_iter()
        .filter(|s| opts.budget_mm2.is_none_or(|b| s.area_mm2 <= b))
        .collect();
    let over_budget = total - within.len();

    let mut survivors: Vec<DesignPoint> = within
        .into_iter()
        .take(opts.top_k.max(1))
        .map(|s| s.point)
        .collect();
    let default_cfg = IsoscelesConfig::default();
    if !survivors.iter().any(|p| p.config == default_cfg) {
        survivors.push(DesignPoint {
            label: "paper-default".into(),
            config: default_cfg,
        });
    }

    let mut evaluated: Vec<StreamEvaluatedPoint> = survivors
        .iter()
        .flat_map(|p| {
            batches.iter().map(|&batch| {
                let cfg = StreamConfig { batch, ..*base };
                let (s, _) = run_stream_cached(engine, &p.config, workload.id, seed, &cfg);
                let energy = energy_of(&s.total.activity, &EnergyParams::default());
                StreamEvaluatedPoint {
                    label: p.label.clone(),
                    config: p.config,
                    batch,
                    cycles: s.total.cycles,
                    p50_cycles: s.p50(),
                    p95_cycles: s.p95(),
                    p99_cycles: s.p99(),
                    throughput_imgs_per_sec: s.throughput_imgs_per_sec(cfg.clock_ghz),
                    area_mm2: area_mm2(&p.config),
                    energy_mj: energy.total_mj(),
                }
            })
        })
        .collect();
    evaluated.sort_by(|a, b| a.cycles.cmp(&b.cycles).then(a.batch.cmp(&b.batch)));

    let objectives: Vec<Vec<f64>> = evaluated
        .iter()
        .map(|e| {
            vec![
                e.p99_cycles as f64,
                e.cycles_per_image(base.requests),
                e.area_mm2,
            ]
        })
        .collect();
    let frontier = pareto_indices(&objectives);

    StreamSearchResult {
        workload: workload.id.to_string(),
        requests: base.requests,
        batches,
        screened: total,
        over_budget,
        evaluated,
        frontier,
    }
}

/// One analytically screened described point: just what the screen
/// ranks and filters on. Full estimates are built only for survivors.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArchScreenedPoint {
    /// Position of the point in the screened slice.
    pub index: usize,
    /// Estimated cycles (via the interpreter's analytical model).
    pub est_cycles: f64,
    /// Total area in mm² at 45 nm, from the described hierarchy.
    pub area_mm2: f64,
    /// Estimated energy per inference in millijoules.
    pub energy_mj: f64,
}

/// Screens described points against `workload` analytically, stably
/// sorted by estimated cycles ascending (ties keep slice order).
///
/// Each point is lowered by reference and estimated totals-only: the
/// network's per-layer quantities are derived once ([`LayerTable`]) and
/// IS-OS points the mapper cannot tell apart share one mapping
/// ([`MappingMemo`]). Every record equals what
/// [`ArchAccel::estimate`] and [`ArchAccel::area_mm2`] give for the
/// point, bit for bit.
///
/// # Errors
///
/// Fails on the first description that does not validate (points from
/// [`crate::space::ArchSpace`] or `load_dir` are valid by
/// construction).
pub fn screen_arch(
    workload: &Workload,
    points: &[ArchPoint],
) -> Result<Vec<ArchScreenedPoint>, ArchError> {
    let table = LayerTable::new(&workload.network);
    let mut mappings = MappingMemo::default();
    // All described datapaths use 16-bit accumulators (the schema does
    // not parameterize precision), so the default conversion constants
    // apply to every family.
    let energy_cfg = IsoscelesConfig::default();
    let mut screened = Vec::with_capacity(points.len());
    for (index, point) in points.iter().enumerate() {
        let lowered = lower(&point.desc)
            .map_err(|e| ArchError::new(format!("point `{}`: {e}", point.label)))?;
        let totals = lowered.estimate_totals(&table, &mut mappings);
        screened.push(ArchScreenedPoint {
            index,
            est_cycles: totals.cycles,
            area_mm2: described_area_mm2(&point.desc),
            energy_mj: totals.energy_mj(&energy_cfg),
        });
    }
    screened.sort_by(|a, b| a.est_cycles.total_cmp(&b.est_cycles));
    Ok(screened)
}

/// One simulated described point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArchEvaluatedPoint {
    /// Label from the space (`paper-default` for the anchor).
    pub label: String,
    /// The full description.
    pub desc: crate::arch::ArchDesc,
    /// Simulated cycles (cycle-level for IS-OS machines, the exact
    /// closed form for the analytic families).
    pub cycles: u64,
    /// Analytical screening estimate, for model-error reporting.
    pub est_cycles: f64,
    /// Total area in mm² at 45 nm.
    pub area_mm2: f64,
    /// Simulated energy per inference in millijoules.
    pub energy_mj: f64,
    /// Speedup over the paper-default ISOSceles description.
    pub speedup_vs_default: f64,
}

impl ArchEvaluatedPoint {
    /// Relative error of the analytical estimate vs the simulation.
    pub fn model_error(&self) -> f64 {
        (self.est_cycles - self.cycles as f64).abs() / self.cycles as f64
    }
}

/// A finished described-architecture search.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArchSearchResult {
    /// Workload id.
    pub workload: String,
    /// Described points analytically screened.
    pub screened: usize,
    /// Points discarded by the area budget.
    pub over_budget: usize,
    /// Simulated points, sorted by simulated cycles ascending.
    pub evaluated: Vec<ArchEvaluatedPoint>,
    /// Indices into `evaluated` of the (cycles, mm², mJ) frontier.
    pub frontier: Vec<usize>,
    /// Engine cache counters for the simulation batch.
    pub cache: CacheStats,
    /// Wall time of the simulation batch in milliseconds.
    pub sim_wall_millis: f64,
}

impl ArchSearchResult {
    /// The frontier as evaluated points.
    pub fn frontier_points(&self) -> Vec<&ArchEvaluatedPoint> {
        self.frontier.iter().map(|&i| &self.evaluated[i]).collect()
    }
}

/// Runs the screen-then-simulate search over described architectures.
///
/// Same shape as [`search`]: analytic ranking, optional area budget,
/// top-K cut, engine simulation (parallel + cached: described points
/// key the cache by their description hash), Pareto extraction. The
/// anchor every speedup is measured against is the paper's ISOSceles
/// description ([`reference::isosceles`]).
///
/// # Errors
///
/// Propagates [`screen_arch`]'s validation failures.
pub fn search_arch(
    engine: &SuiteEngine,
    workload: &Workload,
    points: &[ArchPoint],
    opts: &SearchOptions,
    seed: u64,
) -> Result<ArchSearchResult, ArchError> {
    let screened = screen_arch(workload, points)?;
    let total = screened.len();
    let within: Vec<ArchScreenedPoint> = screened
        .into_iter()
        .filter(|s| opts.budget_mm2.is_none_or(|b| s.area_mm2 <= b))
        .collect();
    let over_budget = total - within.len();

    let mut survivors: Vec<ArchPoint> = within
        .iter()
        .take(opts.top_k.max(1))
        .map(|s| points[s.index].clone())
        .collect();
    let anchor_desc = reference::isosceles();
    if !survivors.iter().any(|p| p.desc == anchor_desc) {
        survivors.push(ArchPoint {
            label: "paper-default".into(),
            desc: anchor_desc.clone(),
        });
    }

    let accels: Vec<ArchAccel> = survivors
        .iter()
        .map(|p| {
            ArchAccel::new(p.desc.clone()).expect("survivors already validated during screening")
        })
        .collect();
    let dyn_accels: Vec<&dyn Accelerator> = accels.iter().map(|a| a as &dyn Accelerator).collect();
    let (grid, stats) = engine.run_matrix(std::slice::from_ref(workload), &dyn_accels, seed);
    let metrics = &grid[0];

    let default_cycles = survivors
        .iter()
        .zip(metrics)
        .find(|(p, _)| p.desc == anchor_desc)
        .map(|(_, m)| m.total.cycles)
        .expect("anchor always simulated");

    let mut evaluated: Vec<ArchEvaluatedPoint> = survivors
        .iter()
        .zip(&accels)
        .zip(metrics)
        .map(|((p, accel), m)| {
            let est = accel.estimate(&workload.network);
            let energy = energy_of(&m.total.activity, &EnergyParams::default());
            ArchEvaluatedPoint {
                label: p.label.clone(),
                desc: p.desc.clone(),
                cycles: m.total.cycles,
                est_cycles: est.cycles,
                area_mm2: accel.area_mm2(),
                energy_mj: energy.total_mj(),
                speedup_vs_default: default_cycles as f64 / m.total.cycles as f64,
            }
        })
        .collect();
    evaluated.sort_by_key(|e| e.cycles);

    let objectives: Vec<Vec<f64>> = evaluated
        .iter()
        .map(|e| vec![e.cycles as f64, e.area_mm2, e.energy_mj])
        .collect();
    let frontier = pareto_indices(&objectives);

    Ok(ArchSearchResult {
        workload: workload.id.to_string(),
        screened: total,
        over_budget,
        evaluated,
        frontier,
        cache: stats.cache(),
        sim_wall_millis: stats.wall_millis,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use isos_nn::models::suite_workload;

    #[test]
    fn screen_orders_by_estimated_cycles_and_keeps_every_point() {
        let w = suite_workload("G58", 1);
        let space = DesignSpace::smoke();
        let screened = screen(&w, &space);
        assert_eq!(screened.len(), space.len());
        assert!(screened
            .windows(2)
            .all(|p| p[0].estimate.cycles <= p[1].estimate.cycles));
        assert!(screened.iter().all(|s| s.area_mm2 > 0.0));
        assert!(screened.iter().all(|s| s.energy_mj > 0.0));
    }

    #[test]
    fn arch_screen_covers_families_and_orders_by_cycles() {
        let w = suite_workload("G58", 1);
        let points = crate::space::ArchSpace::smoke().enumerate();
        let screened = screen_arch(&w, &points).unwrap();
        assert_eq!(screened.len(), points.len());
        assert!(screened
            .windows(2)
            .all(|p| p[0].est_cycles <= p[1].est_cycles));
        assert!(screened.iter().all(|s| s.area_mm2 > 0.0));
        assert!(screened.iter().all(|s| s.energy_mj > 0.0));
        let mut indices: Vec<usize> = screened.iter().map(|s| s.index).collect();
        indices.sort_unstable();
        assert!(indices.into_iter().eq(0..points.len()));
    }

    #[test]
    fn arch_screen_reports_invalid_points_by_label() {
        let w = suite_workload("G58", 1);
        let mut bad = crate::space::ArchPoint {
            label: "broken".into(),
            desc: crate::arch::reference::sparten(),
        };
        bad.desc.levels[0].bytes = 0;
        let err = screen_arch(&w, &[bad]).unwrap_err();
        assert!(err.message().contains("broken"), "{err}");
        assert!(err.message().contains("zero size"), "{err}");
    }

    #[test]
    fn stream_search_sweeps_the_batch_axis() {
        use isosceles_bench::engine::{EngineOptions, SuiteEngine};

        let w = suite_workload("G58", 1);
        let space = DesignSpace::smoke();
        let engine = SuiteEngine::new(EngineOptions {
            threads: 2,
            use_cache: false,
            quiet: true,
            ..EngineOptions::default()
        });
        let opts = SearchOptions {
            top_k: 2,
            budget_mm2: None,
        };
        let base = StreamConfig {
            requests: 4,
            ..StreamConfig::default()
        };
        let result = search_stream(&engine, &w, &space, &opts, &[1, 2], &base, 1);

        // Every survivor (top-2 + the paper-default anchor) ran at both
        // batch sizes.
        assert_eq!(result.batches, vec![1, 2]);
        assert_eq!(result.evaluated.len() % 2, 0);
        assert!(result.evaluated.len() >= 4);
        assert!(!result.frontier.is_empty());
        // The paper-default anchor is always simulated, either as one of
        // the space's own points or as the appended anchor.
        assert!(result
            .evaluated
            .iter()
            .any(|e| e.config == IsoscelesConfig::default()));

        for e in &result.evaluated {
            assert!(e.p50_cycles <= e.p95_cycles && e.p95_cycles <= e.p99_cycles);
            assert!(e.throughput_imgs_per_sec > 0.0);
            assert!(e.area_mm2 > 0.0 && e.energy_mj > 0.0);
        }
        // Batching amortizes weight traffic: for any fixed config, the
        // batch-2 stream never has a longer makespan than batch-1.
        for e in &result.evaluated {
            if e.batch == 2 {
                let b1 = result
                    .evaluated
                    .iter()
                    .find(|o| o.batch == 1 && o.config == e.config)
                    .expect("batch-1 twin");
                assert!(
                    e.cycles <= b1.cycles,
                    "{}: batching slowed it down",
                    e.label
                );
                assert!(e.throughput_imgs_per_sec >= b1.throughput_imgs_per_sec);
            }
        }
    }

    #[test]
    fn budget_filter_discards_large_points() {
        let w = suite_workload("G58", 1);
        let space = DesignSpace::smoke();
        let screened = screen(&w, &space);
        let min_area = screened
            .iter()
            .map(|s| s.area_mm2)
            .fold(f64::INFINITY, f64::min);
        let max_area = screened.iter().map(|s| s.area_mm2).fold(0.0, f64::max);
        assert!(min_area < max_area, "smoke space should span areas");
    }
}
