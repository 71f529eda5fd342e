//! The analytical cost model: closed-form estimates of cycles, DRAM
//! traffic, energy, and area for any [`IsoscelesConfig`] and workload,
//! with no simulation.
//!
//! The model mirrors the structure of the cycle-level simulator
//! (`isosceles::arch::pipeline`) at group granularity. For each pipeline
//! group it accounts:
//!
//! - **Weight time** `T_w`: all member layers' compressed weights stream
//!   from DRAM before their compute can start, so the group pays
//!   `weight_bytes / bw` up front (weight streams saturate the DRAM
//!   interface while any are pending).
//! - **Steady state**: once weights land, compute
//!   (`macs / (total_macs × pe_efficiency)`) overlaps activation traffic
//!   (`act_bytes / bw`); the slower of the two governs. Total memory time
//!   (`(weights + activations) / bw`) is a floor on the whole group.
//! - **Fill/drain**: the wavefront must propagate through the group and
//!   the proportional scheduler follows demand with a one-interval lag,
//!   so each group pays a per-layer start-up of a few
//!   [`scheduler_interval`](IsoscelesConfig::scheduler_interval)s.
//!
//! Activation traffic reproduces the simulator's stream accounting:
//! inputs crossing the group boundary are charged once per external
//! producer at `k_tiles × (1 + halo)` (K-tile re-reads, P-tile halos),
//! outputs crossing the boundary are written back once.
//!
//! Area reuses `isos-sim`'s Table II constants, with the merger cost
//! scaled linearly in radix from the paper's radix-256 anchor. Energy
//! converts the same activity mirror the simulator reports (DRAM bytes,
//! one filter-buffer byte per MAC, a 2-byte read-modify-write per MAC in
//! the context arrays) through `isos-sim`'s per-operation constants.
//!
//! Accuracy against the cycle-level model is asserted by
//! `tests/validation.rs`: within 25% total cycles on at least 9 of the 11
//! suite workloads at the default configuration (measured error is a few
//! percent on most; see DESIGN.md).

use isos_nn::graph::{Network, NodeId};
use isos_sim::area::{area_of, AreaConfig, AreaParams};
use isos_sim::energy::{energy_of, Activity, EnergyBreakdown, EnergyParams};
use isos_sim::metrics::RunMetrics;
use isosceles::mapping::{map_network, ExecMode, Mapping, PipelineGroup};
use isosceles::IsoscelesConfig;
use serde::{Deserialize, Serialize};

/// Analytical estimate for one layer of a pipeline group.
///
/// Mirrors the simulator's per-layer breakdown
/// (`NetworkMetrics::layers`): weights and boundary-crossing activations
/// are attributed to the layer that streams them, and the group's cycles
/// are split in proportion to each layer's effectual MACs.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LayerEstimate {
    /// Layer name (matches the simulated breakdown's key).
    pub name: String,
    /// Estimated cycles attributed to this layer.
    pub cycles: f64,
    /// Off-chip weight traffic in bytes (exact: weights stream once).
    pub weight_bytes: f64,
    /// Off-chip activation traffic crossing the group boundary at this
    /// layer (its external inputs plus its group-leaving outputs).
    pub act_bytes: f64,
    /// Effectual MACs.
    pub macs: f64,
}

impl LayerEstimate {
    /// Total off-chip traffic in bytes.
    pub fn total_bytes(&self) -> f64 {
        self.weight_bytes + self.act_bytes
    }
}

/// Analytical estimate for one pipeline group.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct GroupEstimate {
    /// Group name (the first conv layer, as in Table IV).
    pub name: String,
    /// Estimated execution cycles.
    pub cycles: f64,
    /// Off-chip weight traffic in bytes (exact: weights stream once).
    pub weight_bytes: f64,
    /// Off-chip activation traffic in bytes (inputs + outputs + halos).
    pub act_bytes: f64,
    /// Effectual MACs (exact: the dataflow executes all of them).
    pub macs: f64,
    /// Per-member-layer estimates, in group order; their components sum
    /// back to the group totals.
    pub layers: Vec<LayerEstimate>,
}

impl GroupEstimate {
    /// Total off-chip traffic in bytes.
    pub fn total_bytes(&self) -> f64 {
        self.weight_bytes + self.act_bytes
    }
}

/// One group's totals without its name or per-layer breakdown: what a
/// screen needs from a group.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GroupTotals {
    /// Estimated execution cycles.
    pub cycles: f64,
    /// Off-chip weight traffic in bytes.
    pub weight_bytes: f64,
    /// Off-chip activation traffic in bytes.
    pub act_bytes: f64,
    /// Effectual MACs.
    pub macs: f64,
}

impl GroupTotals {
    /// The totals of a closed-form model's group run.
    pub fn of_run(m: &RunMetrics) -> Self {
        Self {
            cycles: m.cycles as f64,
            weight_bytes: m.weight_traffic,
            act_bytes: m.act_traffic,
            macs: m.effectual_macs,
        }
    }
}

/// A network estimate's totals without its breakdown: what a screen
/// ranks on (cycles) and converts to energy (traffic, MACs).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EstimateTotals {
    /// Total estimated cycles.
    pub cycles: f64,
    /// Total off-chip traffic in bytes.
    pub dram_bytes: f64,
    /// Total effectual MACs.
    pub macs: f64,
}

impl EstimateTotals {
    /// Adds one group. Groups must be added in execution order: the
    /// sums are `f64`, so the order fixes the bits.
    pub fn add(&mut self, g: &GroupTotals) {
        self.cycles += g.cycles;
        self.dram_bytes += g.weight_bytes + g.act_bytes;
        self.macs += g.macs;
    }

    /// Activity mirror matching what the simulator reports: DRAM traffic,
    /// one shared-SRAM (filter buffer) byte per MAC, and a read-modify-
    /// write of a 2-byte partial in lane-local SRAM per MAC.
    pub fn activity(&self, cfg: &IsoscelesConfig) -> Activity {
        Activity {
            dram_bytes: self.dram_bytes,
            shared_sram_bytes: self.macs,
            local_sram_bytes: self.macs * 2.0 * cfg.accumulator_bytes() as f64,
            macs: self.macs,
        }
    }

    /// Estimated energy per inference in millijoules, default constants.
    pub fn energy_mj(&self, cfg: &IsoscelesConfig) -> f64 {
        energy_of(&self.activity(cfg), &EnergyParams::default()).total_mj()
    }
}

/// Analytical estimate for a whole network under one mapping.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NetworkEstimate {
    /// Per-group estimates, in execution order.
    pub groups: Vec<GroupEstimate>,
    /// Total estimated cycles.
    pub cycles: f64,
    /// Total off-chip traffic in bytes.
    pub dram_bytes: f64,
    /// Total effectual MACs.
    pub macs: f64,
}

impl NetworkEstimate {
    /// The totals, without the breakdown.
    pub fn totals(&self) -> EstimateTotals {
        EstimateTotals {
            cycles: self.cycles,
            dram_bytes: self.dram_bytes,
            macs: self.macs,
        }
    }

    /// Appends the next group in execution order, folding it into the
    /// totals exactly as [`EstimateTotals::add`] does.
    pub fn push(&mut self, group: GroupEstimate) {
        let mut totals = self.totals();
        totals.add(&GroupTotals {
            cycles: group.cycles,
            weight_bytes: group.weight_bytes,
            act_bytes: group.act_bytes,
            macs: group.macs,
        });
        self.cycles = totals.cycles;
        self.dram_bytes = totals.dram_bytes;
        self.macs = totals.macs;
        self.groups.push(group);
    }

    /// Activity mirror matching what the simulator reports (see
    /// [`EstimateTotals::activity`]).
    pub fn activity(&self, cfg: &IsoscelesConfig) -> Activity {
        self.totals().activity(cfg)
    }

    /// Estimated energy per inference.
    pub fn energy(&self, cfg: &IsoscelesConfig, params: &EnergyParams) -> EnergyBreakdown {
        energy_of(&self.activity(cfg), params)
    }

    /// Estimated energy per inference in millijoules, default constants.
    pub fn energy_mj(&self, cfg: &IsoscelesConfig) -> f64 {
        self.totals().energy_mj(cfg)
    }

    /// Flattened per-layer estimates across all groups, in execution
    /// order (the analytical mirror of `NetworkMetrics::layers`).
    pub fn layers(&self) -> impl Iterator<Item = &LayerEstimate> {
        self.groups.iter().flat_map(|g| g.layers.iter())
    }
}

/// The per-layer quantities the group estimator reads, derived once per
/// network so that every design point screened against it pays table
/// lookups instead of byte-count arithmetic and consumer scans.
#[derive(Clone, Debug)]
pub struct LayerTable<'n> {
    net: &'n Network,
    rows: Vec<LayerRow>,
}

#[derive(Clone, Debug)]
struct LayerRow {
    weight_bytes: f64,
    in_bytes: f64,
    out_bytes: f64,
    macs: f64,
    kernel_r: usize,
    input_h: usize,
    consumers: Vec<NodeId>,
}

impl<'n> LayerTable<'n> {
    /// Derives the table for `net`.
    pub fn new(net: &'n Network) -> Self {
        let mut rows: Vec<LayerRow> = net
            .nodes()
            .iter()
            .map(|node| {
                let layer = &node.layer;
                LayerRow {
                    weight_bytes: layer.weight_csf_bytes(),
                    in_bytes: layer.in_act_csf_bytes(),
                    out_bytes: layer.out_act_csf_bytes(),
                    macs: layer.effectual_macs(),
                    kernel_r: layer.kind.kernel().0,
                    input_h: layer.input.h,
                    consumers: Vec::new(),
                }
            })
            .collect();
        for (id, node) in net.nodes().iter().enumerate() {
            for &p in &node.inputs {
                rows[p].consumers.push(id);
            }
        }
        Self { net, rows }
    }

    /// The network the table was derived from.
    pub fn net(&self) -> &'n Network {
        self.net
    }
}

/// Estimates one pipeline group's totals, reporting each member layer's
/// boundary-crossing activation bytes to `per_layer` in group order.
/// The one copy of the group arithmetic: [`estimate_group`] adds the
/// breakdown on top, screens use the totals alone.
fn group_totals_with(
    table: &LayerTable<'_>,
    cfg: &IsoscelesConfig,
    group: &PipelineGroup,
    mut per_layer: impl FnMut(NodeId, f64),
) -> GroupTotals {
    let bw = cfg.dram_bytes_per_cycle.max(1e-9);
    let peak = (cfg.total_macs() as f64 * cfg.pe_efficiency).max(1e-9);
    let interval = cfg.scheduler_interval as f64;

    let mut weight_bytes = 0.0;
    let mut macs = 0.0;
    let mut in_bytes = 0.0;
    let mut out_bytes = 0.0;
    let mut seen_ext: Vec<usize> = Vec::new();

    for &id in &group.layers {
        let row = &table.rows[id];
        weight_bytes += row.weight_bytes;
        macs += row.macs;

        // External input streams, deduplicated per producer exactly as the
        // simulator's `ext_index` does (network inputs get a synthetic key
        // so two root layers don't share a stream).
        let halo_frac = if group.p_tiles > 1 && row.input_h > 0 {
            ((group.p_tiles - 1) * row.kernel_r.saturating_sub(1)) as f64 / row.input_h as f64
        } else {
            0.0
        };
        let scale = group.k_tiles as f64 * (1.0 + halo_frac);
        let inputs = &table.net.nodes()[id].inputs;
        let mut layer_act = 0.0;
        if inputs.is_empty() && !seen_ext.contains(&(id + 1_000_000)) {
            seen_ext.push(id + 1_000_000);
            layer_act += row.in_bytes * scale;
        }
        for &p in inputs {
            if !group.layers.contains(&p) && !seen_ext.contains(&p) {
                seen_ext.push(p);
                layer_act += row.in_bytes * scale;
            }
        }
        in_bytes += layer_act;

        // Outputs leaving the group write back to DRAM.
        let consumers = &row.consumers;
        if consumers.is_empty() || consumers.iter().any(|c| !group.layers.contains(c)) {
            out_bytes += row.out_bytes;
            layer_act += row.out_bytes;
        }
        per_layer(id, layer_act);
    }

    let act_bytes = in_bytes + out_bytes;
    let t_weights = weight_bytes / bw;
    let t_compute = macs / peak;
    let t_act = act_bytes / bw;
    let t_mem_total = (weight_bytes + act_bytes) / bw;

    // Weights serialize ahead of compute; then compute overlaps the
    // activation streams, with total memory time as a floor. Fill/drain
    // charges the scheduler's one-interval demand lag per member layer
    // plus a constant start/finish quantization.
    let steady = (t_weights + t_compute.max(t_act)).max(t_mem_total);
    let fill =
        interval * (FILL_BASE_INTERVALS + FILL_PER_LAYER_INTERVALS * group.layers.len() as f64);
    GroupTotals {
        cycles: steady + fill,
        weight_bytes,
        act_bytes,
        macs,
    }
}

/// Estimates one pipeline group analytically.
pub fn estimate_group(
    table: &LayerTable<'_>,
    cfg: &IsoscelesConfig,
    group: &PipelineGroup,
) -> GroupEstimate {
    let mut layers: Vec<LayerEstimate> = Vec::with_capacity(group.layers.len());
    let t = group_totals_with(table, cfg, group, |id, act_bytes| {
        let row = &table.rows[id];
        layers.push(LayerEstimate {
            name: table.net.layer(id).name.clone(),
            cycles: 0.0,
            weight_bytes: row.weight_bytes,
            act_bytes,
            macs: row.macs,
        });
    });

    // Attribute the group's cycles to its layers by MAC share, mirroring
    // the simulator's apportionment of its interval-loop cycles.
    let n = layers.len().max(1) as f64;
    for l in &mut layers {
        l.cycles = if t.macs > 0.0 {
            t.cycles * (l.macs / t.macs)
        } else {
            t.cycles / n
        };
    }

    GroupEstimate {
        name: group.name.clone(),
        cycles: t.cycles,
        weight_bytes: t.weight_bytes,
        act_bytes: t.act_bytes,
        macs: t.macs,
        layers,
    }
}

/// Scheduler-start/finish quantization charged once per group, in
/// intervals. Calibrated against the cycle-level model on the 11-workload
/// suite (tests/validation.rs).
const FILL_BASE_INTERVALS: f64 = 2.0;
/// Wavefront fill + one-interval demand lag per member layer, in
/// intervals. Calibrated likewise.
const FILL_PER_LAYER_INTERVALS: f64 = 1.5;

/// Estimates a whole network under an explicit mapping.
pub fn estimate_mapping(
    table: &LayerTable<'_>,
    cfg: &IsoscelesConfig,
    mapping: &Mapping,
) -> NetworkEstimate {
    let mut out = NetworkEstimate::default();
    for group in &mapping.groups {
        out.push(estimate_group(table, cfg, group));
    }
    out
}

/// [`estimate_mapping`]'s totals, bit for bit, without building the
/// per-group and per-layer breakdown.
pub fn estimate_mapping_totals(
    table: &LayerTable<'_>,
    cfg: &IsoscelesConfig,
    mapping: &Mapping,
) -> EstimateTotals {
    let mut out = EstimateTotals::default();
    for group in &mapping.groups {
        out.add(&group_totals_with(table, cfg, group, |_, _| {}));
    }
    out
}

/// Estimates a whole network under the greedy mapper's plan (what the
/// cycle-level [`Accelerator`](isosceles::accel::Accelerator) impl runs).
pub fn estimate_network(net: &Network, cfg: &IsoscelesConfig) -> NetworkEstimate {
    let mapping = map_network(net, cfg, ExecMode::Pipelined);
    estimate_mapping(&LayerTable::new(net), cfg, &mapping)
}

/// Derives the area-model configuration for an accelerator config.
pub fn area_config_of(cfg: &IsoscelesConfig) -> AreaConfig {
    AreaConfig {
        lanes: cfg.lanes as u32,
        macs_per_lane: cfg.macs_per_lane as u32,
        mergers_per_lane: cfg.mergers_per_lane as u32,
        lane_sram_kb: ((cfg.context_bytes_per_lane + cfg.queue_bytes_per_lane) / 1024) as u32,
        filter_buffer_kb: (cfg.filter_buffer_bytes / 1024) as u32,
    }
}

/// Total area in mm² at 45 nm for an accelerator config.
///
/// Table II's merger constant is anchored at the paper's radix-256
/// design; a merger's comparator tree grows linearly in radix, so the
/// per-merger cost is scaled by `merger_radix / 256`.
pub fn area_mm2(cfg: &IsoscelesConfig) -> f64 {
    let mut params = AreaParams::default();
    params.merger_mm2 *= cfg.merger_radix as f64 / 256.0;
    area_of(&area_config_of(cfg), &params).total_mm2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use isos_nn::models::suite_workload;

    #[test]
    fn estimate_traffic_components_are_positive_and_consistent() {
        let net = suite_workload("G58", 1).network;
        let cfg = IsoscelesConfig::default();
        let est = estimate_network(&net, &cfg);
        assert!(est.cycles > 0.0);
        assert!(est.macs > 0.0);
        let group_bytes: f64 = est.groups.iter().map(GroupEstimate::total_bytes).sum();
        assert!((est.dram_bytes - group_bytes).abs() < 1e-6);
        let group_cycles: f64 = est.groups.iter().map(|g| g.cycles).sum();
        assert!((est.cycles - group_cycles).abs() < 1e-6);
    }

    #[test]
    fn layer_estimates_sum_to_group_totals() {
        let net = suite_workload("R96", 1).network;
        let cfg = IsoscelesConfig::default();
        let est = estimate_network(&net, &cfg);
        for g in &est.groups {
            assert!(!g.layers.is_empty(), "group {} has layers", g.name);
            let cycles: f64 = g.layers.iter().map(|l| l.cycles).sum();
            let weight: f64 = g.layers.iter().map(|l| l.weight_bytes).sum();
            let act: f64 = g.layers.iter().map(|l| l.act_bytes).sum();
            let macs: f64 = g.layers.iter().map(|l| l.macs).sum();
            assert!((cycles - g.cycles).abs() / g.cycles.max(1.0) < 1e-9);
            assert!((weight - g.weight_bytes).abs() / g.weight_bytes.max(1.0) < 1e-9);
            assert!((act - g.act_bytes).abs() / g.act_bytes.max(1.0) < 1e-9);
            assert!((macs - g.macs).abs() / g.macs.max(1.0) < 1e-9);
        }
        let flat: usize = est.layers().count();
        let per_group: usize = est.groups.iter().map(|g| g.layers.len()).sum();
        assert_eq!(flat, per_group);
    }

    #[test]
    fn totals_only_estimate_is_bit_identical_to_the_full_one() {
        let cfg = IsoscelesConfig::default();
        for w in isos_nn::models::paper_suite(1) {
            let table = LayerTable::new(&w.network);
            for mode in [ExecMode::Pipelined, ExecMode::SingleLayer] {
                let mapping = map_network(&w.network, &cfg, mode);
                let full = estimate_mapping(&table, &cfg, &mapping);
                let totals = estimate_mapping_totals(&table, &cfg, &mapping);
                assert_eq!(totals, full.totals(), "{} {mode:?}", w.id);
            }
        }
    }

    #[test]
    fn estimated_macs_are_exact() {
        let net = suite_workload("R96", 1).network;
        let cfg = IsoscelesConfig::default();
        let est = estimate_network(&net, &cfg);
        let expected = net.total_effectual_macs();
        assert!((est.macs - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn default_area_matches_table2() {
        let a = area_mm2(&IsoscelesConfig::default());
        assert!((a - 25.932).abs() < 1e-9, "area {a}");
    }

    #[test]
    fn merger_radix_scales_area() {
        let base = IsoscelesConfig::default();
        let mut small = base;
        small.merger_radix = 64;
        // Radix-64 mergers cost a quarter: total drops by 3/4 of the
        // merger budget (64 lanes × 16 × 0.00375 = 3.84 mm²).
        let delta = area_mm2(&base) - area_mm2(&small);
        assert!((delta - 3.84 * 0.75).abs() < 1e-9, "delta {delta}");
    }

    #[test]
    fn bigger_machine_estimates_fewer_cycles_more_area() {
        let net = suite_workload("V68", 1).network;
        let base = IsoscelesConfig::default();
        let mut big = base;
        big.lanes = 128;
        let eb = estimate_network(&net, &base);
        let eg = estimate_network(&net, &big);
        assert!(eg.cycles < eb.cycles);
        assert!(area_mm2(&big) > area_mm2(&base));
    }

    #[test]
    fn energy_mirrors_activity() {
        let net = suite_workload("M75", 1).network;
        let cfg = IsoscelesConfig::default();
        let est = estimate_network(&net, &cfg);
        let act = est.activity(&cfg);
        assert_eq!(act.dram_bytes, est.dram_bytes);
        assert_eq!(act.macs, est.macs);
        assert_eq!(act.local_sram_bytes, est.macs * 4.0);
        assert!(est.energy_mj(&cfg) > 0.0);
    }
}
