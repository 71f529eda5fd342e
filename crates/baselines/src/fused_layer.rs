//! Fused-Layer baseline model [Alwani et al., MICRO 2016].
//!
//! Fused-Layer is a *dense* CNN accelerator that pipelines multiple layers
//! with a tiled output-stationary dataflow (paper Fig. 2): output tiles of
//! the last fused layer are produced from progressively larger input tiles
//! of earlier layers, with the overlapping *input halos* recomputed at tile
//! boundaries and growing with pipeline depth. It runs uncompressed data,
//! so it performs all dense MACs and moves dense weights — which is what
//! makes it compute-bound (paper Fig. 15/16: ~100% MAC utilization, <50%
//! bandwidth utilization). Configured per Sec. V: same MACs and bandwidth
//! as ISOSceles, 2.5 MB filter buffer.

use isos_nn::graph::{Network, NodeId};

use isos_sim::harness::{MemClient, MemHarness};
use isos_sim::metrics::{apportion_capped, apportion_cycles, NetworkMetrics, RunMetrics};
use isos_trace::{NullSink, StallKind, TraceEvent, TraceSink, UnitId, UnitKind};
use isosceles::accel::{stable_key, Accelerator};
use serde::{Deserialize, Serialize};

/// Fused-Layer system configuration (paper Sec. V).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FusedLayerConfig {
    /// Total MAC units.
    pub total_macs: usize,
    /// Filter buffer bytes (holds the dense weights of all fused layers).
    pub filter_buffer_bytes: u64,
    /// DRAM bandwidth in bytes/cycle.
    pub dram_bytes_per_cycle: f64,
    /// Output tile edge length in the 2-D tiled dataflow.
    pub tile: usize,
    /// Sustained fraction of peak MAC throughput (dense dataflows come
    /// close to 1.0).
    pub compute_efficiency: f64,
}

impl Default for FusedLayerConfig {
    fn default() -> Self {
        Self {
            total_macs: 4096,
            filter_buffer_bytes: 5 << 19, // 2.5 MB
            dram_bytes_per_cycle: 128.0,
            tile: 32,
            compute_efficiency: 0.95,
        }
    }
}

/// Greedy fusion: consecutive conv layers are fused while their *dense*
/// weights fit the filter buffer; pools/FC are boundaries (the original
/// paper fuses only convolutional stages).
fn fuse_groups(net: &Network, cfg: &FusedLayerConfig) -> Vec<Vec<NodeId>> {
    let mut groups: Vec<Vec<NodeId>> = Vec::new();
    let mut current: Vec<NodeId> = Vec::new();
    let mut current_bytes = 0.0f64;
    for id in 0..net.len() {
        let layer = net.layer(id);
        let fusable = layer.kind.is_pipelineable();
        let w = layer.weight_dense_bytes();
        if !fusable {
            if !current.is_empty() {
                groups.push(std::mem::take(&mut current));
                current_bytes = 0.0;
            }
            groups.push(vec![id]);
            continue;
        }
        if !current.is_empty() && current_bytes + w > cfg.filter_buffer_bytes as f64 {
            groups.push(std::mem::take(&mut current));
            current_bytes = 0.0;
        }
        current.push(id);
        current_bytes += w;
    }
    if !current.is_empty() {
        groups.push(current);
    }
    groups
}

/// One fused group's totals plus its per-layer breakdown.
#[derive(Debug)]
pub struct FusedGroupRun {
    /// Group totals.
    pub metrics: RunMetrics,
    /// Per-member-layer breakdown, in group order; sums to `metrics`.
    pub layers: Vec<(String, RunMetrics)>,
}

/// Simulates one fused group.
///
/// Public as the description-referenceable form of the model: the
/// declarative-architecture interpreter lowers fused-tile descriptions
/// onto exactly this closed form.
pub fn group_metrics(net: &Network, group: &[NodeId], cfg: &FusedLayerConfig) -> FusedGroupRun {
    simulate_group_traced(net, group, cfg, 0, &mut NullSink)
}

/// [`group_metrics`]'s totals, bit for bit, without the per-layer
/// breakdown (no layer names, no apportionment): what an analytical
/// screen needs.
pub fn group_totals(net: &Network, group: &[NodeId], cfg: &FusedLayerConfig) -> RunMetrics {
    run_group_traced(net, group, cfg, 0, &mut NullSink).0
}

/// Internal alias kept for the model's own call sites.
fn simulate_group(net: &Network, group: &[NodeId], cfg: &FusedLayerConfig) -> FusedGroupRun {
    group_metrics(net, group, cfg)
}

/// [`simulate_group`] with trace emission: the group totals from
/// [`run_group_traced`] plus their per-layer breakdown.
fn simulate_group_traced(
    net: &Network,
    group: &[NodeId],
    cfg: &FusedLayerConfig,
    t0: u64,
    sink: &mut dyn TraceSink,
) -> FusedGroupRun {
    let (metrics, shape) = run_group_traced(net, group, cfg, t0, sink);
    let layers = layer_breakdown(net, group, &shape, &metrics);
    FusedGroupRun { metrics, layers }
}

/// What the per-layer breakdown needs from a group run besides its
/// totals.
struct GroupShape {
    /// Dense group input, halo ring included (enters at the first layer).
    input_bytes: f64,
    /// Dense group output (leaves at the last layer).
    output_bytes: f64,
    /// Halo-inflated MACs per member layer, in group order.
    macs_per_layer: Vec<f64>,
}

/// One fused group's totals, with trace emission. Every fused layer is
/// one unit spanning the whole group run (the layers execute
/// concurrently in the tile pipeline): its busy time is its ideal MAC
/// share, the dense-array efficiency loss lands on `MergeBound`, waiting
/// for the *other* fused layers' tile wavefronts on `InputStarved`, and
/// whatever the memory bound stretches the group beyond its compute time
/// on `DramThrottled`.
fn run_group_traced(
    net: &Network,
    group: &[NodeId],
    cfg: &FusedLayerConfig,
    t0: u64,
    sink: &mut dyn TraceSink,
) -> (RunMetrics, GroupShape) {
    let unit_ids: Vec<UnitId> = group
        .iter()
        .map(|&id| sink.unit(&net.layer(id).name, UnitKind::Layer))
        .collect();
    let mut m = RunMetrics::default();
    let mut mem = MemHarness::new(cfg.dram_bytes_per_cycle);
    let first = net.layer(group[0]);
    let last = net.layer(*group.last().unwrap());

    // Dense traffic: group input once per tile (including the input halo
    // ring each tile re-fetches, which grows with fusion depth — the
    // central cost of Fig. 2), group output once, dense weights of every
    // fused layer once.
    let tile = cfg.tile as f64;
    let group_ext: usize = group
        .iter()
        .map(|&j| net.layer(j).kind.kernel().0.saturating_sub(1))
        .sum();
    let input_halo_factor = ((tile + group_ext as f64) / tile).powi(2);
    let input_bytes = first.in_act_dense_bytes() * input_halo_factor;
    let output_bytes = last.out_act_dense_bytes();
    let weight_bytes: f64 = group
        .iter()
        .map(|&id| net.layer(id).weight_dense_bytes())
        .sum();

    // Dense compute with halo recomputation: a layer at depth d in the
    // group recomputes the halo ring needed by the layers after it. The
    // ring grows by (R-1) per remaining downstream layer (paper Fig. 2).
    let mut macs = 0.0;
    let mut macs_per_layer: Vec<f64> = Vec::with_capacity(group.len());
    for (pos, &id) in group.iter().enumerate() {
        let layer = net.layer(id);
        let ext: usize = group[pos + 1..]
            .iter()
            .map(|&j| net.layer(j).kind.kernel().0.saturating_sub(1))
            .sum();
        let halo_factor = ((tile + ext as f64) / tile).powi(2);
        let layer_macs = layer.dense_macs() * halo_factor;
        macs += layer_macs;
        macs_per_layer.push(layer_macs);
    }
    m.effectual_macs = macs;

    let compute_cycles = macs / (cfg.total_macs as f64 * cfg.compute_efficiency);
    let memory_cycles = (weight_bytes + (input_bytes + output_bytes)) / cfg.dram_bytes_per_cycle;
    m.cycles = compute_cycles.max(memory_cycles).ceil().max(1.0) as u64;
    m.mac_util.add(
        (macs / cfg.total_macs as f64).min(m.cycles as f64),
        m.cycles,
    );
    // One weight stream per fused layer (each layer's filters are its
    // own), the group input entering at the first layer, the group output
    // leaving at the last. `cycles` covers the memory time, so every
    // stream is granted in full and the totals match the posted bytes —
    // splitting the weight stream only refines trace attribution.
    let clients: Vec<MemClient> = group
        .iter()
        .zip(&unit_ids)
        .map(|(&id, &unit)| MemClient::weight(net.layer(id).weight_dense_bytes()).for_unit(unit))
        .chain(std::iter::once(
            MemClient::activation(input_bytes).for_unit(unit_ids[0]),
        ))
        .collect();
    mem.step_traced(
        &clients,
        &[output_bytes],
        &unit_ids[unit_ids.len() - 1..],
        m.cycles,
        t0,
        sink,
    );
    mem.finish(&mut m);
    // 4 local bytes per MAC: a 16-bit partial read-modify-write.
    m.charge_compute_activity(macs, 4.0);

    if sink.enabled() {
        let t_f = m.cycles as f64;
        for (&unit, &layer_macs) in unit_ids.iter().zip(&macs_per_layer) {
            // This layer's ideal busy time and its share of the group's
            // compute time (efficiency loss included).
            let busy = layer_macs / cfg.total_macs as f64;
            let compute_j = layer_macs / (cfg.total_macs as f64 * cfg.compute_efficiency);
            let mut stalls = [0.0; 4];
            stalls[StallKind::MergeBound.index()] = compute_j - busy;
            stalls[StallKind::InputStarved.index()] = compute_cycles - compute_j;
            stalls[StallKind::DramThrottled.index()] = t_f - compute_cycles;
            sink.emit(TraceEvent::Compute {
                unit,
                t: t0,
                cycles: m.cycles,
                busy,
                stalls,
            });
        }
    }

    let shape = GroupShape {
        input_bytes,
        output_bytes,
        macs_per_layer,
    };
    (m, shape)
}

/// Per-layer breakdown of one fused group run: each fused layer moves
/// its own dense weights; the group's input (with its halo) enters at
/// the first layer, the group's output leaves at the last; cycles — a
/// group-shared resource — are apportioned by each layer's
/// (halo-inflated) MACs, and the group's busy MAC/DRAM time by
/// MAC/traffic share, water-filled against the layer's own cycles so the
/// breakdown sums to the group totals.
fn layer_breakdown(
    net: &Network,
    group: &[NodeId],
    shape: &GroupShape,
    m: &RunMetrics,
) -> Vec<(String, RunMetrics)> {
    let GroupShape {
        input_bytes,
        output_bytes,
        ref macs_per_layer,
    } = *shape;
    let layer_cycles = apportion_cycles(m.cycles, macs_per_layer);
    let caps: Vec<f64> = layer_cycles.iter().map(|&c| c as f64).collect();
    let traffic_per_layer: Vec<f64> = group
        .iter()
        .enumerate()
        .map(|(pos, &id)| {
            let mut t = net.layer(id).weight_dense_bytes();
            if pos == 0 {
                t += input_bytes;
            }
            if pos == group.len() - 1 {
                t += output_bytes;
            }
            t
        })
        .collect();
    let mac_busy = apportion_capped(m.mac_util.busy(), macs_per_layer, &caps);
    let bw_busy = apportion_capped(m.bw_util.busy(), &traffic_per_layer, &caps);
    group
        .iter()
        .zip(macs_per_layer)
        .zip(&layer_cycles)
        .enumerate()
        .map(|(pos, ((&id, &layer_macs), &cycles))| {
            let layer = net.layer(id);
            let mut lm = RunMetrics {
                cycles,
                weight_traffic: layer.weight_dense_bytes(),
                act_traffic: 0.0,
                effectual_macs: layer_macs,
                ..Default::default()
            };
            if pos == 0 {
                lm.act_traffic += input_bytes;
            }
            if pos == group.len() - 1 {
                lm.act_traffic += output_bytes;
            }
            lm.mac_util.add(mac_busy[pos], cycles);
            lm.bw_util.add(bw_busy[pos], cycles);
            lm.activity.dram_bytes = lm.total_traffic();
            lm.charge_compute_activity(layer_macs, 4.0);
            (layer.name.clone(), lm)
        })
        .collect()
}

impl Accelerator for FusedLayerConfig {
    fn name(&self) -> &str {
        "fused-layer"
    }

    fn cache_key(&self) -> u64 {
        stable_key(Accelerator::name(self), self)
    }

    /// Simulates a whole network under Fused-Layer. The model is analytic,
    /// so the seed does not enter.
    fn simulate(&self, net: &Network, _seed: u64) -> NetworkMetrics {
        let mut out = NetworkMetrics::default();
        for group in fuse_groups(net, self) {
            let run = simulate_group(net, &group, self);
            let name = net.layer(group[0]).name.clone();
            out.push_group(name, run.metrics, run.layers);
        }
        out
    }

    /// Fused groups run one after another, so each group's events start
    /// where the previous group's cycles ended.
    fn simulate_traced(
        &self,
        net: &Network,
        _seed: u64,
        sink: &mut dyn TraceSink,
    ) -> NetworkMetrics {
        let mut out = NetworkMetrics::default();
        let mut t0 = 0u64;
        for group in fuse_groups(net, self) {
            let run = simulate_group_traced(net, &group, self, t0, sink);
            t0 += run.metrics.cycles;
            let name = net.layer(group[0]).name.clone();
            out.push_group(name, run.metrics, run.layers);
        }
        out
    }
}

/// Layer ids per fused group, exposed for per-pipeline comparisons
/// (Fig. 18 aggregates baselines over ISOSceles's pipeline extents).
pub fn fused_groups(net: &Network, cfg: &FusedLayerConfig) -> Vec<Vec<NodeId>> {
    fuse_groups(net, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use isos_nn::models::{resnet50, vgg16};

    #[test]
    fn fused_layer_is_compute_bound_on_dense_nets() {
        let net = resnet50(0.96, 1); // sparsity ignored: dense execution
        let r = FusedLayerConfig::default().simulate(&net, 0);
        // Paper Fig. 16: ~100% MAC utilization; Fig. 15: ~47% BW.
        assert!(
            r.total.mac_util.ratio() > 0.8,
            "mac {}",
            r.total.mac_util.ratio()
        );
        assert!(
            r.total.bw_util.ratio() < 0.8,
            "bw {}",
            r.total.bw_util.ratio()
        );
    }

    #[test]
    fn weight_traffic_dominates_activations() {
        // Paper Fig. 14c: Fused-Layer is dominated by (dense) weights.
        let net = resnet50(0.9, 1);
        let r = FusedLayerConfig::default().simulate(&net, 0);
        assert!(r.total.weight_traffic > r.total.act_traffic);
    }

    #[test]
    fn dense_macs_are_performed_regardless_of_sparsity() {
        let sparse = resnet50(0.99, 1);
        let r = FusedLayerConfig::default().simulate(&sparse, 0);
        // Halo recomputation makes MACs >= the dense count.
        assert!(r.total.effectual_macs >= sparse.total_dense_macs());
    }

    #[test]
    fn groups_partition_the_network() {
        let net = vgg16(0.68, 1);
        let groups = fused_groups(&net, &FusedLayerConfig::default());
        let covered: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(covered, net.len());
        // VGG's big conv layers exceed 2.5 MB quickly: several groups.
        assert!(groups.len() > 5);
    }

    #[test]
    fn deeper_fusion_costs_more_halo_macs() {
        let net = resnet50(0.9, 1);
        let cfg = FusedLayerConfig::default();
        let deep = simulate_group(&net, &[2, 3, 4], &cfg);
        let shallow: f64 = [2usize, 3, 4]
            .iter()
            .map(|&id| simulate_group(&net, &[id], &cfg).metrics.effectual_macs)
            .sum();
        assert!(deep.metrics.effectual_macs > shallow);
    }

    #[test]
    fn fused_group_layer_breakdown_conserves_totals() {
        let net = resnet50(0.9, 1);
        let cfg = FusedLayerConfig::default();
        let run = simulate_group(&net, &[2, 3, 4], &cfg);
        assert_eq!(run.layers.len(), 3);
        let mut sum = RunMetrics::default();
        for (_, m) in &run.layers {
            sum.accumulate(m);
        }
        assert_eq!(sum.cycles, run.metrics.cycles);
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1.0);
        assert!(rel(sum.weight_traffic, run.metrics.weight_traffic) < 1e-6);
        assert!(rel(sum.act_traffic, run.metrics.act_traffic) < 1e-6);
        assert!(rel(sum.effectual_macs, run.metrics.effectual_macs) < 1e-6);
    }
}
