//! The totals-only architecture screen must rank and score every point
//! exactly as the straightforward screen does: a full [`ArchAccel`] per
//! point, its complete [`ArchAccel::estimate`] breakdown, its area, and
//! its energy at the default conversion constants, stably sorted on
//! estimated cycles.
//!
//! `search_arch` and every report built from it sit on top of
//! `screen_arch`, so comparing `dse` output with in-process
//! `search_arch` would check the screen against itself; this oracle
//! keeps an independent path.

use isos_explore::arch::{lower, ArchAccel, Lowered};
use isos_explore::search::screen_arch;
use isos_explore::space::{ArchPoint, ArchSpace};
use isos_nn::models::suite_workload;
use isosceles::mapping::MapperInputs;
use isosceles::IsoscelesConfig;

/// `(label, est_cycles, area_mm2, energy_mj)`, with the `f64`s as bits.
type Row = (String, u64, u64, u64);

fn oracle(net: &isos_nn::graph::Network, points: &[ArchPoint]) -> Vec<Row> {
    let mut rows: Vec<(String, f64, f64, f64)> = points
        .iter()
        .map(|p| {
            let accel = ArchAccel::new(p.desc.clone()).unwrap();
            let est = accel.estimate(net);
            (
                p.label.clone(),
                est.cycles,
                accel.area_mm2(),
                est.energy_mj(&IsoscelesConfig::default()),
            )
        })
        .collect();
    rows.sort_by(|a, b| a.1.total_cmp(&b.1));
    rows.into_iter()
        .map(|(l, c, a, e)| (l, c.to_bits(), a.to_bits(), e.to_bits()))
        .collect()
}

fn assert_screen_matches_oracle(id: &str, points: &[ArchPoint]) {
    let w = suite_workload(id, 1);
    let want = oracle(&w.network, points);
    let got: Vec<Row> = screen_arch(&w, points)
        .unwrap()
        .iter()
        .map(|s| {
            (
                points[s.index].label.clone(),
                s.est_cycles.to_bits(),
                s.area_mm2.to_bits(),
                s.energy_mj.to_bits(),
            )
        })
        .collect();
    assert_eq!(got.len(), want.len(), "{id}");
    for (rank, (g, o)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, o, "{id}: rank {rank} differs from the oracle");
    }
}

#[test]
fn screen_matches_oracle_on_the_whole_space_for_g58() {
    assert_screen_matches_oracle("G58", &ArchSpace::default().enumerate());
}

#[test]
fn screen_matches_oracle_on_every_tenth_point_for_r96() {
    let points: Vec<ArchPoint> = ArchSpace::default()
        .enumerate()
        .into_iter()
        .step_by(10)
        .collect();
    assert_screen_matches_oracle("R96", &points);
}

#[test]
fn is_os_points_need_one_mapping_per_mapper_input() {
    // Bandwidth and merger radix never reach the mapper, so the default
    // space's 6,000 IS-OS points share 500 mappings.
    let mut keys: Vec<(MapperInputs, isosceles::mapping::ExecMode)> = Vec::new();
    let mut is_os = 0;
    for p in ArchSpace::default().enumerate() {
        if let Lowered::IsOs { cfg, mode } = lower(&p.desc).unwrap() {
            is_os += 1;
            let key = (MapperInputs::of(&cfg), mode);
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
    }
    assert_eq!(is_os, 6_000);
    assert_eq!(keys.len(), 500);
}
