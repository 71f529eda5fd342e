//! The parallel schedule executor must be *bit-identical* to the serial
//! one: `--threads N` partitions work, it never reorders or restructures
//! arithmetic. This test pins that contract for every suite workload at
//! thread counts {1, 2, 8}, comparing full [`NetworkMetrics`] (totals,
//! per-group and per-layer breakdowns) both structurally and through
//! their serialized JSON (which spells every `f64` exactly), plus the
//! stream scheduler's [`StreamMetrics`] on top.
//!
//! `set_run_threads` is process-wide state, so everything runs inside a
//! single sequential `#[test]`.
//!
//! [`NetworkMetrics`]: isos_sim::metrics::NetworkMetrics
//! [`StreamMetrics`]: isos_stream::sched::StreamMetrics

use isos_nn::models::paper_suite;
use isos_sim::threads::set_run_threads;
use isos_stream::config::StreamConfig;
use isos_stream::sched::run_stream;
use isosceles_bench::trace::accel_by_name;

const SEED: u64 = 20230225;
const THREADS: [usize; 3] = [1, 2, 8];

#[test]
fn simulation_is_bit_identical_at_every_thread_count() {
    let accel = accel_by_name("isosceles").expect("isosceles model");
    let stream_cfg = StreamConfig {
        requests: 6,
        ..StreamConfig::default()
    };

    for w in paper_suite(SEED) {
        set_run_threads(1);
        let baseline = accel.simulate(&w.network, SEED);
        let baseline_json = serde::json::to_string(&baseline);
        let stream_baseline = run_stream(accel.as_ref(), w.id, SEED, &stream_cfg);

        for n in THREADS {
            set_run_threads(n);
            let got = accel.simulate(&w.network, SEED);
            assert_eq!(
                got, baseline,
                "{}: NetworkMetrics diverge at --threads {n}",
                w.id
            );
            assert_eq!(
                serde::json::to_string(&got),
                baseline_json,
                "{}: serialized metrics diverge at --threads {n}",
                w.id
            );
            // The breakdowns must be present and aligned, not just equal
            // as a whole (an empty-vs-empty accident would also pass
            // `==`).
            assert!(!got.layers.is_empty(), "{}: no per-layer metrics", w.id);
            assert_eq!(
                got.layers.iter().map(|(id, _)| id).collect::<Vec<_>>(),
                baseline.layers.iter().map(|(id, _)| id).collect::<Vec<_>>(),
                "{}: layer order diverges at --threads {n}",
                w.id
            );

            let stream = run_stream(accel.as_ref(), w.id, SEED, &stream_cfg);
            assert_eq!(
                stream, stream_baseline,
                "{}: StreamMetrics diverge at --threads {n}",
                w.id
            );
        }
    }
    set_run_threads(0);
}
