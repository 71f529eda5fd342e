//! Workloads and the operations each run sends, derived from the seed.
//!
//! The op *mix* of a workload is fixed (the same suite workloads, models
//! and nets in the same order); the seed only picks the simulation seeds,
//! so every run of a workload does the same kind and amount of work and
//! sees the same cache-growth path.

use isos_nn::models::SUITE_IDS;
use isosceles_bench::trace::MODEL_NAMES;

/// Images per `stream-batch` op.
pub const STREAM_REQUESTS: u64 = 16;
/// Batch size of a `stream-batch` op.
pub const STREAM_BATCH: u64 = 4;
/// Nets a `dse-sweep` run cycles through, one cheap (G58, ~0.12 s per
/// sweep), three mid-sized (~0.25 s) and one large (R96, ~0.85 s), so
/// the median of a run's latencies falls in the middle of the mid-sized
/// nets' samples, not between two nets'.
pub const DSE_NETS: [&str; 5] = ["G58", "M75", "M89", "R96", "V90"];

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop `run` requests, every one a cache miss.
    ServeCold,
    /// Closed-loop `run` requests over a pre-filled cache, every one a hit.
    ServeWarm,
    /// Closed-loop `stream` requests (16 images, batch 4).
    StreamBatch,
    /// One `dse --arch-space` child process per op.
    DseSweep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::ServeCold,
        Workload::ServeWarm,
        Workload::StreamBatch,
        Workload::DseSweep,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCold => "serve-cold",
            Workload::ServeWarm => "serve-warm",
            Workload::StreamBatch => "stream-batch",
            Workload::DseSweep => "dse-sweep",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops one round sends: a fixed number per workload, whole cycles
    /// of its op mix, independent of `--seconds` and of how fast the
    /// host runs. A serving round is at least 200 ops, so even one
    /// round's p95 has the 10 samples beyond it that reporting it needs;
    /// a `dse-sweep` round is two passes over [`DSE_NETS`].
    pub fn round_ops(self) -> usize {
        match self {
            // 5 passes over the 44 suite keys.
            Workload::ServeCold | Workload::ServeWarm => 5 * SUITE_IDS.len() * MODEL_NAMES.len(),
            // 30 passes over the 11 suite workloads.
            Workload::StreamBatch => 30 * SUITE_IDS.len(),
            Workload::DseSweep => 2 * DSE_NETS.len(),
        }
    }
}

/// What one op asks for.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A `run` request: one simulation of `workload` on `model`.
    Run {
        /// Suite workload id.
        workload: &'static str,
        /// Suite model name.
        model: &'static str,
    },
    /// A `stream` request: [`STREAM_REQUESTS`] images of `workload` on
    /// the isosceles model, batched by [`STREAM_BATCH`].
    Stream {
        /// Suite workload id.
        workload: &'static str,
    },
    /// One `dse --arch-space --net <net>` child.
    Dse {
        /// Suite workload id explored.
        net: &'static str,
    },
}

/// One op: what to run and with which simulation seed.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Op {
    /// What to run.
    pub kind: OpKind,
    /// Simulation seed sent with the request.
    pub seed: u64,
}

impl Op {
    /// The NDJSON request line for a `run`/`stream` op (no newline);
    /// `None` for `dse` ops, which are not sent over the wire.
    pub fn request_line(&self) -> Option<String> {
        match &self.kind {
            OpKind::Run { workload, model } => Some(format!(
                r#"{{"type":"run","workload":"{workload}","model":"{model}","seed":{}}}"#,
                self.seed
            )),
            OpKind::Stream { workload } => Some(format!(
                r#"{{"type":"stream","workload":"{workload}","model":"isosceles","requests":{STREAM_REQUESTS},"batch":{STREAM_BATCH},"seed":{}}}"#,
                self.seed
            )),
            OpKind::Dse { .. } => None,
        }
    }

    /// The suite workload the op simulates.
    pub fn net(&self) -> &'static str {
        match &self.kind {
            OpKind::Run { workload, .. } | OpKind::Stream { workload } => workload,
            OpKind::Dse { net } => net,
        }
    }
}

/// SplitMix64 finalizer: a bijection on `u64`, so distinct benchmark
/// seeds always give distinct bases.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `index`-th combination of the 11 suite workloads x 4 models.
fn suite_key(index: usize) -> OpKind {
    OpKind::Run {
        workload: SUITE_IDS[index % SUITE_IDS.len()],
        model: MODEL_NAMES[(index / SUITE_IDS.len()) % MODEL_NAMES.len()],
    }
}

/// The ops of a `workload` run with benchmark seed `seed`.
///
/// Op `i` uses simulation seed `mix(seed) + i` (`serve-warm`: every op
/// uses `mix(seed)`, the seed its cache was filled with; `stream-batch`:
/// `mix(seed) + 16 i`, so the images of different ops never share a
/// seed). Because `mix` is a bijection, two different benchmark seeds
/// give different simulation seeds for every op.
pub fn ops(workload: Workload, seed: u64, count: usize) -> Vec<Op> {
    let base = mix(seed);
    (0..count)
        .map(|i| {
            let i64 = i as u64;
            match workload {
                Workload::ServeCold => Op {
                    kind: suite_key(i),
                    seed: base.wrapping_add(i64),
                },
                Workload::ServeWarm => Op {
                    kind: suite_key(i),
                    seed: base,
                },
                Workload::StreamBatch => Op {
                    kind: OpKind::Stream {
                        workload: SUITE_IDS[i % SUITE_IDS.len()],
                    },
                    seed: base.wrapping_add(i64.wrapping_mul(STREAM_REQUESTS)),
                },
                Workload::DseSweep => Op {
                    kind: OpKind::Dse {
                        net: DSE_NETS[i % DSE_NETS.len()],
                    },
                    seed: base.wrapping_add(i64),
                },
            }
        })
        .collect()
}

/// The `matrix` request that fills the `serve-warm` cache: every suite
/// workload x model at the run's seed.
pub fn warm_fill_line(seed: u64) -> String {
    format!(r#"{{"type":"matrix","seed":{}}}"#, mix(seed))
}

/// The 44 keys (`run` ops) the `serve-warm` fill covers.
pub fn warm_keys(seed: u64) -> Vec<Op> {
    ops(
        Workload::ServeWarm,
        seed,
        SUITE_IDS.len() * MODEL_NAMES.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(workload: Workload, seed: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        for op in ops(workload, seed, workload.round_ops()) {
            match op.request_line() {
                Some(line) => bytes.extend_from_slice(line.as_bytes()),
                None => bytes.extend_from_slice(format!("dse {} {}", op.net(), op.seed).as_bytes()),
            }
            bytes.push(b'\n');
        }
        bytes
    }

    #[test]
    fn same_seed_gives_byte_identical_requests() {
        for w in Workload::ALL {
            assert_eq!(wire(w, 7), wire(w, 7), "{}", w.name());
            assert!(!wire(w, 7).is_empty());
        }
        assert_eq!(warm_fill_line(7), warm_fill_line(7));
    }

    #[test]
    fn different_seed_changes_every_request_seed() {
        for w in Workload::ALL {
            let n = w.round_ops();
            for (a, b) in [(7, 8), (0, 1), (1, u64::MAX)] {
                let (xs, ys) = (ops(w, a, n), ops(w, b, n));
                for (x, y) in xs.iter().zip(&ys) {
                    assert_eq!(x.kind, y.kind, "the op mix is fixed");
                    assert_ne!(x.seed, y.seed, "{} op seed unchanged", w.name());
                    if x.request_line().is_some() {
                        assert_ne!(x.request_line(), y.request_line());
                    }
                }
            }
        }
        assert_ne!(warm_fill_line(7), warm_fill_line(8));
    }

    #[test]
    fn cold_and_stream_ops_never_repeat_a_key() {
        let cold = ops(Workload::ServeCold, 3, Workload::ServeCold.round_ops());
        let mut seen = std::collections::BTreeSet::new();
        for op in &cold {
            assert!(seen.insert((op.net(), format!("{:?}", op.kind), op.seed)));
        }
        let stream = ops(Workload::StreamBatch, 3, 40);
        for pair in stream.windows(2) {
            assert_eq!(pair[1].seed - pair[0].seed, STREAM_REQUESTS);
        }
    }

    #[test]
    fn warm_ops_cycle_the_filled_keys() {
        let keys = warm_keys(5);
        assert_eq!(keys.len(), 44);
        let run = ops(Workload::ServeWarm, 5, 88);
        assert_eq!(&run[..44], &keys[..]);
        assert_eq!(&run[44..], &keys[..]);
    }

    #[test]
    fn op_counts_are_fixed_whole_cycles() {
        for w in [
            Workload::ServeCold,
            Workload::ServeWarm,
            Workload::StreamBatch,
        ] {
            let n = w.round_ops();
            assert!(
                crate::stats::percentile_supported(n, 95.0),
                "{}: {n}",
                w.name()
            );
        }
        assert_eq!(Workload::ServeCold.round_ops() % 44, 0);
        assert_eq!(Workload::ServeWarm.round_ops() % 44, 0);
        assert_eq!(Workload::StreamBatch.round_ops() % 11, 0);
        assert_eq!(Workload::DseSweep.round_ops() % DSE_NETS.len(), 0);
        assert_eq!(Workload::parse("dse-sweep"), Some(Workload::DseSweep));
        assert_eq!(Workload::parse("nope"), None);
    }
}
