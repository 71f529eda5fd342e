//! The timed phase: set up, send the run's ops through the real
//! binaries, and record what a user would see.
//!
//! A run is [`ROUNDS`] rounds. Each round sets up from nothing (a fresh
//! server on a fresh cache directory, or a first `dse` launch) and then
//! sends the same op sequence, so every round sees the same cache-growth
//! path. Every round's set-up time, wall time, per-op latencies and CPU
//! time are kept; which rounds each metric uses is up to the caller.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::drive::{has_type, run_dse, timed, Bins, Server};
use crate::host::{self, CpuTimes};
use crate::ops::{mix, warm_fill_line, Op, OpKind, Workload};
use crate::verify::{read_dse_report, Answer};

/// Rounds per run.
pub const ROUNDS: usize = 8;

/// Rounds the rate, latency and CPU metrics are taken from: the fastest
/// quarter. The host's speed swings by tens of percent over seconds to
/// minutes; keeping whole rounds drops the slow stretches while every
/// op of a kept round still counts, so a slowdown the code causes in
/// every round (a stall, contention) still shows.
pub const KEPT_ROUNDS: usize = ROUNDS / 4;

/// A fresh per-run directory under the working directory, removed when
/// dropped. Every cache the run creates lives here, never in
/// `results/cache`.
pub struct RunDir(PathBuf);

/// Parent of every [`RunDir`].
const RUNS_ROOT: &str = ".isosbench";

impl RunDir {
    /// Creates `.isosbench/<workload>-<pid>`, replacing any leftover.
    pub fn create(workload: Workload) -> Result<RunDir, String> {
        let dir = Path::new(RUNS_ROOT).join(format!("{}-{}", workload.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }

    /// `name` inside the run directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only when no other run is using it.
        let _ = std::fs::remove_dir(RUNS_ROOT);
    }
}

/// What the server reported about the timed phases (`serve-*` only),
/// summed over rounds.
#[derive(Debug, Default)]
pub struct ServerSide {
    /// Worker busy time, in ms.
    pub busy_ms: f64,
    /// Simulations the engine computed.
    pub computes: u64,
    /// Bytes received in replies.
    pub reply_bytes: u64,
    /// Bytes the server passed to `write(2)`: cache entries and
    /// manifests. (Replies leave through `send(2)`, which `wchar` does
    /// not count.)
    pub file_bytes: u64,
}

/// Everything the timed phases measured.
#[derive(Default)]
pub struct Measured {
    /// Wall time of each round's set-up, in seconds.
    pub setups_s: Vec<f64>,
    /// Per-op latency in ms, `[round][op]`.
    pub latencies_ms: Vec<Vec<f64>>,
    /// Wall time of each round's timed phase, in seconds.
    pub walls_s: Vec<f64>,
    /// CPU the server (or the `dse` children) used in each timed phase,
    /// in seconds.
    pub cpus_s: Vec<f64>,
    /// Peak RSS of the server, or of the largest `dse` child, in MiB
    /// (largest over rounds).
    pub peak_rss_mb: f64,
    /// Host CPU counters accumulated over the timed phases only.
    steal: CpuTimes,
    /// Total size of the cache's shard manifests after the last round.
    pub manifest_bytes: u64,
    /// One answer per op of every round, round-major, for verification.
    pub answers: Vec<Answer>,
    /// Server-side accounting (`serve-*` workloads).
    pub server: Option<ServerSide>,
}

impl Measured {
    /// Each op's best latency over the rounds, in op order: a health
    /// figure, steadier than the metrics but blind to a slowdown that
    /// hits different ops in different rounds.
    pub fn best_latencies_ms(&self) -> Vec<f64> {
        let n = self.latencies_ms.first().map_or(0, Vec::len);
        (0..n)
            .map(|i| {
                self.latencies_ms
                    .iter()
                    .map(|round| round[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// Indices of the `k` rounds whose timed phases took the least wall
    /// time, fastest first.
    pub fn fastest_rounds(&self, k: usize) -> Vec<usize> {
        let mut rounds: Vec<usize> = (0..self.walls_s.len()).collect();
        rounds.sort_by(|&a, &b| self.walls_s[a].total_cmp(&self.walls_s[b]));
        rounds.truncate(k);
        rounds
    }

    /// Hypervisor steal during the timed phases, in % of all CPU time.
    pub fn steal_pct(&self) -> f64 {
        host::steal_pct(CpuTimes::default(), self.steal)
    }

    /// Adds the host counters of one timed phase.
    fn add_steal(&mut self, before: CpuTimes, after: CpuTimes) {
        self.steal.total += after.total.saturating_sub(before.total);
        self.steal.steal += after.steal.saturating_sub(before.steal);
    }
}

/// Runs every round of `workload` over `ops`.
pub fn measure(
    workload: Workload,
    seed: u64,
    ops: &[Op],
    bins: &Bins,
    dir: &RunDir,
) -> Result<Measured, String> {
    let mut m = Measured::default();
    for round in 0..ROUNDS {
        let root = dir.join(&format!("round-{round}"));
        match workload {
            Workload::DseSweep => measure_dse(&mut m, &root, seed, ops, bins)?,
            _ => measure_serve(&mut m, &root, workload, seed, ops, bins)?,
        }
        // Deleting a round's files and flushing before the next round
        // keeps the kernel's write-back and discard work for them out of
        // the next round's timing.
        let _ = std::fs::remove_dir_all(&root);
        host::sync_disks();
    }
    Ok(m)
}

/// Sum of the sizes of every shard `manifest.json` under `cache`.
pub fn manifest_bytes(cache: &Path) -> u64 {
    let Ok(shards) = std::fs::read_dir(cache) else {
        return 0;
    };
    shards
        .flatten()
        .filter_map(|shard| std::fs::metadata(shard.path().join("manifest.json")).ok())
        .map(|m| m.len())
        .sum()
}

/// Starts a server on a fresh cache; for `serve-warm`, fills it with the
/// 44 keys the timed phase will hit.
fn set_up_server(
    workload: Workload,
    seed: u64,
    bins: &Bins,
    cache: &Path,
) -> Result<Server, String> {
    let mut server = Server::start(bins, cache)?;
    if workload == Workload::ServeWarm {
        let reply = server.request(&warm_fill_line(seed))?;
        let rows = reply.lines.iter().filter(|l| has_type(l, "row")).count();
        if rows != 44 || reply.lines.iter().any(|l| has_type(l, "error")) {
            return Err(format!(
                "warm fill returned {rows} rows: {:?}",
                reply.lines.last()
            ));
        }
    }
    Ok(server)
}

fn stat_u64(stats: &serde::json::Value, key: &str) -> u64 {
    stats
        .field(key)
        .and_then(serde::json::Value::as_u64)
        .unwrap_or(0)
}

fn busy_ms(stats: &serde::json::Value) -> f64 {
    stats
        .field("workers")
        .and_then(serde::json::Value::as_arr)
        .map(|ws| {
            ws.iter()
                .filter_map(|w| {
                    w.field("busy_millis")
                        .and_then(serde::json::Value::as_f64)
                        .ok()
                })
                .sum()
        })
        .unwrap_or(0.0)
}

fn measure_serve(
    m: &mut Measured,
    root: &Path,
    workload: Workload,
    seed: u64,
    ops: &[Op],
    bins: &Bins,
) -> Result<(), String> {
    let cache = root.join("cache");
    let (server, secs) = timed(|| set_up_server(workload, seed, bins, &cache));
    let mut server = server?;
    m.setups_s.push(secs);

    let pid = server.pid();
    let stats0 = server.stats()?;
    let cpu0 = host::process_cpu_s(pid).ok_or("cannot read server CPU time")?;
    let wchar0 = host::process_wchar(pid).unwrap_or(0);
    let steal0 = host::cpu_times();
    let mut latencies_ms = Vec::with_capacity(ops.len());
    let mut reply_bytes = 0u64;
    let started = Instant::now();
    for op in ops {
        let line = op.request_line().ok_or("dse op sent to the server")?;
        let sent = Instant::now();
        let reply = server.request(&line)?;
        latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        reply_bytes += reply.bytes as u64;
        m.answers.push(Answer::Wire(reply));
    }
    m.walls_s.push(started.elapsed().as_secs_f64());
    m.add_steal(steal0, host::cpu_times());
    let cpu1 = host::process_cpu_s(pid).ok_or("cannot read server CPU time")?;
    let wchar1 = host::process_wchar(pid).unwrap_or(0);
    let rss = host::process_peak_rss_mb(pid).ok_or("cannot read server VmHWM")?;
    let stats1 = server.stats()?;
    server.stop()?;

    m.latencies_ms.push(latencies_ms);
    m.cpus_s.push(cpu1 - cpu0);
    m.peak_rss_mb = m.peak_rss_mb.max(rss);
    m.manifest_bytes = manifest_bytes(&cache);
    let side = m.server.get_or_insert_with(ServerSide::default);
    side.busy_ms += busy_ms(&stats1) - busy_ms(&stats0);
    side.computes += stat_u64(&stats1, "computes") - stat_u64(&stats0, "computes");
    side.reply_bytes += reply_bytes;
    side.file_bytes += wchar1.saturating_sub(wchar0);
    Ok(())
}

fn measure_dse(
    m: &mut Measured,
    root: &Path,
    seed: u64,
    ops: &[Op],
    bins: &Bins,
) -> Result<(), String> {
    // Set-up: launching the tool once on the smoke space, which pages in
    // the binary and its start-up path.
    let setup = root.join("setup");
    let (status, secs) =
        timed(|| run_dse(bins, "G58", mix(seed), true, &setup, &setup.join("cache")));
    status?;
    m.setups_s.push(secs);

    let cache = root.join("cache");
    let steal0 = host::cpu_times();
    let mut latencies_ms = Vec::with_capacity(ops.len());
    let mut statuses = Vec::with_capacity(ops.len());
    let mut cpu_s = 0.0;
    let started = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let OpKind::Dse { net } = op.kind else {
            return Err("serve op in a dse run".to_string());
        };
        let out = root.join(format!("op-{i}"));
        let sent = Instant::now();
        let status = run_dse(bins, net, op.seed, false, &out, &cache);
        latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        if let Ok(usage) = &status {
            cpu_s += usage.cpu_s;
            m.peak_rss_mb = m.peak_rss_mb.max(usage.max_rss_mb);
        }
        statuses.push(status.map(|_| ()));
    }
    m.walls_s.push(started.elapsed().as_secs_f64());
    m.add_steal(steal0, host::cpu_times());

    // A failed child or a missing report is a failed op, not an abort.
    for (i, (op, status)) in ops.iter().zip(statuses).enumerate() {
        let out = root.join(format!("op-{i}"));
        m.answers.push(
            match status.and_then(|()| read_dse_report(&out, op.net())) {
                Ok(text) => Answer::Report(text),
                Err(e) => Answer::Failed(e),
            },
        );
    }
    m.latencies_ms.push(latencies_ms);
    m.cpus_s.push(cpu_s);
    m.manifest_bytes = manifest_bytes(&cache);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_rounds_rank_by_wall_time() {
        let m = Measured {
            walls_s: vec![3.0, 1.0, 2.0, 0.5],
            ..Measured::default()
        };
        assert_eq!(m.fastest_rounds(2), vec![3, 1]);
        assert_eq!(m.fastest_rounds(9), vec![3, 1, 2, 0]);
        assert_eq!(KEPT_ROUNDS, 2);
    }
}
