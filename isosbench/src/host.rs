//! Host-side measurements from `/proc` and `wait4`: CPU time and
//! peak memory of the processes under test, hypervisor steal, and the
//! commit being measured.

use std::path::Path;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed
/// at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    /// Sum of user, nice, system, idle, iowait, irq, softirq, steal.
    pub total: u64,
    /// Time the hypervisor ran other guests while this one wanted CPU.
    pub steal: u64,
}

/// Reads the host-wide CPU counters; zeros when unavailable.
pub fn cpu_times() -> CpuTimes {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    CpuTimes {
        total: fields.iter().sum(),
        steal: fields.get(7).copied().unwrap_or(0),
    }
}

/// Steal as a percentage of all CPU time between two snapshots.
pub fn steal_pct(before: CpuTimes, after: CpuTimes) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// User + system CPU seconds a live process has used so far.
pub fn process_cpu_s(pid: u32) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the full line, i.e. 11 and 12 after it.
    let rest = text.rsplit_once(')')?.1;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
    Some(ticks as f64 / USER_HZ)
}

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn process_peak_rss_mb(pid: u32) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Bytes a live process has passed to `write`-family calls (`wchar` in
/// `/proc/<pid>/io`): files and sockets alike.
pub fn process_wchar(pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/io")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix("wchar:"))?
        .trim()
        .parse()
        .ok()
}

/// Resource usage of one finished child process.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChildUsage {
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set, in MiB.
    pub max_rss_mb: f64,
}

/// Waits for child `pid` with `wait4`, returning whether it exited with
/// status 0 and its own resource usage. (`RUSAGE_CHILDREN` would also
/// count every earlier child of this process, such as the build that
/// `run.sh` runs before exec'ing the harness.)
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn wait_child(pid: u32) -> Result<(bool, ChildUsage), String> {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    /// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of
    /// which the first is `ru_maxrss` (KiB).
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        longs: [i64; 14],
    }
    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    }
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable values of the
        // C types wait4 expects (`int` and the 64-bit Linux `struct
        // rusage` declared above); wait4 writes only within them.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok((
        status == 0,
        ChildUsage {
            cpu_s: secs(&usage.utime) + secs(&usage.stime),
            max_rss_mb: usage.longs[0] as f64 / 1024.0,
        },
    ))
}

/// While alive, keeps the calling thread — and every process and
/// thread it starts — on one CPU, the highest-numbered one it may use;
/// dropping it restores the previous set. One core means the client and
/// server hand each request over without cross-CPU wake-ups, whose cost
/// swings with host load.
pub struct Pinned {
    saved: [u64; 16],
    /// The CPU everything runs on.
    pub cpu: usize,
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut [u64; 16]) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const [u64; 16]) -> i32;
}

impl Pinned {
    /// Pins the calling thread; `None` if the affinity cannot be read
    /// or set (the run then proceeds unpinned).
    pub fn to_one_cpu() -> Option<Pinned> {
        let mut saved = [0u64; 16];
        // SAFETY: `saved` is a live, writable 1024-bit CPU set and the
        // size passed is its size in bytes.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&saved), &mut saved) } != 0 {
            return None;
        }
        let cpu = (0..1024)
            .rev()
            .find(|&c| saved[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a live 1024-bit CPU set of the size passed.
        if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), &one) } != 0 {
            return None;
        }
        Some(Pinned { saved, cpu })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // SAFETY: `saved` is the live CPU set read in `to_one_cpu`.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.saved), &self.saved) };
    }
}

/// Flushes every filesystem (`sync(2)`).
pub fn sync_disks() {
    extern "C" {
        fn sync();
    }
    // SAFETY: sync takes no arguments and cannot fail.
    unsafe { sync() };
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The commit checked out in `root`, read from `root/.git` (never from
/// directories above it); `None` when `root` is not a git checkout.
pub fn commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_of_total() {
        let a = CpuTimes {
            total: 1000,
            steal: 10,
        };
        let b = CpuTimes {
            total: 1200,
            steal: 30,
        };
        assert!((steal_pct(a, b) - 10.0).abs() < 1e-12);
        assert_eq!(steal_pct(a, a), 0.0);
    }

    #[test]
    fn commit_is_read_from_the_checkout_only() {
        let dir = std::env::temp_dir().join(format!("isosbench-git-{}", std::process::id()));
        let git = dir.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        assert_eq!(commit(&dir.join("nowhere")), None);
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(git.join("packed-refs"), "# pack\nabc123 refs/heads/main\n").unwrap();
        assert_eq!(commit(&dir).as_deref(), Some("abc123"));
        std::fs::write(git.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(commit(&dir).as_deref(), Some("def456"));
        std::fs::write(git.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(commit(&dir).as_deref(), Some("0123abcd"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(process_cpu_s(pid).is_some());
        assert!(process_peak_rss_mb(pid).unwrap() > 0.0);
        assert!(cpu_times().total > 0);
    }
}
