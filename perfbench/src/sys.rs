//! Host and process readings from `/proc`: CPU time per thread group,
//! peak RSS, steal share, and the provenance every result carries.

use std::fs;
use std::path::Path;

/// Kernel clock ticks per second for `/proc/*/stat` times (`USER_HZ`,
/// fixed at 100 by the Linux ABI on every architecture this runs on).
const TICKS_PER_SEC: f64 = 100.0;

/// CPU seconds (user + system) used by this whole process so far,
/// including threads that have already exited.
pub fn process_cpu_s() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_cpu_ticks(&s))
        .map_or(0.0, |t| t as f64 / TICKS_PER_SEC)
}

/// CPU seconds used so far by this process's live threads whose name
/// starts with `ct-` — the serving tier (reactor shards, router workers,
/// engine batchers, tensor pool). Threads of the benchmark's own client
/// are unnamed and so excluded. Reads the nanosecond run time from
/// `/proc/self/task/*/schedstat` where the kernel provides it, otherwise
/// the tick-resolution user + system time from `stat`.
pub fn server_cpu_s() -> f64 {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let mut total = 0.0;
    for entry in dir.flatten() {
        let task = entry.path();
        let Ok(stat) = fs::read_to_string(task.join("stat")) else {
            continue;
        };
        if !stat_comm(&stat).is_some_and(|c| c.starts_with("ct-")) {
            continue;
        }
        total += schedstat_s(&task)
            .or_else(|| stat_cpu_ticks(&stat).map(|t| t as f64 / TICKS_PER_SEC))
            .unwrap_or(0.0);
    }
    total
}

/// CPU seconds the calling thread has run (`CLOCK_THREAD_CPUTIME_ID`).
/// Time the thread waits — for a core, or while the hypervisor runs
/// another guest on its vCPU — does not count.
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of a
    // 64-bit Linux target, and the clock id is a constant the kernel
    // accepts; the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Live threads of this process, and how many are `ct-` serving threads.
pub fn thread_counts() -> (usize, usize) {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return (0, 0);
    };
    let (mut all, mut serving) = (0, 0);
    for entry in dir.flatten() {
        all += 1;
        let comm = fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
        if comm.starts_with("ct-") {
            serving += 1;
        }
    }
    (all, serving)
}

fn schedstat_s(task: &Path) -> Option<f64> {
    let s = fs::read_to_string(task.join("schedstat")).ok()?;
    let ns: u64 = s.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 / 1e9)
}

/// The `comm` field of a `/proc/*/stat` line (it sits in parentheses
/// and may itself contain spaces).
fn stat_comm(stat: &str) -> Option<&str> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    stat.get(open + 1..close)
}

/// `utime + stime` in ticks from a `/proc/*/stat` line: fields 14 and 15,
/// counted after the parenthesised command name.
fn stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field n is at index n - 3.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Aggregate host CPU counters from the first line of `/proc/stat`:
/// `(steal ticks, total ticks)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostTicks {
    steal: u64,
    total: u64,
}

impl HostTicks {
    /// Read the counters now (zeros where `/proc/stat` is unavailable).
    pub fn now() -> Self {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(cpu) = stat.lines().next().and_then(|l| l.strip_prefix("cpu ")) else {
            return Self::default();
        };
        let fields: Vec<u64> = cpu
            .split_whitespace()
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user, so it is left out.
        let total = fields.iter().take(8).sum();
        Self {
            steal: fields.get(7).copied().unwrap_or(0),
            total,
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_share_since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// The SIMD path the tensor kernels select on this host: the same
/// runtime feature test `ct_tensor::simd` makes.
pub fn simd_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx2") {
            "avx2"
        } else {
            "sse2"
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "scalar"
    }
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

/// The commit being measured, read from `.git` without running git:
/// `None` in a checkout that is not a repository.
pub fn git_rev() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(rev.trim().to_string());
    }
    fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| {
            l.strip_suffix(reference)?
                .strip_suffix(' ')
                .map(String::from)
        })
}

/// FNV-1a 64 digest over the Rust sources and manifests under `crates/`,
/// in sorted path order: identifies the code measured even where the
/// checkout carries no git metadata.
pub fn source_digest() -> String {
    let mut files = Vec::new();
    collect_sources(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        for byte in path
            .to_string_lossy()
            .bytes()
            .chain(fs::read(path).unwrap_or_default())
        {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_parse_past_a_command_name_with_spaces() {
        let line = "123 (ct-pool 0) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1";
        assert_eq!(stat_comm(line), Some("ct-pool 0"));
        assert_eq!(stat_cpu_ticks(line), Some(300));
    }
}
