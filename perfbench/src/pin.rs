//! Pinning the benchmark's threads, one per CPU.
//!
//! On a 2-vCPU VM the guest scheduler tends to wake the pool's parked
//! worker on the CPU of the thread that woke it.  Once the worker and the
//! caller share a CPU they stay there for seconds to minutes while the other
//! CPU idles, so an `nproc` pass ran either at the one-thread speed or well
//! above it, and which one held for most of a run decided its `solve_s`.
//! Pinning the caller and each worker to a CPU of its own removes that
//! choice.  It uses the `taskset` program, so the benchmark needs no
//! `unsafe` code; without it the run goes on unpinned and says so.

use std::process::{Command, Stdio};

/// Name prefix of the pool's worker threads (`pardp-rayon-<k>`).
const WORKER_PREFIX: &str = "pardp-rayon-";

/// CPUs of a kernel CPU list such as `0-3,6`, in order.
pub fn cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Pin the main thread to the first CPU this process may use and worker
/// `k` to the `(k + 1)`-th.  Returns the placement as `tid→cpu` pairs, or
/// why it could not pin every thread.
pub fn pin_threads() -> Result<String, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(cpu_list)
        .unwrap_or_default();
    let mut threads = vec![(std::process::id(), 0)];
    let tasks = std::fs::read_dir("/proc/self/task").map_err(|e| e.to_string())?;
    for task in tasks.flatten() {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        let worker = comm
            .trim()
            .strip_prefix(WORKER_PREFIX)
            .and_then(|k| k.parse::<usize>().ok());
        let tid = task.file_name().to_string_lossy().parse::<u32>().ok();
        if let (Some(k), Some(tid)) = (worker, tid) {
            threads.push((tid, k + 1));
        }
    }
    let mut placed = Vec::new();
    for &(tid, slot) in &threads {
        let cpu = *allowed.get(slot).ok_or(format!(
            "{} threads but CPUs {:?}",
            threads.len(),
            allowed
        ))?;
        let ok = Command::new("taskset")
            .args(["-p", "-c", &cpu.to_string(), &tid.to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        if !ok {
            return Err(format!("taskset could not pin thread {tid}"));
        }
        placed.push(format!("{tid}→{cpu}"));
    }
    Ok(placed.join(" "))
}

#[cfg(test)]
mod tests {
    use super::cpu_list;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(cpu_list("0-1\n"), vec![0, 1]);
        assert_eq!(cpu_list("0,2-4,7"), vec![0, 2, 3, 4, 7]);
        assert_eq!(cpu_list(""), Vec::<usize>::new());
    }
}
