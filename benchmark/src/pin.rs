//! CPU pinning through a `taskset` child and process facts from
//! `/proc/self/status` — no unsafe, no libc.
//!
//! Why pin: the simulator parks one OS thread per simulated node and hands a
//! baton between them; unpinned, the wall time measures the kernel's
//! cross-core wake-ups of those threads, not the program (README.md has the
//! numbers).

use std::process::{Command, ExitStatus};

fn status_field(field: &str) -> Option<String> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// Parse a kernel CPU list such as `0-1` or `0,2-3`.
pub fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// The CPUs this process may run on (empty if `/proc` does not say).
pub fn allowed_cpus() -> Vec<usize> {
    status_field("Cpus_allowed_list").map_or(Vec::new(), |l| parse_cpu_list(&l))
}

/// `VmHWM`, the peak resident set of this process, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let v = status_field("VmHWM")?;
    let kb: f64 = v.strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// The host's CPU model, for the result file.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                l.strip_prefix("model name")?
                    .split_once(':')
                    .map(|x| x.1.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run this executable again with `args`, pinned to the last CPU this
/// process may use. Without `taskset` the child runs unpinned; it reads its
/// own affinity back and labels its results, so that is not hidden.
pub fn run_child(args: &[String]) -> std::io::Result<ExitStatus> {
    let exe = std::env::current_exe()?;
    if let Some(cpu) = allowed_cpus().last() {
        let pinned = Command::new("taskset")
            .arg("-c")
            .arg(cpu.to_string())
            .arg(&exe)
            .args(args)
            .status();
        match pinned {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                eprintln!("taskset not found: running unpinned (results marked pinned: false)");
            }
            other => return other,
        }
    }
    Command::new(&exe).args(args).status()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_kernel_cpu_lists() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("3"), vec![3]);
        assert_eq!(parse_cpu_list("0,2-4, 7"), vec![0, 2, 3, 4, 7]);
        assert!(parse_cpu_list("").is_empty());
    }

    #[test]
    fn reads_this_process() {
        // The container is Linux; both fields exist.
        assert!(!allowed_cpus().is_empty());
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
