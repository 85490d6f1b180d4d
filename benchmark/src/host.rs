//! What the numbers were measured on: cores, CPU model, compiler, commit,
//! and this process's peak resident set.

use std::fs;

/// One line naming the host. `BENCH_RUSTC` and `BENCH_COMMIT` are set by
/// `run.sh`; a checkout that is not a git repository reports `unknown`.
pub fn describe() -> String {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    format!(
        "host: nproc {}  cpu {}  rustc {}  commit {}",
        harness::effective_jobs(0),
        cpu_model().unwrap_or_else(|| "unknown".to_string()),
        env("BENCH_RUSTC"),
        env("BENCH_COMMIT"),
    )
}

fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// `VmHWM` of this process in MiB: the most physical memory it ever held.
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line — the metric is
/// part of the benchmark's contract, so a host without it cannot run it.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_kib(&status).expect("/proc/self/status has a VmHWM line") / 1024.0
}

fn parse_vm_hwm_kib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_line_is_parsed_in_kib() {
        let status = "Name:\tbench\nVmPeak:\t  20000 kB\nVmHWM:\t   12288 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(12288.0));
        assert_eq!(parse_vm_hwm_kib("Name:\tbench\n"), None);
    }

    #[test]
    fn this_process_has_a_positive_peak() {
        assert!(peak_rss_mib() > 0.0);
        assert!(describe().starts_with("host: nproc "));
    }
}
