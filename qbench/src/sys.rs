//! What the benchmark reads from the operating system: peak resident
//! memory, per-thread CPU time, and the per-run scratch directory.

use std::path::{Path, PathBuf};

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// Resets the peak to the current resident size, so that the next
/// reading is the peak since this call. Best effort: where the kernel
/// refuses, the peak stays the process-wide one.
pub fn reset_peak_rss() {
    // `5` clears the peak resident set size (proc(5), Linux 4.0).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU seconds (user + system) the calling thread has used so far.
pub fn thread_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap_or_default();
    parse_stat_cpu_ticks(&stat).map_or(0.0, |ticks| ticks as f64 / CLK_TCK)
}

/// `sysconf(_SC_CLK_TCK)` is 100 on every Linux this runs on; reading it
/// would need a libc call this package has no binding for.
const CLK_TCK: f64 = 100.0;

fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    // The command name (field 2) may hold spaces; fields are counted
    // from the closing parenthesis.
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The per-run scratch directory: every WAL and snapshot a run writes
/// lives under it, and dropping the guard removes it — on success and
/// on a failed check alike.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `qbench/out/tmp-<pid>`.
    pub fn create() -> std::io::Result<ScratchDir> {
        let path = out_dir().join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// A fresh, empty sub-directory.
    pub fn sub(&self, name: &str) -> std::io::Result<PathBuf> {
        let p = self.path.join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p)?;
        Ok(p)
    }

    /// Removes a sub-directory early (between blocks) to bound disk use.
    pub fn remove(&self, dir: &Path) {
        debug_assert!(dir.starts_with(&self.path));
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Where traces, result files and scratch data go: `qbench/out`, next
/// to the sources this binary was built from, so a run stays inside its
/// checkout whatever the current directory is.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_status() {
        let status = "Name:\tqbench\nVmPeak:\t  9000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
    }

    #[test]
    fn thread_cpu_skips_a_command_name_with_spaces_and_parens() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt
        // cminflt majflt cmajflt utime stime ...
        let stat = "42 (a (b) c) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(300));
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        // Other tests allocate in parallel, so the value after a reset
        // is anyone's; the call must just leave the reading usable.
        reset_peak_rss();
        assert!(peak_rss_mb() > 0.0);
        assert!(thread_cpu_s() >= 0.0);
    }
}
