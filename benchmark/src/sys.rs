//! Process-level measurements (`/proc`) and the on-disk scratch area.

use std::path::{Path, PathBuf};

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every
/// supported architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds consumed so far by every thread of this
/// process, from `/proc/self/stat`.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    parse_cpu_seconds(&stat)
}

fn parse_cpu_seconds(stat: &str) -> Result<f64, String> {
    // The command name (field 2) may contain spaces; fields resume after the
    // closing parenthesis. utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((tick(11)? + tick(12)?) / TICKS_PER_SECOND)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// A per-process scratch directory under the benchmark's output directory
/// (the benchmark writes nowhere else), removed on drop.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn create(out_dir: &Path) -> Result<Self, String> {
        let path = out_dir.join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    /// A fresh, empty subdirectory (any previous content is discarded).
    pub fn subdir(&self, name: &str) -> Result<PathBuf, String> {
        let path = self.path.join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_parses_a_command_name_with_spaces_and_parens() {
        let stat = "42 (a (b) c) S 1 42 42 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 2 0 1 2 3";
        assert_eq!(parse_cpu_seconds(stat), Ok(3.0));
        assert!(parse_cpu_seconds("42 (x) S 1").is_err());
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(cpu_seconds().unwrap() >= 0.0);
    }
}
