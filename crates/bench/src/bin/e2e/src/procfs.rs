//! `/proc` readers: CPU time from `/proc/<pid>/stat`, peak resident set
//! from `/proc/<pid>/status`. Linux only, like the mesh it measures.

use std::path::PathBuf;

/// `USER_HZ`: the unit of the `stat` time fields. Linux fixes it at 100
/// on every supported architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// The four CPU-time fields of a `stat` line, in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTicks {
    /// User time of the process.
    pub utime: u64,
    /// Kernel time of the process.
    pub stime: u64,
    /// User time of waited-for children.
    pub cutime: u64,
    /// Kernel time of waited-for children.
    pub cstime: u64,
}

impl CpuTicks {
    /// All four fields, in seconds.
    pub fn seconds(&self) -> f64 {
        (self.utime + self.stime + self.cutime + self.cstime) as f64 / TICKS_PER_SECOND
    }
}

/// Parses fields 14–17 of a `/proc/<pid>/stat` line. The command name
/// (field 2) may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat(line: &str) -> Option<CpuTicks> {
    let rest = &line[line.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime is field 14.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut next = || fields.next()?.parse::<u64>().ok();
    Some(CpuTicks {
        utime: next()?,
        stime: next()?,
        cutime: next()?,
        cstime: next()?,
    })
}

/// Parses one `kB` field (e.g. `VmHWM`) of a `/proc/<pid>/status` text.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

fn proc_file(pid: Option<u32>, name: &str) -> PathBuf {
    let dir = pid.map_or_else(|| "self".to_string(), |p| p.to_string());
    PathBuf::from("/proc").join(dir).join(name)
}

/// CPU seconds consumed so far by `pid` (`None` = this process),
/// including children it has waited for. 0 when the process is gone.
pub fn cpu_seconds(pid: Option<u32>) -> f64 {
    std::fs::read_to_string(proc_file(pid, "stat"))
        .ok()
        .and_then(|s| parse_stat(&s))
        .map_or(0.0, |t| t.seconds())
}

/// Peak resident set (`VmHWM`) of `pid` (`None` = this process) in MB.
/// 0 when the process is gone.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    std::fs::read_to_string(proc_file(pid, "status"))
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Resets the `VmHWM` of `pid` (`None` = this process) to its current
/// resident set, so the next peak read covers only what came after.
/// Best effort: where the kernel refuses, the peak covers the process's
/// whole life.
pub fn reset_peak_rss(pid: Option<u32>) {
    let _ = std::fs::write(proc_file(pid, "clear_refs"), "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_hostile_command_names() {
        let line = "4242 (par join) x) S 1 4242 4242 0 -1 4194560 901 12 0 0 \
                    157 23 11 5 20 0 3 0 1234 10000 200 18446744073709551615";
        assert_eq!(
            parse_stat(line),
            Some(CpuTicks {
                utime: 157,
                stime: 23,
                cutime: 11,
                cstime: 5
            })
        );
        let ticks = parse_stat(line).map(|t| t.seconds());
        assert_eq!(ticks, Some(1.96));
    }

    #[test]
    fn stat_rejects_truncated_lines() {
        assert_eq!(parse_stat("1 (x) S 1 2 3"), None);
        assert_eq!(parse_stat("no parens at all"), None);
    }

    #[test]
    fn status_kb_fields() {
        let status = "Name:\te2e\nVmPeak:\t  99999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1000));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        // A prefix of another key must not match.
        assert_eq!(parse_status_kb(status, "Vm"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb(None) > 0.0);
        assert!(cpu_seconds(None) >= 0.0);
        assert_eq!(peak_rss_mb(Some(u32::MAX)), 0.0);
    }
}
