//! CPU time, peak memory and machine identity, read from `/proc`.

use std::fs;

/// `/proc/[pid]/stat` reports times in clock ticks; Linux fixes the
/// user-visible tick (`USER_HZ`) at 100 per second on every architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// utime + stime of all threads, in seconds, from a `/proc/[pid]/stat` line.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    // The command name (field 2) is parenthesised and may itself contain
    // spaces and parentheses; the numeric fields start after the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command name, field 3 (state) comes first: utime and stime
    // are fields 14 and 15, the 12th and 13th from here.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// `VmHWM` (peak resident set) in MiB, from `/proc/[pid]/status` text.
pub fn parse_status_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// First `model name` of `/proc/cpuinfo` text.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    let line = cpuinfo.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// CPU seconds this process has used so far, all threads.
pub fn cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_seconds(&s))
        .expect("/proc/self/stat is readable and well formed on Linux")
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_hwm_mib(&s))
        .expect("/proc/self/status carries VmHWM on Linux")
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| parse_cpu_model(&s))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_hostile_command_name() {
        let stat = "4242 (bench e2e) x) R 1 4242 4242 0 -1 4194304 1 2 3 4 \
                    1234 66 7 8 20 0 3 0 100 200 300";
        assert_eq!(parse_stat_cpu_seconds(stat), Some(13.0));
        assert_eq!(parse_stat_cpu_seconds("4242 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_seconds("no parenthesis"), None);
    }

    #[test]
    fn status_peak_rss() {
        let status =
            "Name:\tbench_e2e\nVmPeak:\t  999999 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_hwm_mib(status), Some(50.0));
        assert_eq!(parse_status_hwm_mib("Name:\tx\n"), None);
    }

    #[test]
    fn cpuinfo_model() {
        let cpuinfo = "processor\t: 0\nmodel name\t: Some CPU @ 2.10GHz\nmodel name\t: other\n";
        assert_eq!(
            parse_cpu_model(cpuinfo).as_deref(),
            Some("Some CPU @ 2.10GHz")
        );
        assert_eq!(parse_cpu_model("processor: 0\n"), None);
    }

    #[test]
    fn live_proc_is_readable() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
