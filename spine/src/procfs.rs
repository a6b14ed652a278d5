//! What Linux says about a child process: CPU time and peak memory.
//!
//! `/proc/<pid>/stat` carries `utime`/`stime` for the whole thread group
//! and keeps them readable while the process is a zombie, so a child's
//! final CPU bill is read after it finishes and before it is reaped.
//! `/proc/<pid>/status` carries `VmHWM`, the peak resident set — gone the
//! moment the process releases its address space, so it is sampled while
//! the process is alive.

use std::fs;

/// Kernel clock ticks per second behind `utime`/`stime`. `USER_HZ` has
/// been 100 on every Linux ABI since 2.6; reading it properly would need
/// `sysconf`, and this package forbids `unsafe`.
pub const TICKS_PER_SECOND: f64 = 100.0;

/// The fields of one `/proc/<pid>/stat` line the spine reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatLine {
    /// Scheduler state letter (`R`, `S`, `Z`, …).
    pub state: char,
    /// User-mode ticks of the thread group.
    pub utime_ticks: u64,
    /// Kernel-mode ticks of the thread group.
    pub stime_ticks: u64,
}

impl StatLine {
    /// CPU seconds, user plus kernel.
    pub fn cpu_seconds(&self) -> f64 {
        (self.utime_ticks + self.stime_ticks) as f64 / TICKS_PER_SECOND
    }
}

/// Parses one `/proc/<pid>/stat` line. The command name sits in
/// parentheses and may itself contain spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_stat_line(text: &str) -> Option<StatLine> {
    let after = &text[text.rfind(')')? + 1..];
    let mut fields = after.split_whitespace();
    let state = fields.next()?.chars().next()?;
    // After the state come ppid … cmajflt (10 fields), then utime, stime.
    let mut rest = fields.skip(10);
    let utime_ticks = rest.next()?.parse().ok()?;
    let stime_ticks = rest.next()?.parse().ok()?;
    Some(StatLine { state, utime_ticks, stime_ticks })
}

/// Reads a `key:   <n> kB` line out of `/proc/<pid>/status` text.
pub fn parse_status_kb(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// The live `stat` line of `pid`, if the process (or its zombie) exists.
pub fn read_stat_line(pid: u32) -> Option<StatLine> {
    parse_stat_line(&fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Peak resident set of `pid` in KiB; `None` once the process has let go
/// of its memory.
pub fn read_peak_rss_kb(pid: u32) -> Option<u64> {
    parse_status_kb(&fs::read_to_string(format!("/proc/{pid}/status")).ok()?, "VmHWM")
}

/// One-minute load average, for the provenance header.
pub fn read_loadavg() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// Processors listed in `/proc/cpuinfo` — what `nproc --all` would say,
/// next to the cgroup-aware `available_parallelism`.
pub fn cpuinfo_processors() -> usize {
    fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_survives_hostile_command_names() {
        let line = "4242 (pasco) serve) R 1 4242 4242 0 -1 4194304 901 0 0 0 \
                    157 31 0 0 20 0 3 0 1234 5678 90 18446744073709551615";
        let s = parse_stat_line(line).unwrap();
        assert_eq!(s, StatLine { state: 'R', utime_ticks: 157, stime_ticks: 31 });
        assert!((s.cpu_seconds() - 1.88).abs() < 1e-12);
        let zombie = "7 (z) Z 1 7 7 0 -1 0 0 0 0 0 12 3 0 0 20 0 1 0 1 0 0";
        assert_eq!(parse_stat_line(zombie).unwrap().state, 'Z');
        assert_eq!(parse_stat_line("no parens here"), None);
        assert_eq!(parse_stat_line("1 (short) S 1 2"), None);
    }

    #[test]
    fn status_reads_the_named_kb_line_only() {
        let text = "Name:\tpasco\nVmPeak:\t  999 kB\nVmHWM:\t   81234 kB\nVmRSS:\t 5 kB\n";
        assert_eq!(parse_status_kb(text, "VmHWM"), Some(81_234));
        assert_eq!(parse_status_kb(text, "VmRSS"), Some(5));
        assert_eq!(parse_status_kb(text, "VmSwap"), None);
        // A zombie's status has no Vm* lines at all.
        assert_eq!(parse_status_kb("Name:\tpasco\nState:\tZ (zombie)\n", "VmHWM"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let me = std::process::id();
        assert!(read_stat_line(me).is_some());
        assert!(read_peak_rss_kb(me).unwrap() > 0);
        assert!(cpuinfo_processors() >= 1);
    }
}
