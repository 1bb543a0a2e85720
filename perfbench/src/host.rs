//! Std-only host probes read from `/proc/self` at phase boundaries.

/// Peak resident set size (`VmHWM`), KiB.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Process CPU time so far, in clock ticks (all threads, live and
/// exited).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTimes {
    /// User-mode ticks (`utime`).
    pub user: u64,
    /// Kernel-mode ticks (`stime`).
    pub sys: u64,
}

impl CpuTimes {
    /// Reads `/proc/self/stat`; zeros when it is unavailable.
    pub fn now() -> CpuTimes {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat(&s))
            .unwrap_or_default()
    }

    /// Ticks spent between `earlier` and `self`.
    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
        }
    }

    /// Kernel share of the CPU time, `sys / (user + sys)` (0 when no
    /// time was charged).
    pub fn sys_share(self) -> f64 {
        let total = self.user + self.sys;
        if total == 0 {
            0.0
        } else {
            self.sys as f64 / total as f64
        }
    }

    /// `user`/`sys` in seconds, taking the kernel's fixed `USER_HZ` of
    /// 100 ticks per second.
    pub fn seconds(self) -> (f64, f64) {
        (self.user as f64 / 100.0, self.sys as f64 / 100.0)
    }
}

/// Fields 14 and 15 of `/proc/<pid>/stat`, counted after the
/// parenthesised command name (which may itself contain spaces).
fn parse_stat(stat: &str) -> Option<CpuTimes> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    Some(CpuTimes {
        user: fields.next()?.parse().ok()?,
        sys: fields.next()?.parse().ok()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_follow_the_command_name() {
        let line = "42 (a b) S 1 2 3 4 5 6 7 8 9 10 111 222 0 0";
        assert_eq!(
            parse_stat(line),
            Some(CpuTimes {
                user: 111,
                sys: 222
            })
        );
    }

    #[test]
    fn probes_read_this_process() {
        assert!(peak_rss_kib().unwrap_or(0) > 0);
        let t = CpuTimes::now();
        assert!(t.sys_share() >= 0.0 && t.sys_share() <= 1.0);
    }
}
