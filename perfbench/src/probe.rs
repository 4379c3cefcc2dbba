//! Operating-system counters read from outside the program: per-thread CPU
//! time and context switches from `/proc/self/task/*`, host steal time from
//! `/proc/stat`, and peak resident memory from `/proc/self/status`.

use std::fs;

/// Cumulative counters of a set of threads.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadCpu {
    /// On-CPU time in nanoseconds (`schedstat`).
    pub run_ns: u64,
    /// User and system time in clock ticks (`stat`).
    pub user_ticks: u64,
    pub sys_ticks: u64,
    /// Voluntary plus involuntary context switches (`status`).
    pub ctx_switches: u64,
}

impl ThreadCpu {
    pub fn since(&self, before: &ThreadCpu) -> ThreadCpu {
        ThreadCpu {
            run_ns: self.run_ns.saturating_sub(before.run_ns),
            user_ticks: self.user_ticks.saturating_sub(before.user_ticks),
            sys_ticks: self.sys_ticks.saturating_sub(before.sys_ticks),
            ctx_switches: self.ctx_switches.saturating_sub(before.ctx_switches),
        }
    }

    pub fn add(&mut self, other: &ThreadCpu) {
        self.run_ns += other.run_ns;
        self.user_ticks += other.user_ticks;
        self.sys_ticks += other.sys_ticks;
        self.ctx_switches += other.ctx_switches;
    }

    /// Kernel share of the thread time, 0 when no tick was charged.
    pub fn sys_share(&self) -> f64 {
        let ticks = self.user_ticks + self.sys_ticks;
        if ticks == 0 {
            0.0
        } else {
            self.sys_ticks as f64 / ticks as f64
        }
    }
}

fn read_thread(dir: &str) -> Option<ThreadCpu> {
    let schedstat = fs::read_to_string(format!("{dir}/schedstat")).ok()?;
    let run_ns = schedstat.split_whitespace().next()?.parse().ok()?;
    let stat = fs::read_to_string(format!("{dir}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let user_ticks = fields.get(11)?.parse().ok()?;
    let sys_ticks = fields.get(12)?.parse().ok()?;
    let status = fs::read_to_string(format!("{dir}/status")).ok()?;
    let ctx_switches = status
        .lines()
        .filter(|l| l.starts_with("voluntary_ctxt_switches") || l.starts_with("nonvoluntary_"))
        .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum();
    Some(ThreadCpu {
        run_ns,
        user_ticks,
        sys_ticks,
        ctx_switches,
    })
}

/// Summed counters of this process's threads whose name starts with
/// `prefix` (thread names are the `comm` field, at most 15 bytes).
pub fn threads_named(prefix: &str) -> ThreadCpu {
    let mut total = ThreadCpu::default();
    let Ok(entries) = fs::read_dir("/proc/self/task") else {
        return total;
    };
    for entry in entries.flatten() {
        let dir = entry.path().display().to_string();
        let Ok(comm) = fs::read_to_string(format!("{dir}/comm")) else {
            continue;
        };
        if comm.trim_end().starts_with(prefix) {
            if let Some(counters) = read_thread(&dir) {
                total.add(&counters);
            }
        }
    }
    total
}

/// Counters of the calling thread.
pub fn this_thread() -> ThreadCpu {
    read_thread("/proc/thread-self").unwrap_or_default()
}

/// Host steal time across all CPUs, in clock ticks.
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Clock ticks per second of the `/proc` tick counters (`USER_HZ`, which
/// Linux fixes at 100 for user space).
pub const TICKS_PER_S: f64 = 100.0;

/// Peak resident set size of this process in kB (`VmHWM`).
pub fn peak_rss_kb() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}
