//! Hand-rolled `/proc` readers (the workspace is hermetic, so no crate
//! does this for us): process CPU time, peak resident set, and per-task
//! run-queue wait.

use std::collections::BTreeMap;
use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// exports `USER_HZ` = 100 to user space on every architecture it
/// supports.
const USER_HZ: f64 = 100.0;

/// Process on-CPU time (utime + stime, every thread, live or exited)
/// in seconds, from `/proc/self/stat`.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // the command name may hold spaces; fields resume after its ')'
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // fields 14 and 15 of stat(5), counted from `state` (field 3) here
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn parse_schedstat(text: &str) -> (u64, u64) {
    let mut it = text
        .split_whitespace()
        .map(|f| f.parse::<u64>().unwrap_or(0));
    (it.next().unwrap_or(0), it.next().unwrap_or(0))
}

/// The calling thread's `(on-CPU ns, run-queue wait ns)` from
/// `/proc/thread-self/schedstat`.
pub fn thread_schedstat() -> (u64, u64) {
    fs::read_to_string("/proc/thread-self/schedstat").map_or((0, 0), |t| parse_schedstat(&t))
}

/// Per-task `(on-CPU ns, run-queue wait ns)` from
/// `/proc/self/task/*/schedstat`, keyed by thread id.
pub fn task_schedstat() -> BTreeMap<u64, (u64, u64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        if let Ok(text) = fs::read_to_string(entry.path().join("schedstat")) {
            out.insert(tid, parse_schedstat(&text));
        }
    }
    out
}

/// Share of runnable time spent waiting for a CPU: wait ÷ (on-CPU +
/// wait), over the tasks alive at both `before` and `after` (HTTP
/// workers, the retrainer) plus the per-thread deltas the benchmark's
/// own short-lived threads measured themselves (`threads`).
pub fn runq_wait_share(
    before: &BTreeMap<u64, (u64, u64)>,
    after: &BTreeMap<u64, (u64, u64)>,
    threads: &[(u64, u64)],
) -> f64 {
    let (mut run, mut wait) = (0u64, 0u64);
    for (tid, &(r1, w1)) in after {
        if let Some(&(r0, w0)) = before.get(tid) {
            run += r1.saturating_sub(r0);
            wait += w1.saturating_sub(w0);
        }
    }
    for &(r, w) in threads {
        run += r;
        wait += w;
    }
    if run + wait == 0 {
        0.0
    } else {
        wait as f64 / (run + wait) as f64
    }
}

/// Runs `f` and returns its result with the calling thread's
/// `(on-CPU ns, run-queue wait ns)` spent inside it.
pub fn with_schedstat<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let (r0, w0) = thread_schedstat();
    let out = f();
    let (r1, w1) = thread_schedstat();
    (out, (r1.saturating_sub(r0), w1.saturating_sub(w0)))
}

/// `(steal ticks, all ticks)` of the machine's aggregate `cpu` line in
/// `/proc/stat`.
pub fn host_cpu_ticks() -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user and nice
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// Share of machine time the hypervisor gave to other guests between
/// two [`host_cpu_ticks`] samples: a neighbour-load indicator.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// The checked-out revision, read from `.git` in the working directory
/// by hand (no `git` process, nothing outside the checkout); `unknown`
/// when the tree is not a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return short(&head);
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return short(&rev);
    }
    read(".git/packed-refs")
        .and_then(|packed| packed.lines().find(|l| l.ends_with(reference)).map(short))
        .unwrap_or_else(|| "unknown".into())
}

fn short(rev: &str) -> String {
    rev.chars().take(12).collect()
}
