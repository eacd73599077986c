//! Process and host readings from `/proc`, plus the git rev recorded
//! with every result.

use std::path::Path;

/// Hands freed heap memory back to the kernel (glibc only), so the
/// resident set after set-up holds live data and not the allocator's
/// cache of what set-up freed.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointers and only releases
        // free memory inside glibc's own allocator state.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets the peak-RSS mark (`VmHWM`) so a later [`peak_rss_mb`] reads
/// the peak of what ran since. Returns false where the kernel does not
/// support it; the peak then also covers what ran before.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn status_kib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set since start or the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// User plus system CPU time of the whole process, every thread that
/// ever ran in it included, in seconds (10 ms resolution).
pub fn cpu_secs() -> f64 {
    const TICKS_PER_SEC: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / TICKS_PER_SEC
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1)
}

/// The commit checked out at `repo`, read from `.git` without running
/// git; `None` outside a git checkout.
pub fn git_rev(repo: &Path) -> Option<String> {
    let git = repo.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return Some(head.to_string()) };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
}
