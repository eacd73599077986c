//! Plain-text reporting helpers shared by the figure/table regenerators.

use std::sync::{Mutex, PoisonError};

/// Prints an aligned table: a header row then data rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Prints a CSV block (for plotting the figure series).
pub fn print_csv(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n-- csv: {title} --");
    println!("{}", headers.join(","));
    for row in rows {
        println!("{}", row.join(","));
    }
}

/// Renders a quick ASCII sparkline of a series (amplitude-normalised).
pub fn sparkline(series: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['1', '2', '3', '4', '5', '6', '7', '8'];
    // ct: allow(min fold is order-independent)
    let max = series.iter().cloned().fold(f64::MIN, f64::max);
    // ct: allow(max fold is order-independent)
    let min = series.iter().cloned().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-12);
    series
        .iter()
        .map(|v| GLYPHS[(((v - min) / span) * 7.0).round().clamp(0.0, 7.0) as usize])
        .collect()
}

/// Keys read through [`arg_or`], for [`reject_unread_args`].
static READ_KEYS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Tiny `key=value` CLI parser: returns the value for `key` or the
/// default. Exits with a message naming the key and the value when the
/// value does not parse.
pub fn arg_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    READ_KEYS.lock().unwrap_or_else(PoisonError::into_inner).push(key.to_string());
    arg_from(std::env::args().skip(1), key, default).unwrap_or_else(|msg| exit_usage(&msg))
}

/// Exits with status 2 and a message naming the key when an argument's
/// key was read by no [`arg_or`] call, so a misspelt key cannot
/// silently run the default. Call it after the bin's last `arg_or`.
pub fn reject_unread_args() {
    let read = READ_KEYS.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(key) = unread_key(std::env::args().skip(1), &read) {
        exit_usage(&format!("unknown argument `{key}` (this bin reads: {})", read.join(", ")));
    }
}

fn exit_usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// [`arg_or`] over an explicit argument list: the first `key=` argument
/// wins, and an unparsable value is an error rather than the default.
fn arg_from<T: std::str::FromStr>(
    args: impl IntoIterator<Item = String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    let prefix = format!("{key}=");
    match args.into_iter().find_map(|a| a.strip_prefix(&prefix).map(str::to_owned)) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid value for `{key}`: {v:?}")),
    }
}

/// The key of the first argument that is not in `read` (a bare word
/// is its own key).
fn unread_key(args: impl IntoIterator<Item = String>, read: &[String]) -> Option<String> {
    args.into_iter()
        .map(|a| a.split_once('=').map_or(a.clone(), |(k, _)| k.to_string()))
        .find(|k| !read.contains(k))
}

/// The commit checked out at the workspace root, read from `.git`;
/// `"unknown"` outside a git checkout. A `+dirty` suffix marks tracked
/// files that differ from that commit (when a `git` binary can tell).
pub fn git_rev() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let git = root.join(".git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let rev = read("HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(r) => read(r).map(|v| v.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|v| v.trim().to_string()))
        }),
    });
    let Some(rev) = rev else { return "unknown".into() };
    let status = std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["status", "--porcelain", "--untracked-files=no"])
        .output();
    match status {
        Ok(out) if out.status.success() && !out.stdout.is_empty() => format!("{rev}+dirty"),
        _ => rev,
    }
}

/// The host a measurement ran on: CPU model and logical CPU count.
pub fn host() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')))
        .map_or(std::env::consts::ARCH, |(_, m)| m.trim());
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("{model}, {cpus} logical CPUs")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        let chars: Vec<char> = s.chars().collect();
        assert!(chars[0] < chars[2]);
    }

    #[test]
    fn arg_default_passthrough() {
        assert_eq!(arg_or("nonexistent_key", 42u32), 42);
    }

    #[test]
    fn unparsable_arg_is_an_error_naming_key_and_value() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(arg_from(args(&["logn=3", "traces=400"]), "traces", 10_000usize), Ok(400));
        assert_eq!(arg_from(args(&["logn=3"]), "traces", 10_000usize), Ok(10_000));
        let err = arg_from(args(&["traces=4OO"]), "traces", 10_000usize).unwrap_err();
        assert!(err.contains("traces") && err.contains("4OO"), "{err}");
    }

    #[test]
    fn unread_key_is_named() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let read = args(&["logn", "noise", "traces", "width"]);
        assert_eq!(unread_key(args(&["logn=3", "traces=400", "width=8"]), &read), None);
        let typo = args(&["logn=3", "noise=1.0", "trace=400", "width=8"]);
        assert_eq!(unread_key(typo, &read).as_deref(), Some("trace"));
        assert_eq!(unread_key(args(&["--help"]), &read).as_deref(), Some("--help"));
    }
}
