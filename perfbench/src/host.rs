//! The host stamp every result carries, and the process's peak memory.

use std::path::Path;

/// Where and how a result was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostStamp {
    /// CPU model from `/proc/cpuinfo`.
    pub cpu: String,
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// The compiler that built the benchmark and the program.
    pub rustc: &'static str,
    /// Git revision of the checkout, when it is a git work tree.
    pub git_rev: String,
    /// Cargo build profile.
    pub profile: &'static str,
}

impl HostStamp {
    /// Reads the stamp of this process, resolving the git revision from
    /// `root` (the checkout the benchmark runs in).
    #[must_use]
    pub fn read(root: &Path) -> HostStamp {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        HostStamp {
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            rustc: env!("PERFBENCH_RUSTC"),
            git_rev: git_rev(root).unwrap_or_else(|| "unknown (not a git work tree)".to_string()),
            profile: env!("PERFBENCH_PROFILE"),
        }
    }

    /// The stamp as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu\":\"{}\",\"nproc\":{},\"rustc\":\"{}\",\"git_rev\":\"{}\",\"profile\":\"{}\"}}",
            json_str(&self.cpu),
            self.nproc,
            json_str(self.rustc),
            json_str(&self.git_rev),
            json_str(self.profile),
        )
    }
}

/// `s` with JSON string escapes applied (quotes not included).
fn json_str(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// `HEAD`'s commit, read straight from `.git` (no `git` process).
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs")).ok()?.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// Resets the process's resident-set high-water mark to its current
/// resident set (Linux 4.0+), so [`peak_rss_mib`] then reports the peak
/// of what runs next. Without kernel support the mark is not reset and
/// [`peak_rss_mib`] reports the peak since the process started.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's resident-set high-water mark (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
