//! What every result is stamped with: the machine, the thread settings,
//! the commit and the compiler.

use std::process::{Command, Stdio};

/// Threads the load generator runs: the sender (the main thread) and
/// the collector.
pub const GENERATOR_THREADS: usize = 2;

#[derive(Debug, Clone)]
pub struct Stamp {
    pub nproc: usize,
    pub qpp_threads: String,
    pub workers: usize,
    pub generator_threads: usize,
    pub commit: String,
    pub rustc: String,
}

impl Stamp {
    pub fn collect() -> Stamp {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Stamp {
            nproc,
            qpp_threads: std::env::var("QPP_THREADS").unwrap_or_else(|_| "unset".into()),
            workers: nproc,
            generator_threads: GENERATOR_THREADS,
            commit: commit(),
            rustc: rustc_version(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"qpp_threads\": \"{}\", \"service_workers\": {}, \"generator_threads\": {}, \"commit\": \"{}\", \"rustc\": \"{}\"}}",
            self.nproc,
            escape(&self.qpp_threads),
            self.workers,
            self.generator_threads,
            escape(&self.commit),
            escape(&self.rustc)
        )
    }
}

/// The commit of the checkout, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unresolved {r}")),
        None => head,
    }
}

fn rustc_version() -> String {
    Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("--version")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Escapes a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_keeps_json_valid() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
