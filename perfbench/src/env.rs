//! Where and on what the benchmark runs: the repository root (resolved
//! from the working directory at run time), provenance, and process memory.

use std::fs;
use std::path::{Path, PathBuf};

/// The benchmark's own directory, relative to the repository root.
pub const BENCH_DIR: &str = "perfbench";

/// Walks up from the working directory to the repository root: the first
/// directory whose `Cargo.toml` declares a workspace and which holds the
/// benchmark directory. Never the directory the binary was compiled in.
pub fn repo_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    cwd.ancestors()
        .find(|dir| {
            let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap_or_default();
            manifest.contains("[workspace]") && dir.join(BENCH_DIR).join("Cargo.toml").is_file()
        })
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("no repository root above {}", cwd.display()))
}

/// Provenance recorded on every result line.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// The git commit, or `tree-<digest>` of the sources outside git.
    pub commit: String,
    /// Available hardware threads.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|line| line.ends_with(reference))
        .and_then(|line| line.split_whitespace().next())
        .map(str::to_string)
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect_sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// Digest of the library sources, for checkouts without git metadata.
fn tree_digest(root: &Path) -> String {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["src", "crates", "vendor", BENCH_DIR] {
        collect_sources(&root.join(dir), &mut files);
    }
    files.sort();
    let contents: Vec<(String, String)> = files
        .iter()
        .map(|f| {
            let rel = f
                .strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .into_owned();
            (rel, fs::read_to_string(f).unwrap_or_default())
        })
        .collect();
    let digest = crate::checks::digest(contents.iter().map(|(n, c)| (n.as_str(), c.as_str())));
    format!("tree-{digest}")
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

impl Provenance {
    /// Provenance of a run from `root`.
    pub fn detect(root: &Path) -> Provenance {
        Provenance {
            commit: git_commit(root).unwrap_or_else(|| tree_digest(root)),
            nproc: nproc(),
            cpu: cpu_model(),
        }
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
