//! Host facts recorded with every result: memory, cores and code identity.

use std::path::{Path, PathBuf};

/// A `Vm*` field of `/proc/self/status`, in MiB (None off Linux).
pub fn vm_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 =
        line[field.len()..].trim_start_matches(':').split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets the resident-memory high-water mark (`VmHWM`) to the current
/// resident size, so a later `VmHWM` covers only what came after.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The repository root the benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Where runs leave their span logs (ignored by git).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The checked-out commit when the tree is a git checkout, else
/// `"unknown"`. Reads `.git` directly: no git process, nothing outside
/// the tree.
pub fn commit() -> String {
    let git = repo_root().join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(git.join("HEAD")) else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(id) = read(git.join(reference)) {
        return id;
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l[..l.len() - reference.len()].trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the source the benchmark measures (the root manifest and
/// lock file, `src/` and every crate's manifest and `.rs` files), in path
/// order: identifies the code even where no git metadata exists.
pub fn source_digest() -> String {
    let root = repo_root();
    let mut files = Vec::new();
    for name in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(name));
    }
    collect(&root.join("src"), &mut files);
    collect(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let Ok(bytes) = std::fs::read(&f) else { continue };
        let rel = f.strip_prefix(&root).unwrap_or(&f).to_string_lossy().into_owned();
        for b in rel.bytes().chain([0]).chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}
