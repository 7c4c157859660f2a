//! Run stamp and environment guard: every output says what produced it,
//! and the harness refuses to start in an environment that would silently
//! re-route a workload.

use crate::json::Json;
use std::path::Path;
use std::process::Command;

/// Environment variables that override the workload's own kernel
/// configuration (`KernelConfig::effective_fabric` / `effective_reactors`
/// read them): with either set, `udp_unicast` might ride the sim fabric or
/// every workload might run multi-reactor, and the numbers would still
/// carry the workload's name.
const OVERRIDES: [&str; 2] = ["DOCT_FABRIC", "DOCT_REACTORS"];

/// Refuse to run under a configuration override, then hand `seed` to the
/// fabric's own random choices (retransmit jitter) through `DOCT_SEED`.
///
/// # Errors
///
/// Names the offending variable.
pub fn guard_environment(seed: u64) -> Result<(), String> {
    for var in OVERRIDES {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set: it overrides the workload's configuration; unset it"
            ));
        }
    }
    // Single-threaded here: called from `main` before any cluster exists.
    std::env::set_var("DOCT_SEED", seed.to_string());
    Ok(())
}

/// The commit a working tree is at, read from `.git` directly: the
/// driver's checkout is not a repository and has no `git` to ask.
fn git_rev(repo_root: &Path) -> Option<String> {
    let git = repo_root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
}

fn rustc_version() -> Option<String> {
    let out = Command::new("rustc").arg("--version").output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// What every output carries: the code, the host and the toolchain.
pub fn run_stamp() -> Json {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj()
        .with(
            "git_rev",
            git_rev(&repo_root).unwrap_or_else(|| "unknown".into()),
        )
        .with("nproc", cores)
        .with("rustc", rustc_version().unwrap_or_else(|| "unknown".into()))
        .with("benchmark_version", env!("CARGO_PKG_VERSION"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_rev_follows_a_symbolic_head() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("stamp-test-{}", std::process::id()));
        let git = dir.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).expect("temp dir");
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").expect("write");
        std::fs::write(git.join("refs/heads/main"), "abc123\n").expect("write");
        assert_eq!(git_rev(&dir), Some("abc123".into()));
        std::fs::remove_file(git.join("refs/heads/main")).expect("remove");
        std::fs::write(
            git.join("packed-refs"),
            "# pack-refs\nfff999 refs/heads/main\n",
        )
        .expect("write");
        assert_eq!(git_rev(&dir), Some("fff999".into()));
        std::fs::write(git.join("HEAD"), "deadbeef\n").expect("write");
        assert_eq!(git_rev(&dir), Some("deadbeef".into()));
        assert_eq!(git_rev(&dir.join("absent")), None);
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn stamp_names_the_host() {
        let stamp = run_stamp();
        assert!(stamp
            .get("nproc")
            .and_then(Json::as_f64)
            .is_some_and(|n| n >= 1.0));
        assert!(stamp.get("git_rev").is_some() && stamp.get("rustc").is_some());
    }
}
