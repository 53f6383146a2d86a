//! The run manifest printed with every result, so that results from
//! different configurations or hosts are never compared silently.

use st2::prelude::GpuConfig;

use crate::workloads::fnv1a;

/// Host logical CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
}

/// The compiler that built the benchmark (captured by `build.rs`).
#[must_use]
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it; `None` outside a git checkout.
#[must_use]
pub fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// A stable hash of a configuration: FNV-1a over its `Debug` rendering,
/// which names every field.
#[must_use]
pub fn config_hash(cfg: &GpuConfig) -> u64 {
    fnv1a(format!("{cfg:?}").as_bytes())
}

/// Peak resident set of this process in MiB (`VmHWM`), if the host
/// reports it.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_hash_is_stable_and_sensitive() {
        let a = GpuConfig::titan_v_full().with_sim_threads(1);
        assert_eq!(config_hash(&a), config_hash(&a.clone()));
        assert_ne!(config_hash(&a), config_hash(&a.with_mshr_entries(8)));
    }

    #[test]
    fn peak_rss_is_positive_where_reported() {
        if let Some(mib) = peak_rss_mib() {
            assert!(mib > 0.0);
        }
    }
}
