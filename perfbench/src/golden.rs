//! The golden simulated-stat reference, `perfbench/golden.txt`.
//!
//! One line per simulated output: `<workload> <key> <value> <digest>`,
//! where the value is simulated cycles (record or comparison counts for
//! the replay legs) and the digest is FNV-1a over the `Debug` rendering
//! of the output's statistics (`ActivityCounters` for timed runs). Every
//! pass is compared against it. `chip80_starved` is keyed by seed and
//! the reference covers seeds `0..BLESS_SEEDS`; on other seeds only its
//! seed-independent `shape` line applies, next to the pass-to-pass
//! determinism check every workload gets.
//!
//! Regenerate after a deliberate model change with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --bless > perfbench/golden.txt`.

use std::collections::BTreeMap;

use crate::workloads::{Checks, GoldenEntry};

/// `chip80_starved` seeds the reference covers.
pub const BLESS_SEEDS: u64 = 100;

/// The parsed reference.
#[derive(Debug, Default)]
pub struct Golden {
    entries: BTreeMap<(String, String), (u64, u64)>,
}

impl Golden {
    /// Parses the reference text.
    ///
    /// # Errors
    ///
    /// Names the first malformed or duplicated line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("golden line {}: {line:?}", n + 1);
            let f: Vec<&str> = line.split_whitespace().collect();
            let [workload, key, value, digest] = f[..] else {
                return Err(bad());
            };
            let value = value.parse().map_err(|_| bad())?;
            let digest = u64::from_str_radix(digest, 16).map_err(|_| bad())?;
            if entries
                .insert((workload.to_string(), key.to_string()), (value, digest))
                .is_some()
            {
                return Err(format!("{}: duplicate entry", bad()));
            }
        }
        Ok(Golden { entries })
    }

    /// Compares a pass's outputs against the reference, one check per
    /// output. Returns how many outputs had no reference line (only
    /// `chip80_starved` seeds outside the blessed range may lack one;
    /// anything else missing is a failure).
    pub fn check(&self, workload: &str, produced: &[GoldenEntry], checks: &mut Checks) -> usize {
        let mut uncovered = 0;
        for e in produced {
            match self.entries.get(&(workload.to_string(), e.key.clone())) {
                Some(&(value, digest)) => {
                    checks.check(value == e.value && digest == e.digest, || {
                        format!(
                            "{workload} {}: got {} {:016x}, golden {value} {digest:016x}",
                            e.key, e.value, e.digest
                        )
                    })
                }
                None if e.key.starts_with("seed=") => uncovered += 1,
                None => checks.check(false, || format!("{workload} {}: no golden entry", e.key)),
            }
        }
        uncovered
    }
}

/// Renders outputs as reference lines.
#[must_use]
pub fn render(workload: &str, entries: &[GoldenEntry]) -> String {
    entries
        .iter()
        .map(|e| format!("{workload} {} {} {:016x}\n", e.key, e.value, e.digest))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: &str, value: u64, digest: u64) -> GoldenEntry {
        GoldenEntry {
            key: key.into(),
            value,
            digest,
        }
    }

    #[test]
    fn render_parse_round_trip_and_check() {
        let produced = vec![entry("binomial/base", 53389, 0xabc), entry("seed=3", 9, 1)];
        let text = format!("# comment\n{}", render("w", &produced));
        let g = Golden::parse(&text).expect("parses");
        let mut checks = Checks::default();
        assert_eq!(g.check("w", &produced, &mut checks), 0);
        assert_eq!(
            checks,
            Checks {
                attempted: 2,
                failed: 0
            }
        );

        let drifted = vec![entry("binomial/base", 53390, 0xabc)];
        g.check("w", &drifted, &mut checks);
        assert_eq!(checks.failed, 1, "a cycle change is a failure");

        let mut checks = Checks::default();
        let unseen = vec![entry("seed=4", 1, 1), entry("sgemm/base", 1, 1)];
        assert_eq!(
            g.check("w", &unseen, &mut checks),
            1,
            "uncovered seeds are skipped"
        );
        assert_eq!(
            checks,
            Checks {
                attempted: 1,
                failed: 1
            },
            "a missing kernel is not"
        );
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Golden::parse("w k 1").is_err());
        assert!(Golden::parse("w k x 00").is_err());
        assert!(Golden::parse("w k 1 zz").is_err());
        assert!(Golden::parse("w k 1 0\nw k 2 0").is_err());
    }
}
