//! Stored reference outputs, one per workload and seed.
//!
//! `refs/references.txt` holds lines `<workload> <seed> <key> <value>`.
//! The keys are the input digest, the output digest (every request and
//! failure record, or every training step's metrics), the simulated
//! operation and failure counts, and every simulated metric. Values are
//! compared as printed, so a float must match to its last digit.

use std::collections::BTreeMap;
use std::path::Path;

/// The seed the documentation's baseline uses.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, so later claims can be checked on it.
pub const HELDOUT_SEED: u64 = 1009;

/// The reference file, relative to the benchmark's directory.
pub const FILE: &str = "refs/references.txt";

/// Key/value pairs of one workload and seed.
pub type Entry = BTreeMap<String, String>;

/// All stored references, keyed by `(workload, seed)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct References {
    entries: BTreeMap<(String, u64), Entry>,
}

impl References {
    /// Parses the file format.
    pub fn parse(text: &str) -> Result<References, String> {
        let mut refs = References::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parts: Vec<&str> = line.split_whitespace().collect();
            let [workload, seed, key, value] = parts[..] else {
                return Err(format!("line {}: expected 4 fields", i + 1));
            };
            let seed: u64 = seed
                .parse()
                .map_err(|e| format!("line {}: seed: {e}", i + 1))?;
            refs.entries
                .entry((workload.to_string(), seed))
                .or_default()
                .insert(key.to_string(), value.to_string());
        }
        Ok(refs)
    }

    /// Reads the file; a missing file holds no references.
    pub fn load(path: &Path) -> Result<References, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => References::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(References::default()),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    /// The stored entry of a workload and seed.
    pub fn get(&self, workload: &str, seed: u64) -> Option<&Entry> {
        self.entries.get(&(workload.to_string(), seed))
    }

    /// Replaces the entry of a workload and seed.
    pub fn set(&mut self, workload: &str, seed: u64, entry: Entry) {
        self.entries.insert((workload.to_string(), seed), entry);
    }

    /// The file format, sorted.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Reference outputs: <workload> <seed> <key> <value>. Regenerate with\n\
             # `--update-reference` only when a change is meant to alter simulated results.\n",
        );
        for ((w, seed), entry) in &self.entries {
            for (k, v) in entry {
                out.push_str(&format!("{w} {seed} {k} {v}\n"));
            }
        }
        out
    }
}

/// Every key where `actual` differs from `expected`, one line each.
pub fn compare(expected: &Entry, actual: &Entry) -> Vec<String> {
    let mut out = Vec::new();
    for (k, want) in expected {
        match actual.get(k) {
            Some(got) if got == want => {}
            Some(got) => out.push(format!("{k}: reference {want}, run {got}")),
            None => out.push(format!("{k}: reference {want}, run has none")),
        }
    }
    for k in actual.keys().filter(|k| !expected.contains_key(*k)) {
        out.push(format!("{k}: not in the reference"));
    }
    out
}
