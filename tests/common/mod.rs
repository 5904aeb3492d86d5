//! Shared by the chaos suites: named scenarios come from the
//! `scenarios/*.ftsc` corpus, never from a list in Rust.

use std::path::Path;

use ftgm_scenario::{load_dir, CompiledScenario};

/// The six single-zone acceptance scenarios (flips inside recovery,
/// back-to-back hangs, forced escalation, multi-node flips, a cable
/// pull, a lossy window) the smoke and export-determinism tests sweep.
pub const STANDARD: [&str; 6] = [
    "double-flip-during-reload",
    "back-to-back-hangs",
    "persistent-hang-escalates",
    "ring4-two-nodes-flipped",
    "star3-link-flap",
    "lossy-link-exactly-once",
];

/// Loads the corpus and returns the named scenarios, in the order
/// asked for. A name with no `scenarios/<name>.ftsc` behind it fails
/// the calling test.
pub fn pick(names: &[&str]) -> Vec<CompiledScenario> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let corpus = load_dir(&dir).unwrap_or_else(|e| panic!("{e}"));
    names
        .iter()
        .map(|name| {
            corpus
                .iter()
                .find(|c| c.name == *name)
                .unwrap_or_else(|| panic!("scenario names drifted: no scenarios/{name}.ftsc"))
                .clone()
        })
        .collect()
}
