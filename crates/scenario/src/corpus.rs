//! The on-disk scenario corpus: one loader, one gate.
//!
//! A corpus is a directory of `<name>.ftsc` files plus a `golden/`
//! directory of `<name>.json` outcomes. [`load_dir`] turns the former
//! into compiled scenarios (or says, with a typed [`CorpusError`], what
//! stopped it); [`gate`] holds a replay's outcomes against their
//! `expect` lines, the oracles, and the golden bytes. The `chaos` bench
//! binary and the test suites both go through these two functions, so
//! "the corpus is green" means one thing.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::ast::Spec;
use crate::compile::{compile, CompiledScenario};
use crate::parse::{parse, render_diags};
use crate::run::ScenarioOutcome;

/// A corpus directory could not be loaded: where, and why.
#[derive(Debug)]
pub struct CorpusError {
    /// The directory or scenario file at fault.
    pub path: PathBuf,
    /// What was wrong with it.
    pub fault: CorpusFault,
}

/// The ways loading a corpus fails.
#[derive(Debug)]
pub enum CorpusFault {
    /// The directory could not be listed.
    UnreadableDir(io::Error),
    /// The directory holds no `.ftsc` file.
    Empty,
    /// The scenario file could not be read.
    UnreadableFile(io::Error),
    /// The parser rejected the file; the rendered `line:col` diagnostics.
    Rejected(String),
    /// The file declares this scenario name, which differs from its stem
    /// (goldens and exports key on the name, lookups on the stem).
    NameMismatch(String),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let path = self.path.display();
        match &self.fault {
            CorpusFault::UnreadableDir(e) | CorpusFault::UnreadableFile(e) => {
                write!(f, "cannot read {path}: {e}")
            }
            CorpusFault::Empty => write!(f, "no .ftsc files under {path}"),
            CorpusFault::Rejected(diags) => write!(f, "{path} rejected:\n{diags}"),
            CorpusFault::NameMismatch(name) => {
                write!(f, "{path}: file stem must equal the scenario name \"{name}\"")
            }
        }
    }
}

/// Parses every `*.ftsc` file directly under `dir`, sorted by scenario
/// name. Stops at the first file (in that order) that cannot be loaded.
pub fn load_specs(dir: &Path) -> Result<Vec<Spec>, CorpusError> {
    let fail = |path: &Path, fault| CorpusError {
        path: path.to_path_buf(),
        fault,
    };
    let unlisted = |e| fail(dir, CorpusFault::UnreadableDir(e));
    let mut files = Vec::new();
    for entry in fs::read_dir(dir).map_err(unlisted)? {
        let file = entry.map_err(unlisted)?.path();
        if file.extension().is_some_and(|x| x == "ftsc") {
            files.push(file);
        }
    }
    if files.is_empty() {
        return Err(fail(dir, CorpusFault::Empty));
    }
    // Stem order is name order: the two are checked equal below.
    files.sort_by(|a, b| a.file_stem().cmp(&b.file_stem()));
    files
        .iter()
        .map(|file| {
            let src = fs::read_to_string(file)
                .map_err(|e| fail(file, CorpusFault::UnreadableFile(e)))?;
            let spec = parse(&src)
                .map_err(|d| fail(file, CorpusFault::Rejected(render_diags(&d))))?;
            if file.file_stem().and_then(|s| s.to_str()) != Some(spec.name.as_str()) {
                return Err(fail(file, CorpusFault::NameMismatch(spec.name)));
            }
            Ok(spec)
        })
        .collect()
}

/// Loads and compiles a corpus directory: [`load_specs`], lowered.
pub fn load_dir(dir: &Path) -> Result<Vec<CompiledScenario>, CorpusError> {
    Ok(load_specs(dir)?.iter().map(compile).collect())
}

/// What [`gate`] found; no `failures` means the corpus is green.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GateReport {
    /// Outcomes whose verdict disagrees with their `expect` line.
    pub mismatches: u64,
    /// Oracle and SLO-bound violations, summed over the corpus.
    pub violations: u64,
    /// Outcomes whose JSON differs from (or has no) golden file, and
    /// goldens that could not be written in update mode.
    pub golden_diffs: u64,
    /// One human-readable line per finding counted above.
    pub failures: Vec<String>,
}

/// Gates a replay three ways: each outcome's verdict equals its `expect`
/// line, no oracle or SLO bound was violated, and its JSON is
/// byte-identical to `golden_dir/<name>.json`.
///
/// With `update`, a golden that differs is rewritten instead of
/// reported — but only for an outcome that passed the first two gates,
/// so a broken run can never be pinned as the new truth.
pub fn gate(outcomes: &[ScenarioOutcome], golden_dir: &Path, update: bool) -> GateReport {
    let mut report = GateReport::default();
    for o in outcomes {
        let violations = o.violations();
        report.violations += violations.len() as u64;
        for v in &violations {
            report.failures.push(format!("{}: violation: {v}", o.name));
        }
        let mismatch = o.check().err();
        if let Some(m) = &mismatch {
            report.mismatches += 1;
            report.failures.push(format!("mismatch: {m}"));
        }

        let golden = golden_dir.join(format!("{}.json", o.name));
        let json = o.to_json();
        let pinned = fs::read_to_string(&golden).ok();
        if pinned.as_deref() == Some(json.as_str()) {
            continue;
        }
        let complaint = if update && mismatch.is_none() && violations.is_empty() {
            match fs::create_dir_all(golden_dir).and_then(|()| fs::write(&golden, &json)) {
                Ok(()) => continue,
                Err(e) => format!("cannot write: {e}"),
            }
        } else if pinned.is_some() {
            "golden drifted (verify the change, then `chaos --update`)".to_string()
        } else {
            "golden missing (`chaos --update` writes it)".to_string()
        };
        report.golden_diffs += 1;
        report.failures.push(format!("{}: {complaint}", golden.display()));
    }
    report
}
