//! The parent process. It measures nothing itself: it spawns one fresh
//! child per (workload, repetition), one at a time, reads their lines and
//! aggregates — medians and quartiles for the host clock, exact equality
//! for counts, simulated time and checksums.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::child::Workload;
use crate::metrics::{self, Better, Def};

/// What one child printed.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Repetition index, and position in the order the children ran.
    pub rep: usize,
    pub order: usize,
    /// Spawn to exit, host seconds.
    pub elapsed_s: f64,
    pub metrics: BTreeMap<String, f64>,
    pub checks: BTreeMap<String, String>,
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Exit status 0 and a tally line seen.
    pub ok: bool,
}

impl Report {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }
}

pub struct Spawner {
    exe: std::path::PathBuf,
    order: usize,
}

impl Spawner {
    pub fn new() -> std::io::Result<Spawner> {
        Ok(Spawner {
            exe: std::env::current_exe()?,
            order: 0,
        })
    }

    /// Runs one child to completion. Children inherit standard error, so
    /// a panic in the program under test is seen, not swallowed.
    pub fn run(
        &mut self,
        workload: Workload,
        seed: u64,
        seconds: u64,
        traced: bool,
        setup_only: bool,
        rep: usize,
    ) -> Report {
        let mut cmd = Command::new(&self.exe);
        cmd.arg("--child")
            .arg(workload.name())
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if setup_only {
            cmd.arg("--setup-only");
        }
        let started = Instant::now();
        let output = cmd.output();
        let mut report = Report {
            workload: workload.name(),
            seed,
            seconds,
            traced,
            rep,
            order: self.order,
            elapsed_s: started.elapsed().as_secs_f64(),
            ..Report::default()
        };
        self.order += 1;
        let Ok(output) = output else {
            return report;
        };
        let mut tally = setup_only;
        for line in String::from_utf8_lossy(&output.stdout).lines() {
            let mut parts = line.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("m"), Some(name), Some(value)) => {
                    if let Ok(v) = value.parse::<f64>() {
                        report.metrics.insert(name.to_string(), v);
                    }
                }
                (Some("c"), Some(name), Some(sum)) => {
                    report.checks.insert(name.to_string(), sum.to_string());
                }
                (Some("r"), Some(attempted), Some(failed)) => {
                    report.attempted = attempted.parse().unwrap_or(0);
                    report.failed = failed.parse().unwrap_or(u64::MAX);
                    tally = true;
                }
                (Some("n"), Some(a), b) => {
                    report.notes.push(format!("{a} {}", b.unwrap_or("")));
                }
                _ => {}
            }
        }
        report.ok = output.status.success() && tally;
        report
    }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so spreads read the same here as in a driver
/// written in Python. One value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One metric on one workload over a set of repetitions.
#[derive(Clone, Debug)]
pub struct Cell {
    pub def: &'static Def,
    pub values: Vec<f64>,
}

impl Cell {
    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    pub fn iqr(&self) -> f64 {
        let (q1, _, q3) = quartiles(&self.values);
        q3 - q1
    }
}

/// A workload's rows: end-to-end cells from untraced children, per-layer
/// cells from the traced child (counts also from the untraced ones).
pub struct WorkloadSet {
    pub workload: Workload,
    pub untraced: Vec<Report>,
    pub traced: Option<Report>,
}

impl WorkloadSet {
    pub fn end_to_end(&self) -> Vec<Cell> {
        metrics::END_TO_END
            .iter()
            .filter_map(|def| {
                let values: Vec<f64> = self
                    .untraced
                    .iter()
                    .filter_map(|r| r.get(def.name))
                    .collect();
                (!values.is_empty()).then_some(Cell { def, values })
            })
            .collect()
    }

    pub fn per_layer(&self) -> Vec<Cell> {
        metrics::PER_LAYER
            .iter()
            .filter_map(|def| {
                let from = |r: &Report| r.get(def.name);
                let values: Vec<f64> = match &self.traced {
                    Some(t) => from(t).into_iter().collect(),
                    None if def.det => self.untraced.first().and_then(from).into_iter().collect(),
                    None => Vec::new(),
                };
                (!values.is_empty()).then_some(Cell { def, values })
            })
            .collect()
    }

    /// Every count, simulated-clock value and checksum must be the same
    /// in every repetition; returns the first name that is not.
    pub fn first_nondeterminism(&self) -> Option<String> {
        let all: Vec<&Report> = self.untraced.iter().chain(&self.traced).collect();
        let first = all.first()?;
        for def in metrics::END_TO_END
            .iter()
            .chain(metrics::PER_LAYER)
            .filter(|d| d.det)
        {
            let mut seen = all.iter().filter_map(|r| r.get(def.name));
            if let Some(a) = seen.next() {
                if seen.any(|b| b.to_bits() != a.to_bits()) {
                    return Some(def.name.to_string());
                }
            }
        }
        for (name, sum) in &first.checks {
            if all.iter().any(|r| r.checks.get(name) != Some(sum)) {
                return Some(format!("checksum {name}"));
            }
        }
        None
    }

    pub fn failed(&self) -> u64 {
        self.untraced
            .iter()
            .chain(&self.traced)
            .map(|r| if r.ok { r.failed } else { r.failed.max(1) })
            .sum()
    }
}

/// `traced wall / untraced wall`, in permille above 1000.
pub fn trace_overhead_permille(traced_wall: f64, untraced_wall: f64) -> f64 {
    (traced_wall / untraced_wall - 1.0) * 1000.0
}

/// Host ns per GM message of the MPI tier beyond what the same fabric
/// costs without it: `mpi256` against `fat_tree256_mix`.
pub fn tier_residual_ns(mpi: &Report, mix_ns_per_msg: f64) -> Option<f64> {
    let gm_msgs = mpi.get("mpi.ops")? * mpi.get("mpi.gm_msgs_per_op")?;
    Some(mpi.get("wall_s")? * 1e9 / gm_msgs - mix_ns_per_msg)
}

// ---------------------------------------------------------------------------
// Environment and the report file
// ---------------------------------------------------------------------------

pub struct Environment {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
}

impl Environment {
    pub fn read() -> Environment {
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        Environment {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc,
            commit: read_commit().unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// The checked-out commit, read from `.git` without running git; a
/// checkout that is not a repository has none.
fn read_commit() -> Option<String> {
    let git = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.git"));
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// `benchmark/out/report.json`: the environment and every child's record.
pub fn write_report(env: &Environment, reports: &[&Report]) -> std::io::Result<std::path::PathBuf> {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"nproc\": {},", env.nproc);
    let _ = writeln!(out, "  \"rustc\": \"{}\",", env.rustc);
    let _ = writeln!(out, "  \"commit\": \"{}\",", env.commit);
    let _ = writeln!(out, "  \"children\": [");
    for (i, r) in reports.iter().enumerate() {
        let metrics: Vec<String> = r
            .metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", json_number(*v)))
            .collect();
        let checks: Vec<String> = r
            .checks
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{v}\""))
            .collect();
        let comma = if i + 1 < reports.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"rep\": {}, \"order\": {}, \"elapsed_s\": {}, \"ok\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \"checks\": {{{}}}}}{comma}",
            r.workload,
            r.seed,
            r.seconds,
            r.traced,
            r.rep,
            r.order,
            json_number(r.elapsed_s),
            r.ok,
            r.attempted,
            r.failed,
            metrics.join(", "),
            checks.join(", ")
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(dir)?;
    let path = dir.join("report.json");
    std::fs::write(&path, out)?;
    Ok(path)
}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if v == v.trunc() && a < 1e15 {
        format!("{v:.0}")
    } else if a >= 1000.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.6}")
    }
}

pub fn print_cells(title: &str, cells: &[Cell]) {
    println!("  {title}");
    for c in cells {
        let arrow = match c.def.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let clock = if c.def.det { "det" } else { "host" };
        let bound = c
            .def
            .bound
            .map_or(String::new(), |b| format!("  bound {}", b.describe()));
        if c.values.len() > 1 && !c.def.det {
            let (q1, _, q3) = quartiles(&c.values);
            println!(
                "    {:<36} {:>18} {:<9} [q1 {} q3 {} n {}] {clock}, {arrow} is better{bound}",
                c.def.name,
                fmt_value(c.median()),
                c.def.unit,
                fmt_value(q1),
                fmt_value(q3),
                c.values.len()
            );
        } else {
            println!(
                "    {:<36} {:>18} {:<9} [n {}] {clock}, {arrow} is better{bound}",
                c.def.name,
                fmt_value(c.median()),
                c.def.unit,
                c.values.len()
            );
        }
    }
}
