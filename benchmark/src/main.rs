//! The repo benchmark. Three ways in:
//!
//! * no `--workload`: the full report — every workload, repeated in fresh
//!   child processes, every metric printed by name with its unit, outputs
//!   checked, determinism checked; `--trace` adds the per-layer run and
//!   `--aa` runs everything twice and compares the two sets;
//! * `--workload W --seed N --seconds S --trace 0|1`: one run of one
//!   workload, its result as one JSON object on the last line (what
//!   `BENCHMARK.json`'s command is for);
//! * `--child W ...`: internal — the measuring process itself.
//!
//! See `benchmark/README.md`.

mod child;
mod flows;
mod inputs;
mod layers;
mod metrics;
mod runner;
mod trace;
mod traffic;
mod workloads;

use std::time::Instant;

use child::{ChildArgs, Workload};
use runner::{Cell, Environment, Report, Spawner, WorkloadSet};

/// The default seed: the paper's year. 1999 is held out (see the README).
const DEFAULT_SEED: u64 = 2003;
const DEFAULT_SECONDS: u64 = 10;
const DEFAULT_REPS: usize = 5;
/// Set-ups per contract run; `setup_s` is their median.
const SETUPS_PER_RUN: usize = 9;

struct Cli {
    child: Option<Workload>,
    workload: Option<Workload>,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    reps: usize,
    trace: bool,
    setup_only: bool,
    aa: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: ftgm-benchmark [--workloads a,b] [--reps N] [--seed N] [--seconds N] [--trace] [--aa]\n\
         \x20      ftgm-benchmark --workload NAME --seed N --seconds N --trace 0|1\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        child: None,
        workload: None,
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        reps: DEFAULT_REPS,
        trace: false,
        setup_only: false,
        aa: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> &str {
        *i += 1;
        args.get(*i).map(String::as_str).unwrap_or_else(|| usage())
    };
    let workload = |name: &str| Workload::from_name(name).unwrap_or_else(|| usage());
    while i < args.len() {
        match args[i].as_str() {
            "--child" => cli.child = Some(workload(value(&mut i))),
            "--workload" => cli.workload = Some(workload(value(&mut i))),
            "--workloads" => cli.workloads = value(&mut i).split(',').map(workload).collect(),
            "--seed" => cli.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seconds" => cli.seconds = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--reps" => cli.reps = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--setup-only" => cli.setup_only = true,
            "--aa" => cli.aa = true,
            "--print-contract" => {
                print_contract();
                std::process::exit(0);
            }
            // `--trace` alone in report mode; `--trace 0|1` from the driver.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    cli.trace = false;
                    i += 1;
                }
                Some("1") => {
                    cli.trace = true;
                    i += 1;
                }
                _ => cli.trace = true,
            },
            _ => usage(),
        }
        i += 1;
    }
    if cli.seconds == 0 || cli.seconds > 60 || cli.reps < 3 {
        eprintln!("--seconds must be 1..=60 and --reps at least 3");
        std::process::exit(2);
    }
    cli
}

fn main() {
    let started = Instant::now();
    let cli = parse_cli();
    let code = if let Some(workload) = cli.child {
        child::run(
            &ChildArgs {
                workload,
                seed: cli.seed,
                seconds: cli.seconds,
                trace: cli.trace,
                setup_only: cli.setup_only,
            },
            started,
        )
    } else if let Some(workload) = cli.workload {
        contract_run(&cli, workload)
    } else {
        full_report(&cli)
    };
    std::process::exit(code);
}

// ---------------------------------------------------------------------------
// One run for the driver
// ---------------------------------------------------------------------------

/// `BENCHMARK.json`, written from the catalogue so the two cannot drift:
/// `--print-contract > BENCHMARK.json` after adding a metric.
fn print_contract() {
    let better = |b: metrics::Better| match b {
        metrics::Better::Lower => "lower",
        metrics::Better::Higher => "higher",
    };
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let end_to_end: Vec<String> = metrics::CONTRACT_END_TO_END
        .iter()
        .map(|&(name, bound)| {
            let def = metrics::lookup(name).expect("contract names are in the catalogue");
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                def.unit,
                better(def.better)
            )
        })
        .collect();
    let per_layer: Vec<String> = metrics::contract_per_layer()
        .iter()
        .map(|def| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                def.name,
                def.unit,
                better(def.better)
            )
        })
        .collect();
    println!("{{");
    println!("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],");
    println!("  \"paths\": [\"benchmark\"],");
    println!("  \"run_seconds\": {DEFAULT_SECONDS},");
    println!("  \"workloads\": [\n{}\n  ],", workloads.join(",\n"));
    println!("  \"end_to_end\": [\n{}\n  ],", end_to_end.join(",\n"));
    println!("  \"per_layer\": [\n{}\n  ]", per_layer.join(",\n"));
    println!("}}");
}

/// `fat_tree256_mix`'s host ns per message, measured in a short child of
/// its own, for `mpi.tier_residual_host_ns_per_msg`.
fn mix_reference(spawner: &mut Spawner, cli: &Cli) -> Option<f64> {
    let seconds = (cli.seconds / 5).max(1);
    let r = spawner.run(Workload::FatTree256Mix, cli.seed, seconds, false, false, 0);
    if !r.ok || r.failed > 0 {
        return None;
    }
    r.get("msgs_per_s").map(|rate| 1e9 / rate)
}

fn contract_run(cli: &Cli, workload: Workload) -> i32 {
    let Ok(mut spawner) = Spawner::new() else {
        eprintln!("cannot find my own executable");
        return 1;
    };
    let main = spawner.run(workload, cli.seed, cli.seconds, cli.trace, false, 0);
    if !main.ok {
        eprintln!("{}: the measuring child failed", workload.name());
        return 1;
    }
    let (attempted, mut failed) = (main.attempted, main.failed);
    let mut values: Vec<(&str, &str, f64)> = Vec::new();
    if cli.trace {
        // The untraced twin gives the tracing overhead and a second
        // reading of every count and simulated-clock value.
        let twin = spawner.run(workload, cli.seed, cli.seconds, false, false, 1);
        failed += if twin.ok { twin.failed } else { 1 };
        let residual = (workload == Workload::Mpi256)
            .then(|| mix_reference(&mut spawner, cli))
            .flatten()
            .and_then(|mix_ns| runner::tier_residual_ns(&main, mix_ns));
        let overhead = main
            .get("wall_s")
            .zip(twin.get("wall_s"))
            .map(|(traced, untraced)| runner::trace_overhead_permille(traced, untraced));
        for def in metrics::contract_per_layer() {
            let v = match def.name {
                "trace_overhead_permille" => overhead,
                "mpi.tier_residual_host_ns_per_msg" => residual,
                name => main.get(name),
            };
            // A layer the workload bypasses did no work: zero.
            values.push((def.name, def.unit, v.unwrap_or(0.0)));
        }
        let set = WorkloadSet {
            workload,
            untraced: vec![twin],
            traced: Some(main),
        };
        if let Some(name) = set.first_nondeterminism() {
            eprintln!(
                "{}: {name} differs between two runs of one seed",
                workload.name()
            );
            failed += 1;
        }
    } else {
        let mut setups = vec![main.get("setup_s").unwrap_or(f64::NAN)];
        for rep in 1..SETUPS_PER_RUN {
            let r = spawner.run(workload, cli.seed, cli.seconds, false, true, rep);
            setups.push(r.get("setup_s").unwrap_or(f64::NAN));
        }
        for (name, _) in metrics::CONTRACT_END_TO_END {
            let def = metrics::lookup(name).expect("contract names are in the catalogue");
            let v = match *name {
                "setup_s" => runner::median(&setups),
                name => main.get(name).unwrap_or(f64::NAN),
            };
            values.push((def.name, def.unit, v));
        }
    }
    if values.iter().any(|&(_, _, v)| !v.is_finite()) {
        eprintln!("{}: a metric is missing", workload.name());
        return 1;
    }
    let body: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                runner::json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        body.join(", ")
    );
    0
}

// ---------------------------------------------------------------------------
// The full report
// ---------------------------------------------------------------------------

/// Runs every workload `reps` times, repetitions interleaved across
/// workloads so drift in the machine spreads over all of them, then one
/// traced repetition each if asked.
fn run_set(cli: &Cli, spawner: &mut Spawner, label: &str) -> Vec<WorkloadSet> {
    let mut sets: Vec<WorkloadSet> = cli
        .workloads
        .iter()
        .map(|&workload| WorkloadSet {
            workload,
            untraced: Vec::new(),
            traced: None,
        })
        .collect();
    for rep in 0..cli.reps {
        for set in &mut sets {
            eprintln!(
                "[{label}] {} repetition {}/{}",
                set.workload.name(),
                rep + 1,
                cli.reps
            );
            let r = spawner.run(set.workload, cli.seed, cli.seconds, false, false, rep);
            set.untraced.push(r);
        }
    }
    if cli.trace {
        for set in &mut sets {
            eprintln!("[{label}] {} traced", set.workload.name());
            set.traced =
                Some(spawner.run(set.workload, cli.seed, cli.seconds, true, false, cli.reps));
        }
    }
    sets
}

/// Per-layer cells plus the two that need more than one child.
fn per_layer_cells(set: &WorkloadSet, sets: &[WorkloadSet]) -> Vec<Cell> {
    let mut cells = set.per_layer();
    let Some(traced) = &set.traced else {
        return cells;
    };
    let mut derived = |name: &str, v: Option<f64>| {
        if let (Some(def), Some(v)) = (metrics::lookup(name), v) {
            cells.push(Cell {
                def,
                values: vec![v],
            });
        }
    };
    let median_of = |s: &WorkloadSet, name: &str| {
        let v: Vec<f64> = s.untraced.iter().filter_map(|r| r.get(name)).collect();
        (!v.is_empty()).then(|| runner::median(&v))
    };
    derived(
        "trace_overhead_permille",
        traced
            .get("wall_s")
            .zip(median_of(set, "wall_s"))
            .map(|(t, u)| runner::trace_overhead_permille(t, u)),
    );
    if set.workload == Workload::Mpi256 {
        let mix = sets.iter().find(|s| s.workload == Workload::FatTree256Mix);
        derived(
            "mpi.tier_residual_host_ns_per_msg",
            mix.and_then(|m| median_of(m, "msgs_per_s"))
                .and_then(|rate| runner::tier_residual_ns(traced, 1e9 / rate)),
        );
    }
    cells
}

/// Prints one set; returns how many checks failed.
fn print_set(sets: &[WorkloadSet]) -> u64 {
    let mut failures = 0;
    for set in sets {
        println!("\n== {} ==", set.workload.name());
        runner::print_cells("end to end (untraced repetitions)", &set.end_to_end());
        let layers = per_layer_cells(set, sets);
        let title = if set.traced.is_some() {
            "per layer (traced repetition)"
        } else {
            "per layer (counts only; run with --trace for host time)"
        };
        runner::print_cells(title, &layers);
        if set.traced.is_some() {
            let get = |name: &str| {
                layers
                    .iter()
                    .find(|c| c.def.name == name)
                    .map_or(0.0, Cell::median)
            };
            // The layer rows' message count (GM messages on `mpi256`).
            let msgs = get("sim.events") / get("sim.events_per_msg");
            let per_msg = |calls: &str| get(calls) / msgs;
            println!(
                "  gm.stack_host_ns_per_msg {:.1} = sched {:.1} + send_chunk {:.1} + inject {:.1} + pci {:.1} + residual {:.1}",
                get("gm.stack_host_ns_per_msg"),
                get("sim.sched_ns_per_event") * get("sim.events_per_msg"),
                get("lanai.send_chunk_host_ns") * per_msg("lanai.send_chunk_calls"),
                get("net.inject_host_ns") * per_msg("net.injected"),
                get("host.pci_host_ns_per_transfer") * per_msg("host.pci_transfers"),
                get("gm.residual_host_ns_per_msg"),
            );
        }
        for note in set
            .untraced
            .iter()
            .chain(&set.traced)
            .flat_map(|r| &r.notes)
            .collect::<std::collections::BTreeSet<_>>()
        {
            println!("  note: {note}");
        }
        match set.first_nondeterminism() {
            None => println!("  determinism: every count, simulated-clock value and checksum identical in all repetitions"),
            Some(name) => {
                println!("  determinism: FAILED, first differing: {name}");
                failures += 1;
            }
        }
        let failed = set.failed();
        if failed > 0 {
            println!("  correctness: FAILED, {failed} operations or checks failed");
        }
        failures += failed;
    }
    failures
}

/// Compares two sets of runs of the same binary. A pair of medians
/// agrees when neither is worse than the other by more than the bound;
/// where either set's quartile spread is wider than the bound, the pair
/// is unresolved rather than agreeing.
fn print_aa(a: &[WorkloadSet], b: &[WorkloadSet]) -> u64 {
    println!("\n== A/A: two sets of runs of the same binary ==");
    let mut differ = 0;
    for (sa, sb) in a.iter().zip(b) {
        for (ca, cb) in sa.end_to_end().iter().zip(&sb.end_to_end()) {
            let bound = ca.def.bound.expect("end-to-end metrics carry a bound");
            let (ma, mb) = (ca.median(), cb.median());
            let allowance = bound.allowance(ma.min(mb));
            let verdict = if ca.def.det {
                if ma.to_bits() == mb.to_bits() {
                    "identical"
                } else {
                    "DIFFER"
                }
            } else if ca.iqr() > allowance || cb.iqr() > allowance {
                "unresolved"
            } else if (ma - mb).abs() <= allowance {
                "agree"
            } else {
                "DIFFER"
            };
            if verdict == "DIFFER" {
                differ += 1;
            }
            println!(
                "  {:<16} {:<26} A {:>16.6} B {:>16.6} {:<9} bound {:<14} {verdict}",
                sa.workload.name(),
                ca.def.name,
                ma,
                mb,
                ca.def.unit,
                bound.describe()
            );
        }
    }
    differ
}

fn full_report(cli: &Cli) -> i32 {
    let Ok(mut spawner) = Spawner::new() else {
        eprintln!("cannot find my own executable");
        return 1;
    };
    let env = Environment::read();
    println!(
        "ftgm-benchmark: seed {}, {} s windows, {} repetitions, {} hardware threads, {}, commit {}",
        cli.seed, cli.seconds, cli.reps, env.nproc, env.rustc, env.commit
    );
    let a = run_set(cli, &mut spawner, "A");
    let mut failures = print_set(&a);
    let mut reports: Vec<&Report> = a
        .iter()
        .flat_map(|s| s.untraced.iter().chain(&s.traced))
        .collect();
    let b = cli.aa.then(|| run_set(cli, &mut spawner, "B"));
    if let Some(b) = &b {
        failures += print_set(b);
        failures += print_aa(&a, b);
        reports.extend(b.iter().flat_map(|s| s.untraced.iter().chain(&s.traced)));
    }
    match runner::write_report(&env, &reports) {
        Ok(path) => println!("\nevery child's record: {}", path.display()),
        Err(e) => {
            eprintln!("cannot write the report file: {e}");
            failures += 1;
        }
    }
    if failures > 0 {
        println!("FAILED: {failures} failures");
        1
    } else {
        println!("ok: outputs correct, ops_failed_ppm 0 on every workload");
        0
    }
}
