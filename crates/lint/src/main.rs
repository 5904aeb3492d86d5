//! CLI for `ftgm-lint`.
//!
//! ```text
//! cargo run -p ftgm-lint                  # human-readable report
//! cargo run -p ftgm-lint -- --json       # machine-readable report
//! cargo run -p ftgm-lint -- --report FILE        # also write the JSON report
//! ```
//!
//! Exit codes: 0 = no findings, 1 = findings, 2 = usage or I/O error.
//! A finding is suppressed in the source, next to the code it is about
//! (`// lint:allow(<rule>)`), or not at all.

use std::path::PathBuf;
use std::process::ExitCode;

use ftgm_lint::{default_root, report_json, rules, scan_workspace};

struct Options {
    root: PathBuf,
    json: bool,
    report: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: default_root(),
        json: false,
        report: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--root" => {
                opts.root = PathBuf::from(
                    args.next().ok_or("--root requires a path argument")?,
                );
            }
            "--report" => {
                opts.report = Some(PathBuf::from(
                    args.next().ok_or("--report requires a path argument")?,
                ));
            }
            "--rules" => {
                for r in rules::ALL_RULES {
                    println!("{r}: {}", rules::describe(r));
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other} (see --help)")),
        }
    }
    Ok(opts)
}

fn print_help() {
    println!(
        "ftgm-lint: panics reachable from the FTGM recovery entry points\n\
         \n\
         USAGE: ftgm-lint [--json] [--report FILE] [--root DIR] [--rules]\n\
         \n\
         --json              emit a JSON report on stdout\n\
         --report FILE       also write the JSON report to FILE\n\
         --root DIR          workspace root (default: this checkout)\n\
         --rules             list the rule and exit\n\
         \n\
         Exits 1 on any finding. Inline suppression: `// lint:allow(transitive-panic)`\n\
         on or above the line. See docs/STATIC_ANALYSIS.md."
    );
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ftgm-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let findings = match scan_workspace(&opts.root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("ftgm-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &opts.report {
        if let Err(e) = std::fs::write(path, report_json(&findings)) {
            eprintln!("ftgm-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if opts.json {
        print!("{}", report_json(&findings));
    } else {
        for f in &findings {
            println!("{}", f.render());
        }
        println!(
            "ftgm-lint: {} finding{}",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" }
        );
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
