//! The two bins that rewrite a tracked file (`chaos`, `mpi`) refuse an
//! argument they do not know — a typo, or a positional they never
//! accepted — before a single file is read or written: a mistyped
//! `--smoke` must not fall through to the full sweep that overwrites
//! `BENCH_mpi.json`. The quick paper bins print exactly their tracked
//! `results/` file.

use std::fs;
use std::path::Path;
use std::process::Command;

#[test]
fn unknown_arguments_print_usage_and_touch_nothing() {
    let cwd = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bin-cli");
    let _ = fs::remove_dir_all(&cwd);
    fs::create_dir_all(&cwd).expect("scratch cwd");

    let chaos = (env!("CARGO_BIN_EXE_chaos"), "usage: chaos [--update]");
    let mpi = (env!("CARGO_BIN_EXE_mpi"), "usage: mpi [--smoke] [--threads N] [seed]");
    for ((bin, usage), args) in [
        (chaos, &["--updat"][..]),
        (chaos, &["2003"]),
        (chaos, &["--update", "out.json"]),
        (mpi, &["--smok"]),
        (mpi, &["--smoke", "--threads"]),
        (mpi, &["--threads", "two"]),
    ] {
        let out = Command::new(bin)
            .args(args)
            .current_dir(&cwd)
            .output()
            .expect("bin runs");
        assert_eq!(out.status.code(), Some(1), "{bin} {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.trim_end(), usage, "{bin} {args:?}");
        assert!(out.stdout.is_empty(), "{bin} {args:?}");
        let left_behind = fs::read_dir(&cwd).expect("cwd readable").count();
        assert_eq!(left_behind, 0, "{bin} {args:?} wrote into the working directory");
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-gated: the bins simulate seconds of cluster time (ci.sh runs this with --release)"
)]
fn quick_paper_bins_reproduce_their_results_files() {
    // Every number in these files is on the simulated clock, so a fresh
    // run prints the committed bytes; a difference means the model
    // moved (re-run the bin as results/README.md says, and say why).
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    // Arguments as in results/README.md's table.
    for (bin, args, file) in [
        (env!("CARGO_BIN_EXE_table2"), &[][..], "table2.txt"),
        (env!("CARGO_BIN_EXE_table3"), &[], "table3.txt"),
        (env!("CARGO_BIN_EXE_fig7"), &[], "fig7.txt"),
        (env!("CARGO_BIN_EXE_fig8"), &[], "fig8.txt"),
        (env!("CARGO_BIN_EXE_fig9"), &[], "fig9.txt"),
        (env!("CARGO_BIN_EXE_watchdog_gap"), &[], "watchdog_gap.txt"),
        (env!("CARGO_BIN_EXE_ablation_commit"), &["8"], "ablation_commit.txt"),
        (env!("CARGO_BIN_EXE_ablation_seqnum"), &["6"], "ablation_seqnum.txt"),
        (env!("CARGO_BIN_EXE_ablation_watchdog"), &[], "ablation_watchdog.txt"),
    ] {
        let out = Command::new(bin).args(args).output().expect("bin runs");
        assert!(out.status.success(), "{bin} {args:?} failed");
        let committed = fs::read_to_string(results.join(file)).expect("results file");
        assert_eq!(String::from_utf8_lossy(&out.stdout), committed, "results/{file} is stale");
    }
}
