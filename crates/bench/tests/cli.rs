//! The three bins that rewrite a tracked file (`chaos`, `scale`, `mpi`)
//! refuse an argument they do not know — a typo, or a positional they
//! never accepted — before a single file is read or written: a mistyped
//! `--smoke` must not fall through to the full sweep that overwrites
//! `BENCH_scale.json`.

use std::fs;
use std::path::Path;
use std::process::Command;

#[test]
fn unknown_arguments_print_usage_and_touch_nothing() {
    let cwd = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bin-cli");
    let _ = fs::remove_dir_all(&cwd);
    fs::create_dir_all(&cwd).expect("scratch cwd");

    let chaos = (env!("CARGO_BIN_EXE_chaos"), "usage: chaos [--update]");
    let scale = (env!("CARGO_BIN_EXE_scale"), "usage: scale [--smoke] [seed]");
    let mpi = (env!("CARGO_BIN_EXE_mpi"), "usage: mpi [--smoke] [--threads N] [seed]");
    for ((bin, usage), args) in [
        (chaos, &["--updat"][..]),
        (chaos, &["2003"]),
        (chaos, &["--update", "out.json"]),
        (scale, &["--smok"]),
        (scale, &["--smoke", "out.json"]),
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
