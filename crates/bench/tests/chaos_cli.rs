//! The `chaos` bin takes `--update` or nothing. Anything else — a typo,
//! or the `[seed] [out.json]` positionals it used to accept — is refused
//! before a single file is read or written.

use std::fs;
use std::path::Path;
use std::process::Command;

#[test]
fn unknown_arguments_print_usage_and_touch_nothing() {
    let cwd = Path::new(env!("CARGO_TARGET_TMPDIR")).join("chaos-cli");
    let _ = fs::remove_dir_all(&cwd);
    fs::create_dir_all(&cwd).expect("scratch cwd");

    for args in [&["--updat"][..], &["2003"], &["--update", "out.json"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_chaos"))
            .args(args)
            .current_dir(&cwd)
            .output()
            .expect("chaos bin runs");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.trim_end(), "usage: chaos [--update]", "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let left_behind = fs::read_dir(&cwd).expect("cwd readable").count();
        assert_eq!(left_behind, 0, "{args:?} wrote into the working directory");
    }
}
