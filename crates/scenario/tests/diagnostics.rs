//! The bad-fixture corpus: every `scenarios/bad/*.ftsc` must be
//! rejected, and the rendered diagnostics must match the checked-in
//! `.err` file byte for byte — including `line:col` positions, so a
//! parser refactor cannot silently degrade error placement.
//!
//! To regenerate after an intentional message change:
//! `FTSC_UPDATE_ERR=1 cargo test -p ftgm-scenario --test diagnostics`

use std::fs;
use std::path::PathBuf;

use ftgm_scenario::{parse, render_diags};

fn bad_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/bad")
}

#[test]
fn every_bad_fixture_is_rejected_with_the_recorded_error() {
    let update = std::env::var_os("FTSC_UPDATE_ERR").is_some();
    let mut fixtures: Vec<PathBuf> = fs::read_dir(bad_dir())
        .expect("scenarios/bad must exist")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ftsc"))
        .collect();
    fixtures.sort();
    assert!(
        fixtures.len() >= 10,
        "bad corpus shrank below 10 fixtures ({})",
        fixtures.len()
    );

    let mut failures = Vec::new();
    for path in &fixtures {
        let src = fs::read_to_string(path).expect("fixture readable");
        let rendered = match parse(&src) {
            Ok(_) => {
                failures.push(format!("{}: parsed cleanly, expected rejection", path.display()));
                continue;
            }
            Err(diags) => render_diags(&diags),
        };
        // Every diagnostic must carry a real position.
        assert!(
            rendered.contains("error at "),
            "{}: rendered diagnostics lack positions:\n{rendered}",
            path.display()
        );

        let err_path = path.with_extension("err");
        if update {
            fs::write(&err_path, &rendered).expect("write .err");
            continue;
        }
        let expected = fs::read_to_string(&err_path)
            .unwrap_or_else(|_| panic!("{} missing (run with FTSC_UPDATE_ERR=1)", err_path.display()));
        if expected != rendered {
            failures.push(format!(
                "{}: diagnostics drifted.\n--- expected ---\n{expected}--- actual ---\n{rendered}",
                path.display()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn diagnostics_name_the_offending_line_and_column() {
    // One fixture pinned inline so the position contract is visible in
    // the test itself, not just in golden files.
    let src = "scenario \"x\" {\n  topology two_node\n  flow 0 -> 1 validated\n  phases { warmup 10 }\n  expect survived\n}\n";
    let diags = parse(src).expect_err("bare integer where a duration is required");
    let rendered = render_diags(&diags);
    assert!(
        rendered.contains("error at 4:19"),
        "expected the bare '10' at line 4 col 19 to be named:\n{rendered}"
    );
    assert!(rendered.contains("type mismatch"), "{rendered}");
}

#[test]
fn every_load_size_mix_entry_is_range_checked() {
    // Each entry is checked where it stands, so the first diagnostic
    // names the zero, not the whole mix.
    let src = "scenario \"x\" {\n  topology two_node\n  flow 0 -> 1 open every 50us sizes mix { 256: 1, 0: 2 }\n  phases { warmup 10ms steady 100ms }\n  expect survived\n}\n";
    let rendered = render_diags(&parse(src).expect_err("a zero-byte mix entry"));
    let first = rendered.lines().next().unwrap_or_default();
    assert_eq!(first, "error at 3:51: message size 0 must be within 16..=1048576 bytes");
}
