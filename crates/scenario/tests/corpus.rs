//! Corpus gates.
//!
//! Debug tier: every `scenarios/*.ftsc` loads through the one loader and
//! prints round-trip — so a grammar change that orphans the corpus fails
//! `cargo test` immediately — the loader and the gate return their typed
//! failures, four quick chaos checks replay named corpus files from
//! their own seeds, and a forged delivery to a load sink fails its
//! scenario. Release tier (tier-1 via ci.sh) replays the whole
//! corpus: expect verdicts, oracle cleanliness, byte-stable goldens, and
//! 1-vs-3-thread invariance of every report and trace export.

use std::fs;
use std::path::{Path, PathBuf};

use ftgm_faults::chaos::{run_scenario, run_scenario_artifacts, ChaosScenario};
use ftgm_faults::Resolution;
use ftgm_gm::{App, Ctx, GmEvent};
use ftgm_net::NodeId;
use ftgm_scenario::{
    compile, gate, judge, load_dir, load_specs, parse, print, render_diags, run_corpus_parallel,
    run_text, CompiledScenario, CorpusFault, ScenarioOutcome,
};
use ftgm_sim::SimDuration;
use ftgm_workload::spawn_load;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn compiled_corpus() -> Vec<CompiledScenario> {
    load_dir(&corpus_dir()).unwrap_or_else(|e| panic!("{e}"))
}

/// The chaos run of one named corpus scenario.
fn named(name: &str) -> ChaosScenario {
    compiled_corpus()
        .into_iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("scenario names drifted: no scenarios/{name}.ftsc"))
        .chaos
}

/// A fresh, empty scratch directory under the test target dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("corpus-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A do-nothing noise fault that survives; `expect` is the caller's.
/// Small phases keep it cheap enough for debug.
fn quiet_scenario(name: &str, expect: &str) -> String {
    format!(
        "scenario \"{name}\" {{\n\
         \x20 topology two_node\n\
         \x20 flow 0 -> 1 validated size 256 pipeline 2\n\
         \x20 phases {{ warmup 5ms fault 50ms }}\n\
         \x20 fault in fault at 0ms noise drop 0 corrupt 0 for 1ms\n\
         \x20 expect {expect}\n\
         }}\n"
    )
}

#[test]
fn corpus_has_at_least_25_scenarios() {
    let n = compiled_corpus().len();
    assert!(n >= 25, "corpus shrank below the 25-file floor ({n})");
}

#[test]
fn every_corpus_file_parses_compiles_and_round_trips() {
    // The loader already insists each file parses and that its stem is
    // its scenario name (goldens key on it).
    let specs = load_specs(&corpus_dir()).unwrap_or_else(|e| panic!("{e}"));
    let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
    assert!(names.is_sorted(), "corpus must load in name order: {names:?}");
    for spec in &specs {
        // Canonical spelling must survive a reparse.
        let canon = print(spec);
        let reparsed = parse(&canon)
            .unwrap_or_else(|d| panic!("{}: canonical form rejected:\n{}", spec.name, render_diags(&d)));
        assert_eq!(&reparsed, spec, "{}: print/parse round trip drifted", spec.name);
        let _ = compile(spec);
    }
}

#[test]
fn load_dir_names_what_stopped_it() {
    let dir = scratch("load");
    let fault = |at: &Path| load_dir(at).expect_err("must not load");

    let err = fault(&dir.join("nowhere"));
    assert!(matches!(err.fault, CorpusFault::UnreadableDir(_)), "{err:?}");
    assert!(err.to_string().contains("nowhere"), "{err}");

    // Goldens and rejection fixtures beside the corpus are not corpus files.
    fs::write(dir.join("notes.txt"), "not a scenario").expect("write");
    assert!(matches!(fault(&dir).fault, CorpusFault::Empty));

    fs::write(dir.join("on-disk.ftsc"), quiet_scenario("in-file", "survived")).expect("write");
    let err = fault(&dir);
    assert!(err.path.ends_with("on-disk.ftsc"), "{err:?}");
    assert!(matches!(&err.fault, CorpusFault::NameMismatch(name) if name == "in-file"), "{err:?}");
    fs::remove_file(dir.join("on-disk.ftsc")).expect("rm");

    // A good file sorts first; the loader still stops at the bad one.
    fs::write(dir.join("aaa-good.ftsc"), quiet_scenario("aaa-good", "survived")).expect("write");
    let bad = quiet_scenario("zzz-bad", "survived").replace("50ms", "50m");
    fs::write(dir.join("zzz-bad.ftsc"), bad).expect("write");
    let err = fault(&dir);
    assert!(matches!(err.fault, CorpusFault::Rejected(_)), "{err:?}");
    let msg = err.to_string();
    assert!(msg.contains("zzz-bad.ftsc"), "{msg}");
    assert!(msg.contains("error at 4:"), "message must carry the line:col diagnostic: {msg}");

    // And the happy path: name order (`aaa` before `aaa-good`), compiled.
    fs::write(dir.join("zzz-bad.ftsc"), quiet_scenario("zzz-bad", "survived")).expect("write");
    fs::write(dir.join("aaa.ftsc"), quiet_scenario("aaa", "survived")).expect("write");
    let names: Vec<String> = load_dir(&dir).expect("clean").into_iter().map(|c| c.name).collect();
    assert_eq!(names, ["aaa", "aaa-good", "zzz-bad"]);
}

/// A scenario whose `expect` disagrees with the run's verdict must fail
/// with a typed mismatch naming both sides — never pass silently.
#[test]
fn expect_disagreement_is_a_typed_mismatch() {
    let outcome = run_text(&quiet_scenario("wrong-expect", "escalated")).expect("scenario must parse");
    let err = outcome.check().expect_err("verdicts disagree");
    assert_eq!(err.scenario, "wrong-expect");
    assert_eq!(err.expected.label(), "escalated");
    assert_eq!(err.actual.label(), "survived");
    let msg = err.to_string();
    assert!(msg.contains("escalated") && msg.contains("survived"), "{msg}");
}

/// `--update` pins a clean outcome and nothing else: a run whose verdict
/// disagrees with its `expect`, or that violated an oracle, keeps its
/// old golden (or none) and is reported.
#[test]
fn gate_update_never_pins_a_failing_outcome() {
    let golden_dir = scratch("gate").join("golden");
    let golden = |o: &ScenarioOutcome| golden_dir.join(format!("{}.json", o.name));

    let clean = run_text(&quiet_scenario("clean", "survived")).expect("parses");
    let mismatched = run_text(&quiet_scenario("mismatched", "escalated")).expect("parses");
    let mut violated = run_text(&quiet_scenario("violated", "survived")).expect("parses");
    violated.slo_violations.push("synthetic bound breach".to_string());
    let outcomes = [clean, mismatched, violated];
    let [clean, mismatched, violated] = &outcomes;

    // Without --update nothing is written and every golden is missing.
    let report = gate(&outcomes, &golden_dir, false);
    assert_eq!((report.mismatches, report.violations, report.golden_diffs), (1, 1, 3));
    assert!(!golden_dir.exists(), "a read-only gate must not create files");

    // A stale golden under the mismatched run must survive the update.
    fs::create_dir_all(&golden_dir).expect("mkdir");
    fs::write(golden(mismatched), "stale").expect("write");
    let report = gate(&outcomes, &golden_dir, true);
    assert_eq!((report.mismatches, report.violations, report.golden_diffs), (1, 1, 2));
    assert_eq!(fs::read_to_string(golden(clean)).expect("pinned"), clean.to_json());
    assert_eq!(fs::read_to_string(golden(mismatched)).expect("kept"), "stale");
    assert!(!golden(violated).exists(), "a violated run must not be pinned");
    let lines = report.failures.join("\n");
    assert!(lines.contains("mismatched.json: golden drifted"), "{lines}");
    assert!(lines.contains("violated.json: golden missing"), "{lines}");
    assert!(lines.contains("synthetic bound breach"), "{lines}");

    // The clean outcome alone is now green without --update.
    assert_eq!(gate(&outcomes[..1], &golden_dir, false).failures, [""; 0]);
}

/// Sends one 64-byte message that is no pattern message to node 1's
/// `port`, 1 ms into the run.
struct Forger {
    port: u8,
}

impl App for Forger {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_alarm(SimDuration::from_ms(1), 0);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: GmEvent) {
        if let GmEvent::Alarm { .. } = ev {
            ctx.gm_send(&[0xFF; 64], NodeId(1), self.port);
        }
    }
}

/// A damaged delivery to a load flow's sink is counted in the report's
/// `corrupt` and turns the scenario into a violation. The forger rides
/// the scenario's one world, spawned through the chaos runner's seam
/// the way `run_compiled` spawns the load flows.
#[test]
fn corrupt_load_delivery_is_a_violation() {
    let src = "scenario \"forged\" {\n\
               \x20 topology two_node\n\
               \x20 flow 0 -> 1 open every 50us sizes 256\n\
               \x20 phases { warmup 2ms steady 10ms drain 2ms }\n\
               \x20 expect survived\n\
               }\n";
    let c = compile(&parse(src).expect("parses"));
    let spec = c.workload.as_ref().expect("load flows");
    let sink_port = spec.flows[0].dst_port;
    let (chaos, run) = run_scenario_artifacts(&c.chaos, c.seed, |w| {
        w.spawn_app(NodeId(0), 7, Box::new(Forger { port: sink_port }));
        spawn_load(spec, w)
    });
    let load = run.fold(spec, 0);
    assert_eq!(load.corrupt, 1, "{}", load.to_json());
    assert!(load.total_completed > 100 && load.total_completed == load.total_issued);

    let outcome = judge(&c, chaos, Some(load), None);
    let violations = outcome.violations();
    assert_eq!(
        violations,
        ["forged (ftgm): 1 deliveries failed the payload check"],
        "{violations:?}"
    );
    assert_ne!(outcome.verdict.label(), "survived");
    assert!(outcome.to_json().contains("\"corrupt\": 1,"));
}

/// Validated and load flows share one world, so one node may carry
/// both kinds: each kind binds its own GM ports, and the scenario runs
/// to its verdict instead of failing to open a port twice.
#[test]
fn validated_and_load_flows_share_endpoint_nodes() {
    let src = "scenario \"shared-endpoints\" {\n\
               \x20 topology two_node\n\
               \x20 flow 0 -> 1 validated size 256 pipeline 2\n\
               \x20 flow 0 -> 1 open every 50us sizes 256\n\
               \x20 flow 1 -> 0 closed think 20us sizes 128\n\
               \x20 phases { warmup 2ms steady 10ms drain 2ms }\n\
               \x20 expect survived\n\
               }\n";
    let outcome = run_text(src).unwrap_or_else(|d| panic!("{}", render_diags(&d)));
    assert_eq!(outcome.violations(), [""; 0]);
    assert_eq!(outcome.verdict.label(), "survived");
    assert!(outcome.chaos.report.flows[0].progress > 0);
    let load = outcome.load.as_ref().expect("load report");
    assert!(load.total_completed > 100 && load.total_completed == load.total_issued);
}

#[test]
fn lossy_link_stays_exactly_once() {
    let report = run_scenario(&named("lossy-link-exactly-once"), 11);
    assert!(report.ok(), "{:?}", report.violations);
    let f = &report.flows[0];
    assert_eq!(f.corrupt, 0);
    assert_eq!(f.misordered, 0);
    assert!(f.progress > 0);
}

#[test]
fn link_flap_recovers_without_ftd_involvement() {
    let report = run_scenario(&named("star3-link-flap"), 3);
    assert!(report.ok(), "{:?}", report.violations);
    for n in &report.nodes {
        assert_eq!(n.resolution, Resolution::Healthy, "{n:?}");
    }
    for f in &report.flows {
        assert!(f.progress > 0, "{f:?}");
    }
}

#[test]
fn report_json_is_replay_identical() {
    let s = named("double-flip-during-reload");
    assert_eq!(run_scenario(&s, 17), run_scenario(&s, 17));
}

#[test]
fn different_seeds_differ() {
    let s = named("double-flip-during-reload");
    let [a, b] = [0, 1].map(|seed| run_scenario(&s, seed));
    assert_ne!(a, b, "seeds 0 and 1 produced identical runs");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-gated: full corpus replay is release-only")]
fn release_corpus_replays_green_and_matches_goldens() {
    let outcomes = run_corpus_parallel(&compiled_corpus(), 2);
    let report = gate(&outcomes, &corpus_dir().join("golden"), false);
    assert!(report.failures.is_empty(), "{}", report.failures.join("\n"));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-gated: full corpus replay is release-only")]
fn release_corpus_is_thread_count_invariant() {
    let compiled = compiled_corpus();
    let one = run_corpus_parallel(&compiled, 1);
    let three = run_corpus_parallel(&compiled, 3);
    assert_eq!(one.len(), three.len());
    for (a, b) in one.iter().zip(&three) {
        let name = &a.name;
        assert_eq!(name, &b.name, "slot order must match input order");
        assert_eq!(a.to_json(), b.to_json(), "{name}: report differs between 1 and 3 threads");
        // Traffic is not traced, so a file with no fault (the `*-steady`
        // cells, the overhead pair) traces nothing, load flows or not;
        // one in which the FTD or the coordinator acted must have traced
        // it, or equal exports would prove nothing.
        let acted = a.zone_reroutes > 0
            || a.chaos.report.nodes.iter().any(|n| n.recoveries + n.escalations > 0);
        let (a, b) = (&a.chaos, &b.chaos);
        assert!(!acted || !a.trace_jsonl.is_empty(), "{name}: trace exported");
        assert_eq!(a.trace_jsonl, b.trace_jsonl, "{name}: event stream differs");
        assert_eq!(a.chrome_trace, b.chrome_trace, "{name}: chrome trace differs");
        assert_eq!(a.metrics_json, b.metrics_json, "{name}: metrics differ");
    }
}
