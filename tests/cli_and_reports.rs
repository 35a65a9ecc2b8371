//! End-to-end checks of the report emitters and the artifacts a CLI user
//! relies on: Verilog export of a mapped benchmark, dot export, the
//! markdown/CSV/JSON batch emitters over real flow results, and the
//! `simap` binary itself — strict flag handling, `--json` output and the
//! parallel `bench run` driver.

use simap::core::{report_json, to_csv, to_json, to_markdown, FlowReport};
use simap::netlist::to_verilog;
use simap::sg::DotOptions;
use simap::{Batch, Config, Synthesis, Verified};
use std::process::Command;

fn verified(name: &str, limit: usize) -> Verified {
    let config = Config::builder().literal_limit(limit).build().expect("valid limit");
    Synthesis::from_benchmark(name)
        .config(&config)
        .elaborate()
        .expect("elaborates")
        .covers()
        .expect("CSC holds")
        .decompose()
        .expect("decomposes")
        .map()
        .verify()
        .expect("verifies")
}

fn flow(name: &str, limit: usize) -> FlowReport {
    verified(name, limit).into_report()
}

#[test]
fn verilog_of_mapped_benchmark_is_structurally_sound() {
    let verified = verified("hazard", 2);
    let v = to_verilog(verified.circuit(), &verified.report().outcome.sg, "hazard");
    // Ports: inputs a, b; outputs x, y. Inserted x0 must be a wire.
    assert!(v.contains("input a"));
    assert!(v.contains("input b"));
    assert!(v.contains("output x"));
    assert!(v.contains("output y"));
    assert!(v.contains("wire x0"), "{v}");
    assert!(!v.contains("output x0"));
    // One C element for y.
    assert_eq!(v.matches("celement u_c").count(), 1);
    // Balanced module/endmodule ("endmodule" contains "module").
    assert_eq!(v.matches("endmodule").count(), 2);
}

#[test]
fn dot_of_final_graph_contains_inserted_signal() {
    let report = flow("hazard", 2);
    let dot = simap::sg::to_dot(
        &report.outcome.sg,
        &DotOptions { show_codes: true, ..Default::default() },
    );
    assert!(dot.contains("x0+"), "inserted signal's events must label arcs");
}

#[test]
fn emitters_cover_batch_rows() {
    let rows = Batch::over_benchmarks(["half"]).limits([2]).run().expect("batch");
    let md = to_markdown(&[2], &rows);
    assert!(md.contains("| half |"));
    let csv = to_csv(&[2], &rows);
    assert!(csv.lines().count() >= 2);
}

/// Golden test of the hand-rolled JSON emitters: the exact bytes for the
/// `half` benchmark (deterministic flow, deterministic key order).
#[test]
fn json_emitters_match_golden_output() {
    let report = flow("half", 2);
    assert_eq!(
        report_json(&report),
        "{\"name\":\"half\",\"initial_histogram\":[0,2,1],\"implementable\":true,\
         \"inserted\":0,\"inserted_names\":[],\
         \"si_cost\":{\"literals\":4,\"c_elements\":1},\
         \"non_si_cost\":{\"literals\":4,\"c_elements\":1},\"verified\":true,\
         \"reach\":{\"visited\":6,\"interned\":6,\"edges\":6,\"strategy\":\"packed\"}}"
    );

    let rows = Batch::over_benchmarks(["half"]).limits([2]).run().expect("batch");
    assert_eq!(
        to_json(&[2], &rows),
        "{\"limits\":[2],\"circuits\":[{\"name\":\"half\",\"states\":6,\"runs\":[\
         {\"literal_limit\":2,\"report\":{\"name\":\"half\",\
         \"initial_histogram\":[0,2,1],\"implementable\":true,\"inserted\":0,\
         \"inserted_names\":[],\"si_cost\":{\"literals\":4,\"c_elements\":1},\
         \"non_si_cost\":{\"literals\":4,\"c_elements\":1},\"verified\":true,\
         \"reach\":{\"visited\":6,\"interned\":6,\"edges\":6,\"strategy\":\"packed\"}}}]}]}"
    );
}

// ---- the `simap` binary itself ----

fn simap(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_simap")).args(args).output().expect("binary runs")
}

#[test]
fn cli_rejects_unknown_flags() {
    let out = simap(&["map", "--bench", "half", "--badflag"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--badflag`"), "{stderr}");
}

#[test]
fn cli_rejects_flags_missing_their_value() {
    for args in [
        vec!["map", "--bench", "half", "--or-limit"],
        vec!["map", "--bench"],
        vec!["bench", "run", "half", "--jobs"],
    ] {
        let out = simap(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("requires a value"), "{args:?}: {stderr}");
    }
}

#[test]
fn cli_rejects_unknown_flags_in_subcommands() {
    let out = simap(&["bench", "run", "half", "--nonsense"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--nonsense`"), "{stderr}");
}

#[test]
fn cli_rejects_invalid_config_values() {
    let out = simap(&["map", "--bench", "half", "--limit", "1"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid configuration"), "{stderr}");
}

#[test]
fn cli_refuses_checkpointing_without_the_spill_strategy() {
    let dir = std::env::temp_dir().join(format!("simap-cli-ckpt-{}", std::process::id()));
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    // Packed named explicitly, then packed as the default strategy: it
    // keeps no checkpoints, so the run is refused before anything runs
    // or is written.
    for strategy in [&["--strategy", "packed"][..], &[]] {
        let mut args = vec!["check", "--bench", "half"];
        args.extend(strategy);
        args.extend(["--checkpoint-every", "1", "--checkpoint-dir", dir_arg]);
        let out = simap(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("require the spill reachability strategy"), "{args:?}: {stderr}");
        assert!(!dir.exists(), "{args:?} wrote a checkpoint directory");
    }
}

#[test]
fn cli_bench_record_keeps_spill_checkpoint_flags() {
    // The snapshot re-times every strategy; the in-memory ones must run
    // without the spill run's checkpoint settings instead of refusing.
    let scratch = std::env::temp_dir().join(format!("simap-cli-record-{}", std::process::id()));
    let ckpt = scratch.join("ckpt");
    let record = scratch.join("snapshot.json");
    std::fs::create_dir_all(&scratch).unwrap();
    let out = simap(&[
        "bench",
        "run",
        "half",
        "--no-verify",
        "--strategy",
        "spill",
        "--checkpoint-every",
        "1",
        "--checkpoint-dir",
        ckpt.to_str().expect("utf-8 temp dir"),
        "--record",
        record.to_str().expect("utf-8 temp dir"),
    ]);
    let snapshot = std::fs::read_to_string(&record);
    let _ = std::fs::remove_dir_all(&scratch);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let snapshot = snapshot.expect("snapshot written");
    for strategy in ["explicit", "packed", "symbolic", "spill"] {
        assert!(snapshot.contains(&format!("\"{strategy}\":")), "{snapshot}");
    }
}

#[test]
fn cli_map_json_matches_library_emitter() {
    let out = simap(&["map", "--bench", "half", "--json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.trim_end(), report_json(&flow("half", 2)));
}

#[test]
fn cli_json_stdout_stays_pure_with_exports() {
    let dir = std::env::temp_dir().join("simap_cli_json_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let verilog = dir.join("half.v");
    let out = simap(&["map", "--bench", "half", "--json", "--verilog", verilog.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.trim_end(),
        report_json(&flow("half", 2)),
        "stdout must be exactly one JSON document"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("wrote"), "confirmation on stderr");
    assert!(verilog.exists());
}

#[test]
fn cli_bench_list_json_matches_shared_registry_listing() {
    let out = simap(&["bench", "list", "--json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let expected = simap::core::benchmarks_json(&simap::Engine::default()).expect("listing");
    assert_eq!(stdout.trim_end(), expected, "CLI and library listing must be byte-identical");
    // And it is machine-readable with the crate's own parser.
    let parsed = simap::core::json::parse(stdout.trim_end()).expect("valid JSON");
    let entries = parsed.get("benchmarks").and_then(simap::core::json::Json::as_array).unwrap();
    assert_eq!(entries.len(), simap::Engine::default().registry().names().len());
}

#[test]
fn cli_bench_run_parallel_output_is_identical_to_sequential() {
    let base = ["bench", "run", "half", "hazard", "dff", "--limits", "2,3", "--no-verify"];
    let sequential = simap(&[&base[..], &["--csv", "--jobs", "1"]].concat());
    let parallel = simap(&[&base[..], &["--csv", "--jobs", "3"]].concat());
    assert!(sequential.status.success() && parallel.status.success());
    assert!(!sequential.stdout.is_empty());
    assert_eq!(sequential.stdout, parallel.stdout, "parallel output must be byte-identical");
}

#[test]
fn cli_check_lists_csc_conflicts_by_ascending_code() {
    // a+ b+ b- a- b+ a+ a- b- over two outputs: each of the four codes is
    // visited twice with different enabled outputs, so all four conflict.
    let spec = ".model csc4\n.outputs a b\n.graph\n\
                a+/1 b+/1\nb+/1 b-/1\nb-/1 a-/1\na-/1 b+/2\n\
                b+/2 a+/2\na+/2 a-/2\na-/2 b-/2\nb-/2 a+/1\n\
                .marking { <b-/2,a+/1> }\n.end\n";
    let path = std::env::temp_dir().join(format!("simap-cli-csc4-{}.g", std::process::id()));
    std::fs::write(&path, spec).expect("temp spec");
    let run = || simap(&["check", path.to_str().expect("utf-8 temp path")]);
    let (first, second) = (run(), run());
    let _ = std::fs::remove_file(&path);
    assert!(!first.status.success(), "a CSC violation fails the check");
    assert_eq!(first.stdout, second.stdout, "the report is deterministic");
    let stdout = String::from_utf8_lossy(&first.stdout);
    let codes: Vec<u64> = stdout
        .lines()
        .filter_map(|line| line.split_once("(code ")?.1.strip_suffix(')'))
        .map(|bits| u64::from_str_radix(bits, 2).expect("binary code"))
        .collect();
    assert_eq!(codes, vec![0, 1, 2, 3], "{stdout}");
}
