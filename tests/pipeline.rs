//! Integration tests of the staged `Synthesis` pipeline: the typed error
//! paths (unknown benchmark, parse failure, CSC violation with repair
//! off, CSC repair failure, verification failure), the equivalence of the
//! staged and one-shot drivers, observer delivery and the deprecated
//! `run_flow` shim.
//!
//! The Decompose stage starts from the Covers stage's implementation; a
//! parity test holds it to the standalone `decompose()`.

use simap::core::decompose;
use simap::sg::{Event, Signal, SignalId, SignalKind, StateGraph, StateGraphBuilder};
use simap::stg::{benchmark_names, patterns};
use simap::{Batch, Config, Error, Stage, Synthesis};

/// a+ ; b+ ; b- ; a- over two *output* signals: the textbook CSC
/// conflict, repairable by one internal state signal.
fn conflicted(kind: SignalKind) -> StateGraph {
    let mut bd =
        StateGraphBuilder::new("csc-demo", vec![Signal::new("a", kind), Signal::new("b", kind)])
            .unwrap();
    let s0 = bd.add_state(0b00);
    let s1 = bd.add_state(0b01);
    let s2 = bd.add_state(0b11);
    let s3 = bd.add_state(0b01);
    bd.add_arc(s0, Event::rise(SignalId(0)), s1);
    bd.add_arc(s1, Event::rise(SignalId(1)), s2);
    bd.add_arc(s2, Event::fall(SignalId(1)), s3);
    bd.add_arc(s3, Event::fall(SignalId(0)), s0);
    bd.build(s0).unwrap()
}

/// A non-persistent specification: input `a+` disables output `b+` at the
/// initial state. Covers still synthesize, but the mapped circuit has a
/// hazard the verifier must refute.
fn non_persistent() -> StateGraph {
    let mut bd = StateGraphBuilder::new(
        "hazardous",
        vec![Signal::new("a", SignalKind::Input), Signal::new("b", SignalKind::Output)],
    )
    .unwrap();
    let s0 = bd.add_state(0b00);
    let s1 = bd.add_state(0b01); // a high, b+ no longer enabled
    let s2 = bd.add_state(0b10); // b high
    bd.add_arc(s0, Event::rise(SignalId(0)), s1);
    bd.add_arc(s1, Event::fall(SignalId(0)), s0);
    bd.add_arc(s0, Event::rise(SignalId(1)), s2);
    bd.add_arc(s2, Event::fall(SignalId(1)), s0);
    bd.build(s0).unwrap()
}

#[test]
fn unknown_benchmark_error() {
    let err = Synthesis::from_benchmark("not-a-circuit").run().unwrap_err();
    assert!(matches!(err, Error::UnknownBenchmark { ref name } if name == "not-a-circuit"));
    assert_eq!(err.stage(), Stage::Load);
    assert!(err.to_string().contains("[load]"), "{err}");
}

#[test]
fn parse_error_carries_line() {
    let err = Synthesis::from_g_source(".model x\n.inputs a\n.garbage\n").run().unwrap_err();
    let Error::Parse(inner) = &err else { panic!("expected Parse, got {err}") };
    assert!(inner.line > 0);
    assert_eq!(err.stage(), Stage::Load);
    // The crate-level error remains reachable through source().
    assert!(std::error::Error::source(&err).is_some());
}

#[test]
fn csc_violation_with_repair_off() {
    let err = Synthesis::from_state_graph(conflicted(SignalKind::Output))
        .elaborate()
        .expect("elaboration itself succeeds")
        .covers()
        .unwrap_err();
    let Error::CscViolation { ref signal, ref conflicts, .. } = err else {
        panic!("expected CscViolation, got {err}");
    };
    assert!(!signal.is_empty());
    assert!(!conflicts.is_empty(), "the original conflict list must be attached");
    assert_eq!(err.stage(), Stage::Covers);
    assert_eq!(err.csc_conflicts().len(), conflicts.len());
}

#[test]
fn csc_repair_failure_surfaces_conflicts() {
    // A zero insertion budget makes the (otherwise repairable) conflict
    // unrepairable — and the error must carry the original conflicts
    // instead of being swallowed (the historic run_flow fallback).
    use simap::core::CscRepairConfig;
    let starved = simap::Config::builder()
        .repair_csc(true)
        .csc_repair_config(CscRepairConfig { max_insertions: 0 })
        .build()
        .unwrap();
    let err = Synthesis::from_state_graph(conflicted(SignalKind::Output))
        .config(&starved)
        .elaborate()
        .unwrap_err();
    let Error::CscRepairFailed { ref conflicts, .. } = err else {
        panic!("expected CscRepairFailed, got {err}");
    };
    assert!(!conflicts.is_empty(), "the original conflict list must be attached");
    assert_eq!(err.stage(), Stage::Elaborate);
    assert!(std::error::Error::source(&err).is_some(), "repair error is the source");
}

#[test]
fn verification_failure_is_typed() {
    let mapped = Synthesis::from_state_graph(non_persistent())
        .elaborate()
        .expect("elaborates")
        .covers()
        .expect("covers exist despite non-persistency")
        .decompose()
        .expect("nothing to decompose")
        .map();
    let err = mapped.verify().unwrap_err();
    assert!(matches!(err, Error::Verify { .. }), "expected Verify, got {err}");
    assert_eq!(err.stage(), Stage::Verify);
}

#[test]
fn run_reports_refutation_compatibly() {
    // The one-shot driver keeps the historical FlowReport contract:
    // refutation is data (`verified == Some(false)`), not an error.
    let report = Synthesis::from_state_graph(non_persistent()).run().expect("runs");
    assert_eq!(report.verified, Some(false));
}

/// Asserts that the staged pipeline's Decompose stage, which starts from
/// the Covers stage's implementation, reaches exactly the outcome of the
/// standalone `decompose()`, which synthesizes its own: same steps,
/// inserted signals, final covers and final state graph.
fn assert_handoff_parity(synthesis: Synthesis, jobs: usize, context: &str) {
    let config = Config::builder().verify(false).synth_jobs(jobs).build().expect("valid config");
    let covers = synthesis
        .config(&config)
        .elaborate()
        .and_then(|e| e.covers())
        .unwrap_or_else(|e| panic!("{context}: covers failed: {e}"));
    let standalone = decompose(covers.state_graph(), config.decompose_config())
        .unwrap_or_else(|e| panic!("{context}: standalone decompose failed: {e}"));
    let staged = covers.decompose().unwrap_or_else(|e| panic!("{context}: staged: {e}"));
    assert_eq!(format!("{:?}", staged.steps()), format!("{:?}", standalone.steps), "{context}");
    assert_eq!(staged.inserted(), standalone.inserted.as_slice(), "{context}");
    assert_eq!(format!("{:?}", staged.mc()), format!("{:?}", standalone.mc), "{context}");
    let (a, b) = (staged.state_graph(), &standalone.sg);
    assert_eq!(a.signals(), b.signals(), "{context}");
    assert_eq!((a.state_count(), a.initial()), (b.state_count(), b.initial()), "{context}");
    for s in a.states() {
        assert_eq!((a.code(s), a.succ(s)), (b.code(s), b.succ(s)), "{context}: state {}", s.0);
    }
}

/// Hand-off parity on every embedded benchmark and a generated corpus
/// sample, at one and four synthesis jobs. Debug builds skip graphs above
/// 400 states; the release run covers the whole suite.
#[test]
fn staged_decompose_matches_standalone() {
    for jobs in [1, 4] {
        for &name in benchmark_names() {
            if cfg!(debug_assertions) {
                let elaborated = Synthesis::from_benchmark(name).elaborate().expect("elaborates");
                if elaborated.state_graph().state_count() > 400 {
                    continue;
                }
            }
            assert_handoff_parity(Synthesis::from_benchmark(name), jobs, name);
        }
        for stg in patterns::corpus(7, 24) {
            let name = stg.name().to_string();
            assert_handoff_parity(Synthesis::from_stg(stg), jobs, &name);
        }
    }
}

#[test]
fn staged_matches_one_shot_on_benchmarks() {
    for name in ["half", "hazard", "chu133"] {
        let one_shot = Synthesis::from_benchmark(name).run().unwrap();
        let staged = Synthesis::from_benchmark(name)
            .elaborate()
            .unwrap()
            .covers()
            .unwrap()
            .decompose()
            .unwrap()
            .map()
            .verify()
            .unwrap()
            .into_report();
        assert_eq!(one_shot.inserted, staged.inserted, "{name}");
        assert_eq!(one_shot.inserted_names, staged.inserted_names, "{name}");
        assert_eq!(one_shot.si_cost, staged.si_cost, "{name}");
        assert_eq!(one_shot.non_si_cost, staged.non_si_cost, "{name}");
        assert_eq!(one_shot.verified, staged.verified, "{name}");
        assert_eq!(one_shot.initial_histogram, staged.initial_histogram, "{name}");
    }
}

#[test]
#[allow(deprecated)]
fn deprecated_run_flow_still_works() {
    use simap::core::{run_flow, FlowConfig};
    let stg = simap::stg::benchmark("hazard").expect("known");
    let sg = simap::stg::elaborate(&stg).expect("elaborates");
    let old = run_flow(&sg, &FlowConfig::with_limit(2)).expect("flow");
    let new = Synthesis::from_state_graph(sg).run().expect("flow");
    assert_eq!(old.inserted, new.inserted);
    assert_eq!(old.si_cost, new.si_cost);
    assert_eq!(old.verified, new.verified);
}

#[test]
#[allow(deprecated)]
fn deprecated_run_flow_keeps_csc_contract() {
    use simap::core::{run_flow, FlowConfig, McError};
    // Repair off: the CSC conflict arrives as the old McError.
    let sg = conflicted(SignalKind::Output);
    let err = run_flow(&sg, &FlowConfig::with_limit(2)).unwrap_err();
    assert!(matches!(err, McError::CscConflict { .. }));

    // Repair on and possible: the shim repairs and completes, as the old
    // entry point did.
    let mut config = FlowConfig::with_limit(2);
    config.repair_csc = true;
    let report = run_flow(&sg, &config).expect("repairs and flows");
    assert_eq!(report.verified, Some(true));
}

#[test]
fn observer_streams_progress() {
    use simap::core::DecomposeStep;
    use simap::FlowObserver;
    use std::sync::{Arc, Mutex};

    #[derive(Default)]
    struct Log {
        stages: Vec<Stage>,
        ends: Vec<Stage>,
        steps: usize,
        verdict: Option<Option<bool>>,
    }
    struct Obs(Arc<Mutex<Log>>);
    impl FlowObserver for Obs {
        fn on_stage_start(&mut self, stage: Stage, _spec: &str) {
            self.0.lock().unwrap().stages.push(stage);
        }
        fn on_stage_end(&mut self, stage: Stage) {
            self.0.lock().unwrap().ends.push(stage);
        }
        fn on_decompose_step(&mut self, _step: &DecomposeStep) {
            self.0.lock().unwrap().steps += 1;
        }
        fn on_verdict(&mut self, verified: Option<bool>) {
            self.0.lock().unwrap().verdict = Some(verified);
        }
    }

    let log = Arc::new(Mutex::new(Log::default()));
    let report =
        Synthesis::from_benchmark("hazard").observer(Obs(log.clone())).run().expect("flow");
    let log = log.lock().unwrap();
    assert_eq!(log.steps, report.inserted.unwrap());
    assert_eq!(log.verdict, Some(Some(true)));
    let expected = [Stage::Load, Stage::Elaborate, Stage::Covers, Stage::Decompose, Stage::Map];
    for stage in expected {
        assert!(log.stages.contains(&stage), "missing stage {stage}");
    }
    // Every started stage ends, even on the verify path.
    assert_eq!(log.stages, log.ends, "stage starts and ends must pair up");
    assert!(log.ends.contains(&Stage::Verify));
}

#[test]
fn observer_stages_balance_on_refutation() {
    use simap::FlowObserver;
    use std::sync::{Arc, Mutex};

    #[derive(Default)]
    struct Counts {
        starts: usize,
        ends: usize,
    }
    struct Obs(Arc<Mutex<Counts>>);
    impl FlowObserver for Obs {
        fn on_stage_start(&mut self, _stage: Stage, _spec: &str) {
            self.0.lock().unwrap().starts += 1;
        }
        fn on_stage_end(&mut self, _stage: Stage) {
            self.0.lock().unwrap().ends += 1;
        }
    }

    let counts = Arc::new(Mutex::new(Counts::default()));
    let err = Synthesis::from_state_graph(non_persistent())
        .observer(Obs(counts.clone()))
        .elaborate()
        .unwrap()
        .covers()
        .unwrap()
        .decompose()
        .unwrap()
        .map()
        .verify()
        .unwrap_err();
    assert!(matches!(err, Error::Verify { .. }));
    let counts = counts.lock().unwrap();
    assert_eq!(counts.starts, counts.ends, "stages must balance even when verify errors");
}

#[test]
fn verify_compat_reports_refutation_as_data() {
    let verified = Synthesis::from_state_graph(non_persistent())
        .elaborate()
        .unwrap()
        .covers()
        .unwrap()
        .decompose()
        .unwrap()
        .map()
        .verify_compat();
    assert_eq!(verified.verdict(), Some(false));
    assert!(!verified.circuit().gates().is_empty(), "the netlist stays exportable");
}

#[test]
fn batch_drives_multiple_benchmarks() {
    let rows = Batch::over_benchmarks(["half", "dff"]).limits([2, 3]).run().expect("batch");
    assert_eq!(rows.len(), 2);
    for row in &rows {
        assert_eq!(row.reports.len(), 2);
        assert!(row.reports.iter().all(|r| r.verified == Some(true)), "{}", row.name);
    }
    // The emitters accept batch rows directly.
    let md = simap::core::to_markdown(&[2, 3], &rows);
    assert!(md.contains("| half |") && md.contains("| dff |"), "{md}");
}
