//! The `corpus` and `table1` workloads: whole mapping flows, closed loop,
//! one specification at a time, each on a fresh `Engine`.

use crate::calib::Calibration;
use crate::trace::Tracer;
use crate::{ms, peak_rss_mb, setup_seconds, stats, timed_passes, Args, Outcome, Passes, Rng};
use simap::core::{report_json, DecomposeStep, FlowReport};
use simap::stg::{parse_g, patterns, write_g, Stg};
use simap::{Config, Engine, Error, FlowObserver, Synthesis};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Specs of one `corpus` run: each is mapped once per pass.
const CORPUS_SPECS: usize = 1000;

/// Specs in the fixed input set of a traced corpus run: enough for a
/// p99 with ten samples beyond it.
const TRACED_CORPUS_SPECS: usize = 1000;

/// One generated `.g` spec.
pub struct Spec {
    pub name: String,
    pub text: String,
}

/// Stratum of a corpus net: its signal and transition counts, which
/// separate the generator's families and compositions.
fn stratum(stg: &Stg) -> (usize, usize) {
    (stg.signals().len(), stg.transitions().len())
}

/// Seed and size of the reference corpus whose stratum shares fix every
/// run's sample.
const REFERENCE_SEED: u64 = 0;
const REFERENCE_NETS: usize = 5_000;

/// `count` specs of the seeded corpus with the same number from every
/// stratum in every run: the share each stratum has in the reference
/// corpus. Per-spec cost spans three orders of magnitude between strata,
/// so sampling them in fixed proportions keeps the seed-to-seed spread of
/// the workload's figures down to what varies within a stratum. Within a
/// stratum specs keep corpus order; the strata are interleaved so that
/// every prefix of the sample is close to the same proportions.
pub fn corpus_sample(seed: u64, count: usize) -> Vec<Spec> {
    let mut reference: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for stg in patterns::corpus(REFERENCE_SEED, REFERENCE_NETS) {
        *reference.entry(stratum(&stg)).or_default() += 1;
    }
    // Largest-remainder apportionment of `count` over the strata.
    let exact: Vec<((usize, usize), f64)> = reference
        .iter()
        .map(|(&key, &n)| (key, count as f64 * n as f64 / REFERENCE_NETS as f64))
        .collect();
    let mut quota: BTreeMap<(usize, usize), usize> =
        exact.iter().map(|&(key, q)| (key, q.floor() as usize)).collect();
    let mut by_remainder = exact.clone();
    by_remainder.sort_by(|a, b| (b.1 - b.1.floor()).total_cmp(&(a.1 - a.1.floor())));
    let short = count - quota.values().sum::<usize>();
    for (key, _) in by_remainder.into_iter().take(short) {
        *quota.get_mut(&key).expect("listed stratum") += 1;
    }
    // Each spec's key is its rank within its stratum over the stratum's
    // quota: sorting by it interleaves the strata.
    let mut taken: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    let mut keyed = Vec::with_capacity(count);
    for index in 0.. {
        if keyed.len() == count {
            break;
        }
        let stg = patterns::corpus_net(seed, index);
        let key = stratum(&stg);
        let Some(&q) = quota.get(&key) else { continue };
        let rank = taken.entry(key).or_default();
        if *rank < q {
            let position = (*rank as f64 + 0.5) / q as f64;
            *rank += 1;
            keyed.push((
                position,
                index,
                Spec { name: stg.name().to_string(), text: write_g(&stg) },
            ));
        }
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    keyed.into_iter().map(|(_, _, spec)| spec).collect()
}

/// Reports the end-to-end metrics of a closed loop over whole passes, and
/// the workload's other figures as notes.
fn finish(out: &mut Outcome, setup_s: f64, run: &Passes, literals: u64) {
    out.metric("setup_s", setup_s);
    out.metric("latency_geomean_ms", stats::geomean(&run.item_ms).unwrap_or(f64::NAN));
    out.note_passes(run);
    let total: f64 = run.item_ms.iter().sum();
    out.note(format!("specs_per_s = {:.2} specs/s", 1e3 * run.item_ms.len() as f64 / total));
    out.note_percentile("latency_p50_ms", &run.item_ms, 0.5);
    out.note_percentile("latency_p99_ms", &run.item_ms, 0.99);
    out.note(format!("literals_total = {literals} literals (n = {})", run.item_ms.len()));
    out.note(format!("peak_rss_mb = {:.1} MiB", peak_rss_mb(None).unwrap_or(f64::NAN)));
    out.note(format!("failed_frac = {}/{}", out.failed, out.attempted));
}

/// Checks one flow result of a spec that must map and verify.
fn check_report(out: &mut Outcome, name: &str, result: Result<FlowReport, Error>) -> Option<u64> {
    match result {
        Ok(report) if report.name != name => {
            out.fail(format!("{name}: report names `{}`", report.name));
            None
        }
        Ok(report) if report.inserted.is_none() => {
            out.fail(format!("{name}: not implementable"));
            None
        }
        Ok(report) if report.verified != Some(true) => {
            out.fail(format!("{name}: verified = {:?}", report.verified));
            None
        }
        Ok(report) => Some(report.si_cost.literals as u64),
        Err(e) => {
            out.fail(format!("{name}: {e}"));
            None
        }
    }
}

/// `corpus`, untraced: maps a fixed set of generated specs from text,
/// pass after pass, until the window closes.
pub fn corpus(args: &Args, started: Instant) -> Outcome {
    let specs = corpus_sample(args.seed, CORPUS_SPECS);
    let first_setup = started.elapsed();
    let mut out = Outcome::default();
    let mut literals = 0;
    let run = timed_passes(args, specs.len(), |pass, i| {
        let text = specs[i].text.clone();
        let t = Instant::now();
        let result = Engine::new(Config::default()).g_source(text).run();
        let elapsed = t.elapsed();
        out.attempted += 1;
        let cost = check_report(&mut out, &specs[i].name, result);
        if pass == 0 {
            literals += cost.unwrap_or(0);
        }
        elapsed
    });
    let setup_s =
        setup_seconds(first_setup, run.cal.scale(), || corpus_sample(args.seed, CORPUS_SPECS));
    finish(&mut out, setup_s, &run, literals);
    out
}

/// Circuit order of one `table1` pass.
fn table1_order(seed: u64) -> Vec<&'static str> {
    let mut names = simap::stg::benchmark_names().to_vec();
    Rng::new(seed).shuffle(&mut names);
    names
}

/// The committed golden tables `table1` checks against.
struct Golden {
    /// circuit → (states, arcs).
    graphs: HashMap<String, (usize, usize)>,
    /// circuit → `signal<TAB>cubes<TAB>literals` lines in signal order.
    covers: HashMap<String, Vec<String>>,
}

impl Golden {
    fn load() -> Result<Golden, String> {
        let read = |path: &str| {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
        };
        let rows = |text: &str| -> Vec<Vec<String>> {
            text.lines()
                .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
                .map(|l| l.split('\t').map(str::to_string).collect())
                .collect()
        };
        let mut graphs = HashMap::new();
        for row in rows(&read("tests/golden/benchmark_conformance.tsv")?) {
            let num = |i: usize| row.get(i).and_then(|s| s.parse().ok());
            let (Some(states), Some(arcs)) = (num(1), num(2)) else {
                return Err(format!("malformed conformance row {row:?}"));
            };
            graphs.insert(row[0].clone(), (states, arcs));
        }
        let mut covers: HashMap<String, Vec<String>> = HashMap::new();
        for row in rows(&read("tests/golden/signal_covers.tsv")?) {
            if row.len() != 4 {
                return Err(format!("malformed cover row {row:?}"));
            }
            covers.entry(row[0].clone()).or_default().push(row[1..].join("\t"));
        }
        Ok(Golden { graphs, covers })
    }

    /// Checks a circuit's graph size and first-level covers.
    fn check(&self, engine: &Engine, name: &str) -> Result<(), String> {
        let elaborated = engine.benchmark(name).elaborate().map_err(|e| e.to_string())?;
        let sg = elaborated.state_graph();
        let got = (sg.state_count(), sg.arc_count());
        if self.graphs.get(name) != Some(&got) {
            return Err(format!("states/arcs {got:?}, golden {:?}", self.graphs.get(name)));
        }
        let signals: Vec<String> = sg.signals().iter().map(|s| s.name.clone()).collect();
        let covers = elaborated.covers().map_err(|e| e.to_string())?;
        let lines: Vec<String> = covers
            .mc()
            .signals
            .iter()
            .map(|s| format!("{}\t{}\t{}", signals[s.signal.0], s.cube_count(), s.literal_count()))
            .collect();
        if self.covers.get(name) != Some(&lines) {
            return Err(format!(
                "first-level covers {lines:?}, golden {:?}",
                self.covers.get(name)
            ));
        }
        Ok(())
    }
}

/// `table1`, untraced: passes over the embedded suite until the window
/// closes (at least one).
pub fn table1(args: &Args, started: Instant) -> Result<Outcome, String> {
    let setup = || -> Result<_, String> { Ok((Golden::load()?, table1_order(args.seed))) };
    let (golden, order) = setup()?;
    let first_setup = started.elapsed();
    let mut out = Outcome::default();
    let mut literals = 0;
    let run = timed_passes(args, order.len(), |pass, i| {
        let name = order[i];
        let engine = Engine::new(Config::default());
        let t = Instant::now();
        let result = engine.benchmark(name).run();
        let elapsed = t.elapsed();
        out.attempted += 1;
        let cost = check_report(&mut out, name, result);
        // Outside the timed call, once per circuit: graph and covers
        // against the goldens (the elaboration is answered from `engine`).
        if pass == 0 {
            literals += cost.unwrap_or(0);
            if let Err(e) = golden.check(&engine, name) {
                out.fail(format!("{name}: {e}"));
            }
        }
        elapsed
    });
    let setup_s = setup_seconds(first_setup, run.cal.scale(), setup);
    finish(&mut out, setup_s, &run, literals);
    Ok(out)
}

/// Counts the observer events the per-layer metrics need.
#[derive(Default)]
struct FlowCounts {
    cubes: u64,
    literals: u64,
    steps: u64,
}

struct CountingObserver(Arc<Mutex<FlowCounts>>);

impl FlowObserver for CountingObserver {
    fn on_signal_synth(&mut self, _signal: &str, cubes: usize, literals: usize) {
        let mut counts = self.0.lock().expect("observer counts lock");
        counts.cubes += cubes as u64;
        counts.literals += literals as u64;
    }

    fn on_decompose_step(&mut self, _step: &DecomposeStep) {
        self.0.lock().expect("observer counts lock").steps += 1;
    }
}

/// Where a traced flow starts.
enum Source<'a> {
    Text(&'a str),
    Benchmark(&'a str),
}

/// One flow through the staged API, a span around each stage.
fn traced_flow(t: &mut Tracer, spec: u64, source: &Source) -> Result<FlowReport, Error> {
    t.span("flow", spec, |t| {
        let counts = Arc::new(Mutex::new(FlowCounts::default()));
        let observer = CountingObserver(counts.clone());
        let config = Config::default();
        let synthesis = match source {
            Source::Text(text) => {
                let stg = t.span("stg.parse", spec, |_| parse_g(text))?;
                t.count("stg.parse_bytes", text.len() as u64);
                Synthesis::from_stg(stg)
            }
            Source::Benchmark(name) => Synthesis::from_benchmark(*name),
        };
        let synthesis = synthesis.config(&config).observer(observer);
        let elaborated = t.span("stg.elaborate", spec, |_| synthesis.elaborate())?;
        t.count("stg.states", elaborated.state_graph().state_count() as u64);
        t.count("stg.arcs", elaborated.state_graph().arc_count() as u64);
        let covers = t.span("core.covers", spec, |_| elaborated.covers())?;
        let decomposed = t.span("core.decompose", spec, |_| covers.decompose())?;
        let mapped = t.span("netlist.map", spec, |_| decomposed.map());
        let verified = t.span("netlist.verify", spec, |_| mapped.verify_compat());
        let counts = counts.lock().expect("observer counts lock");
        t.count("core.covers.cubes", counts.cubes);
        t.count("core.covers.literals", counts.literals);
        t.count("core.decompose.steps", counts.steps);
        Ok(verified.into_report())
    })
}

/// Layer spans of a traced flow and the metric each one feeds.
const FLOW_LAYERS: [(&str, &str); 6] = [
    ("stg.parse", "stg.parse_ms"),
    ("stg.elaborate", "stg.elaborate_ms"),
    ("core.covers", "core.covers_ms"),
    ("core.decompose", "core.decompose_ms"),
    ("netlist.map", "netlist.map_ms"),
    ("netlist.verify", "netlist.verify_ms"),
];

/// Runs a fixed input set untraced, then traced twice: reports self time
/// per layer, counts, coverage and overhead, and checks that traced and
/// untraced reports are byte-identical and that both traced passes have
/// the same span tree and counts.
fn traced_flows(
    args: &Args,
    sources: &[(String, Source)],
    untraced: impl Fn(&Source) -> Result<FlowReport, Error>,
) -> Outcome {
    let mut out = Outcome::default();
    let (mut latencies_ms, mut literals) = (Vec::new(), 0);
    let mut cal = Calibration::new();
    let started = Instant::now();
    let expected: Vec<Option<String>> = sources
        .iter()
        .map(|(_, source)| {
            cal.refresh();
            let t = Instant::now();
            let report = untraced(source).ok();
            latencies_ms.push(ms(t.elapsed()));
            literals += report.as_ref().map_or(0, |r| r.si_cost.literals as u64);
            report.as_ref().map(report_json)
        })
        .collect();
    let untraced_wall = started.elapsed();
    let busy_s = latencies_ms.iter().sum::<f64>() / 1e3;
    out.metric("specs_per_s", latencies_ms.len() as f64 / busy_s);
    out.metric("calib.kernel_ms", cal.kernel_ms());
    out.percentile_metric("latency_p50_ms", &latencies_ms, 0.5);
    out.percentile_metric("latency_p99_ms", &latencies_ms, 0.99);
    out.metric("literals_total", literals as f64);

    let pass = |check: bool, out: &mut Outcome| {
        let mut tracer = Tracer::default();
        let started = Instant::now();
        for (spec, ((name, source), expected)) in sources.iter().zip(&expected).enumerate() {
            let result = traced_flow(&mut tracer, spec as u64, source);
            if !check {
                continue;
            }
            out.attempted += 1;
            let got = result.as_ref().ok().map(report_json);
            if got != *expected {
                out.fail(format!("{name}: traced report differs from the untraced one"));
            } else {
                check_report(out, name, result);
            }
        }
        (tracer, started.elapsed())
    };
    let (tracer, traced_wall) = pass(true, &mut out);
    let (again, _) = pass(false, &mut out);
    if tracer.shape() != again.shape() {
        out.fail("two traced passes gave different span trees or counts".to_string());
    }

    let times = tracer.self_times();
    let mut covered = 0;
    for (span, metric) in FLOW_LAYERS {
        let self_ns = times.get(span).copied().unwrap_or(0);
        covered += self_ns;
        out.metric(metric, self_ns as f64 / 1e6);
    }
    for (name, value) in tracer.counters() {
        out.metric(name, *value as f64);
    }
    let wall_ns = traced_wall.as_nanos() as f64;
    out.metric("trace.coverage", covered as f64 / wall_ns);
    out.metric("peak_rss_mb", peak_rss_mb(None).unwrap_or(f64::NAN));
    let overhead = traced_wall.as_secs_f64() - untraced_wall.as_secs_f64();
    out.metric("trace.overhead_ms", overhead * 1e3);
    out.metric("trace.overhead_frac", overhead / untraced_wall.as_secs_f64());
    out.note(format!(
        "traced wall {:.1} ms, untraced wall {:.1} ms over {} specs",
        ms(traced_wall),
        ms(untraced_wall),
        sources.len()
    ));
    let path = args.out_dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    if let Err(e) = tracer.write_tsv(&path) {
        eprintln!("flowbench: cannot write {}: {e}", path.display());
    }
    out
}

/// `corpus`, traced: a fixed set of [`TRACED_CORPUS_SPECS`] specs.
pub fn corpus_traced(args: &Args) -> Outcome {
    let specs = corpus_sample(args.seed, TRACED_CORPUS_SPECS);
    let sources: Vec<(String, Source)> =
        specs.iter().map(|s| (s.name.clone(), Source::Text(&s.text))).collect();
    traced_flows(args, &sources, |source| match source {
        Source::Text(text) => Engine::new(Config::default()).g_source(*text).run(),
        Source::Benchmark(_) => unreachable!("corpus sources are text"),
    })
}

/// `table1`, traced: one pass over the suite in seed order.
pub fn table1_traced(args: &Args) -> Result<Outcome, String> {
    let sources: Vec<(String, Source)> = table1_order(args.seed)
        .into_iter()
        .map(|name| (name.to_string(), Source::Benchmark(name)))
        .collect();
    Ok(traced_flows(args, &sources, |source| match source {
        Source::Benchmark(name) => Engine::new(Config::default()).benchmark(*name).run(),
        Source::Text(_) => unreachable!("table1 sources are benchmark names"),
    }))
}
