//! The `reach` workload: what `simap check` does — elaborate a net, then
//! run the §2.1 property checks — on nets of 10^5–5·10^5 states, once
//! with the packed engine and once with the spill engine.

use crate::calib::Calibration;
use crate::trace::Tracer;
use crate::{ms, peak_rss_mb, setup_seconds, stats, timed_passes, Args, Outcome, Rng};
use simap::core::Fnv64;
use simap::sg::{check_all, StateGraph};
use simap::stg::{elaborate_with_stats, patterns, ReachStats, Stg};
use simap::{ReachConfig, ReachStrategy};
use std::path::Path;
use std::time::{Duration, Instant};

/// Lower state-count bounds of the generated nets, one net per bound in
/// turn; each net lands within [`BAND_WIDTH`] above its bound, so every
/// run checks the same spread of sizes (all below the default
/// `max_states` of 500,000).
const BANDS: [usize; 4] = [100_000, 200_000, 300_000, 400_000];
const BAND_WIDTH: f64 = 0.1;

/// Corpus nets the compositions draw their parts from, and how many
/// random draws may be tried per net.
const PARTS: u64 = 48;
const MAX_DRAWS: usize = 100_000;

/// Nets of one untraced run (three per band), each checked once per pass:
/// net structure moves a net's cost by tens of percent, so a run averages
/// over several per band.
const NETS: usize = 12;

/// Nets in the fixed input set of a traced run (one per band).
const TRACED_NETS: usize = 4;

/// Resident budget of the spill runs: far below any generated net's
/// working set, so every spill run writes scratch files.
const SPILL_BUDGET: usize = 64 * 1024;

/// Codes are `u64` words, one bit per signal.
const MAX_SIGNALS: usize = 64;

/// Concurrent components of every generated net. Checking cost per state
/// grows with the number of components (each adds enabled transitions
/// to every state), so nets of one size but different concurrency
/// differed by over 1.5×; with the count fixed, seeds differ only in
/// the parts' own structure.
const COMPONENTS: usize = 6;

/// Concurrent components of a corpus net: two for a composition of two
/// pattern instances (whose signals the generator prefixes `p0_`/`p1_`),
/// else one.
fn components(stg: &Stg) -> usize {
    if stg.signals().iter().any(|s| s.name.starts_with("p1_")) {
        2
    } else {
        1
    }
}

/// A generated net and its expected state count.
struct Net {
    stg: Stg,
    states: usize,
}

/// Composes corpus nets into `count` nets, net `j` landing just above
/// band bound `j % 4` with [`COMPONENTS`] concurrent components. The
/// state count of a disjoint parallel composition is the product of its
/// parts', so each of the [`PARTS`] candidate parts is elaborated once
/// (they are tiny) and seeded random draws pick parts until a product
/// falls inside the band.
fn generate(seed: u64, count: usize) -> Vec<Net> {
    let pool: Vec<(Stg, usize)> = (0..PARTS)
        .map(|i| {
            let stg = patterns::corpus_net(seed, i);
            let (sg, _) = elaborate_with_stats(&stg, &ReachConfig::default())
                .expect("corpus nets are bounded and consistent");
            let states = sg.state_count();
            (stg, states)
        })
        .collect();
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|j| {
            let lo = BANDS[j % BANDS.len()];
            let hi = (lo as f64 * (1.0 + BAND_WIDTH)) as usize;
            for _ in 0..MAX_DRAWS {
                let (mut picked, mut product, mut signals) = (Vec::new(), 1usize, 0usize);
                let mut order: Vec<usize> = (0..pool.len()).collect();
                rng.shuffle(&mut order);
                for i in order {
                    let (part, states) = &pool[i];
                    let fits = product * states < hi
                        && signals + part.signals().len() <= MAX_SIGNALS
                        && picked.iter().map(components).sum::<usize>() + components(part)
                            <= COMPONENTS;
                    if fits {
                        product *= states;
                        signals += part.signals().len();
                        picked.push(part.clone());
                    }
                    if product >= lo {
                        break;
                    }
                }
                if product >= lo && picked.iter().map(components).sum::<usize>() == COMPONENTS {
                    let name = format!("reach_{seed}_{j}");
                    return Net { stg: patterns::parallel(&name, &picked), states: product };
                }
            }
            panic!("no composition of the seed-{seed} parts lands in [{lo}, {hi}) states")
        })
        .collect()
}

/// Frontier-expansion threads of both strategies. One, not `nproc`: on
/// a shared 2-vCPU host two jobs ran 1.1–1.4× slower than one, and their
/// run-to-run spread (±14% against ±2%) hid any change under test.
const JOBS: usize = 1;

fn packed_config() -> ReachConfig {
    ReachConfig { jobs: JOBS, ..ReachConfig::default() }
}

fn spill_config(dir: &Path) -> ReachConfig {
    ReachConfig {
        strategy: ReachStrategy::Spill,
        jobs: JOBS,
        memory_budget: SPILL_BUDGET,
        spill_dir: Some(dir.to_path_buf()),
        ..ReachConfig::default()
    }
}

/// State count, arc count and a digest of every state's code and
/// successor list: equal graphs give equal summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GraphSummary {
    states: usize,
    arcs: usize,
    digest: u64,
}

fn summarize(sg: &StateGraph) -> GraphSummary {
    let mut h = Fnv64::new();
    for s in sg.states() {
        h.write(&sg.code(s).to_le_bytes());
        for (event, dst) in sg.succ(s) {
            h.write(&(event.signal.0 as u64).to_le_bytes());
            h.write(&[u8::from(event.rising)]);
            h.write(&(dst.0 as u64).to_le_bytes());
        }
    }
    GraphSummary { states: sg.state_count(), arcs: sg.arc_count(), digest: h.finish() }
}

/// One check of one net with one strategy.
struct Check {
    summary: GraphSummary,
    stats: ReachStats,
    properties_ok: bool,
    elapsed: Duration,
}

/// Elaborates `net` and checks its properties, optionally inside spans.
fn check(
    net: &Net,
    config: &ReachConfig,
    mut tracer: Option<(&mut Tracer, u64)>,
) -> Result<Check, String> {
    let started = Instant::now();
    let reach_span = match config.strategy {
        ReachStrategy::Spill => "stg.reach.spill",
        _ => "stg.reach.packed",
    };
    let (sg, stats) = match tracer.as_mut() {
        Some((t, spec)) => t.span(reach_span, *spec, |_| elaborate_with_stats(&net.stg, config)),
        None => elaborate_with_stats(&net.stg, config),
    }
    .map_err(|e| format!("{}: {e}", net.stg.name()))?;
    let report = match tracer.as_mut() {
        Some((t, spec)) => t.span("sg.properties", *spec, |_| check_all(&sg)),
        None => check_all(&sg),
    };
    let elapsed = started.elapsed();
    Ok(Check { summary: summarize(&sg), stats, properties_ok: report.is_ok(), elapsed })
}

/// Checks one net both ways and compares the results.
fn check_both(
    out: &mut Outcome,
    net: &Net,
    spill_dir: &Path,
    mut tracer: Option<(&mut Tracer, u64)>,
) -> Option<(Check, Check)> {
    out.attempted += 1;
    let name = net.stg.name().to_string();
    let packed = check(net, &packed_config(), tracer.as_mut().map(|(t, s)| (&mut **t, *s)));
    let spill = check(net, &spill_config(spill_dir), tracer);
    let (packed, spill) = match (packed, spill) {
        (Ok(p), Ok(s)) => (p, s),
        (Err(e), _) | (_, Err(e)) => {
            out.fail(e);
            return None;
        }
    };
    let files = spill.stats.spill.map_or(0, |c| c.files_created);
    let problem = if packed.summary != spill.summary {
        Some(format!("packed {:?} and spill {:?} graphs differ", packed.summary, spill.summary))
    } else if packed.summary.states != net.states {
        Some(format!("{} states, expected {}", packed.summary.states, net.states))
    } else if files == 0 {
        Some("the spill run created no files".to_string())
    } else if !(packed.properties_ok && spill.properties_ok) {
        Some("property check failed".to_string())
    } else {
        None
    };
    match problem {
        Some(p) => {
            out.fail(format!("{name}: {p}"));
            None
        }
        None => Some((packed, spill)),
    }
}

/// States elaborated and checked per second of one strategy.
#[derive(Default)]
struct Rate {
    states: usize,
    time: Duration,
}

impl Rate {
    fn add(&mut self, check: &Check) {
        self.states += check.summary.states;
        self.time += check.elapsed;
    }

    fn per_second(&self) -> f64 {
        self.states as f64 / self.time.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

fn spill_dir(args: &Args) -> Result<std::path::PathBuf, String> {
    let dir = args.out_dir.join(format!("spill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// `reach`, untraced: checks a fixed set of nets, pass after pass, until
/// the window closes.
pub fn run(args: &Args, started: Instant) -> Result<Outcome, String> {
    let nets = generate(args.seed, NETS);
    let dir = spill_dir(args)?;
    let first_setup = started.elapsed();
    let mut out = Outcome::default();
    let (mut packed, mut spill) = (Rate::default(), Rate::default());
    let run = timed_passes(args, nets.len(), |_, i| {
        let t = Instant::now();
        if let Some((p, s)) = check_both(&mut out, &nets[i], &dir, None) {
            packed.add(&p);
            spill.add(&s);
        }
        t.elapsed()
    });
    let _ = std::fs::remove_dir_all(&dir);
    let scale = run.cal.scale();
    let setup_s = setup_seconds(first_setup, scale, || generate(args.seed, NETS));
    out.metric("setup_s", setup_s);
    out.metric("latency_geomean_ms", stats::geomean(&run.item_ms).unwrap_or(f64::NAN));
    out.note_passes(&run);
    // Rates in normalized time, like the end-to-end figure.
    out.note(format!("states_per_s = {:.0} states/s (packed)", packed.per_second() / scale));
    out.note(format!("spill_states_per_s = {:.0} states/s (spill)", spill.per_second() / scale));
    out.note(format!("peak_rss_mb = {:.1} MiB", peak_rss_mb(None).unwrap_or(f64::NAN)));
    out.note(format!("nets = {}", nets.len()));
    out.note(format!("failed_frac = {}/{}", out.failed, out.attempted));
    Ok(out)
}

/// `reach`, traced: a fixed set of [`TRACED_NETS`] nets, untraced once
/// and traced twice (the two traced passes must agree on every span and
/// count).
pub fn traced(args: &Args) -> Result<Outcome, String> {
    let nets = generate(args.seed, TRACED_NETS);
    let dir = spill_dir(args)?;
    let mut out = Outcome::default();
    let started = Instant::now();
    let mut scratch = Outcome::default();
    let (mut latencies_ms, mut packed, mut spill) = (Vec::new(), Rate::default(), Rate::default());
    let mut cal = Calibration::new();
    for net in &nets {
        cal.sample();
        if let Some((p, s)) = check_both(&mut scratch, net, &dir, None) {
            latencies_ms.push(ms(p.elapsed + s.elapsed));
            packed.add(&p);
            spill.add(&s);
        }
    }
    let untraced_wall = started.elapsed();
    cal.sample();
    out.metric("calib.kernel_ms", cal.kernel_ms());
    out.metric("specs_per_s", 1e3 * latencies_ms.len() as f64 / latencies_ms.iter().sum::<f64>());
    out.percentile_metric("latency_p50_ms", &latencies_ms, 0.5);
    out.percentile_metric("latency_p99_ms", &latencies_ms, 0.99);
    out.metric("states_per_s", packed.per_second());
    out.metric("spill_states_per_s", spill.per_second());

    let mut resident_peak = 0u64;
    let mut pass = |out: &mut Outcome| {
        let mut tracer = Tracer::default();
        let started = Instant::now();
        for (spec, net) in nets.iter().enumerate() {
            let result = tracer
                .span("net", spec as u64, |t| check_both(out, net, &dir, Some((t, spec as u64))));
            if let Some((packed, spill)) = result {
                tracer.count("stg.states", packed.summary.states as u64);
                tracer.count("stg.arcs", packed.summary.arcs as u64);
                if let Some(c) = spill.stats.spill {
                    tracer.count("stg.reach.spill_bytes", c.spilled_bytes);
                    tracer.count("stg.reach.spill_files", u64::from(c.files_created));
                    resident_peak = resident_peak.max(c.resident_peak);
                }
            }
        }
        (tracer, started.elapsed())
    };
    let (tracer, traced_wall) = pass(&mut out);
    let mut second = Outcome::default();
    let (again, _) = pass(&mut second);
    let _ = std::fs::remove_dir_all(&dir);
    if tracer.shape() != again.shape() {
        out.fail("two traced passes gave different span trees or counts".to_string());
    }

    let times = tracer.self_times();
    let mut covered = 0;
    for (span, metric) in [
        ("stg.reach.packed", "stg.reach.packed_ms"),
        ("stg.reach.spill", "stg.reach.spill_ms"),
        ("sg.properties", "sg.properties_ms"),
    ] {
        let self_ns = times.get(span).copied().unwrap_or(0);
        covered += self_ns;
        out.metric(metric, self_ns as f64 / 1e6);
    }
    for (name, value) in tracer.counters() {
        out.metric(name, *value as f64);
    }
    out.metric("stg.reach.resident_peak_bytes", resident_peak as f64);
    out.metric("peak_rss_mb", peak_rss_mb(None).unwrap_or(f64::NAN));
    out.metric("trace.coverage", covered as f64 / traced_wall.as_nanos() as f64);
    let overhead = traced_wall.as_secs_f64() - untraced_wall.as_secs_f64();
    out.metric("trace.overhead_ms", overhead * 1e3);
    out.metric("trace.overhead_frac", overhead / untraced_wall.as_secs_f64());
    out.note(format!(
        "traced wall {:.1} ms, untraced wall {:.1} ms over {} nets",
        ms(traced_wall),
        ms(untraced_wall),
        nets.len()
    ));
    let path = args.out_dir.join(format!("spans-reach-seed{}.tsv", args.seed));
    if let Err(e) = tracer.write_tsv(&path) {
        eprintln!("flowbench: cannot write {}: {e}", path.display());
    }
    Ok(out)
}
