//! `simap` — command-line front-end to the speed-independent technology
//! mapper.
//!
//! ```text
//! simap check <spec.g> [options]      verify the specification's properties
//! simap map   <spec.g> [options]      run the full mapping flow
//! simap bench list [--json]            list the embedded Table 1 circuits
//! simap bench run [name ...] [opts]   batch the suite through one config
//! simap gen [options]                 emit seeded `.g` corpus specs
//! simap serve [options]               host the flow as an HTTP service
//!
//! check options:
//!       --strategy <s>   reachability engine: packed (default) | explicit | symbolic | spill
//!       --reach-jobs <n> frontier-expansion threads (packed/spill; same output)
//!       --materialize-limit <n>  symbolic: largest state space built explicitly
//!       --memory-budget <b>  spill: resident working-set cap (e.g. 256MiB)
//!       --spill-dir <d>  spill: scratch directory (default: system temp)
//!       --shards <n>     spill: hash partitions of the intern table
//!       --checkpoint-every <n>  spill: commit a durable checkpoint every n BFS levels
//!       --checkpoint-dir <d>    spill: directory the checkpoints are committed to
//!       --resume <d>     spill: continue from the last checkpoint in <d>
//!       --synth-jobs <n> per-signal synthesis threads (same output)
//!       --bench <name>   use an embedded benchmark instead of a file
//!
//! map options:
//!   -l, --limit <n>      literal limit (default 2)
//!       --csc-repair     repair CSC violations by state-signal insertion
//!       --no-verify      skip the final speed-independence verification
//!       --or-limit <n>   split second-level OR gates to <= n inputs
//!       --strategy <s>   reachability engine: packed (default) | explicit | symbolic | spill
//!       --reach-jobs <n> frontier-expansion threads (packed/spill; same output)
//!       --synth-jobs <n> per-signal synthesis threads (same output)
//!       --materialize-limit <n>  symbolic: largest state space built explicitly
//!       --memory-budget <b>  spill: resident working-set cap (e.g. 256MiB)
//!       --spill-dir <d>  spill: scratch directory (default: system temp)
//!       --shards <n>     spill: hash partitions of the intern table
//!       --checkpoint-every <n>  spill: commit a durable checkpoint every n BFS levels
//!       --checkpoint-dir <d>    spill: directory the checkpoints are committed to
//!       --resume <d>     spill: continue from the last checkpoint in <d>
//!   -v, --verbose        narrate stages and insertions to stderr
//!       --json           print the report as JSON instead of the dossier
//!       --verilog <f>    write the mapped netlist as structural Verilog
//!       --dot <f>        write the final state graph as Graphviz dot
//!       --bench <name>   use an embedded benchmark instead of a file
//!
//! bench run options:
//!       --limits <a,b>   literal limits (default 2)
//!   -j, --jobs <n>       worker threads (default 1; results identical)
//!       --strategy <s>   reachability engine: packed (default) | explicit | symbolic | spill
//!       --reach-jobs <n> frontier-expansion threads (packed/spill; same output)
//!       --synth-jobs <n> per-signal synthesis threads (same output)
//!       --materialize-limit <n>  symbolic: largest state space built explicitly
//!       --memory-budget <b>  spill: resident working-set cap (e.g. 256MiB)
//!       --spill-dir <d>  spill: scratch directory (default: system temp)
//!       --shards <n>     spill: hash partitions of the intern table
//!       --checkpoint-every <n>  spill: commit a durable checkpoint every n BFS levels
//!       --checkpoint-dir <d>    spill: directory the checkpoints are committed to
//!       --resume <d>     spill: continue from the last checkpoint in <d>
//!       --csc-repair     repair CSC violations by state-signal insertion
//!       --no-verify      skip speed-independence verification
//!       --record <f>     also write a machine-readable snapshot (JSON)
//!       --json|--csv     emit JSON / CSV instead of the markdown table
//!   -v, --verbose        report elaboration-cache statistics to stderr
//!
//! bench compare options:
//!       simap bench compare <old.json> <new.json> [--max-regress <pct>]
//!       exits 1 when any benchmark's states/s regressed by more than
//!       <pct> percent (default 25) beyond the noise floor
//!
//! gen options:
//!       --seed <n>       corpus seed (default 0); a fixed seed gives
//!                        byte-identical specs on every machine
//!       --count <n>      how many specs to produce (default 1)
//!       --out-dir <d>    write one `<name>.g` file per spec into <d>
//!                        (created if missing); default: print to stdout
//!
//! serve options:
//!       --addr <a>       address to bind (default 127.0.0.1:7317)
//!   -j, --jobs <n>       synthesis worker threads (default: CPU count)
//!       --queue-limit <n> bounded job queue; full => 429 (default 64)
//!       --api-keys <f>   TSV keyfile (key<TAB>client<TAB>tier); without
//!                        it every caller is one anonymous client
//!       --rate-limit <r> base requests/sec per client (default 0 = off)
//!       --max-inflight <n> base in-flight jobs per client (default 0 = off)
//!       --cache-dir <d>  persistent result cache directory (default: off)
//!       --cache-limit <n> max cached results before LRU eviction (default 256)
//!       --breaker-threshold <n> worker failures in 10s that open the
//!                        circuit breaker (default 8; 0 disables)
//!       --breaker-cooldown <s> seconds the breaker stays open before a
//!                        half-open probe (default 5)
//! ```
//!
//! `simap serve` hosts the same flow as a long-running HTTP/1.1 service
//! over one shared engine (warm elaboration cache across clients); see
//! the `simap_serve` crate docs for the wire protocol and the gateway
//! layers (auth, rate limiting, circuit breaker, result cache). It shuts
//! down gracefully — draining accepted jobs — on SIGTERM or ctrl-c, and
//! reloads the API keyfile in place on SIGHUP.
//!
//! Unknown flags and flags missing their value are rejected with an
//! error (exit code 1) instead of being silently ignored.

use simap::core::{benchmarks_json, dossier, report_json, to_csv, to_json, to_markdown};
use simap::netlist::to_verilog;
use simap::sg::DotOptions;
use simap::{Config, Engine, StderrObserver, Synthesis};
use std::error::Error;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("map") => map(&args[1..]),
        Some("bench") => bench(&args[1..]),
        Some("gen") => gen(&args[1..]),
        Some("serve") => serve(&args[1..]),
        _ => {
            eprintln!("usage: simap <check|map|bench|gen|serve> ...   (see --help in the README)");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// One accepted flag of a subcommand.
struct FlagSpec {
    /// Canonical name (`--limit`).
    name: &'static str,
    /// Optional short alias (`-l`).
    alias: Option<&'static str>,
    /// Whether the flag consumes the following argument as its value.
    takes_value: bool,
}

const fn flag(name: &'static str) -> FlagSpec {
    FlagSpec { name, alias: None, takes_value: false }
}

const fn valued(name: &'static str) -> FlagSpec {
    FlagSpec { name, alias: None, takes_value: true }
}

const fn aliased(mut spec: FlagSpec, alias: &'static str) -> FlagSpec {
    spec.alias = Some(alias);
    spec
}

/// Strictly parsed arguments of one subcommand: every flag was declared,
/// every valued flag has its value.
struct Parsed {
    positionals: Vec<String>,
    flags: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
}

impl Parsed {
    fn has(&self, name: &str) -> bool {
        self.flags.contains(&name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        // Last occurrence wins, matching common CLI conventions.
        self.values.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }
}

/// Parses `args` against the accepted `specs`.
///
/// # Errors
/// An unknown flag, or a valued flag with no following argument.
fn parse_flags(args: &[String], specs: &[FlagSpec]) -> Result<Parsed, String> {
    let mut parsed = Parsed { positionals: Vec::new(), flags: Vec::new(), values: Vec::new() };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if !arg.starts_with('-') || arg == "-" {
            parsed.positionals.push(arg.clone());
            continue;
        }
        let spec = specs
            .iter()
            .find(|s| s.name == arg || s.alias == Some(arg.as_str()))
            .ok_or_else(|| format!("unknown flag `{arg}`"))?;
        if spec.takes_value {
            let value = iter.next().ok_or_else(|| format!("flag `{arg}` requires a value"))?;
            parsed.values.push((spec.name, value.clone()));
        } else {
            parsed.flags.push(spec.name);
        }
    }
    Ok(parsed)
}

/// Builds a [`Synthesis`] from the parsed source arguments: `--bench
/// <name>` takes precedence; otherwise the first positional argument is a
/// `.g` file path.
fn synthesis(parsed: &Parsed) -> Result<Synthesis, Box<dyn Error>> {
    if let Some(name) = parsed.value("--bench") {
        return Ok(Synthesis::from_benchmark(name));
    }
    let Some(path) = parsed.positionals.first() else {
        return Err("no specification given (pass a .g file or --bench <name>)".into());
    };
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Ok(Synthesis::from_g_source(source))
}

/// Parses a byte-size value: a plain integer (bytes) optionally suffixed
/// with `K`/`KiB`, `M`/`MiB` or `G`/`GiB` (binary multiples; `KB`-style
/// decimal suffixes are accepted as their binary cousins for
/// forgiveness, since a memory *budget* is a bound, not a measurement).
fn parse_bytes(spec: &str) -> Result<usize, String> {
    let s = spec.trim();
    let split = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    let (digits, suffix) = s.split_at(split);
    let value: usize =
        digits.parse().map_err(|_| format!("bad byte size `{spec}`: expected digits"))?;
    let shift = match suffix.trim().to_ascii_lowercase().as_str() {
        "" | "b" => 0,
        "k" | "kb" | "kib" => 10,
        "m" | "mb" | "mib" => 20,
        "g" | "gb" | "gib" => 30,
        other => return Err(format!("bad byte size `{spec}`: unknown suffix `{other}`")),
    };
    value.checked_shl(shift).ok_or_else(|| format!("byte size `{spec}` overflows"))
}

/// Applies the shared engine flags (`--strategy`, `--reach-jobs`,
/// `--materialize-limit`, the spill knobs `--memory-budget`,
/// `--spill-dir`, `--shards`, the checkpoint knobs
/// `--checkpoint-every`, `--checkpoint-dir`, `--resume`, and the
/// per-signal synthesis fan-out `--synth-jobs`) to a configuration
/// builder. `--resume` implies the spill strategy (and refuses an
/// explicit conflicting `--strategy`).
fn reach_flags(
    parsed: &Parsed,
    mut builder: simap::ConfigBuilder,
) -> Result<simap::ConfigBuilder, Box<dyn Error>> {
    if let Some(strategy) = parsed.value("--strategy") {
        builder = builder.reach_strategy(strategy.parse::<simap::ReachStrategy>()?);
    }
    if let Some(jobs) = parsed.value("--reach-jobs") {
        builder = builder.reach_jobs(jobs.parse()?);
    }
    if let Some(jobs) = parsed.value("--synth-jobs") {
        builder = builder.synth_jobs(jobs.parse()?);
    }
    if let Some(limit) = parsed.value("--materialize-limit") {
        builder = builder.reach_materialize_limit(limit.parse()?);
    }
    if let Some(budget) = parsed.value("--memory-budget") {
        builder = builder.reach_memory_budget(parse_bytes(budget)?);
    }
    if let Some(dir) = parsed.value("--spill-dir") {
        builder = builder.reach_spill_dir(Some(std::path::PathBuf::from(dir)));
    }
    if let Some(shards) = parsed.value("--shards") {
        builder = builder.reach_shards(shards.parse()?);
    }
    if let Some(every) = parsed.value("--checkpoint-every") {
        builder = builder.reach_checkpoint_every(every.parse()?);
    }
    if let Some(dir) = parsed.value("--checkpoint-dir") {
        builder = builder.reach_checkpoint_dir(Some(std::path::PathBuf::from(dir)));
    }
    if let Some(dir) = parsed.value("--resume") {
        if parsed.value("--strategy").is_some_and(|s| s != "spill") {
            return Err(
                "--resume requires the spill strategy (omit --strategy or pass `spill`)".into()
            );
        }
        builder = builder
            .reach_strategy(simap::ReachStrategy::Spill)
            .reach_resume(Some(std::path::PathBuf::from(dir)));
    }
    Ok(builder)
}

fn check(args: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    let parsed = parse_flags(
        args,
        &[
            valued("--bench"),
            valued("--strategy"),
            valued("--reach-jobs"),
            valued("--synth-jobs"),
            valued("--materialize-limit"),
            valued("--memory-budget"),
            valued("--spill-dir"),
            valued("--shards"),
            valued("--checkpoint-every"),
            valued("--checkpoint-dir"),
            valued("--resume"),
        ],
    )?;
    let config = reach_flags(&parsed, Config::builder())?.build()?;
    let elaborated = synthesis(&parsed)?.config(&config).elaborate()?;
    let sg = elaborated.state_graph();
    let report = elaborated.properties();
    println!("{}: {} signals, {} states", sg.name(), sg.signal_count(), sg.state_count());
    if let Some(stats) = elaborated.reach_stats() {
        println!(
            "  elaboration: {} markings visited, {} interned, {} edges ({})",
            stats.visited, stats.interned, stats.edges, stats.strategy
        );
        if let Some(spill) = stats.spill {
            println!(
                "  spill: {} bytes spilled, {} files, resident peak {} of {} budget, {} shards",
                spill.spilled_bytes,
                spill.files_created,
                spill.resident_peak,
                spill.budget,
                spill.shards
            );
            if spill.checkpoints_written > 0 || spill.resume_level > 0 {
                println!(
                    "  checkpoint: {} snapshots written, {} bytes, resumed from level {}",
                    spill.checkpoints_written, spill.checkpoint_bytes, spill.resume_level
                );
            }
        }
    }
    println!("  speed-independent: {}", report.is_speed_independent());
    println!("  complete state coding: {}", report.has_csc());
    for v in report.violations.iter().take(10) {
        println!("  violation: {v}");
    }
    Ok(if report.is_ok() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn map(args: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    let parsed = parse_flags(
        args,
        &[
            aliased(valued("--limit"), "-l"),
            valued("--or-limit"),
            valued("--verilog"),
            valued("--dot"),
            valued("--bench"),
            valued("--strategy"),
            valued("--reach-jobs"),
            valued("--synth-jobs"),
            valued("--materialize-limit"),
            valued("--memory-budget"),
            valued("--spill-dir"),
            valued("--shards"),
            valued("--checkpoint-every"),
            valued("--checkpoint-dir"),
            valued("--resume"),
            flag("--csc-repair"),
            flag("--no-verify"),
            flag("--json"),
            aliased(flag("--verbose"), "-v"),
        ],
    )?;

    let mut builder = reach_flags(
        &parsed,
        Config::builder().repair_csc(parsed.has("--csc-repair")).verify(!parsed.has("--no-verify")),
    )?;
    if let Some(limit) = parsed.value("--limit") {
        builder = builder.literal_limit(limit.parse()?);
    }
    if let Some(limit) = parsed.value("--or-limit") {
        builder = builder.or_limit(limit.parse()?);
    }
    let config = builder.build()?;

    let mut synthesis = synthesis(&parsed)?.config(&config);
    if parsed.has("--verbose") {
        synthesis = synthesis.observer(StderrObserver);
    }

    // Drive the stages explicitly so the mapped netlist is available for
    // the exporters without rebuilding it. Refutation is reported in the
    // dossier (`verified: Some(false)`), not raised as an error, so the
    // netlist exports below still run — matching the historical CLI.
    let mapped = synthesis.elaborate()?.covers()?.decompose()?.map();
    let verified = if config.verify() { mapped.verify_compat() } else { mapped.skip_verify() };
    let report = verified.report();
    let json = parsed.has("--json");
    if json {
        println!("{}", report_json(report));
    } else {
        print!("{}", dossier(report));
    }
    // In JSON mode stdout carries exactly one JSON document; export
    // confirmations move to stderr so `--json --verilog f` stays parseable.
    let confirm = |path: &str| {
        if json {
            eprintln!("wrote {path}");
        } else {
            println!("wrote {path}");
        }
    };

    if let Some(path) = parsed.value("--verilog") {
        let module = report.name.clone();
        std::fs::write(path, to_verilog(verified.circuit(), &report.outcome.sg, &module))?;
        confirm(path);
    }
    if let Some(path) = parsed.value("--dot") {
        std::fs::write(
            path,
            simap::sg::to_dot(
                &report.outcome.sg,
                &DotOptions { show_codes: true, ..Default::default() },
            ),
        )?;
        confirm(path);
    }
    Ok(if report.inserted.is_some() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn bench(args: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    match args.first().map(String::as_str) {
        Some("list") => {
            let parsed = parse_flags(&args[1..], &[flag("--json")])?;
            let engine = Engine::default();
            if parsed.has("--json") {
                // The same machine-readable listing `simap serve` answers
                // on GET /benchmarks (byte-identical by construction).
                println!("{}", benchmarks_json(&engine)?);
                return Ok(ExitCode::SUCCESS);
            }
            for name in engine.registry().names() {
                let sg = engine.benchmark(*name).elaborate()?;
                let sg = sg.state_graph();
                println!("{name:15} {:2} signals {:5} states", sg.signal_count(), sg.state_count());
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => bench_run(&args[1..]),
        Some("compare") => bench_compare(&args[1..]),
        _ => {
            eprintln!("usage: simap bench <list|run|compare> ...");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// `simap gen`: emits `--count` specs of the seeded pattern-composition
/// corpus (`simap::stg::patterns::corpus`). The specs are a pure function
/// of `--seed`, so a fixed seed reproduces the same bytes on any machine
/// — the property the fuzz suite and serve load tests lean on. With
/// `--out-dir` each spec lands in its own `<name>.g` file; otherwise the
/// specs stream to stdout back to back (each is self-delimiting via its
/// `.end` line).
fn gen(args: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    let parsed = parse_flags(args, &[valued("--seed"), valued("--count"), valued("--out-dir")])?;
    if let Some(p) = parsed.positionals.first() {
        return Err(format!("unexpected argument `{p}` (gen takes only flags)").into());
    }
    let seed: u64 = parsed.value("--seed").map(str::parse).transpose()?.unwrap_or(0);
    let count: usize = parsed.value("--count").map(str::parse).transpose()?.unwrap_or(1);
    let out_dir = parsed.value("--out-dir");
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{dir}`: {e}"))?;
    }
    let mut stdout = String::new();
    for stg in simap::stg::patterns::corpus(seed, count) {
        let text = simap::stg::write_g(&stg);
        match out_dir {
            Some(dir) => {
                let path = std::path::Path::new(dir).join(format!("{}.g", stg.name()));
                std::fs::write(&path, &text)
                    .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
            }
            None => stdout.push_str(&text),
        }
    }
    print!("{stdout}");
    Ok(ExitCode::SUCCESS)
}

/// One HTTP/1.1 request against the in-process snapshot server.
fn bench_http(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), Box<dyn Error>> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status: u16 = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("no status line in {response:?}"))?;
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((status, body))
}

/// Measures an in-process `simap serve` instance for the snapshot's
/// `serve` section: one timed cold pass over the benchmarks fills the
/// result cache and the stage histograms, then a timed warm pass (every
/// request a cache hit) yields the gateway's warm-cache throughput —
/// the cold-vs-warm throughput ratio is recorded as `warm_speedup`.
/// Per-stage latency percentiles are read back from the very `/metrics`
/// histograms operators would scrape: a percentile is the upper bound
/// of the first power-of-two bucket whose cumulative count reaches it.
fn serve_snapshot(names: &[String]) -> Result<String, Box<dyn Error>> {
    use std::fmt::Write as _;
    let cache_dir = std::env::temp_dir().join(format!("simap-bench-cache-{}", std::process::id()));
    let server = simap::serve::Server::bind(simap::serve::ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 2,
        cache_dir: Some(cache_dir.clone()),
        ..simap::serve::ServeConfig::default()
    })?;
    let handle = server.handle();
    let addr = server.local_addr();
    let join = std::thread::spawn(move || server.run());

    let result = (|| -> Result<String, Box<dyn Error>> {
        let cold_start = std::time::Instant::now();
        for name in names {
            let body = format!("{{\"bench\":\"{name}\"}}");
            let (status, response) = bench_http(addr, "POST", "/synthesize", &body)?;
            if status != 200 {
                return Err(format!("cold /synthesize for `{name}`: {status} {response}").into());
            }
        }
        let cold_requests = names.len();
        let cold_rps = cold_requests as f64 / cold_start.elapsed().as_secs_f64().max(1e-9);
        const WARM_ROUNDS: usize = 5;
        let start = std::time::Instant::now();
        for _ in 0..WARM_ROUNDS {
            for name in names {
                let body = format!("{{\"bench\":\"{name}\"}}");
                let (status, _) = bench_http(addr, "POST", "/synthesize", &body)?;
                if status != 200 {
                    return Err(format!("warm /synthesize for `{name}`: {status}").into());
                }
            }
        }
        let warm_requests = WARM_ROUNDS * names.len();
        let warm_rps = warm_requests as f64 / start.elapsed().as_secs_f64().max(1e-9);

        let (status, metrics) = bench_http(addr, "GET", "/metrics", "")?;
        if status != 200 {
            return Err(format!("/metrics: {status}").into());
        }
        let doc = simap::core::json::parse(metrics.trim_end())?;
        let hits = doc
            .get("gateway")
            .and_then(|g| g.get("rescache"))
            .and_then(|c| c.get("hits"))
            .and_then(simap::core::json::Json::as_usize)
            .unwrap_or(0);
        let mut out = format!(
            "{{\"cold_requests\":{cold_requests},\"cold_rps\":{cold_rps:.1},\
             \"warm_requests\":{warm_requests},\"warm_cache_hits\":{hits},\
             \"warm_rps\":{warm_rps:.1},\"warm_speedup\":{:.1},\
             \"stage_percentiles_us\":{{",
            warm_rps / cold_rps.max(1e-9)
        );
        let stages = doc.get("stage_latency_us").ok_or("metrics has no stage_latency_us")?;
        let mut first = true;
        for stage in ["configure", "load", "elaborate", "covers", "decompose", "map", "verify"] {
            let Some(hist) = stages.get(stage) else { continue };
            let buckets: Vec<(u64, u64)> = hist
                .get("histogram")
                .and_then(|h| h.as_array())
                .map(|rows| {
                    rows.iter()
                        .filter_map(|row| {
                            let pair = row.as_array()?;
                            let bound = pair.first()?.as_usize()? as u64;
                            let count = pair.get(1)?.as_usize()? as u64;
                            Some((bound, count))
                        })
                        .collect()
                })
                .unwrap_or_default();
            let total: u64 = buckets.iter().map(|(_, n)| n).sum();
            if total == 0 {
                continue;
            }
            let percentile = |q: f64| -> u64 {
                let target = (q * total as f64).ceil().max(1.0) as u64;
                let mut seen = 0;
                for &(bound, count) in &buckets {
                    seen += count;
                    if seen >= target {
                        return bound;
                    }
                }
                buckets.last().map_or(0, |&(bound, _)| bound)
            };
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\"{stage}\":{{\"p50\":{},\"p90\":{},\"p99\":{}}}",
                percentile(0.50),
                percentile(0.90),
                percentile(0.99)
            );
        }
        out.push_str("}}");
        Ok(out)
    })();

    handle.shutdown();
    let _ = join.join();
    let _ = std::fs::remove_dir_all(&cache_dir);
    result
}

/// Records a machine-readable performance snapshot to `path`: for each
/// benchmark, the state/arc counts plus elaboration wall-clock per
/// reachability strategy and the full mapping flow's wall-clock, then
/// the spill-engine measurements of [`spill_snapshot`], the fan-out
/// measurements of [`synthesis_snapshot`], the batch engine's
/// elaboration-cache statistics, and the gateway measurements of
/// [`serve_snapshot`]. The schema is stable so
/// snapshots from different commits diff cleanly (`simap bench
/// compare`); the timings themselves are machine- and load-dependent.
fn record_snapshot(
    path: &str,
    names: &[String],
    config: &Config,
    cache: simap::CacheStats,
) -> Result<(), Box<dyn Error>> {
    use std::fmt::Write as _;
    use std::time::Instant;
    let strategies = [
        simap::ReachStrategy::Explicit,
        simap::ReachStrategy::Packed,
        simap::ReachStrategy::Symbolic,
        simap::ReachStrategy::Spill,
    ];
    // Every timing starts from the initial marking: a resumed run has
    // already consumed its checkpoint.
    let config = &config.to_builder().reach_resume(None).build()?;
    let mut out = String::from("{\"version\":1,\"benchmarks\":[");
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut states = 0;
        let mut arcs = 0;
        let _ = write!(out, "{{\"name\":\"{name}\",\"elaborate_us\":{{");
        for (j, strategy) in strategies.iter().enumerate() {
            let mut builder = config.to_builder().reach_strategy(*strategy);
            if *strategy != simap::ReachStrategy::Spill {
                // Only spill keeps checkpoints; the others refuse the settings.
                builder = builder.reach_checkpoint_every(0).reach_checkpoint_dir(None);
            }
            let config = builder.build()?;
            let start = Instant::now();
            let elaborated = Synthesis::from_benchmark(name).config(&config).elaborate()?;
            let elapsed = start.elapsed().as_micros();
            let sg = elaborated.state_graph();
            states = sg.state_count();
            arcs = sg.arc_count();
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{strategy}\":{elapsed}");
        }
        let start = Instant::now();
        let _ = Synthesis::from_benchmark(name)
            .config(config)
            .elaborate()?
            .covers()?
            .decompose()?
            .map();
        let map_us = start.elapsed().as_micros();
        let _ = write!(out, "}},\"map_us\":{map_us},\"states\":{states},\"arcs\":{arcs}}}");
    }
    let _ = write!(out, "],\"spill\":{}", spill_snapshot(names, config)?);
    let _ = write!(out, ",\"synthesis\":{}", synthesis_snapshot(names, config)?);
    let _ = write!(
        out,
        ",\"cache\":{{\"hits\":{},\"misses\":{},\"entries\":{},\"evicted\":{}}}",
        cache.hits, cache.misses, cache.entries, cache.evicted
    );
    let _ = writeln!(out, ",\"serve\":{}}}", serve_snapshot(names)?);
    std::fs::write(path, out)?;
    Ok(())
}

/// Measures the snapshot's `spill` section: per benchmark, the
/// external-memory engine's frontier-expansion wall-clock at
/// `reach jobs = 1` versus the recorded fan-out (`--reach-jobs`, floor
/// 4), plus the same single-job run writing a checkpoint at every BFS
/// level — comparing `checkpoint_us` against `frontier_us.j1` isolates
/// the checkpoint write overhead at the densest possible cadence.
fn spill_snapshot(names: &[String], config: &Config) -> Result<String, Box<dyn Error>> {
    use std::fmt::Write as _;
    use std::time::Instant;
    let fanout = config.reach_config().jobs.max(4);
    let ckpt_dir = std::env::temp_dir().join(format!("simap-bench-ckpt-{}", std::process::id()));
    let mut out = format!("{{\"jobs\":{fanout},\"benchmarks\":[");
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let timed = |jobs: usize, checkpoint_every: usize| -> Result<u128, Box<dyn Error>> {
            let mut builder =
                config.to_builder().reach_strategy(simap::ReachStrategy::Spill).reach_jobs(jobs);
            if checkpoint_every > 0 {
                builder = builder
                    .reach_checkpoint_every(checkpoint_every)
                    .reach_checkpoint_dir(Some(ckpt_dir.clone()));
            }
            let config = builder.build()?;
            let start = Instant::now();
            let _ = Synthesis::from_benchmark(name).config(&config).elaborate()?;
            Ok(start.elapsed().as_micros())
        };
        let j1 = timed(1, 0)?;
        let jn = timed(fanout, 0)?;
        let checkpoint_us = timed(1, 1)?;
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"frontier_us\":{{\"j1\":{j1},\"jn\":{jn}}},\
             \"checkpoint_us\":{checkpoint_us}}}"
        );
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    out.push_str("]}");
    Ok(out)
}

/// Measures the snapshot's `synthesis` section: per benchmark, the
/// wall-clock of the Covers/Decompose/Map stages at `synth_jobs = 1`
/// versus the recorded fan-out (`--synth-jobs`, floor 4), verifying on
/// the way that both runs produce byte-identical JSON reports.
fn synthesis_snapshot(names: &[String], config: &Config) -> Result<String, Box<dyn Error>> {
    use std::fmt::Write as _;
    use std::time::Instant;
    let fanout = config.synth_jobs().max(4);
    let mut out = format!("{{\"jobs\":{fanout},\"benchmarks\":[");
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let timed = |jobs: usize| -> Result<
            (u128, u128, u128, simap::core::flow::FlowReport),
            Box<dyn Error>,
        > {
            let config = config.to_builder().synth_jobs(jobs).build()?;
            let elaborated = Synthesis::from_benchmark(name).config(&config).elaborate()?;
            let start = Instant::now();
            let covers = elaborated.covers()?;
            let covers_us = start.elapsed().as_micros();
            let start = Instant::now();
            let decomposed = covers.decompose()?;
            let decompose_us = start.elapsed().as_micros();
            let start = Instant::now();
            let mapped = decomposed.map();
            let map_us = start.elapsed().as_micros();
            Ok((covers_us, decompose_us, map_us, mapped.skip_verify().into_report()))
        };
        let (c1, d1, m1, sequential) = timed(1)?;
        let (cn, dn, mn, fanned) = timed(fanout)?;
        if report_json(&sequential) != report_json(&fanned) {
            return Err(
                format!("`{name}`: synth_jobs={fanout} report differs from sequential").into()
            );
        }
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\
             \"covers_us\":{{\"j1\":{c1},\"jn\":{cn}}},\
             \"decompose_us\":{{\"j1\":{d1},\"jn\":{dn}}},\
             \"map_us\":{{\"j1\":{m1},\"jn\":{mn}}}}}"
        );
    }
    out.push_str("]}");
    Ok(out)
}

/// Absolute noise floor for `bench compare`: wall-clock deltas under
/// this many microseconds are never regressions, whatever the ratio —
/// tiny benchmarks elaborate in tens of microseconds, where scheduler
/// jitter alone exceeds any percentage gate.
const COMPARE_NOISE_FLOOR_US: u64 = 20_000;

/// Compares two `bench run --record` snapshots; exits 1 when any shared
/// timing regressed by more than `--max-regress` percent (default 25)
/// beyond the noise floor. Gated timings: per-benchmark elaboration (all
/// four strategies) and mapping, the spill engine's frontier fan-out and
/// checkpoint overhead, the synthesis stages at `j1` and `jN`, the
/// gateway's per-stage latency percentiles, and the gateway's warm-cache
/// throughput (higher is better — gated as per-request latency).
/// Sections absent from either snapshot are skipped, so old snapshots
/// stay comparable.
fn bench_compare(args: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    let parsed = parse_flags(args, &[valued("--max-regress")])?;
    let [old_path, new_path] = parsed.positionals.as_slice() else {
        return Err("usage: simap bench compare <old.json> <new.json> [--max-regress <pct>]".into());
    };
    let max_regress: f64 =
        parsed.value("--max-regress").map(str::parse).transpose()?.unwrap_or(25.0);
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
    };
    let old = simap::core::json::parse(&read(old_path)?)?;
    let new = simap::core::json::parse(&read(new_path)?)?;
    let benches = |doc: &simap::core::json::Json| -> Result<Vec<simap::core::json::Json>, String> {
        doc.get("benchmarks")
            .and_then(|b| b.as_array().map(<[_]>::to_vec))
            .ok_or_else(|| "snapshot has no `benchmarks` array".to_string())
    };
    let name_of = |b: &simap::core::json::Json| {
        b.get("name").and_then(|n| n.as_str().map(str::to_string)).unwrap_or_default()
    };
    let old_benches = benches(&old)?;
    let mut regressions = 0u32;
    let mut compared = 0u32;
    let mut check = |label: String, old_us: u64, new_us: u64| {
        compared += 1;
        let delta = new_us.saturating_sub(old_us);
        let pct = if old_us == 0 { 0.0 } else { delta as f64 * 100.0 / old_us as f64 };
        if pct > max_regress && delta > COMPARE_NOISE_FLOOR_US {
            regressions += 1;
            println!("REGRESSION {label}: {old_us}us -> {new_us}us (+{pct:.0}%)");
        }
    };
    let lookup_us = |doc: &simap::core::json::Json, keys: &[&str]| -> Option<u64> {
        let mut node = doc;
        for key in keys {
            node = node.get(key)?;
        }
        node.as_usize().map(|v| v as u64)
    };
    for bench in benches(&new)? {
        let name = name_of(&bench);
        let Some(old_bench) = old_benches.iter().find(|b| name_of(b) == name) else {
            println!("note: `{name}` is new, nothing to compare against");
            continue;
        };
        for strategy in ["explicit", "packed", "symbolic", "spill"] {
            if let (Some(o), Some(n)) = (
                lookup_us(old_bench, &["elaborate_us", strategy]),
                lookup_us(&bench, &["elaborate_us", strategy]),
            ) {
                check(format!("{name} elaborate[{strategy}]"), o, n);
            }
        }
        if let (Some(o), Some(n)) =
            (lookup_us(old_bench, &["map_us"]), lookup_us(&bench, &["map_us"]))
        {
            check(format!("{name} map"), o, n);
        }
    }
    // Section-level benchmark lists (`spill`, `synthesis`); empty when a
    // snapshot predates the section.
    let section_benches = |doc: &simap::core::json::Json, section: &str| {
        doc.get(section)
            .and_then(|s| s.get("benchmarks"))
            .and_then(|b| b.as_array().map(<[_]>::to_vec))
            .unwrap_or_default()
    };
    let old_spill = section_benches(&old, "spill");
    for bench in section_benches(&new, "spill") {
        let name = name_of(&bench);
        let Some(old_bench) = old_spill.iter().find(|b| name_of(b) == name) else { continue };
        for (label, keys) in [
            ("frontier[j1]", &["frontier_us", "j1"][..]),
            ("frontier[jn]", &["frontier_us", "jn"][..]),
            ("checkpoint", &["checkpoint_us"][..]),
        ] {
            if let (Some(o), Some(n)) = (lookup_us(old_bench, keys), lookup_us(&bench, keys)) {
                check(format!("{name} spill {label}"), o, n);
            }
        }
    }
    let old_synth = section_benches(&old, "synthesis");
    for bench in section_benches(&new, "synthesis") {
        let name = name_of(&bench);
        let Some(old_bench) = old_synth.iter().find(|b| name_of(b) == name) else { continue };
        for stage in ["covers_us", "decompose_us", "map_us"] {
            for jobs in ["j1", "jn"] {
                if let (Some(o), Some(n)) =
                    (lookup_us(old_bench, &[stage, jobs]), lookup_us(&bench, &[stage, jobs]))
                {
                    check(format!("{name} synthesis {stage}[{jobs}]"), o, n);
                }
            }
        }
    }
    if let (Some(old_serve), Some(new_serve)) = (old.get("serve"), new.get("serve")) {
        for stage in ["configure", "load", "elaborate", "covers", "decompose", "map", "verify"] {
            for q in ["p50", "p90", "p99"] {
                if let (Some(o), Some(n)) = (
                    lookup_us(old_serve, &["stage_percentiles_us", stage, q]),
                    lookup_us(new_serve, &["stage_percentiles_us", stage, q]),
                ) {
                    check(format!("serve {stage}[{q}]"), o, n);
                }
            }
        }
        // Throughput is higher-is-better: gate the equivalent per-request
        // latency so the noise floor applies in the same unit.
        let rps = |doc: &simap::core::json::Json, key: &str| -> Option<f64> {
            match doc.get(key)? {
                simap::core::json::Json::Int(n) => Some(*n as f64),
                simap::core::json::Json::Float(f) => Some(*f),
                _ => None,
            }
        };
        if let (Some(o), Some(n)) = (rps(old_serve, "warm_rps"), rps(new_serve, "warm_rps")) {
            if o > 0.0 && n > 0.0 {
                check(
                    "serve warm_rps (as us/request)".to_string(),
                    (1e6 / o) as u64,
                    (1e6 / n) as u64,
                );
            }
        }
    }
    println!(
        "compared {compared} timings, {regressions} regressions \
         (gate: >{max_regress}% and >{COMPARE_NOISE_FLOOR_US}us)"
    );
    Ok(if regressions == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn bench_run(args: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    let parsed = parse_flags(
        args,
        &[
            valued("--limits"),
            aliased(valued("--jobs"), "-j"),
            valued("--strategy"),
            valued("--reach-jobs"),
            valued("--synth-jobs"),
            valued("--materialize-limit"),
            valued("--memory-budget"),
            valued("--spill-dir"),
            valued("--shards"),
            valued("--checkpoint-every"),
            valued("--checkpoint-dir"),
            valued("--resume"),
            valued("--record"),
            flag("--csc-repair"),
            flag("--no-verify"),
            flag("--json"),
            flag("--csv"),
            aliased(flag("--verbose"), "-v"),
        ],
    )?;

    let limits: Vec<usize> = match parsed.value("--limits") {
        Some(spec) => spec
            .split(',')
            .map(|s| s.trim().parse::<usize>())
            .collect::<Result<_, _>>()
            .map_err(|e| format!("bad --limits `{spec}`: {e}"))?,
        None => vec![2],
    };
    if limits.is_empty() {
        return Err("--limits needs at least one limit".into());
    }
    let jobs: usize = parsed.value("--jobs").map(str::parse).transpose()?.unwrap_or(1);

    let config = reach_flags(
        &parsed,
        Config::builder().repair_csc(parsed.has("--csc-repair")).verify(!parsed.has("--no-verify")),
    )?
    .build()?;
    let engine = Engine::new(config.clone());

    let batch = if parsed.positionals.is_empty() {
        engine.batch_all()
    } else {
        engine.batch(parsed.positionals.iter().cloned())
    };
    let rows = batch.limits(limits.clone()).jobs(jobs).run()?;

    if parsed.has("--json") {
        println!("{}", to_json(&limits, &rows));
    } else if parsed.has("--csv") {
        print!("{}", to_csv(&limits, &rows));
    } else {
        print!("{}", to_markdown(&limits, &rows));
    }
    if parsed.has("--verbose") {
        let stats = engine.cache_stats();
        eprintln!(
            "elaboration cache: {} hits, {} misses, {} entries, {} evicted",
            stats.hits, stats.misses, stats.entries, stats.evicted
        );
    }
    if let Some(path) = parsed.value("--record") {
        let names: Vec<String> = if parsed.positionals.is_empty() {
            engine.registry().names().iter().map(|n| n.to_string()).collect()
        } else {
            parsed.positionals.clone()
        };
        record_snapshot(path, &names, &config, engine.cache_stats())?;
        eprintln!("recorded {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn serve(args: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    let parsed = parse_flags(
        args,
        &[
            valued("--addr"),
            aliased(valued("--jobs"), "-j"),
            valued("--queue-limit"),
            valued("--api-keys"),
            valued("--rate-limit"),
            valued("--max-inflight"),
            valued("--cache-dir"),
            valued("--cache-limit"),
            valued("--breaker-threshold"),
            valued("--breaker-cooldown"),
        ],
    )?;
    if let Some(extra) = parsed.positionals.first() {
        return Err(format!("serve takes no positional argument (got `{extra}`)").into());
    }
    // Flags override the library defaults; anything not given keeps
    // `ServeConfig::default()` so the CLI and library never diverge.
    let defaults = simap::serve::ServeConfig::default();
    let config = simap::serve::ServeConfig {
        addr: parsed.value("--addr").map(str::to_string).unwrap_or(defaults.addr),
        jobs: parsed.value("--jobs").map(str::parse).transpose()?.unwrap_or(defaults.jobs),
        queue_limit: parsed
            .value("--queue-limit")
            .map(str::parse)
            .transpose()?
            .unwrap_or(defaults.queue_limit),
        api_keys: parsed.value("--api-keys").map(std::path::PathBuf::from),
        rate_limit: parsed
            .value("--rate-limit")
            .map(str::parse)
            .transpose()?
            .unwrap_or(defaults.rate_limit),
        max_inflight: parsed
            .value("--max-inflight")
            .map(str::parse)
            .transpose()?
            .unwrap_or(defaults.max_inflight),
        cache_dir: parsed.value("--cache-dir").map(std::path::PathBuf::from),
        cache_limit: parsed
            .value("--cache-limit")
            .map(str::parse)
            .transpose()?
            .unwrap_or(defaults.cache_limit),
        breaker_threshold: parsed
            .value("--breaker-threshold")
            .map(str::parse)
            .transpose()?
            .unwrap_or(defaults.breaker_threshold),
        breaker_cooldown: parsed
            .value("--breaker-cooldown")
            .map(|s| s.parse::<u64>().map(std::time::Duration::from_secs))
            .transpose()?
            .unwrap_or(defaults.breaker_cooldown),
        job_expiry: defaults.job_expiry,
        config: defaults.config,
    };
    let server = simap::serve::Server::bind(config)?;
    let handle = server.handle();
    eprintln!("simap serve: listening on http://{}", server.local_addr());

    // Signal handling: the handler only latches a flag (the only
    // async-signal-safe option); this watcher turns the latches into
    // actions — SIGHUP re-reads the API keyfile in place, SIGINT/SIGTERM
    // drain gracefully. It also exits if the server stops some other way.
    simap::serve::shutdown_signal::install();
    let watcher = std::thread::spawn({
        let handle = handle.clone();
        move || {
            while !simap::serve::shutdown_signal::requested() && !handle.is_shutdown() {
                if simap::serve::shutdown_signal::reload_requested() {
                    match handle.reload_api_keys() {
                        Ok(n) => eprintln!("simap serve: reloaded API keys ({n} entries)"),
                        Err(e) => eprintln!("simap serve: keyfile reload failed: {e}"),
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            handle.shutdown();
        }
    });
    server.run()?;
    let _ = watcher.join();
    eprintln!("simap serve: drained and shut down cleanly");
    Ok(ExitCode::SUCCESS)
}
