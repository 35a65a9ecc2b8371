//! The `serve` workload: one `simap serve` process under an open loop of
//! raw-`.g` `POST /stg` requests, mixing result-cache reads (repeats of
//! recently answered specs) with writes (new specs through the queue,
//! a worker and the flow).

use crate::calib::{self, Calibration};
use crate::flow::corpus_sample;
use crate::trace::Tracer;
use crate::{ms, nproc, peak_rss_mb, setup_seconds, stats, Args, Outcome, Rng};
use simap::core::json::{self, Json};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Request rate of the fixed-rate phase.
const FIXED_RATE: f64 = 50.0;
/// Share of the window spent at [`FIXED_RATE`]; the rest is the ramp.
const FIXED_SHARE: f64 = 0.8;
/// Length of one ramp step and the rate factor between steps.
const STEP: Duration = Duration::from_secs(1);
const RAMP_FACTOR: f64 = 1.25;
/// Probability that a request repeats a recently answered spec.
const REPEAT_PROBABILITY: f64 = 0.8;
/// How many of the most recently answered distinct specs a repeat picks
/// from (below the server's default `cache_limit` of 256).
const RECENT: usize = 128;
/// The latency limit.
const LIMIT_MS: f64 = 500.0;
/// New specs rendered during set-up (more than a run can send), drawn
/// like the `corpus` workload's sample.
const NEW_SPECS: usize = 3000;
/// How long to wait for the server to come up.
const START_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `simap serve` with its own result-cache directory. Dropping
/// it kills the process, waits for it and removes the directory.
struct Server {
    child: Child,
    addr: String,
    cache_dir: PathBuf,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    fn start(args: &Args, tag: usize) -> Result<Server, String> {
        let cache_dir = args.out_dir.join(format!("serve-cache-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        std::fs::create_dir_all(&cache_dir)
            .map_err(|e| format!("cannot create {}: {e}", cache_dir.display()))?;
        let mut child = Command::new(&args.simap)
            .args(["serve", "--addr", "127.0.0.1:0", "--jobs", &nproc().to_string()])
            .arg("--cache-dir")
            .arg(&cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", args.simap.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let addr = lines.by_ref().map_while(Result::ok).find_map(|line| {
            line.split_once("listening on http://").map(|(_, addr)| addr.trim().to_string())
        });
        // Keep draining stderr so the server never blocks on a full pipe.
        let stderr = std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop));
        let mut server = Server { child, addr: String::new(), cache_dir, stderr: Some(stderr) };
        server.addr = addr.ok_or("the server exited before it listened")?;
        let deadline = Instant::now() + START_TIMEOUT;
        while !matches!(http(&server.addr, "GET", "/healthz", ""), Ok((200, _))) {
            if Instant::now() > deadline {
                return Err("the server did not answer /healthz".to_string());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(server)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(stderr) = self.stderr.take() {
            let _ = stderr.join();
        }
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

/// One HTTP/1.1 exchange (the server closes every connection): returns
/// the status code and the body.
fn http(addr: &str, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
    let status = response.split(' ').nth(1).and_then(|s| s.parse().ok()).ok_or_else(bad)?;
    let (_, body) = response.split_once("\r\n\r\n").ok_or_else(bad)?;
    Ok((status, body.to_string()))
}

/// Send times of the open loop, as offsets from its start: a fixed-rate
/// phase, then steps whose rate grows geometrically. Also returns the
/// start offset and rate of every ramp step.
fn schedule(window: Duration) -> (Vec<Duration>, Vec<(Duration, f64)>) {
    let fixed = window.mul_f64(FIXED_SHARE);
    let mut times = Vec::new();
    let mut t = Duration::ZERO;
    while t < fixed {
        times.push(t);
        t += Duration::from_secs_f64(1.0 / FIXED_RATE);
    }
    let mut steps = Vec::new();
    let (mut start, mut rate) = (fixed, FIXED_RATE);
    while start + STEP <= window {
        rate *= RAMP_FACTOR;
        steps.push((start, rate));
        let mut t = start;
        while t < start + STEP {
            times.push(t);
            t += Duration::from_secs_f64(1.0 / rate);
        }
        start += STEP;
    }
    (times, steps)
}

/// What a request sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The next new spec: a result-cache miss.
    Miss,
    /// A recently answered spec: a result-cache hit.
    Hit,
}

/// One request as it happened (offsets from the loop's start).
#[derive(Debug, Clone)]
struct Record {
    spec: usize,
    kind: Kind,
    scheduled: Duration,
    sent: Duration,
    done: Duration,
    status: u16,
}

impl Record {
    fn latency_ms(&self) -> f64 {
        ms(self.done.saturating_sub(self.scheduled))
    }

    fn good(&self) -> bool {
        self.status == 200 && self.latency_ms() <= LIMIT_MS
    }
}

/// State the client connections share.
struct Client {
    next: usize,
    new_cursor: usize,
    rng: Rng,
    /// Most recently answered distinct specs, newest last.
    recent: VecDeque<usize>,
    /// First answer of every spec.
    first_body: HashMap<usize, String>,
    records: Vec<Record>,
    problems: Vec<String>,
}

/// Runs the open loop against `server` and returns the records of every
/// sent request (sorted by schedule) plus any failed checks.
fn drive(
    server: &Server,
    specs: &[(String, String)],
    times: &[Duration],
    window: Duration,
    seed: u64,
) -> (Vec<Record>, Vec<String>, Calibration) {
    let client = Arc::new(Mutex::new(Client {
        next: 0,
        new_cursor: 0,
        rng: Rng::new(seed),
        recent: VecDeque::new(),
        first_body: HashMap::new(),
        records: Vec::new(),
        problems: Vec::new(),
    }));
    let origin = Instant::now();
    let finished = AtomicBool::new(false);
    let cal = std::thread::scope(|scope| {
        // Re-times the calibration kernel while the loop runs.
        let calibrator = scope.spawn(|| {
            let mut cal = Calibration::new();
            while !finished.load(Ordering::Relaxed) {
                std::thread::sleep(calib::INTERVAL);
                cal.sample();
            }
            cal
        });
        let mut senders = Vec::new();
        for _ in 0..nproc() {
            let client = client.clone();
            senders.push(scope.spawn(move || loop {
                // Take the next request and decide what it sends.
                let (index, spec, kind) = {
                    let mut c = client.lock().expect("client lock");
                    if c.next == times.len() {
                        return;
                    }
                    let index = c.next;
                    c.next += 1;
                    let repeat = c.rng.unit() < REPEAT_PROBABILITY && !c.recent.is_empty();
                    if repeat {
                        let len = c.recent.len();
                        let pick = c.rng.below(len);
                        (index, c.recent[pick], Kind::Hit)
                    } else {
                        c.new_cursor += 1;
                        (index, c.new_cursor - 1, Kind::Miss)
                    }
                };
                let scheduled = times[index];
                let now = origin.elapsed();
                if now >= window {
                    return;
                }
                if scheduled > now {
                    std::thread::sleep(scheduled - now);
                }
                let sent = origin.elapsed();
                let (name, text) = &specs[spec];
                let result = http(&server.addr, "POST", "/stg", text);
                let done = origin.elapsed();
                let mut c = client.lock().expect("client lock");
                let status = match result {
                    Ok((status, body)) => {
                        if status == 200 {
                            if let Err(e) = check_body(&mut c, spec, name, kind, body) {
                                c.problems.push(format!("{name}: {e}"));
                            }
                        }
                        status
                    }
                    Err(e) => {
                        c.problems.push(format!("{name}: {e}"));
                        0
                    }
                };
                c.records.push(Record { spec, kind, scheduled, sent, done, status });
            }));
        }
        for sender in senders {
            sender.join().expect("client connection thread");
        }
        finished.store(true, Ordering::Relaxed);
        calibrator.join().expect("calibration thread")
    });
    let client = Arc::into_inner(client).expect("client threads joined");
    let mut client = client.into_inner().expect("client lock");
    client.records.sort_by_key(|r| r.scheduled);
    (client.records, client.problems, cal)
}

/// Checks one `200` body: it parses, names its spec and verified; a
/// repeat's bytes equal the spec's first answer.
fn check_body(
    c: &mut Client,
    spec: usize,
    name: &str,
    kind: Kind,
    body: String,
) -> Result<(), String> {
    let report = json::parse(body.trim_end()).map_err(|e| format!("unparsable body: {e}"))?;
    if report.get("name").and_then(Json::as_str) != Some(name) {
        return Err(format!("body names another spec: {body}"));
    }
    if report.get("verified").and_then(Json::as_bool) != Some(true) {
        return Err(format!("not verified: {body}"));
    }
    match c.first_body.get(&spec) {
        Some(first) if *first != body => {
            return Err(format!("{kind:?} bytes differ from the first answer"));
        }
        Some(_) => {}
        None => {
            c.first_body.insert(spec, body);
            c.recent.push_back(spec);
            if c.recent.len() > RECENT {
                c.recent.pop_front();
            }
        }
    }
    Ok(())
}

/// Requests scheduled by `t` but not yet sent at `t`.
fn backlog_at(records: &[Record], times: &[Duration], t: Duration) -> usize {
    let scheduled = times.partition_point(|&s| s <= t);
    let sent = records.iter().filter(|r| r.sent <= t).count();
    scheduled.saturating_sub(sent)
}

/// The highest ramp step (and the fixed phase) in which at most 1% of
/// the scheduled requests missed the limit (unsent ones count as missed)
/// and the backlog did not grow.
fn sustained_rps(records: &[Record], times: &[Duration], steps: &[(Duration, f64)]) -> f64 {
    let mut phases = vec![(Duration::ZERO, FIXED_RATE)];
    phases.extend_from_slice(steps);
    let mut best = 0.0;
    for (i, &(start, rate)) in phases.iter().enumerate() {
        let end = phases.get(i + 1).map_or(start + STEP, |p| p.0);
        let in_phase = |t: Duration| t >= start && t < end;
        let scheduled = times.iter().filter(|&&t| in_phase(t)).count();
        let good = records.iter().filter(|r| in_phase(r.scheduled) && r.good()).count();
        let within_limit = (scheduled - good) * 100 <= scheduled;
        let steady = backlog_at(records, times, end) <= backlog_at(records, times, start) + 1;
        if within_limit && steady {
            best = rate;
        } else if i > 0 {
            break;
        }
    }
    best
}

/// Renders the new specs the loop can send (name, `.g` text).
fn render(seed: u64) -> Vec<(String, String)> {
    corpus_sample(seed, NEW_SPECS).into_iter().map(|spec| (spec.name, spec.text)).collect()
}

/// The server's `/metrics` document.
fn metrics(server: &Server) -> Result<Json, String> {
    match http(&server.addr, "GET", "/metrics", "") {
        Ok((200, body)) => json::parse(body.trim_end()).map_err(|e| format!("/metrics: {e}")),
        Ok((status, _)) => Err(format!("/metrics answered {status}")),
        Err(e) => Err(format!("/metrics: {e}")),
    }
}

fn lookup(doc: &Json, path: &[&str]) -> f64 {
    let mut node = Some(doc);
    for key in path {
        node = node.and_then(|n| n.get(key));
    }
    node.and_then(Json::as_i64).map_or(0.0, |v| v as f64)
}

/// One open-loop run: set-up, the loop, and the checks every run makes.
struct Run {
    records: Vec<Record>,
    times: Vec<Duration>,
    steps: Vec<(Duration, f64)>,
    metrics: Json,
    cal: Calibration,
    server_rss_mb: f64,
    first_setup: Duration,
    out: Outcome,
}

fn run_loop(args: &Args, started: Instant) -> Result<Run, String> {
    let specs = render(args.seed);
    let (times, steps) = schedule(args.window());
    let server = Server::start(args, 0)?;
    let first_setup = started.elapsed();
    // The server's peak resident set is read when the fixed-rate phase
    // ends, before the ramp overloads it.
    let (records, problems, cal, server_rss_mb) = std::thread::scope(|scope| {
        let pid = server.child.id();
        let fixed_end = Instant::now() + args.window().mul_f64(FIXED_SHARE);
        let rss = scope.spawn(move || {
            std::thread::sleep(fixed_end.saturating_duration_since(Instant::now()));
            peak_rss_mb(Some(pid)).unwrap_or(f64::NAN)
        });
        let (records, problems, cal) = drive(&server, &specs, &times, args.window(), args.seed);
        (records, problems, cal, rss.join().expect("rss reader"))
    });
    let metrics = metrics(&server)?;
    drop(server);

    let mut out = Outcome {
        attempted: records.len() as u64,
        failed: records.iter().filter(|r| r.status != 200).count() as u64,
        ..Outcome::default()
    };
    for problem in problems {
        out.fail(problem);
    }
    if let Some(r) = records.iter().find(|r| r.status != 200) {
        out.problems.push(format!("{} answered {}", specs[r.spec].0, r.status));
    }
    // Every answered repeat was a result-cache read, and nothing else was.
    let hits = records.iter().filter(|r| r.kind == Kind::Hit && r.status == 200).count();
    let cache_hits = lookup(&metrics, &["gateway", "rescache", "hits"]) as usize;
    if hits != cache_hits {
        out.problems.push(format!("{hits} repeats answered, result cache counted {cache_hits}"));
    }
    Ok(Run { records, times, steps, metrics, cal, server_rss_mb, first_setup, out })
}

fn latencies(records: &[Record], keep: impl Fn(&Record) -> bool) -> Vec<f64> {
    records.iter().filter(|r| keep(r)).map(Record::latency_ms).collect()
}

/// `serve`, untraced.
pub fn run(args: &Args, started: Instant) -> Result<Outcome, String> {
    let Run { records, times, steps, cal, server_rss_mb, first_setup, mut out, .. } =
        run_loop(args, started)?;
    let mut tag = 0;
    let scale = cal.scale();
    let setup_s = setup_seconds(first_setup, scale, || {
        tag += 1;
        (render(args.seed), schedule(args.window()), Server::start(args, tag))
    });
    let fixed_end = args.window().mul_f64(FIXED_SHARE);
    let in_fixed = |r: &Record| r.scheduled < fixed_end;
    // The end-to-end figure times each request from its send: waits of
    // the generator itself (thread wake-up, both connections held by
    // slow writes) are reported separately, as lateness and through the
    // scheduled-time percentiles.
    let service: Vec<f64> =
        records.iter().filter(|r| in_fixed(r)).map(|r| ms(r.done.saturating_sub(r.sent))).collect();
    let raw = stats::geomean(&service).unwrap_or(f64::NAN);
    out.metric("setup_s", setup_s);
    out.metric("latency_geomean_ms", raw * scale);
    out.note(format!(
        "raw latency_geomean_ms = {raw:.4}; median calibration kernel {:.4} ms",
        cal.kernel_ms()
    ));
    let goodput = records.iter().filter(|r| r.good()).count() as f64 / args.window().as_secs_f64();
    out.note_percentile("latency_p50_ms (fixed rate)", &latencies(&records, in_fixed), 0.5);
    out.note_percentile("latency_p99_ms (whole run)", &latencies(&records, |_| true), 0.99);
    out.note(format!("goodput_rps = {goodput:.2} req/s ({} requests)", records.len()));
    out.note(format!("sustained_rps = {:.1} req/s", sustained_rps(&records, &times, &steps)));
    out.note(format!("peak_rss_mb = {server_rss_mb:.1} MiB (server, end of the fixed-rate phase)"));
    out.note(format!("failed_frac = {}/{}", out.failed, out.attempted));
    Ok(out)
}

/// `serve`, traced: the same open loop; per-class client latencies,
/// server counters and stage totals from `/metrics`, and the requests as
/// spans. The loop keeps the same records untraced, so tracing adds no
/// work inside the window.
pub fn traced(args: &Args) -> Result<Outcome, String> {
    let Run { records, times, steps, metrics, cal, server_rss_mb, mut out, .. } =
        run_loop(args, Instant::now())?;
    // Per class, each request is timed from its send (the generator's
    // own lateness is `client.send_late_p90_ms`). A run answers a few
    // thousand hits but only about a thousand misses, too few for a miss
    // p99 with ten samples beyond it.
    let class = |kind| -> Vec<f64> {
        records
            .iter()
            .filter(|r| r.kind == kind && r.status == 200)
            .map(|r| ms(r.done.saturating_sub(r.sent)))
            .collect()
    };
    out.percentile_metric("serve.hit_p50_ms", &class(Kind::Hit), 0.5);
    out.percentile_metric("serve.hit_p99_ms", &class(Kind::Hit), 0.99);
    out.percentile_metric("serve.miss_p50_ms", &class(Kind::Miss), 0.5);
    out.percentile_metric("serve.miss_p90_ms", &class(Kind::Miss), 0.9);
    let late: Vec<f64> = records.iter().map(|r| ms(r.sent.saturating_sub(r.scheduled))).collect();
    out.percentile_metric("client.send_late_p90_ms", &late, 0.9);
    let backlog_max = records.iter().map(|r| backlog_at(&records, &times, r.sent)).max();
    out.metric("client.backlog_max", backlog_max.unwrap_or(0) as f64);
    let goodput = records.iter().filter(|r| r.good()).count() as f64 / args.window().as_secs_f64();
    out.metric("goodput_rps", goodput);
    out.metric("sustained_rps", sustained_rps(&records, &times, &steps));
    out.metric("client.requests", records.len() as f64);
    let answered = records.iter().filter(|r| r.status == 200).count();
    out.metric("specs_per_s", answered as f64 / args.window().as_secs_f64());
    out.metric("peak_rss_mb", server_rss_mb);
    out.metric("calib.kernel_ms", cal.kernel_ms());
    let fixed_end = args.window().mul_f64(FIXED_SHARE);
    out.percentile_metric("latency_p50_ms", &latencies(&records, |r| r.scheduled < fixed_end), 0.5);
    out.percentile_metric("latency_p99_ms", &latencies(&records, |_| true), 0.99);

    let (hits, misses) = (
        lookup(&metrics, &["gateway", "rescache", "hits"]),
        lookup(&metrics, &["gateway", "rescache", "misses"]),
    );
    out.metric("serve.rescache.hits", hits);
    out.metric("serve.rescache.misses", misses);
    out.metric("serve.rescache.stores", lookup(&metrics, &["gateway", "rescache", "stores"]));
    out.metric("serve.rescache.hit_ratio", hits / (hits + misses).max(1.0));
    out.metric("serve.rescache.lookups", hits + misses);
    let rejected = lookup(&metrics, &["requests", "by_status", "429"])
        + lookup(&metrics, &["requests", "by_status", "503"]);
    out.metric("serve.rejected", rejected);
    out.metric("serve.jobs_failed", lookup(&metrics, &["queue", "failed"]));
    let mut stage_ns = 0.0;
    for (stage, metric) in [
        ("load", "stg.parse_ms"),
        ("elaborate", "stg.elaborate_ms"),
        ("covers", "core.covers_ms"),
        ("decompose", "core.decompose_ms"),
        ("map", "netlist.map_ms"),
        ("verify", "netlist.verify_ms"),
    ] {
        let total_us = lookup(&metrics, &["stage_latency_us", stage, "total"]);
        stage_ns += total_us * 1e3;
        out.metric(metric, total_us / 1e3);
    }
    // Coverage: the share of the misses' time from send to answer that
    // the server's stage totals explain (the rest is transport, gateway
    // and queue wait).
    let miss_ns: f64 = class(Kind::Miss).iter().sum::<f64>() * 1e6;
    out.metric("trace.coverage", stage_ns / miss_ns.max(1.0));
    out.metric("trace.overhead_ms", 0.0);
    out.metric("trace.overhead_frac", 0.0);

    let mut tracer = Tracer::default();
    for r in &records {
        let request = tracer.record("client.request", r.spec as u64, None, r.scheduled, r.done);
        tracer.record("client.send", r.spec as u64, Some(request), r.sent, r.done);
    }
    let path = args.out_dir.join(format!("spans-serve-seed{}.tsv", args.seed));
    if let Err(e) = tracer.write_tsv(&path) {
        eprintln!("flowbench: cannot write {}: {e}", path.display());
    }
    Ok(out)
}
