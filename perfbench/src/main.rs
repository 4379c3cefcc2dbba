//! The repository benchmark: one command that runs a workload against an
//! in-process cache server over loopback TCP, checks every reply, and prints
//! its metrics by name and unit.
//!
//! ```text
//! perfbench --workload <cache_aside|set_burst_deep|tenants_closed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run is a number of identical passes (the count follows `--seconds`).
//! Each pass starts a fresh server, prefills it (the timed set-up), drives
//! the pass's fixed request stream, and checks the replies. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` runs the same passes and
//! prints per-layer costs measured from outside each layer. The last line
//! of standard output is the result object; the line before it holds the
//! run's details (host, failures by kind, per-pass figures).

mod alloc;
mod probe;
mod replay;
mod wire;
mod workload;

use cache_server::CacheServer;
use probe::ThreadCpu;
use replay::{Name, Tracer, ROOT};
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;
use wire::{Conn, Segment, Tally};
use workload::{Stream, Traffic, ValuePool, Workload};
use workloads::zipf::PopularitySampler;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut values: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        values.insert(flag, value);
    }
    let take = |flag: &str| values.get(flag).cloned().ok_or(format!("missing {flag}"));
    let number = |flag: &str| -> Result<u64, String> {
        take(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let args = Args {
        workload: take("--workload")?,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    };
    if values.len() != 4 {
        return Err("unknown flag".to_string());
    }
    Ok(args)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The segments charged no more host steal time than the median segment:
/// the timing metrics are medians over these, so a burst of steal from
/// other guests on the host does not decide a run's figure. Without steal
/// every segment counts.
fn quiet_segments(segments: &[Segment]) -> Vec<Segment> {
    let mut steal: Vec<u64> = segments.iter().map(|s| s.steal_ticks).collect();
    steal.sort_unstable();
    let Some(&limit) = steal.get(steal.len().saturating_sub(1) / 2) else {
        return Vec::new();
    };
    segments
        .iter()
        .filter(|s| s.steal_ticks <= limit)
        .copied()
        .collect()
}

/// Metrics in output order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Everything measured over the passes of one run.
#[derive(Default)]
struct Run {
    window: Tally,
    setup_s: Vec<f64>,
    /// Per-pass throughput.
    throughput: Vec<f64>,
    segments: Vec<Segment>,
    /// Peak resident memory after the first pass.
    peak_rss_kb: u64,
    /// Per pass: GETs, hits and NOT_STOREDs of the measured window.
    pass_counts: Vec<(u64, u64, u64)>,
    prefill: wire::Prefill,
    loops: ThreadCpu,
    control: ThreadCpu,
    loadgen: ThreadCpu,
    readback: (u64, u64, u64),
    attempted: u64,
    problems: Vec<String>,
    layers: Option<ServerLayers>,
}

/// Per-layer figures taken from the live server of the last traced pass.
#[derive(Default)]
struct ServerLayers {
    arbiter_transfers: f64,
    stats_json_ms: f64,
    handle_op_ns: f64,
}

/// The plane's cross-loop figures, from a server with two loops and two
/// shards.
#[derive(Default)]
struct PlaneProbe {
    remote_share: f64,
    local_service_us: f64,
    remote_service_us: f64,
    handle_op_ns: f64,
}

/// Drives the measured window of one pass on `conns` from the calling
/// thread, whose CPU time is added to `loadgen`.
fn drive(
    conns: &mut [Conn],
    streams: &[Stream],
    pipeline: usize,
    samplers: &[PopularitySampler],
    pool: &ValuePool,
    seed: u64,
    loadgen: &mut ThreadCpu,
) -> Window {
    let mut traffic: Vec<Traffic> = streams
        .iter()
        .enumerate()
        .map(|(i, stream)| Traffic::new(stream, samplers[i].clone(), seed, i))
        .collect();
    let mut window = Window::default();
    let cpu0 = probe::this_thread();
    let t0 = Instant::now();
    match wire::run_closed(
        conns,
        &mut traffic,
        pool,
        streams,
        pipeline,
        &mut window.tally,
    ) {
        Ok(segments) => window.segments = segments,
        Err(err) => window.problem = Some(err),
    }
    window.elapsed = t0.elapsed().as_secs_f64();
    loadgen.add(&probe::this_thread().since(&cpu0));
    window
}

/// One pass's measured window.
#[derive(Default)]
struct Window {
    tally: Tally,
    elapsed: f64,
    segments: Vec<Segment>,
    problem: Option<String>,
}

fn stat_u64(stats: &HashMap<String, String>, key: &str) -> u64 {
    stats.get(key).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Sampled read-back ranks of a stream: an even spread over the key space
/// plus the hottest ranks.
fn readback_ranks(stream: &workload::Stream) -> Vec<u64> {
    let n = stream.keys.num_keys();
    let mut ranks: Vec<u64> = (0..512).map(|i| i * n / 512).collect();
    ranks.extend(0..64);
    ranks
}

/// Per-layer figures from the live server: stats scrapes, the arbiter's
/// counters and `PlaneHandle` round trips.
fn server_layers(
    server: &CacheServer,
    workload: &Workload,
    samplers: &[PopularitySampler],
    pool: &ValuePool,
    seed: u64,
    tracer: &mut Tracer,
) -> ServerLayers {
    let handle = server.cache();
    let stats: HashMap<String, String> = handle.stats().into_iter().collect();
    let mut scrape_ms = Vec::new();
    for i in 0..5 {
        let span = tracer.open();
        let t0 = Instant::now();
        std::hint::black_box(handle.stats_json());
        scrape_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tracer.close(Name::StatsJson, span, ROOT, i, 0);
    }
    ServerLayers {
        arbiter_transfers: stat_u64(&stats, "arbiter:transfers") as f64,
        stats_json_ms: median(&scrape_ms),
        handle_op_ns: handle_round_trips(server, workload, samplers, pool, seed, tracer),
    }
}

/// Mean ns of `PlaneHandle` GET/SET round trips driven by stream 0's
/// request shape.
fn handle_round_trips(
    server: &CacheServer,
    workload: &Workload,
    samplers: &[PopularitySampler],
    pool: &ValuePool,
    seed: u64,
    tracer: &mut Tracer,
) -> f64 {
    const OPS: u64 = 20_000;
    let handle = server.cache();
    let stream = &workload.streams[0];
    let mut traffic = Traffic::new(stream, samplers[0].clone(), seed ^ 0xA11, 0);
    let mut ops = Vec::new();
    let mut key = Vec::new();
    let mut total_ns = 0u64;
    let mut done = 0u64;
    while done < OPS && traffic.next_batch(1, &mut ops) {
        let op = ops[0];
        key.clear();
        workload::key_for_rank(op.rank, &mut key);
        let data = (op.kind != workload::OpKind::Get).then(|| {
            bytes::Bytes::copy_from_slice(pool.value(stream.tenant_index, op.rank, 1, op.size))
        });
        let span = tracer.open();
        let t0 = Instant::now();
        let name = match data {
            None => {
                let hit = handle.get_for(stream.tenant_index, &key).is_some();
                traffic.on_get(op.rank, hit);
                Name::PlaneGet
            }
            Some(data) => {
                handle.set_for(stream.tenant_index, &key, 0, data);
                Name::PlaneSet
            }
        };
        total_ns += t0.elapsed().as_nanos() as u64;
        tracer.close(name, span, ROOT, done, 0);
        done += 1;
    }
    total_ns as f64 / done.max(1) as f64
}

/// Set-ups timed per run, at least: each pass sets up as many times, and
/// only its last set-up carries traffic, so the timed set-ups are spread
/// over the run.
const SETUPS: usize = 12;

/// The timed set-up: a fresh server, one connection per stream, and the
/// pipelined prefill of each stream's fixed key list.
fn set_up(
    workload: &Workload,
    pool: &ValuePool,
    run: &mut Run,
) -> Result<(CacheServer, Vec<Conn>), String> {
    let t0 = Instant::now();
    let server = CacheServer::start(workload.server_config())
        .map_err(|e| format!("server did not start: {e}"))?;
    let mut conns = Vec::new();
    for stream in &workload.streams {
        let mut conn =
            Conn::open(server.local_addr(), stream).map_err(|e| format!("set-up failed: {e}"))?;
        let p =
            wire::prefill(&mut conn, pool, stream).map_err(|e| format!("set-up failed: {e}"))?;
        run.prefill.sets += p.sets;
        run.prefill.not_stored += p.not_stored;
        run.attempted += p.sets;
        conns.push(conn);
    }
    run.setup_s.push(t0.elapsed().as_secs_f64());
    Ok((server, conns))
}

fn run_passes(
    args: &Args,
    workload: &Workload,
    samplers: &[PopularitySampler],
    pool: &ValuePool,
    tracer: &mut Tracer,
) -> Run {
    let mut run = Run::default();
    let passes = workload.passes(args.seconds);
    let seed = args.seed;
    for pass in 0..passes {
        // Set-up-only rounds first, then the set-up that carries traffic.
        for _ in 1..SETUPS.div_ceil(passes) {
            match set_up(workload, pool, &mut run) {
                Ok((mut server, conns)) => {
                    drop(conns);
                    server.shutdown();
                }
                Err(err) => {
                    run.problems.push(err);
                    return run;
                }
            }
        }
        let (mut server, mut conns) = match set_up(workload, pool, &mut run) {
            Ok(ready) => ready,
            Err(err) => {
                run.problems.push(err);
                return run;
            }
        };

        let loops0 = probe::threads_named("cache-loop");
        let control0 = probe::threads_named("cache-control");
        let window = drive(
            &mut conns,
            &workload.streams,
            workload.pipeline,
            samplers,
            pool,
            seed,
            &mut run.loadgen,
        );
        run.loops
            .add(&probe::threads_named("cache-loop").since(&loops0));
        run.control
            .add(&probe::threads_named("cache-control").since(&control0));
        run.problems.extend(window.problem);

        let pass_tally = window.tally;
        run.attempted += pass_tally.attempted;
        run.throughput
            .push(pass_tally.attempted as f64 / window.elapsed.max(1e-9));
        run.segments.extend(window.segments);
        let gets: u64 = pass_tally.gets.iter().sum();
        let hits: u64 = pass_tally.hits.iter().sum();
        run.pass_counts.push((gets, hits, pass_tally.not_stored));

        // The server's own counters agree with what the client saw.
        let stats: HashMap<String, String> = server.cache().stats().into_iter().collect();
        let (server_gets, server_hits) =
            (stat_u64(&stats, "cmd_get"), stat_u64(&stats, "get_hits"));
        if (server_gets, server_hits) != (gets, hits) {
            run.problems.push(format!(
                "pass {pass}: server counted {server_gets} GETs / {server_hits} hits, \
                 the client {gets} / {hits}"
            ));
        }
        // Sampled read-back: exact bytes or a miss.
        for (conn, stream) in conns.iter_mut().zip(&workload.streams) {
            let ranks = readback_ranks(stream);
            match wire::read_back(conn, pool, stream, &ranks) {
                Ok((reads, hits, wrong)) => {
                    run.readback.0 += reads;
                    run.readback.1 += hits;
                    run.readback.2 += wrong;
                    run.attempted += reads;
                    if wrong > 0 {
                        run.problems.push(format!(
                            "pass {pass}: {wrong} read-backs returned other bytes"
                        ));
                    }
                }
                Err(err) => run
                    .problems
                    .push(format!("pass {pass}: read-back failed: {err}")),
            }
        }
        if tracer.on && pass + 1 == passes {
            run.layers = Some(server_layers(
                &server, workload, samplers, pool, seed, tracer,
            ));
        }
        run.window.merge(&pass_tally);
        drop(conns);
        server.shutdown();
        if pass == 0 {
            // The first pass runs on a fresh process; later passes reuse
            // freed memory in an order that varies from run to run.
            run.peak_rss_kb = probe::peak_rss_kb();
        }
        if !run.problems.is_empty() {
            break;
        }
    }
    run
}

/// Requests the plane probe drives over TCP.
const PROBE_REQUESTS: u64 = 40_000;

/// The plane's cross-loop cost: a fresh server with the workload's cache
/// settings on two loops and two shards, driven over one connection with
/// stream 0's traffic, so about half of the operations hop to the other
/// loop. Its stats give the remote share and the service times; then
/// `PlaneHandle` round trips are timed on it.
fn plane_probe(
    workload: &Workload,
    samplers: &[PopularitySampler],
    pool: &ValuePool,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<PlaneProbe, String> {
    let mut config = workload.server_config();
    config.workers = 2;
    config.backend.shards = 2;
    let mut server =
        CacheServer::start(config).map_err(|e| format!("server did not start: {e}"))?;
    let stream = Stream {
        requests: PROBE_REQUESTS,
        ..workload.streams[0].clone()
    };
    let mut conns = vec![Conn::open(server.local_addr(), &stream)
        .map_err(|e| format!("plane probe could not connect: {e}"))?];
    let mut cpu = ThreadCpu::default();
    let window = drive(
        &mut conns,
        std::slice::from_ref(&stream),
        workload.pipeline,
        samplers,
        pool,
        seed,
        &mut cpu,
    );
    if let Some(err) = window.problem {
        return Err(format!("plane probe: {err}"));
    }
    if window.tally.errors() > 0 {
        return Err(format!(
            "plane probe: {} failed requests",
            window.tally.errors()
        ));
    }
    let handle = server.cache();
    let stats: HashMap<String, String> = handle.stats().into_iter().collect();
    let local = stat_u64(&stats, "plane:local_ops");
    let remote = stat_u64(&stats, "plane:remote_ops");
    let doc: serde_json::Value = serde_json::from_str(&handle.stats_json())
        .map_err(|e| format!("stats json does not parse: {e}"))?;
    let p50 = |class: &str| {
        doc.get("service_latency")
            .and_then(|s| s.get(class))
            .and_then(|s| s.get("p50_us"))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    let probe = PlaneProbe {
        remote_share: ratio(remote, local + remote),
        local_service_us: p50("local"),
        remote_service_us: p50("remote"),
        handle_op_ns: handle_round_trips(&server, workload, samplers, pool, seed, tracer),
    };
    drop(conns);
    server.shutdown();
    Ok(probe)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workload::by_name(&args.workload) else {
        eprintln!(
            "unknown workload {:?}; choose one of {:?}",
            args.workload,
            workload::NAMES
        );
        return ExitCode::from(2);
    };
    let run_started = Instant::now();
    let steal0 = probe::steal_ticks();
    let samplers: Vec<PopularitySampler> =
        workload.streams.iter().map(|s| s.keys.sampler()).collect();
    let pool = ValuePool::new();
    let mut tracer = Tracer::new(args.trace, 16);

    let mut run = run_passes(&args, &workload, &samplers, &pool, &mut tracer);
    let w = &run.window;

    // The engine replay: where it is exact it must see the wire's GETs,
    // hits and NOT_STOREDs in every pass.
    let exact = workload.replay_is_exact();
    let mut untraced = None;
    if run.problems.is_empty() && (exact || args.trace) {
        let mut off = Tracer::new(false, 1);
        match replay::run(&workload, &samplers, &pool, args.seed, &mut off) {
            Ok(r) => {
                if exact {
                    for (pass, &(gets, hits, not_stored)) in run.pass_counts.iter().enumerate() {
                        if (gets, hits, not_stored) != (r.gets, r.hits, r.not_admitted) {
                            run.problems.push(format!(
                                "pass {pass}: wire GETs/hits/NOT_STORED {gets}/{hits}/{not_stored}, \
                                 engine replay {}/{}/{}",
                                r.gets, r.hits, r.not_admitted
                            ));
                        }
                    }
                }
                untraced = Some(r);
            }
            Err(err) => run.problems.push(err),
        }
    }

    let requests = w.attempted.max(1);
    let metrics: Metrics;
    if args.trace {
        let traced = if run.problems.is_empty() {
            replay::run(&workload, &samplers, &pool, args.seed, &mut tracer)
                .map_err(|e| run.problems.push(e))
                .ok()
        } else {
            None
        };
        let r = traced.unwrap_or_default();
        let base = untraced.unwrap_or_default();
        let plane = plane_probe(&workload, &samplers, &pool, args.seed, &mut tracer)
            .map_err(|e| run.problems.push(e))
            .unwrap_or_default();
        let layers = run.layers.take().unwrap_or_default();
        let reactor_us = run.loops.run_ns as f64 / requests as f64 / 1e3;
        let replayed_us = (tracer.total_ns(Name::Parse)
            + tracer.total_ns(Name::EngineGet)
            + tracer.total_ns(Name::EngineSet)
            + tracer.total_ns(Name::Encode)) as f64
            / r.requests.max(1) as f64
            / 1e3;
        let passes = run.throughput.len().max(1) as f64;
        metrics = vec![
            ("protocol.parse_ns", tracer.mean_ns(Name::Parse), "ns"),
            (
                "protocol.parse_alloc_bytes",
                ratio(r.parse_alloc_bytes, r.parsed),
                "bytes",
            ),
            ("protocol.encode_ns", tracer.mean_ns(Name::Encode), "ns"),
            ("engine.get_ns", tracer.mean_ns(Name::EngineGet), "ns"),
            ("engine.set_ns", tracer.mean_ns(Name::EngineSet), "ns"),
            ("engine.hit_ratio", ratio(r.hits, r.gets), "ratio"),
            ("engine.not_admitted", r.not_admitted as f64, "count"),
            ("engine.evictions", r.evictions as f64, "count"),
            ("engine.shadow_hits", r.shadow_hits as f64, "count"),
            ("engine.transfers", r.transfers as f64, "count"),
            ("plane.handle_op_ns", layers.handle_op_ns, "ns"),
            ("plane.handle_op_ns.loops2", plane.handle_op_ns, "ns"),
            ("plane.remote_share", plane.remote_share, "ratio"),
            ("plane.local_service_us", plane.local_service_us, "us"),
            ("plane.remote_service_us", plane.remote_service_us, "us"),
            ("reactor.cpu_us_per_req", reactor_us, "us"),
            ("reactor.sys_share", run.loops.sys_share(), "ratio"),
            (
                "reactor.ctx_switches_per_req",
                ratio(run.loops.ctx_switches, requests),
                "count",
            ),
            (
                "control.arbiter_transfers",
                layers.arbiter_transfers,
                "count",
            ),
            (
                "control.cpu_ms",
                run.control.run_ns as f64 / passes / 1e6,
                "ms",
            ),
            ("control.stats_json_ms", layers.stats_json_ms, "ms"),
            (
                "loadgen.cpu_us_per_req",
                run.loadgen.run_ns as f64 / requests as f64 / 1e3,
                "us",
            ),
            (
                "ledger.unexplained_us_per_req",
                reactor_us - replayed_us,
                "us",
            ),
            (
                "trace.overhead_share",
                ratio(r.wall_ns, base.wall_ns) - 1.0,
                "ratio",
            ),
            ("trace.spans", tracer.spans_recorded() as f64, "count"),
        ];
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}-seed{}.spans.tsv", workload.name, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| {
                let mut out = std::io::BufWriter::new(f);
                tracer.write(&mut out)?;
                std::io::Write::flush(&mut out)
            });
        if let Err(err) = written {
            eprintln!("spans not written to {}: {err}", path.display());
        }
    } else {
        let quiet = quiet_segments(&run.segments);
        let gets: u64 = w.gets.iter().sum();
        let hits: u64 = w.hits.iter().sum();
        metrics = vec![
            (
                "throughput_rps",
                median(&quiet.iter().map(|s| s.rate).collect::<Vec<_>>()),
                "1/s",
            ),
            (
                "p50_us",
                median(
                    &quiet
                        .iter()
                        .map(|s| s.p50_ns as f64 / 1e3)
                        .collect::<Vec<_>>(),
                ),
                "us",
            ),
            ("hit_ratio", ratio(hits, gets), "ratio"),
            ("hit_ratio.hot", ratio(w.hits[0], w.gets[0]), "ratio"),
            ("hit_ratio.cold", ratio(w.hits[1], w.gets[1]), "ratio"),
            ("success_ratio", ratio(w.succeeded(), w.attempted), "ratio"),
            ("setup_s", median(&run.setup_s), "s"),
            ("peak_rss_mb", run.peak_rss_kb as f64 / 1024.0, "MB"),
        ];
    }

    if run.setup_s.is_empty() || w.attempted == 0 {
        run.problems.push("no pass completed".to_string());
    }
    let correct = run.problems.is_empty();
    for problem in &run.problems {
        eprintln!("check failed: {problem}");
    }
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let wall = run_started.elapsed().as_secs_f64();
    let steal_s = probe::steal_ticks().saturating_sub(steal0) as f64 / probe::TICKS_PER_S;
    let list = |v: &[f64]| {
        let items: Vec<String> = v.iter().map(|x| json_number(*x)).collect();
        format!("[{}]", items.join(", "))
    };
    let count = |n: u64| n.to_string();
    let detail: Vec<(&str, String)> = vec![
        ("workload", format!("\"{}\"", workload.name)),
        ("seed", count(args.seed)),
        ("trace", count(u64::from(args.trace))),
        ("passes", count(run.throughput.len() as u64)),
        ("nproc", count(nproc as u64)),
        ("wall_s", json_number(wall)),
        ("steal_s", json_number(steal_s)),
        ("steal_share", json_number(steal_s / (wall * nproc as f64))),
        (
            "p99_us",
            json_number(w.latency.value_at_percentile(99.0) as f64 / 1e3),
        ),
        ("latency_samples", count(w.latency.count())),
        ("window_attempted", count(w.attempted)),
        ("sets", count(w.sets)),
        ("fills", count(w.fills)),
        ("not_stored", count(w.not_stored)),
        ("server_error", count(w.server_error)),
        ("conn_error", count(w.conn_error)),
        ("missing_reply", count(w.missing_reply)),
        ("wrong_value", count(w.wrong_value)),
        ("prefill_sets", count(run.prefill.sets)),
        ("prefill_not_stored", count(run.prefill.not_stored)),
        ("readback_reads", count(run.readback.0)),
        ("readback_hits", count(run.readback.1)),
        ("readback_wrong", count(run.readback.2)),
        ("pass_rps", list(&run.throughput)),
        (
            "pass_hit_ratio",
            list(
                &run.pass_counts
                    .iter()
                    .map(|&(g, h, _)| ratio(h, g))
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "segment_rps",
            list(&run.segments.iter().map(|s| s.rate).collect::<Vec<_>>()),
        ),
        (
            "segment_steal_ticks",
            list(
                &run.segments
                    .iter()
                    .map(|s| s.steal_ticks as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("setup_s", list(&run.setup_s)),
    ];
    let detail: Vec<String> = detail
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{\"detail\": {{{}}}}}", detail.join(", "));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted.max(1),
        w.errors() + run.readback.2,
        metrics_json(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
