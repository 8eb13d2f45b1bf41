//! Load driver for `probterm-service`: fires mixed concurrent request
//! streams at an in-process TCP server and records throughput to
//! `BENCH_service.json` (run from the workspace root, e.g.
//! `cargo run --release -p probterm-bench --bin service_load`).
//!
//! Three scenarios bracket the service's operating envelope:
//!
//! * **hot** — every client rotates through α-renamings of the same two
//!   programs, so after warm-up every request is a content-addressed cache
//!   hit: this measures the transport + canonicalisation ceiling.
//! * **cold** — every request submits a distinct program for AST
//!   verification, so every request runs the full §6 engine: this measures
//!   verification-heavy traffic with a useless cache.
//! * **mixed** — 4:1 hot:cold interleaving, the expected production shape.
//! * **overload** — offered load ~4× over a single deadline-bounded worker
//!   with a shallow admission queue: this measures the shed rate, the p99
//!   latency of the *admitted* requests (the overload-protection contract:
//!   shedding keeps admitted latency flat), and the wall-time speedup of
//!   resuming a checkpointed exploration over recomputing it from scratch.
//! * **coalesce** — 16 concurrent clients all submitting the *same* cold
//!   `lower` term: single-flight coalescing must collapse the burst into one
//!   engine run, and the row records the throughput ratio against the same
//!   burst uncoalesced (16 equal-cost distinct terms over the same workers).
//! * **warm-restart** — a server persisted its cache via `--cache-path`,
//!   drained, and reboots: time from accepting the first connection to the
//!   first cache-hit reply for a previously-computed request.

use probterm_service::{handle_line, Server, ServerConfig};
use probterm_telemetry::{Histogram, HistogramSnapshot, SpanTimer};
use serde::Serialize;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Instant;

#[derive(Debug, Clone, Serialize)]
struct ScenarioRow {
    scenario: String,
    clients: usize,
    workers: usize,
    requests: u64,
    errors: u64,
    elapsed_ms: u128,
    requests_per_sec: f64,
    cache_hits: u64,
    cache_misses: u64,
    /// Client-observed round-trip latency percentiles, in microseconds,
    /// from log-bucketed histograms merged across clients (≤ ~25 % bucket
    /// error).
    latency_p50_us: u64,
    latency_p95_us: u64,
    latency_p99_us: u64,
    latency_max_us: u64,
    /// Requests refused by admission control with `overloaded` (overload
    /// scenario only — the other scenarios never saturate their queue).
    shed: u64,
    /// p99 round-trip latency of admitted (non-shed) requests only, in µs.
    /// Equal to `latency_p99_us` when nothing is shed.
    admitted_p99_us: u64,
    /// Wall-time ratio of a from-scratch full-budget `lower` run over a
    /// resumed completion from a half-budget checkpoint of the same
    /// exploration (overload scenario only; 0 elsewhere).
    resume_speedup: f64,
    /// Engine runs actually executed (server-side cache misses). The
    /// coalesce scenario's contract is that this stays at 1 for the whole
    /// identical burst; 0 in rows that predate the field.
    engine_runs: u64,
    /// Largest single-flight fan-out observed (waiters served by one run).
    coalesce_fanout: u64,
    /// Wall-time ratio of the uncoalesced burst (equal-cost distinct terms)
    /// over the coalesced identical burst (coalesce scenario only; 0
    /// elsewhere).
    throughput_vs_uncoalesced: f64,
    /// Milliseconds from accepting the reborn server's first connection to
    /// its first snapshot-served cache-hit reply (warm-restart scenario
    /// only; 0 elsewhere).
    time_to_first_hit_ms: u128,
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Round-trip latency of every request this client issued, in µs.
    latency: Histogram,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to load server");
        stream.set_nodelay(true).expect("set nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { reader, writer: stream, latency: Histogram::new() }
    }

    /// Lock-step request/reply; returns `true` iff the reply is `ok`.
    fn request(&mut self, line: &str) -> bool {
        let timer = SpanTimer::start();
        let framed = format!("{line}\n");
        self.writer.write_all(framed.as_bytes()).expect("send request");
        self.writer.flush().expect("flush request");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        self.latency.record(timer.elapsed_us());
        reply.contains("\"ok\":true")
    }
}

/// α-renamings of the fair non-affine printer (Ex. 1.1 (2), p = 1/2): all
/// share one canonical key, so they exercise the cache-hit path under
/// differently-spelled requests.
fn hot_verify_request(id: usize) -> String {
    let names = [
        ("phi", "x"),
        ("loop", "n"),
        ("retry", "copies"),
        ("f", "k"),
        ("print", "backlog"),
        ("g", "y"),
    ];
    let (f, x) = names[id % names.len()];
    format!(
        r#"{{"id":{id},"op":"verify","program":"(fix {f} {x}. if sample <= 1/2 then {x} else {f} ({f} ({x} + 1))) 1"}}"#
    )
}

fn hot_lower_request(id: usize) -> String {
    let names = [("phi", "x"), ("walk", "pos"), ("h", "z")];
    let (f, x) = names[id % names.len()];
    format!(
        r#"{{"id":{id},"op":"lower","program":"(fix {f} {x}. if sample <= 1/4 then {x} else {f} ({f} ({x} + 1))) 1","depth":30}}"#
    )
}

/// A verification request for a program no other request ever submits: the
/// non-affine printer at a fresh success probability per (client, index).
fn cold_verify_request(client: usize, index: usize) -> String {
    // Injective in (client, index) for index < 500 — covering every scenario
    // below — so no two cold requests ever share a canonical key, and the
    // numerator stays below the denominator (a genuine probability).
    let numerator = 1 + client * 500 + index;
    format!(
        r#"{{"id":"c{client}-{index}","op":"verify","program":"(fix phi x. if sample <= {numerator}/10000 then x else phi (phi (x + 1))) 1"}}"#
    )
}

fn run_scenario(
    name: &str,
    clients: usize,
    per_client: usize,
    request: impl Fn(usize, usize) -> String + Send + Sync + Copy + 'static,
) -> ScenarioRow {
    let workers = 2;
    let server = Server::new(ServerConfig { workers, ..Default::default() });
    let running = server.spawn_tcp("127.0.0.1:0").expect("bind loopback");
    let addr = running.addr;

    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|client_index| {
            thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut errors = 0u64;
                for index in 0..per_client {
                    if !client.request(&request(client_index, index)) {
                        errors += 1;
                    }
                }
                (errors, client.latency.snapshot())
            })
        })
        .collect();
    let mut errors = 0u64;
    // Merging per-client histograms is exact: merge ≡ recording the
    // concatenated sample streams into one histogram.
    let mut latency = HistogramSnapshot::empty();
    for handle in handles {
        let (client_errors, client_latency) = handle.join().expect("client");
        errors += client_errors;
        latency.merge(&client_latency);
    }
    let elapsed = started.elapsed();

    let stats = running.state().stats();
    Client::connect(addr).request(r#"{"op":"shutdown"}"#);
    running.join().expect("clean shutdown");

    let requests = (clients * per_client) as u64;
    ScenarioRow {
        scenario: name.to_string(),
        clients,
        workers,
        requests,
        errors,
        elapsed_ms: elapsed.as_millis(),
        requests_per_sec: requests as f64 / elapsed.as_secs_f64(),
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        latency_p50_us: latency.p50(),
        latency_p95_us: latency.p95(),
        latency_p99_us: latency.p99(),
        latency_max_us: latency.max(),
        shed: 0,
        admitted_p99_us: latency.p99(),
        resume_speedup: 0.0,
        engine_runs: stats.misses,
        coalesce_fanout: stats.coalesce_fanout_max,
        throughput_vs_uncoalesced: 0.0,
        time_to_first_hit_ms: 0,
    }
}

/// A deadline-bounded `lower` on a fresh cache key per (client, index): the
/// geometric chain never empties its frontier before the depth cap, so every
/// admitted request busies the engine for the whole deadline.
fn overload_lower_request(client: usize, index: usize) -> String {
    let k = 1 + client * 500 + index;
    format!(
        r#"{{"id":"o{client}-{index}","op":"lower","program":"(fix phi x. if sample <= 1/2 then x else phi (x + {k})) 0","depth":400,"deadline_ms":150}}"#
    )
}

/// Offered load over capacity: 4 lock-step clients against 1 worker whose
/// every engine run burns a full 150 ms deadline, behind a queue of depth 2.
/// Admission control must shed the excess with `overloaded` while the
/// admitted requests keep their deadline-bounded latency.
fn run_overload() -> ScenarioRow {
    let workers = 1;
    let clients = 4;
    let per_client = 12;
    let server = Server::new(ServerConfig { workers, queue_depth: 2, ..Default::default() });
    let running = server.spawn_tcp("127.0.0.1:0").expect("bind loopback");
    let addr = running.addr;

    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|client_index| {
            thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut errors = 0u64;
                let admitted = Histogram::new();
                for index in 0..per_client {
                    let line = overload_lower_request(client_index, index);
                    let timer = SpanTimer::start();
                    let framed = format!("{line}\n");
                    client.writer.write_all(framed.as_bytes()).expect("send request");
                    client.writer.flush().expect("flush request");
                    let mut reply = String::new();
                    client.reader.read_line(&mut reply).expect("read reply");
                    let us = timer.elapsed_us();
                    client.latency.record(us);
                    if reply.contains("\"overloaded\"") {
                        continue; // shed — counted from the server's stats
                    }
                    admitted.record(us);
                    if !reply.contains("\"ok\":true") {
                        errors += 1;
                    }
                }
                (errors, client.latency.snapshot(), admitted.snapshot())
            })
        })
        .collect();
    let mut errors = 0u64;
    let mut latency = HistogramSnapshot::empty();
    let mut admitted = HistogramSnapshot::empty();
    for handle in handles {
        let (client_errors, client_latency, client_admitted) = handle.join().expect("client");
        errors += client_errors;
        latency.merge(&client_latency);
        admitted.merge(&client_admitted);
    }
    let elapsed = started.elapsed();

    let stats = running.state().stats();
    Client::connect(addr).request(r#"{"op":"shutdown"}"#);
    running.join().expect("clean shutdown");

    let requests = (clients * per_client) as u64;
    ScenarioRow {
        scenario: "overload".to_string(),
        clients,
        workers,
        requests,
        errors,
        elapsed_ms: elapsed.as_millis(),
        requests_per_sec: requests as f64 / elapsed.as_secs_f64(),
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        latency_p50_us: latency.p50(),
        latency_p95_us: latency.p95(),
        latency_p99_us: latency.p99(),
        latency_max_us: latency.max(),
        shed: stats.shed,
        admitted_p99_us: admitted.p99(),
        resume_speedup: measure_resume_speedup(),
        engine_runs: stats.misses,
        coalesce_fanout: stats.coalesce_fanout_max,
        throughput_vs_uncoalesced: 0.0,
        time_to_first_hit_ms: 0,
    }
}

/// One deterministic engine workload for the coalesce comparison: an
/// unbounded-depth geometric chain at a distinct offset `k`, so every `k` is
/// a fresh cache key with identical exploration cost (~tens of ms at depth
/// 400 in release).
fn coalesce_lower_request(id: usize, k: usize) -> String {
    format!(
        r#"{{"id":"x{id}","op":"lower","program":"(fix phi x. if sample <= 1/2 then x else phi (x + {k})) 0","depth":400}}"#
    )
}

/// Fires `clients` concurrent lock-step clients, each sending the one line
/// `request(i)` cold, against a fresh 2-worker server; returns the wall
/// time, the merged latency histogram and the final stats snapshot.
fn burst(
    clients: usize,
    request: impl Fn(usize) -> String + Send + Sync + Copy + 'static,
) -> (std::time::Duration, HistogramSnapshot, probterm_service::StatsSnapshot) {
    let server = Server::new(ServerConfig { workers: 2, ..Default::default() });
    let running = server.spawn_tcp("127.0.0.1:0").expect("bind loopback");
    let addr = running.addr;
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            thread::spawn(move || {
                let mut client = Client::connect(addr);
                assert!(client.request(&request(i)), "burst request {i} failed");
                client.latency.snapshot()
            })
        })
        .collect();
    let mut latency = HistogramSnapshot::empty();
    for handle in handles {
        latency.merge(&handle.join().expect("client"));
    }
    let elapsed = started.elapsed();
    let stats = running.state().stats();
    Client::connect(addr).request(r#"{"op":"shutdown"}"#);
    running.join().expect("clean shutdown");
    (elapsed, latency, stats)
}

/// 16 concurrent clients, one cold term: single-flight coalescing collapses
/// the burst into exactly one engine run. The throughput ratio compares the
/// same burst against 16 equal-cost *distinct* terms (no coalescing
/// possible) on identical workers.
fn run_coalesce() -> ScenarioRow {
    let clients = 16;
    let (uncoalesced, _, uncoalesced_stats) =
        burst(clients, |i| coalesce_lower_request(i, 1 + i));
    assert_eq!(
        uncoalesced_stats.misses, clients as u64,
        "distinct terms never coalesce"
    );
    let (coalesced, latency, stats) = burst(clients, |i| coalesce_lower_request(i, 1));

    ScenarioRow {
        scenario: "coalesce".to_string(),
        clients,
        workers: 2,
        requests: clients as u64,
        errors: 0,
        elapsed_ms: coalesced.as_millis(),
        requests_per_sec: clients as f64 / coalesced.as_secs_f64(),
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        latency_p50_us: latency.p50(),
        latency_p95_us: latency.p95(),
        latency_p99_us: latency.p99(),
        latency_max_us: latency.max(),
        shed: 0,
        admitted_p99_us: latency.p99(),
        resume_speedup: 0.0,
        engine_runs: stats.misses,
        coalesce_fanout: stats.coalesce_fanout_max,
        throughput_vs_uncoalesced: uncoalesced.as_secs_f64()
            / coalesced.as_secs_f64().max(1e-9),
        time_to_first_hit_ms: 0,
    }
}

/// Computes one cold `lower` under `--cache-path`, drains (persisting the
/// snapshot), reboots from the snapshot and times the reborn server from
/// first connection to first cache-hit reply.
fn run_warm_restart() -> ScenarioRow {
    let path = std::env::temp_dir()
        .join(format!("probterm-bench-warm-restart-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cache_path = path.to_str().expect("utf-8 temp path").to_string();
    let line = coalesce_lower_request(0, 1);

    let first = Server::new(ServerConfig {
        workers: 2,
        cache_path: Some(cache_path.clone()),
        ..Default::default()
    });
    let running = first.spawn_tcp("127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(running.addr);
    assert!(client.request(&line), "cold fill failed");
    Client::connect(running.addr).request(r#"{"op":"shutdown"}"#);
    running.join().expect("drain persists the snapshot");

    let reborn = Server::new(ServerConfig {
        workers: 2,
        cache_path: Some(cache_path),
        ..Default::default()
    });
    let running = reborn.spawn_tcp("127.0.0.1:0").expect("bind loopback");
    let started = Instant::now();
    let mut client = Client::connect(running.addr);
    assert!(client.request(&line), "warm request failed");
    let elapsed = started.elapsed();
    let stats = running.state().stats();
    assert_eq!(stats.misses, 0, "the snapshot answers without an engine run");
    Client::connect(running.addr).request(r#"{"op":"shutdown"}"#);
    running.join().expect("clean shutdown");
    let _ = std::fs::remove_file(&path);

    ScenarioRow {
        scenario: "warm-restart".to_string(),
        clients: 1,
        workers: 2,
        requests: 1,
        errors: 0,
        elapsed_ms: elapsed.as_millis(),
        requests_per_sec: 1.0 / elapsed.as_secs_f64(),
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        latency_p50_us: client.latency.snapshot().p50(),
        latency_p95_us: client.latency.snapshot().p95(),
        latency_p99_us: client.latency.snapshot().p99(),
        latency_max_us: client.latency.snapshot().max(),
        shed: 0,
        admitted_p99_us: client.latency.snapshot().p99(),
        resume_speedup: 0.0,
        engine_runs: stats.misses,
        coalesce_fanout: 0,
        throughput_vs_uncoalesced: 0.0,
        time_to_first_hit_ms: elapsed.as_millis(),
    }
}

/// Times the same depth-capped geometric exploration twice: once from
/// scratch at an unbounded budget, and once resumed from the checkpoint a
/// half-budget run left behind. Returns `t_full / t_resume` — the payoff of
/// shipping the frontier in the partial-result cache instead of recomputing.
/// Returns 0.0 if the half-budget run finished outright (nothing to resume).
fn measure_resume_speedup() -> f64 {
    const GEO: &str = "(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0";
    let depth = 400;

    let fresh = Server::new(ServerConfig { workers: 1, ..Default::default() });
    let full_timer = Instant::now();
    let full = handle_line(
        fresh.state(),
        &format!(r#"{{"op":"lower","program":"{GEO}","depth":{depth}}}"#),
    )
    .expect("lower replies");
    let t_full = full_timer.elapsed();
    assert!(full.contains("\"complete\":true"), "unbounded run completes: {full}");

    let resumable = Server::new(ServerConfig { workers: 1, ..Default::default() });
    let half_ms = (t_full.as_millis() / 2).max(1);
    let partial = handle_line(
        resumable.state(),
        &format!(r#"{{"op":"lower","program":"{GEO}","depth":{depth},"deadline_ms":{half_ms}}}"#),
    )
    .expect("partial replies");
    if !partial.contains("\"checkpoint\"") {
        return 0.0;
    }
    let resume_timer = Instant::now();
    let resumed = handle_line(
        resumable.state(),
        &format!(r#"{{"op":"lower","program":"{GEO}","depth":{depth}}}"#),
    )
    .expect("resumed replies");
    let t_resume = resume_timer.elapsed();
    assert!(resumed.contains("\"resumed\":true"), "retry resumes the checkpoint: {resumed}");
    t_full.as_secs_f64() / t_resume.as_secs_f64().max(1e-9)
}

fn main() {
    let rows = vec![
        run_scenario("hot", 4, 1500, |client, index| {
            let id = client * 10_000 + index;
            if index % 2 == 0 {
                hot_verify_request(id)
            } else {
                hot_lower_request(id)
            }
        }),
        run_scenario("cold", 4, 150, cold_verify_request),
        run_scenario("mixed", 4, 500, |client, index| {
            if index % 5 == 4 {
                cold_verify_request(client, index)
            } else {
                hot_verify_request(client * 10_000 + index)
            }
        }),
        run_overload(),
        run_coalesce(),
        run_warm_restart(),
    ];

    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>10} {:>12} {:>8} {:>8} {:>9} {:>9} {:>9} {:>6} {:>12} {:>8} {:>6} {:>8} {:>10} {:>10}",
        "scenario", "clients", "reqs", "errors", "t (ms)", "req/s", "hits", "misses", "p50 (us)",
        "p95 (us)", "p99 (us)", "shed", "adm p99 (us)", "resume", "runs", "fanout", "coalesce",
        "ttfh (ms)"
    );
    for r in &rows {
        println!(
            "{:<12} {:>8} {:>8} {:>8} {:>10} {:>12.1} {:>8} {:>8} {:>9} {:>9} {:>9} {:>6} {:>12} {:>7.2}x {:>6} {:>8} {:>9.2}x {:>10}",
            r.scenario,
            r.clients,
            r.requests,
            r.errors,
            r.elapsed_ms,
            r.requests_per_sec,
            r.cache_hits,
            r.cache_misses,
            r.latency_p50_us,
            r.latency_p95_us,
            r.latency_p99_us,
            r.shed,
            r.admitted_p99_us,
            r.resume_speedup,
            r.engine_runs,
            r.coalesce_fanout,
            r.throughput_vs_uncoalesced,
            r.time_to_first_hit_ms
        );
    }

    let json = serde_json::to_string_pretty(&rows).expect("serialise rows");
    std::fs::write("BENCH_service.json", json + "\n").expect("write BENCH_service.json");
    probterm_bench::append_history("service_load", &rows.serialize());
    eprintln!("wrote BENCH_service.json");
}
