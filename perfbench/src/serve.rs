//! `serve-hot` and `serve-cold`: a child `probterm serve` driven over TCP.

use crate::gen::{cold_spec, hot_specs, Frac, Op, Rng, Spec, DEADLINE_MS, SPELLINGS};
use crate::report::{quantile_note, Report};
use crate::stats::{median, quantile, windows, Quantile};
use crate::trace::{replay, report_layers, LayerInputs, LowerProgram, Tracer};
use crate::Ctx;
use serde::Value;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// `serve-hot`: servers spawned and filled per run, timed as set-up.
const HOT_SETUPS: usize = 5;
/// `serve-cold`: servers spawned and timed to their first reply per run.
const COLD_SETUPS: usize = 7;
/// `serve-hot`: the latency limit of every request.
const HOT_LIMIT_MS: f64 = 1.0;
/// `serve-hot`: closed-loop clients, one connection and thread each.
const HOT_CLIENTS: u64 = 2;
/// `serve-hot`: request texts drawn three times in four from this many
/// popular spellings, else from all 23,040.
const HOT_POPULAR: usize = 512;
/// `serve-hot`: latency percentiles are taken per window of this many
/// seconds and reported as their median across windows.
const HOT_WINDOW_S: f64 = 1.0;
/// `serve-hot`: the tail percentile reported. Its p99 round trip (≈0.15 ms)
/// sits at the scale of virtual-CPU stalls: a host disturbance lasting
/// minutes tripled it in 3 of 10 runs while p50 rose 15 %.
const HOT_TAIL: (f64, &str) = (0.9, "p90");
/// `serve-cold`: the same, with windows long enough for a p99 with ten
/// samples beyond it.
const COLD_WINDOW_S: f64 = 5.0;
/// `serve-cold`: the offered rate, in requests per second: about half the
/// rate at which the median latency turns upward on a 2-vCPU machine.
pub const COLD_RATE: f64 = 600.0;
/// `serve-cold`: the latency limit of a request without a deadline.
const COLD_LIMIT_MS: f64 = 50.0;
/// `serve-cold`: slack on `deadline × 1.1` for deadline-bounded requests.
const DEADLINE_SLACK_MS: f64 = 5.0;
/// How long the cold receiver waits for stragglers after the last request.
const COLD_GRACE: Duration = Duration::from_secs(10);
/// Ids of timed requests start here; set-up requests use small ids.
const LOOP_ID_BASE: u64 = 1_000_000;

/// A child `probterm serve` on an ephemeral loopback port.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawns the server and waits until it listens. Its stderr goes to
    /// `<out>/<tag>.stderr`, where the listening address is read from.
    pub fn spawn(ctx: &Ctx, tag: &str, trace: Option<&Path>) -> io::Result<ServerProc> {
        let log = ctx.out_dir.join(format!("{tag}.stderr"));
        let mut command = Command::new(&ctx.probterm);
        command.args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"]);
        if let Some(trace) = trace {
            command.arg("--trace").arg(trace);
        }
        command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(File::create(&log)?);
        let child = command.spawn()?;
        let mut server = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let give_up = Instant::now() + Duration::from_secs(30);
        loop {
            let text = fs::read_to_string(&log).unwrap_or_default();
            let addr = text
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.lines().next())
                .and_then(|addr| addr.trim().parse().ok());
            if let Some(addr) = addr {
                server.addr = addr;
                return Ok(server);
            }
            if let Some(status) = server.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "server exited before listening: {status}"
                )));
            }
            if Instant::now() > give_up {
                return Err(io::Error::other("server did not listen within 30 s"));
            }
            thread::sleep(Duration::from_micros(500));
        }
    }

    pub fn connect(&self) -> io::Result<Conn> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            buf: Vec::new(),
        })
    }

    /// Peak resident set (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            fs::read_to_string(format!("/proc/{}/status", self.child.id())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Asks the server to shut down and waits for it; kills it after 10 s.
    pub fn stop(mut self) {
        if let Ok(mut conn) = self.connect() {
            let _ = conn.call(r#"{"id":0,"op":"shutdown"}"#);
        }
        let give_up = Instant::now() + Duration::from_secs(10);
        while Instant::now() < give_up {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One NDJSON connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Reads one reply line (without its newline). A read timeout keeps the
    /// partial line for the next call.
    pub fn recv(&mut self) -> io::Result<String> {
        let n = self.reader.read_until(b'\n', &mut self.buf)?;
        if n == 0 && self.buf.is_empty() {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        if self.buf.last() != Some(&b'\n') {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        self.buf.pop();
        let line = String::from_utf8_lossy(&self.buf).into_owned();
        self.buf.clear();
        Ok(line)
    }

    /// Sends one request line and reads one reply.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.recv()
    }
}

/// Why a reply failed: the reason, and whether it was a wrong answer (as
/// opposed to an error or refusal).
type Failure = (String, bool);

/// Checks one reply against the closed form of its program; returns the
/// value all requests of its class must agree on, if the op has one.
fn check_reply(spec: &Spec, reply: &str) -> Result<Option<String>, Failure> {
    let value =
        serde_json::from_str(reply).map_err(|e| (format!("unparseable reply: {e}"), true))?;
    if value.get("ok").and_then(Value::as_bool) != Some(true) {
        let code = value
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str)
            .unwrap_or("no ok field");
        return Err((format!("error reply: {code}"), false));
    }
    let result = value.get("result").ok_or(("no result".to_string(), true))?;
    let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_string);
    let number = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64);
    let wrong = |why: String| Err((why, true));
    let at_most_pterm = |bound: Option<f64>| match bound {
        Some(b) if b <= spec.pterm() + 1e-9 => Ok(()),
        other => Err((
            format!("bound {other:?} exceeds Pterm {}", spec.pterm()),
            true,
        )),
    };
    match spec.op {
        Op::Verify | Op::Analyze => {
            let verdict = if spec.op == Op::Verify {
                "verified"
            } else {
                "ast_verified"
            };
            if result.get(verdict).and_then(Value::as_bool) != Some(spec.ast()) {
                return wrong(format!("{verdict} should be {}", spec.ast()));
            }
            if text(result, "papprox").as_deref() != Some(spec.papprox().as_str()) {
                return wrong(format!("papprox should be {}", spec.papprox()));
            }
            if spec.op == Op::Verify {
                return Ok(None);
            }
            let lower = result.get("lower").ok_or(("no lower".to_string(), true))?;
            at_most_pterm(number(lower, "probability_f64"))?;
            Ok(text(lower, "probability"))
        }
        Op::Lower => {
            at_most_pterm(number(result, "probability_f64"))?;
            if result.get("complete").and_then(Value::as_bool) != Some(true) {
                return wrong("lower without a deadline is not complete".into());
            }
            Ok(text(result, "probability"))
        }
        Op::Explain => {
            if text(result, "schema").as_deref() != Some("probterm-explain-v1") {
                return wrong("explain schema".into());
            }
            at_most_pterm(number(result, "probability_f64"))?;
            Ok(text(result, "probability_decimal"))
        }
        Op::Deadline => {
            at_most_pterm(number(result, "probability_f64"))?;
            Ok(None)
        }
    }
}

/// The values each class of requests agreed on so far.
#[derive(Default)]
struct Classes(HashMap<(Op, Frac, usize), String>);

impl Classes {
    /// Records a class value; a value differing from an earlier one is wrong.
    fn agree(&mut self, spec: &Spec, value: Option<String>) -> Result<(), Failure> {
        let Some(value) = value else { return Ok(()) };
        match self.0.get(&spec.class()) {
            Some(seen) if *seen != value => Err((
                format!("class value {value} differs from an earlier {seen}"),
                true,
            )),
            Some(_) => Ok(()),
            None => {
                self.0.insert(spec.class(), value);
                Ok(())
            }
        }
    }

    /// Sum of `Pterm - bound` over every printer probability at `depth`
    /// for `lower`; a class never answered counts its whole Pterm.
    fn lb_gap(&self, depth: usize) -> f64 {
        crate::gen::printer_probabilities()
            .into_iter()
            .map(|p| {
                let spec = Spec {
                    op: Op::Lower,
                    p,
                    k: 0,
                    s: 0,
                    depth,
                };
                let bound = self
                    .0
                    .get(&spec.class())
                    .and_then(|b| b.parse::<f64>().ok());
                spec.pterm() - bound.unwrap_or(0.0)
            })
            .sum()
    }
}

/// The `result` member of a reply (the last member the service writes).
fn result_text(reply: &str) -> Option<&str> {
    let at = reply.find(r#""result":"#)?;
    reply.get(at + 9..reply.len().checked_sub(1)?)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A stats snapshot's counters: hits, misses, shed, coalesced waiters.
fn stats_counts(conn: &mut Conn) -> [f64; 4] {
    let reply = conn.call(r#"{"id":1,"op":"stats"}"#).unwrap_or_default();
    let value = serde_json::from_str(&reply).unwrap_or(Value::Null);
    let result = value.get("result").cloned().unwrap_or(Value::Null);
    let count = |v: Option<&Value>| v.and_then(Value::as_f64).unwrap_or(0.0);
    [
        count(result.get("hits")),
        count(result.get("misses")),
        count(result.get("robustness").and_then(|r| r.get("shed"))),
        count(result.get("coalesced_waiters")),
    ]
}

/// One timed reply, for matching against the server's trace.
struct Timed {
    id: u64,
    op: Op,
    /// Client round trip: reply read minus request written.
    rtt_ms: f64,
}

/// What one phase (set-up plus timed loop on one server) measured.
#[derive(Default)]
struct Phase {
    setups: Vec<f64>,
    sent: u64,
    ok: u64,
    within: u64,
    elapsed_s: f64,
    /// `(completion time in s from the loop's start, latency in ms)` of
    /// every ok reply (cold: requests without a deadline).
    latencies: Vec<(f64, f64)>,
    deadline_ratios: Vec<f64>,
    lateness: Vec<f64>,
    timed: Vec<Timed>,
    peak_rss_mb: f64,
    counts: [f64; 4],
    lb_gap: f64,
}

// ---------------------------------------------------------------------------
// serve-hot
// ---------------------------------------------------------------------------

/// The hot set: its programs, the spelling each is warmed with, the
/// popular request texts, and every request body, prebuilt so the client
/// spends its time waiting on the server.
struct HotSet {
    specs: Vec<Spec>,
    warm_spelling: Vec<usize>,
    popular: Vec<(usize, usize)>,
    bodies: Vec<String>,
}

impl HotSet {
    fn new(seed: u64) -> HotSet {
        let specs = hot_specs();
        let mut rng = Rng::new(seed);
        let warm_spelling = specs.iter().map(|_| rng.below(SPELLINGS)).collect();
        let popular = (0..HOT_POPULAR)
            .map(|_| (rng.below(specs.len()), rng.below(SPELLINGS)))
            .collect();
        let bodies = specs
            .iter()
            .flat_map(|spec| (0..SPELLINGS).map(|s| spec.body(s)))
            .collect();
        HotSet {
            specs,
            warm_spelling,
            popular,
            bodies,
        }
    }

    /// Draws one request text: three times in four a popular one.
    fn draw(&self, rng: &mut Rng) -> (usize, usize) {
        if rng.below(4) < 3 {
            self.popular[rng.below(self.popular.len())]
        } else {
            (rng.below(self.specs.len()), rng.below(SPELLINGS))
        }
    }

    fn line(&self, id: u64, (i, spelling): (usize, usize)) -> String {
        format!(r#"{{"id":{id},{}"#, self.bodies[i * SPELLINGS + spelling])
    }

    fn warm_line(&self, i: usize) -> String {
        self.line(i as u64 + 1, (i, self.warm_spelling[i]))
    }
}

/// Spawns a server, fills its cache with every hot program and returns it
/// with the verified `result` text of every program.
fn hot_setup(
    ctx: &Ctx,
    report: &mut Report,
    set: &HotSet,
    classes: &mut Classes,
    tag: &str,
    trace: Option<&Path>,
) -> io::Result<(ServerProc, Vec<Option<String>>, f64)> {
    let start = Instant::now();
    let server = ServerProc::spawn(ctx, tag, trace)?;
    let mut conn = server.connect()?;
    let mut verified = vec![None; set.specs.len()];
    for (i, spec) in set.specs.iter().enumerate() {
        let reply = conn.call(&set.warm_line(i))?;
        match check_reply(spec, &reply).and_then(|v| classes.agree(spec, v)) {
            Ok(()) => {
                report.ok();
                verified[i] = result_text(&reply).map(str::to_string);
            }
            Err((why, wrong)) => {
                report.fail(spec.op.label(), &(i + 1).to_string(), &why, &reply, wrong)
            }
        }
    }
    Ok((server, verified, start.elapsed().as_secs_f64()))
}

/// One closed-loop client's tally.
#[derive(Default)]
struct Client {
    sent: u64,
    ok: u64,
    within: u64,
    latencies: Vec<(f64, f64)>,
    timed: Vec<Timed>,
    failures: Vec<(Op, u64, String, String, bool)>,
}

fn hot_client(
    server: &ServerProc,
    set: &HotSet,
    verified: &[Option<String>],
    seed: u64,
    client: u64,
    start: Instant,
    until: Instant,
) -> io::Result<Client> {
    let mut conn = server.connect()?;
    let mut rng = Rng::new(seed ^ (client + 1).wrapping_mul(0xA5A5_5A5A_0101));
    let mut tally = Client::default();
    let mut id = LOOP_ID_BASE * (client + 1);
    let mut line = String::new();
    let mut ok_prefix = String::new();
    while Instant::now() < until {
        id += 1;
        let (i, spelling) = set.draw(&mut rng);
        let spec = &set.specs[i];
        line.clear();
        let _ = writeln!(
            line,
            r#"{{"id":{id},{}"#,
            set.bodies[i * SPELLINGS + spelling]
        );
        ok_prefix.clear();
        let _ = write!(ok_prefix, r#"{{"id":{id},"ok":true,"#);
        let sent = Instant::now();
        conn.writer.write_all(line.as_bytes())?;
        let reply = conn.recv()?;
        let rtt_ms = ms(sent.elapsed());
        tally.sent += 1;
        // A reply byte-identical to the verified one passes; any other is
        // checked in full.
        let fast = reply.starts_with(&ok_prefix)
            && verified[i].is_some()
            && result_text(&reply) == verified[i].as_deref();
        let outcome = if fast {
            Ok(())
        } else if reply.starts_with(&format!(r#"{{"id":{id},"#)) {
            check_reply(spec, &reply).map(|_| ())
        } else {
            Err((format!("reply does not echo id {id}"), true))
        };
        match outcome {
            Ok(()) => {
                tally.ok += 1;
                if rtt_ms <= HOT_LIMIT_MS {
                    tally.within += 1;
                }
                tally
                    .latencies
                    .push((start.elapsed().as_secs_f64(), rtt_ms));
                tally.timed.push(Timed {
                    id,
                    op: spec.op,
                    rtt_ms,
                });
            }
            Err((why, wrong)) => tally.failures.push((spec.op, id, why, reply, wrong)),
        }
    }
    Ok(tally)
}

fn hot_phase(
    ctx: &Ctx,
    report: &mut Report,
    seconds: f64,
    trace: Option<&Path>,
) -> io::Result<Phase> {
    let set = HotSet::new(ctx.seed);
    let mut classes = Classes::default();
    let mut phase = Phase::default();
    let mut kept = None;
    for i in 0..HOT_SETUPS {
        let tag = format!(
            "hot-{}-{i}",
            if trace.is_some() { "traced" } else { "plain" }
        );
        let trace = if i + 1 == HOT_SETUPS { trace } else { None };
        let (server, verified, setup_s) = hot_setup(ctx, report, &set, &mut classes, &tag, trace)?;
        phase.setups.push(setup_s);
        if let Some((old, _)) = kept.replace((server, verified)) {
            ServerProc::stop(old);
        }
    }
    let (server, verified) = kept.expect("at least one set-up");
    let mut control = server.connect()?;
    let before = stats_counts(&mut control);
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let clients: Vec<io::Result<Client>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..HOT_CLIENTS)
            .map(|c| {
                let (server, set, verified) = (&server, &set, &verified);
                scope.spawn(move || hot_client(server, set, verified, ctx.seed, c, start, until))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("hot client panicked"))
            .collect()
    });
    phase.elapsed_s = start.elapsed().as_secs_f64();
    let after = stats_counts(&mut control);
    for c in 0..4 {
        phase.counts[c] = after[c] - before[c];
    }
    phase.peak_rss_mb = server.peak_rss_mb();
    drop(control);
    server.stop();
    for client in clients {
        let client = client?;
        phase.sent += client.sent;
        phase.ok += client.ok;
        phase.within += client.within;
        phase.latencies.extend(client.latencies);
        phase.timed.extend(client.timed);
        for _ in 0..client.ok {
            report.ok();
        }
        for (op, id, why, reply, wrong) in client.failures {
            report.fail(op.label(), &id.to_string(), &why, &reply, wrong);
        }
    }
    phase.lb_gap = classes.lb_gap(30);
    Ok(phase)
}

// ---------------------------------------------------------------------------
// serve-cold
// ---------------------------------------------------------------------------

fn cold_phase(
    ctx: &Ctx,
    report: &mut Report,
    seconds: f64,
    trace: Option<&Path>,
) -> io::Result<Phase> {
    let mut phase = Phase::default();
    let mut kept: Option<ServerProc> = None;
    for i in 0..COLD_SETUPS {
        let tag = format!(
            "cold-{}-{i}",
            if trace.is_some() { "traced" } else { "plain" }
        );
        let trace = if i + 1 == COLD_SETUPS { trace } else { None };
        let start = Instant::now();
        let server = ServerProc::spawn(ctx, &tag, trace)?;
        let reply = server.connect()?.call(r#"{"id":0,"op":"stats"}"#)?;
        phase.setups.push(start.elapsed().as_secs_f64());
        if !reply.contains(r#""ok":true"#) {
            report.fail("stats", "0", "set-up ping failed", &reply, false);
        }
        if let Some(old) = kept.replace(server) {
            old.stop();
        }
    }
    let server = kept.expect("at least one set-up");
    let mut control = server.connect()?;
    let before = stats_counts(&mut control);

    let total = (COLD_RATE * seconds).round().max(1.0) as u64;
    let gap = Duration::from_secs_f64(1.0 / COLD_RATE);
    let mut conn = server.connect()?;
    conn.reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut writer = conn.writer.try_clone()?;
    let seed = ctx.seed;
    let start = Instant::now();
    let due = |i: u64| gap * i as u32;

    let (sent_at, replies) = thread::scope(|scope| {
        let sender = scope.spawn(move || -> io::Result<(Vec<Duration>, Vec<f64>)> {
            let mut sent_at = Vec::with_capacity(total as usize);
            let mut lateness = Vec::with_capacity(total as usize);
            for i in 0..total {
                let (spec, spelling) = cold_spec(seed, i);
                let line = format!("{}\n", spec.line(LOOP_ID_BASE + i, spelling));
                let wait = due(i).saturating_sub(start.elapsed());
                if !wait.is_zero() {
                    thread::sleep(wait);
                }
                let now = start.elapsed();
                writer.write_all(line.as_bytes())?;
                sent_at.push(now);
                lateness.push(ms(now.saturating_sub(due(i))));
            }
            Ok((sent_at, lateness))
        });
        let mut replies: Vec<(Duration, String)> = Vec::with_capacity(total as usize);
        let last_due = due(total);
        while (replies.len() as u64) < total && start.elapsed() < last_due + COLD_GRACE {
            match conn.recv() {
                Ok(line) => replies.push((start.elapsed(), line)),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => break,
            }
        }
        (sender.join().expect("cold sender panicked"), replies)
    });
    let (sent_at, lateness) = sent_at?;
    // From the first due time to the last reply: falls below the offered
    // rate when the server ends the run behind.
    phase.elapsed_s = replies.last().map_or(due(total), |(t, _)| *t).as_secs_f64();
    phase.lateness = lateness;
    phase.sent = total;
    let after = stats_counts(&mut control);
    for c in 0..4 {
        phase.counts[c] = after[c] - before[c];
    }
    phase.peak_rss_mb = server.peak_rss_mb();
    drop(control);
    drop(conn);
    server.stop();

    let mut classes = Classes::default();
    let mut answered = vec![false; total as usize];
    for (received, reply) in replies {
        let id = serde_json::from_str(&reply)
            .ok()
            .and_then(|v| v.get("id").and_then(Value::as_u64))
            .and_then(|id| id.checked_sub(LOOP_ID_BASE))
            .filter(|&i| i < total && !answered[i as usize]);
        let Some(i) = id else {
            report.fail(
                "unknown",
                "?",
                "reply with an unknown or repeated id",
                &reply,
                true,
            );
            continue;
        };
        answered[i as usize] = true;
        let (spec, _) = cold_spec(seed, i);
        let latency_ms = ms(received.saturating_sub(due(i)));
        match check_reply(&spec, &reply).and_then(|v| classes.agree(&spec, v)) {
            Ok(()) => {
                report.ok();
                phase.ok += 1;
                let limit = if spec.op == Op::Deadline {
                    phase.deadline_ratios.push(latency_ms / DEADLINE_MS as f64);
                    DEADLINE_MS as f64 * 1.1 + DEADLINE_SLACK_MS
                } else {
                    phase.latencies.push((received.as_secs_f64(), latency_ms));
                    COLD_LIMIT_MS
                };
                if latency_ms <= limit {
                    phase.within += 1;
                }
                let rtt_ms = ms(received.saturating_sub(sent_at[i as usize]));
                phase.timed.push(Timed {
                    id: LOOP_ID_BASE + i,
                    op: spec.op,
                    rtt_ms,
                });
            }
            Err((why, wrong)) => report.fail(
                spec.op.label(),
                &(LOOP_ID_BASE + i).to_string(),
                &why,
                &reply,
                wrong,
            ),
        }
    }
    for (i, _) in answered.iter().enumerate().filter(|(_, a)| !**a) {
        let (spec, _) = cold_spec(seed, i as u64);
        report.fail(
            spec.op.label(),
            &(LOOP_ID_BASE + i as u64).to_string(),
            "no reply",
            "",
            false,
        );
    }
    phase.lb_gap = classes.lb_gap(30);
    Ok(phase)
}

// ---------------------------------------------------------------------------
// reporting
// ---------------------------------------------------------------------------

fn report_phase(report: &mut Report, phase: &Phase, hot: bool) {
    let width = if hot { HOT_WINDOW_S } else { COLD_WINDOW_S };
    let windows = windows(&phase.latencies, width);
    let per_window =
        |q: f64| -> Vec<Quantile> { windows.iter().filter_map(|w| quantile(w, q)).collect() };
    let (tail_q, tail) = if hot { HOT_TAIL } else { (0.99, "p99") };
    let (p50s, tails) = (per_window(0.5), per_window(tail_q));
    let what = if hot {
        "round trip"
    } else {
        "from due time, requests without a deadline"
    };
    for (name, qs) in [("p50", &p50s), (tail, &tails)] {
        report.detail(format!(
            "windows {name}: {}",
            qs.iter()
                .map(|q| format!("{:.4}", q.value))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }
    report.detail(format!(
        "windows rps: {}",
        windows
            .iter()
            .map(|w| format!("{:.0}", w.len() as f64 / width))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.metric(
        "setup_s",
        median(&phase.setups),
        "s",
        if hot {
            format!("median of {HOT_SETUPS} spawns to a filled cache")
        } else {
            format!("median of {COLD_SETUPS} spawns to first reply")
        },
    );
    report.metric(
        "ok_share",
        report.ok_share(),
        "share",
        format!(
            "replies ok and matching their reference; n={}",
            report.attempted
        ),
    );
    report.metric("peak_rss_mb", phase.peak_rss_mb, "MiB", "server VmHWM");
    if hot {
        let rates: Vec<f64> = windows.iter().map(|w| w.len() as f64 / width).collect();
        let note = format!(
            "median over {} windows of {width} s of ok replies per second; n={}",
            rates.len(),
            phase.ok
        );
        report.metric("rps", median(&rates), "1/s", note);
    } else {
        let note = format!(
            "ok replies per second from the first due time to the last reply; n={}",
            phase.ok
        );
        report.metric("rps", phase.ok as f64 / phase.elapsed_s, "1/s", note);
    }
    for (name, qs, label) in [
        ("latency_p50_ms", &p50s, "p50"),
        ("latency_tail_ms", &tails, tail),
    ] {
        let values: Vec<f64> = qs.iter().map(|q| q.value).collect();
        let thinnest = qs.iter().min_by_key(|q| q.beyond).copied();
        report.metric(
            name,
            median(&values),
            "ms",
            quantile_note(
                thinnest,
                &format!("median over {} windows of {width} s of the per-window {label} {what}; thinnest window", qs.len()),
            ),
        );
    }
    report.metric(
        "lb_gap",
        phase.lb_gap,
        "prob",
        "sum of Pterm - bound over the 15 lower classes at depth 30",
    );
    report.metric(
        "slo_share",
        phase.within as f64 / phase.sent.max(1) as f64,
        "share",
        if hot {
            format!("sent requests answered ok within {HOT_LIMIT_MS} ms; n={}", phase.sent)
        } else {
            format!(
                "sent requests answered ok within {COLD_LIMIT_MS} ms, or deadline x 1.1 + {DEADLINE_SLACK_MS} ms; n={}",
                phase.sent
            )
        },
    );
    let ratio50 = quantile(&phase.deadline_ratios, 0.5);
    let ratio90 = quantile(&phase.deadline_ratios, 0.9);
    let late = quantile(&phase.lateness, 0.99);
    report.metric(
        "deadline_ratio_p50",
        ratio50.map_or(0.0, |q| q.value),
        "ratio",
        quantile_note(ratio50, "reply time from due / deadline_ms"),
    );
    report.metric(
        "deadline_ratio_p90",
        ratio90.map_or(0.0, |q| q.value),
        "ratio",
        quantile_note(ratio90, "reply time from due / deadline_ms"),
    );
    report.metric(
        "late_p99_ms",
        late.map_or(0.0, |q| q.value),
        "ms",
        quantile_note(late, "generator lateness against due time"),
    );
}

/// The untraced run of `serve-hot` or `serve-cold`.
pub fn run(ctx: &Ctx, report: &mut Report, hot: bool) -> io::Result<()> {
    let phase = if hot {
        hot_phase(ctx, report, ctx.seconds, None)?
    } else {
        cold_phase(ctx, report, ctx.seconds, None)?
    };
    report.detail(format!(
        "{}: sent={} ok={} in {:.3} s; cache hits={} misses={} shed={} coalesced={}",
        ctx.workload,
        phase.sent,
        phase.ok,
        phase.elapsed_s,
        phase.counts[0],
        phase.counts[1],
        phase.counts[2],
        phase.counts[3]
    ));
    report_phase(report, &phase, hot);
    Ok(())
}

/// One record of the server's `--trace` file.
struct TraceRecord {
    queue_us: f64,
    cache_us: f64,
    engine_us: f64,
    serialize_us: f64,
    total_us: f64,
}

fn read_trace(path: &Path) -> HashMap<u64, TraceRecord> {
    let text = fs::read_to_string(path).unwrap_or_default();
    let mut records = HashMap::new();
    for line in text.lines() {
        let Ok(v) = serde_json::from_str(line) else {
            continue;
        };
        let Some(id) = v.get("id").and_then(Value::as_u64) else {
            continue;
        };
        let field = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        records.insert(
            id,
            TraceRecord {
                queue_us: field("queue_us"),
                cache_us: field("cache_us"),
                engine_us: field("engine_us"),
                serialize_us: field("serialize_us"),
                total_us: field("total_us"),
            },
        );
    }
    records
}

/// The traced run: half the time without the server's trace, half with it;
/// then the workload's inputs replayed in-process through each layer.
pub fn run_traced(
    ctx: &Ctx,
    report: &mut Report,
    tracer: &mut Tracer,
    hot: bool,
) -> io::Result<()> {
    let half = (ctx.seconds / 2.0).max(1.0);
    let trace_path: PathBuf = ctx
        .out_dir
        .join(format!("{}-{}.trace.jsonl", ctx.workload, ctx.seed));
    let _ = fs::remove_file(&trace_path);
    let phase = |report: &mut Report, trace| {
        if hot {
            hot_phase(ctx, report, half, trace)
        } else {
            cold_phase(ctx, report, half, trace)
        }
    };
    let untraced = phase(report, None)?;
    let span = tracer.begin(None, "bench.traced_phase", &ctx.workload);
    let traced = phase(report, Some(&trace_path))?;
    tracer.end(span);
    let records = read_trace(&trace_path);

    let mut queue = Vec::new();
    let mut cache = Vec::new();
    let mut serialize = Vec::new();
    let mut engine_all = Vec::new();
    let mut engine: HashMap<Op, Vec<f64>> = HashMap::new();
    let mut transport = Vec::new();
    for timed in &traced.timed {
        let Some(r) = records.get(&timed.id) else {
            continue;
        };
        queue.push(r.queue_us / 1e3);
        cache.push(r.cache_us / 1e3);
        serialize.push(r.serialize_us / 1e3);
        engine_all.push(r.engine_us / 1e3);
        engine.entry(timed.op).or_default().push(r.engine_us / 1e3);
        transport.push(timed.rtt_ms - r.total_us / 1e3);
    }
    let matched = queue.len();
    report.detail(format!(
        "trace records matched to timed replies: {matched} of {}",
        traced.timed.len()
    ));
    let q50 = quantile(&queue, 0.5);
    let q99 = quantile(&queue, 0.99);
    report.metric(
        "service.queue_ms.p50",
        q50.map_or(0.0, |q| q.value),
        "ms",
        quantile_note(q50, "trace queue_us"),
    );
    report.metric(
        "service.queue_ms.p99",
        q99.map_or(0.0, |q| q.value),
        "ms",
        quantile_note(q99, "trace queue_us"),
    );
    report.metric(
        "service.cache_ms",
        median(&cache),
        "ms",
        format!("trace cache_us; median of n={matched}"),
    );
    report.metric(
        "service.serialize_ms",
        median(&serialize),
        "ms",
        format!("trace serialize_us; median of n={matched}"),
    );
    for op in Op::ALL {
        let samples = engine.get(&op).map_or(&[][..], Vec::as_slice);
        let q = quantile(samples, 0.5);
        report.metric(
            &format!("service.engine_ms.{}.p50", op.label()),
            q.map_or(0.0, |q| q.value),
            "ms",
            quantile_note(q, "trace engine_us"),
        );
    }
    let e99 = quantile(&engine_all, 0.99);
    report.metric(
        "service.engine_ms.p99",
        e99.map_or(0.0, |q| q.value),
        "ms",
        quantile_note(e99, "trace engine_us, all ops"),
    );
    report.metric(
        "service.transport_ms",
        median(&transport),
        "ms",
        format!("client round trip - trace total_us; median of n={matched}"),
    );
    let [hits, misses, shed, coalesced] = traced.counts;
    report.metric(
        "service.hit_share",
        hits / (hits + misses).max(1.0),
        "share",
        format!(
            "stats hits / lookups during the timed loop; n={}",
            hits + misses
        ),
    );
    report.metric(
        "service.shed",
        shed,
        "count",
        "stats shed during the timed loop",
    );
    report.metric(
        "service.coalesced",
        coalesced,
        "count",
        "stats coalesced_waiters during the timed loop",
    );
    let late = quantile(&traced.lateness, 0.99);
    report.metric(
        "bench.late_p99_ms",
        late.map_or(0.0, |q| q.value),
        "ms",
        quantile_note(late, "generator lateness against due time"),
    );
    let ratio50 = quantile(&traced.deadline_ratios, 0.5);
    let ratio90 = quantile(&traced.deadline_ratios, 0.9);
    report.metric(
        "bench.deadline_ratio_p50",
        ratio50.map_or(0.0, |q| q.value),
        "ratio",
        quantile_note(ratio50, "reply time from due / deadline_ms"),
    );
    report.metric(
        "bench.deadline_ratio_p90",
        ratio90.map_or(0.0, |q| q.value),
        "ratio",
        quantile_note(ratio90, "reply time from due / deadline_ms"),
    );
    let latency = |phase: &Phase| median(&phase.latencies.iter().map(|l| l.1).collect::<Vec<_>>());
    let (t50, u50) = (latency(&traced), latency(&untraced));
    report.metric(
        "bench.trace_overhead",
        if u50 > 0.0 { t50 / u50 } else { 0.0 },
        "ratio",
        format!("traced / untraced median latency ({t50:.4} / {u50:.4} ms)"),
    );

    let inputs = if hot {
        hot_inputs(ctx.seed)
    } else {
        cold_inputs(ctx.seed)
    };
    let layers = replay(tracer, &inputs);
    report_layers(report, &layers);
    Ok(())
}

fn lower_programs(depth: usize) -> Vec<LowerProgram> {
    crate::gen::printer_probabilities()
        .into_iter()
        .map(|p| {
            let spec = Spec {
                op: Op::Lower,
                p,
                k: 1,
                s: 0,
                depth,
            };
            LowerProgram {
                label: format!("lower p={p}"),
                source: crate::gen::spell(&spec.template(), 0),
                depth,
            }
        })
        .collect()
}

fn program_of(line: &str) -> String {
    serde_json::from_str(line)
        .ok()
        .and_then(|v| v.get("program").and_then(Value::as_str).map(str::to_string))
        .unwrap_or_default()
}

/// `serve-hot`'s inputs for the in-process replay: its draw distribution,
/// its warm cache and its lower and verify programs.
fn hot_inputs(seed: u64) -> LayerInputs {
    let set = HotSet::new(seed);
    let mut rng = Rng::new(seed ^ 0x001A_7E12);
    let mut inputs = LayerInputs {
        lower: lower_programs(30),
        ..Default::default()
    };
    for p in crate::gen::printer_probabilities() {
        let spec = Spec {
            op: Op::Verify,
            p,
            k: 1,
            s: 0,
            depth: 0,
        };
        inputs.verify.push((
            format!("verify p={p}"),
            crate::gen::spell(&spec.template(), 0),
        ));
    }
    inputs.warm_lines = (0..set.specs.len()).map(|i| set.warm_line(i)).collect();
    for n in 0..20_000u64 {
        let (i, spelling) = set.draw(&mut rng);
        let line = set.line(LOOP_ID_BASE + n, (i, spelling));
        if n < 2_000 {
            inputs.sources.push(program_of(&line));
            inputs.handle_lines.push(line.clone());
        }
        inputs.lines.push(line);
    }
    inputs
}

/// `serve-cold`'s inputs for the in-process replay: the start of its request
/// stream and one lower program per class.
fn cold_inputs(seed: u64) -> LayerInputs {
    let mut inputs = LayerInputs {
        lower: lower_programs(30),
        ..Default::default()
    };
    for i in 0..3_000u64 {
        let (spec, spelling) = cold_spec(seed, i);
        let line = spec.line(LOOP_ID_BASE + i, spelling);
        if i < 1_000 {
            inputs.sources.push(program_of(&line));
        }
        if i < 200 {
            inputs.handle_lines.push(line.clone());
        }
        if spec.op == Op::Verify && inputs.verify.len() < 50 {
            inputs
                .verify
                .push((format!("verify #{i}"), program_of(&line)));
        }
        inputs.lines.push(line);
    }
    inputs
}
