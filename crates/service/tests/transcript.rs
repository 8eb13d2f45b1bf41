//! Golden wire transcript: every op, a cache miss, a hit and an α-renamed
//! hit, and every deterministic error, sent through `Server::handle_line` and
//! through a lock-step TCP client. Replies must match the recorded bytes with
//! only the wall-clock fields (`elapsed_ms`, `engine_ms`) masked; the `stats`
//! counters and the JSONL trace must account for every request exactly once.

use probterm_service::{Server, ServerConfig, TraceSink};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

const GEO: &str = "(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0";
const PRINTER_QUARTER: &str = "(fix phi x. if sample <= 1/4 then x else phi (phi (x + 1))) 1";
const PRINTER_QUARTER_RENAMED: &str =
    "(fix loop n. if sample <= 1/4 then n else loop (loop (n + 1))) 1";
const PRINTER_FAIR: &str = "(fix phi x. if sample <= 1/2 then x else phi (phi (x + 1))) 1";
const THIRD: &str = "if sample <= 1/3 then 0 else sample + 1";

/// The byte cap of the transcript server; one request is built to exceed it.
const MAX_PROGRAM_BYTES: usize = 200;

/// The requests whose replies are compared byte for byte, in order.
fn requests() -> Vec<String> {
    let oversized = format!("{GEO} + {}", "0 + ".repeat(50) + "0");
    assert!(oversized.len() > MAX_PROGRAM_BYTES);
    vec![
        r#"{"id":1,"op":"catalog"}"#.to_string(),
        format!(r#"{{"id":2,"op":"simulate","program":"{GEO}","runs":200,"steps":400,"seed":7}}"#),
        format!(r#"{{"id":3,"op":"lower","program":"{PRINTER_QUARTER}","depth":30}}"#),
        format!(r#"{{"id":4,"op":"lower","program":"{PRINTER_QUARTER}","depth":30}}"#),
        format!(r#"{{"id":5,"op":"lower","program":"{PRINTER_QUARTER_RENAMED}","depth":30}}"#),
        format!(r#"{{"id":20,"op":"lower","program":"{PRINTER_QUARTER}","depth":31}}"#),
        format!(r#"{{"id":6,"op":"verify","program":"{PRINTER_FAIR}"}}"#),
        format!(r#"{{"id":7,"op":"analyze","program":"{GEO}","depth":20}}"#),
        format!(r#"{{"id":8,"op":"explain","program":"{THIRD}","depth":30,"top":3}}"#),
        r#"{"id":9,"op":"inspect"}"#.to_string(),
        "this is not json".to_string(),
        r#"{"id":11,"op":"frobnicate"}"#.to_string(),
        r#"{"id":12,"op":"lower"}"#.to_string(),
        format!(r#"{{"id":13,"op":"lower","program":"{oversized}"}}"#),
        r#"{"id":14,"op":"lower","program":"0","depth":100000}"#.to_string(),
        r#"{"id":15,"op":"lower","program":"((("}"#.to_string(),
        r#"{"id":16,"op":"verify","program":"if sample <= 1/2 then 0 else 1"}"#.to_string(),
    ]
}

/// The masked replies to [`requests`], in order.
const GOLDEN: &[&str] = &[
    r#"{"id":1,"ok":true,"op":"catalog","elapsed_ms":0,"result":{"table1":[{"name":"geo(1/2)","description":"geometric distribution: retry until a uniform sample falls below p","program":"(fix phi x. if sample - 1/2 then x else phi (x + 1)) 0","pterm":1.0,"ast":true},{"name":"geo(1/5)","description":"geometric distribution: retry until a uniform sample falls below p","program":"(fix phi x. if sample - 1/5 then x else phi (x + 1)) 0","pterm":1.0,"ast":true},{"name":"1dRW(1/2,1)","description":"biased random walk on the naturals, absorbed at zero","program":"(fix phi x. if x - 0 then x else if sample - 1/2 then phi (x - 1) else phi (x + 1)) 1","pterm":1.0,"ast":true},{"name":"1dRW(7/10,1)","description":"biased random walk on the naturals, absorbed at zero","program":"(fix phi x. if x - 0 then x else if sample - 7/10 then phi (x - 1) else phi (x + 1)) 1","pterm":1.0,"ast":true},{"name":"gr","description":"three recursive calls with probability 1/2; Pterm is the inverse golden ratio","program":"(fix phi x. if sample - 1/2 then x else phi (phi (phi x))) 0","pterm":0.6180339887498949,"ast":false},{"name":"Ex1.1(2) p=1/2","description":"unreliable 3D printer with an extra copy per failure (two call sites)","program":"(fix phi x. if sample - 1/2 then x else phi (phi (x + 1))) 1","pterm":1.0,"ast":true},{"name":"Ex1.1(2) p=1/4","description":"unreliable 3D printer with an extra copy per failure (two call sites)","program":"(fix phi x. if sample - 1/4 then x else phi (phi (x + 1))) 1","pterm":0.3333333333333333,"ast":false},{"name":"3print(3/4)","description":"printer variant spawning three reprints per failure (three call sites)","program":"(fix phi x. if sample - 3/4 then x else phi (phi (phi (x + 1)))) 1","pterm":1.0,"ast":true},{"name":"bin(1/2,2)","description":"one-directional random walk: step down with probability p, else stay","program":"(fix phi x. if x - 0 then 0 else if sample - 1/2 then phi (x - 1) else phi x) 2","pterm":1.0,"ast":true},{"name":"pedestrian","description":"random-walking pedestrian accumulating distance until reaching home","program":"(fix phi x. lam d. if x - 0 then d else if sample - 1/2 then phi (x - sample) (d + 1) else phi (x + sample) (d + 1)) (3 * sample) 0","pterm":1.0,"ast":true}],"table2":[{"name":"Ex1.1(1) p=1/2","description":"unreliable 3D printer, one reprint per failure (affine recursion)","program":"(fix phi x. if sample - 1/2 then x else phi (x + 1)) 1","pterm":1.0,"ast":true},{"name":"Ex1.1(2) p=1/2","description":"unreliable 3D printer with an extra copy per failure (two call sites)","program":"(fix phi x. if sample - 1/2 then x else phi (phi (x + 1))) 1","pterm":1.0,"ast":true},{"name":"3print(2/3)","description":"printer variant spawning three reprints per failure (three call sites)","program":"(fix phi x. if sample - 2/3 then x else phi (phi (phi (x + 1)))) 1","pterm":1.0,"ast":true},{"name":"Ex5.1 p=3/5","description":"printer with argument-dependent (sigmoid) mistake probability","program":"(fix phi x. if sample - 3/5 then x else if sample - sig(x) then if sample - 1/2 then phi (phi (phi (x + 1))) else phi (phi (x + 1)) else phi (phi (x + 1))) 1","pterm":1.0,"ast":true},{"name":"Ex5.15 p=13/20","description":"printer reusing a continuous sample as a first-class branching probability","program":"(fix phi x. (lam e. if e - 13/20 then x else if sample - sig(x) then if sample - e then phi (phi (phi (x + 1))) else phi (phi (x + 1)) else phi (phi (x + 1))) sample) 1","pterm":1.0,"ast":true}]}}"#,
    r#"{"id":2,"ok":true,"op":"simulate","cache":"miss","elapsed_ms":0,"result":{"runs":200,"terminated":200,"stuck":0,"out_of_fuel":0,"probability":1.0,"confidence_99":0.016056696784200623,"mean_steps":8.725,"mean_samples":1.945,"steps":400,"seed":7,"strategy":"cbn"}}"#,
    r#"{"id":3,"ok":true,"op":"lower","cache":"miss","elapsed_ms":0,"result":{"probability":"0.3144531250","probability_f64":0.314453125,"expected_steps_lb":1.99609375,"paths":4,"unexplored_paths":40,"stuck_paths":0,"depth":30,"complete":true,"engine_ms":0}}"#,
    r#"{"id":4,"ok":true,"op":"lower","cache":"hit","elapsed_ms":0,"result":{"probability":"0.3144531250","probability_f64":0.314453125,"expected_steps_lb":1.99609375,"paths":4,"unexplored_paths":40,"stuck_paths":0,"depth":30,"complete":true,"engine_ms":0}}"#,
    r#"{"id":5,"ok":true,"op":"lower","cache":"hit","elapsed_ms":0,"result":{"probability":"0.3144531250","probability_f64":0.314453125,"expected_steps_lb":1.99609375,"paths":4,"unexplored_paths":40,"stuck_paths":0,"depth":30,"complete":true,"engine_ms":0}}"#,
    r#"{"id":20,"ok":true,"op":"lower","cache":"miss","elapsed_ms":0,"result":{"probability":"0.3226928710","probability_f64":0.32269287109375,"expected_steps_lb":2.25152587890625,"paths":9,"unexplored_paths":35,"stuck_paths":0,"depth":31,"complete":true,"engine_ms":0}}"#,
    r#"{"id":6,"ok":true,"op":"verify","cache":"miss","elapsed_ms":0,"result":{"verified":true,"papprox":"1/2·δ0 + 1/2·δ2","strategies":1,"env_nodes":0,"sample_variables":1,"rank":2,"corollary_5_13":true,"engine_ms":0}}"#,
    r#"{"id":7,"ok":true,"op":"analyze","cache":"miss","elapsed_ms":0,"result":{"type":"R","lower":{"probability":"0.9375000000","probability_f64":0.9375,"paths":4,"depth":20},"ast_verified":true,"papprox":"1/2·δ0 + 1/2·δ1","ast_skipped":null,"monte_carlo":null,"complete":true,"engine_ms":0}}"#,
    r#"{"id":8,"ok":true,"op":"explain","cache":"miss","elapsed_ms":0,"result":{"schema":"probterm-explain-v1","program":"if sample <= 1/3 then 0 else sample + 1","depth":30,"complete":true,"probability":"1","probability_decimal":"1.0000000000","probability_f64":1.0,"expected_steps":"13/3","expected_steps_f64":4.333333333333333,"elapsed_ms":0,"paths_total":2,"paths_shown":2,"paths":[{"index":1,"volume":"2/3","volume_f64":0.6666666666666666,"method":"exact","samples":2,"steps":5,"branches":"E","constraints":["sub(α0, 1/3) > 0"],"result":"add(α1, 1)","witness":{"trace":["1/2","1/2"],"replayed":true,"replay_steps":5}},{"index":0,"volume":"1/3","volume_f64":0.3333333333333333,"method":"exact","samples":1,"steps":3,"branches":"T","constraints":["sub(α0, 1/3) <= 0"],"result":"0","witness":{"trace":["1/4"],"replayed":true,"replay_steps":3}}],"frontier":{"paused":0,"stuck":0,"interrupted":false,"exploration_complete":true,"depth_histogram":[],"attributed_mass":"1","attributed_mass_f64":1.0,"unaccounted_mass":"0","unaccounted_mass_f64":0.0},"engine_ms":0}}"#,
    r#"{"id":9,"ok":true,"op":"inspect","elapsed_ms":0,"result":{"count":0,"inflight":[]}}"#,
    r#"{"id":null,"ok":false,"error":{"code":"parse_error","message":"invalid JSON: unexpected character `t` at byte 0"}}"#,
    r#"{"id":11,"ok":false,"error":{"code":"bad_request","message":"unknown op `frobnicate`"}}"#,
    r#"{"id":12,"ok":false,"error":{"code":"bad_request","message":"op `lower` requires a `program` field"}}"#,
    r#"{"id":13,"ok":false,"error":{"code":"bad_request","message":"program of 259 bytes exceeds the 200-byte cap"}}"#,
    r#"{"id":14,"ok":false,"error":{"code":"bad_request","message":"depth 100000 exceeds the server cap 400"}}"#,
    r#"{"id":15,"ok":false,"error":{"code":"parse_error","message":"parse error: parse error at byte 3: expected a term, found end of input"}}"#,
    r#"{"id":16,"ok":false,"error":{"code":"not_applicable","message":"expected a first-order fixpoint μφ x. M"}}"#,
];

/// The `shutdown` request that ends each transcript, and its golden reply.
const SHUTDOWN: &str = r#"{"id":19,"op":"shutdown"}"#;
const SHUTDOWN_GOLDEN: &str = r#"{"id":19,"ok":true,"op":"shutdown","elapsed_ms":0,"result":{}}"#;

/// One line per trace record: id, op, outcome, cache tag and whether the
/// record carries a canonical key, for every request of the transcript in order
/// (the byte-compared ones, then `stats`, `metrics` and `shutdown`).
const TRACE_GOLDEN: &[&str] = &[
    "1 catalog ok - false",
    "2 simulate ok miss true",
    "3 lower ok miss true",
    "4 lower ok hit true",
    "5 lower ok hit true",
    "20 lower ok miss true",
    "6 verify ok miss true",
    "7 analyze ok miss true",
    "8 explain ok miss true",
    "9 inspect ok - false",
    "- invalid parse_error - false",
    "11 invalid bad_request - false",
    "12 invalid bad_request - false",
    "13 lower bad_request - false",
    "14 lower bad_request - false",
    "15 lower parse_error - false",
    "16 verify not_applicable - true",
    "17 stats ok - false",
    "18 metrics ok - false",
    "19 shutdown ok - false",
];

/// Replaces the digits after every `"elapsed_ms":` and `"engine_ms":` with 0.
fn mask(reply: &str) -> String {
    let mut out = reply.to_string();
    for field in ["\"elapsed_ms\":", "\"engine_ms\":"] {
        let mut from = 0;
        while let Some(pos) = out[from..].find(field) {
            let start = from + pos + field.len();
            let end = start + out[start..].bytes().take_while(u8::is_ascii_digit).count();
            out.replace_range(start..end, "0");
            from = start + 1;
        }
    }
    out
}

/// A `Write + Send` target collecting trace bytes for inspection.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("trace buffer lock").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn traced_server() -> (Server, SharedBuf) {
    let trace = SharedBuf::default();
    let server = Server::with_trace(
        ServerConfig { workers: 2, max_program_bytes: MAX_PROGRAM_BYTES, ..Default::default() },
        Some(TraceSink::new(Box::new(trace.clone()))),
    );
    (server, trace)
}

fn u64_at(value: &Value, path: &[&str]) -> u64 {
    let mut at = value;
    for key in path {
        at = at.get(key).unwrap_or_else(|| panic!("missing {path:?} in {value:?}"));
    }
    at.as_u64().unwrap_or_else(|| panic!("{path:?} is not a count in {value:?}"))
}

/// Drives the whole transcript through `send` (one request line in, one
/// reply line out) and checks every reply, the counters and the trace.
fn check_transcript(server: &Server, trace: &SharedBuf, mut send: impl FnMut(&str) -> String) {
    let requests = requests();
    assert_eq!(requests.len(), GOLDEN.len(), "one golden reply per request");
    for (request, golden) in requests.iter().zip(GOLDEN) {
        assert_eq!(mask(&send(request)), *golden, "reply to {request}");
    }

    // Seven engine runs (the not-applicable `verify` and the `lower` at a
    // new depth included) are misses, the two resubmissions are hits;
    // rejected lines that named an op count as errors of that op, the
    // others under no op at all.
    let stats: Value =
        serde_json::from_str(&send(r#"{"id":17,"op":"stats"}"#)).expect("stats is JSON");
    let result = stats.get("result").expect("stats result");
    assert_eq!(u64_at(result, &["hits"]), 2, "{stats:?}");
    assert_eq!(u64_at(result, &["misses"]), 7, "{stats:?}");
    assert_eq!(u64_at(result, &["inflight"]), 0);
    let per_op = [
        ("catalog", 1, 0),
        ("simulate", 1, 0),
        ("lower", 7, 3),
        ("verify", 2, 1),
        ("analyze", 1, 0),
        ("explain", 1, 0),
        ("inspect", 1, 0),
    ];
    for (op, requests, errors) in per_op {
        assert_eq!(u64_at(result, &["ops", op, "requests"]), requests, "{op} requests");
        assert_eq!(u64_at(result, &["ops", op, "errors"]), errors, "{op} errors");
    }
    assert!(result.get("ops").and_then(|ops| ops.get("stats")).is_none());

    let metrics: Value =
        serde_json::from_str(&send(r#"{"id":18,"op":"metrics"}"#)).expect("metrics is JSON");
    let text = metrics
        .get("result")
        .and_then(|r| r.get("text"))
        .and_then(Value::as_str)
        .expect("metrics text");
    assert!(text.contains("probterm_requests_total{op=\"lower\"} 7\n"), "{text}");
    assert!(text.contains("probterm_requests_total{op=\"stats\"} 1\n"), "{text}");
    assert!(text.contains("probterm_requests_total{op=\"simulate\"} 1\n"), "{text}");
    assert!(text.contains("probterm_cache_hits_total 2\n"), "{text}");
    assert!(text.contains("probterm_cache_misses_total 7\n"), "{text}");
    assert!(text.contains("# TYPE probterm_request_duration_microseconds summary"), "{text}");

    assert!(!server.state().shutdown_requested());
    assert_eq!(mask(&send(SHUTDOWN)), SHUTDOWN_GOLDEN);
    assert!(server.state().shutdown_requested());
    assert_eq!(server.state().stats().served, requests.len() as u64 + 3);

    // One trace record per request, in order: the id echoed, every phase
    // timed, and a 16-hex-digit canonical key exactly on keyed requests —
    // the same key for the miss, the hit and the α-renamed hit.
    let text = String::from_utf8(trace.0.lock().expect("trace buffer lock").clone())
        .expect("trace is UTF-8");
    let mut keys = Vec::new();
    let summary: Vec<String> = text
        .lines()
        .enumerate()
        .map(|(i, line)| {
            let record: Value = serde_json::from_str(line).expect("trace record is JSON");
            assert_eq!(u64_at(&record, &["seq"]), i as u64 + 1, "{line}");
            for phase in ["queue_us", "cache_us", "engine_us", "serialize_us", "total_us"] {
                u64_at(&record, &[phase]);
            }
            let show = |name: &str| match record.get(name) {
                Some(Value::Str(s)) => s.clone(),
                Some(Value::UInt(n)) => n.to_string(),
                _ => "-".to_string(),
            };
            let key = show("canonical_key");
            let keyed = key != "-";
            if keyed {
                assert!(key.len() == 16 && key.chars().all(|c| c.is_ascii_hexdigit()), "{line}");
            }
            keys.push(key);
            format!("{} {} {} {} {keyed}", show("id"), show("op"), show("outcome"), show("cache"))
        })
        .collect();
    assert_eq!(summary, TRACE_GOLDEN, "one trace record per request");
    assert!(keys[2] == keys[3] && keys[3] == keys[4], "{keys:?}");
}

#[test]
fn handle_line_replies_match_the_golden_transcript() {
    let (server, trace) = traced_server();
    check_transcript(&server, &trace, |line| {
        server.handle_line(line).expect("every non-blank line gets a reply")
    });
}

#[test]
fn tcp_replies_match_the_golden_transcript() {
    let (server, trace) = traced_server();
    let running = server.spawn_tcp("127.0.0.1:0").expect("bind loopback");
    let stream = TcpStream::connect(running.addr).expect("connect to test server");
    stream.set_nodelay(true).expect("set nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    check_transcript(&server, &trace, |line| {
        writer.write_all(format!("{line}\n").as_bytes()).expect("send request");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        reply.trim_end().to_string()
    });
    running.join().expect("clean shutdown");
}
