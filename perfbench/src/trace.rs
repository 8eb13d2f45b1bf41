//! The traced run's instrument: spans recorded around calls into each
//! layer's public functions, kept in memory and written out when the run
//! ends, plus the in-process replay of a workload's inputs through those
//! layers.

use crate::stats::median;
use probterm_astver::{build_tree, verify_ast};
use probterm_intervalsem::{explore, lower_bound, LowerBoundConfig};
use probterm_numerics::Rational;
use probterm_service::protocol::parse_request;
use probterm_service::{CacheKey, ResultCache, Server, ServerConfig};
use probterm_spcf::parse_term;
use serde::Value;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call. Spans of one row or request share a parent.
#[derive(Clone, Debug)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    pub label: String,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, parent: Option<usize>, name: &'static str, label: &str) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            parent,
            name,
            label: label.to_string(),
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration.
    pub fn end(&mut self, id: usize) -> Duration {
        let now = self.epoch.elapsed();
        let span = &mut self.spans[id];
        span.end = now;
        span.dur()
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        label: &str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.begin(parent, name, label);
        let out = std::hint::black_box(f());
        (out, self.end(id))
    }

    /// Self time of every span: its duration minus its children's.
    fn self_times(&self) -> Vec<Duration> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.dur();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| s.dur().saturating_sub(c))
            .collect()
    }

    /// Self times of every span called `name`, in microseconds.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let self_times = self.self_times();
        self.spans
            .iter()
            .zip(self_times)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t.as_secs_f64() * 1e6)
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_time)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"parent":{parent},"name":"{}","label":{},"start_us":{},"dur_us":{},"self_us":{}}}"#,
                s.name,
                serde_json::to_string(&s.label).unwrap_or_else(|_| "null".into()),
                s.start.as_micros(),
                s.dur().as_micros(),
                self_time.as_micros()
            )?;
        }
        out.flush()
    }
}

/// A program whose lower bound the replay measures layer by layer.
pub struct LowerProgram {
    pub label: String,
    pub source: String,
    pub depth: usize,
}

/// A workload's inputs as the in-process replay sees them.
#[derive(Default)]
pub struct LayerInputs {
    pub lower: Vec<LowerProgram>,
    /// `(label, source)` of every program the AST verifier runs on.
    pub verify: Vec<(String, String)>,
    /// Every program text the workload sends (parse and canonicalisation).
    pub sources: Vec<String>,
    /// Request lines for `parse_request` and the cache replay, in the
    /// workload's order.
    pub lines: Vec<String>,
    /// Lines handled in-process before timing `handle_lines` (a warm cache).
    pub warm_lines: Vec<String>,
    /// Lines timed through the in-process `handle_line`.
    pub handle_lines: Vec<String>,
}

/// One lower-bound program's layer split, in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct LowerSplit {
    pub label: String,
    pub lower_bound_ms: f64,
    pub explore_ms: f64,
    pub exact_ms: f64,
    pub boxes_ms: f64,
    pub accumulate_ms: f64,
    pub paths_exact: u64,
    pub paths_boxed: u64,
    pub steps: u64,
    pub forks: u64,
    pub frontier: u64,
    pub bound_bits: u64,
    /// `true` when the parts re-add to the engine's bound exactly.
    pub consistent: bool,
}

impl LowerSplit {
    /// The share of `lower_bound_ms` none of the parts accounts for.
    pub fn residual_ms(&self) -> f64 {
        self.lower_bound_ms - self.explore_ms - self.exact_ms - self.boxes_ms - self.accumulate_ms
    }
}

/// Everything the replay measured.
#[derive(Default)]
pub struct LayerResult {
    pub lower: Vec<LowerSplit>,
    pub tree_ms: f64,
    pub verify_ms: f64,
    pub strategies: u64,
    pub verify_errors: Vec<String>,
    pub parse_us: Vec<f64>,
    pub canon_us: Vec<f64>,
    pub parse_request_us: Vec<f64>,
    pub cache_get_us: Vec<f64>,
    pub cache_put_us: Vec<f64>,
    pub handle_line_us: Vec<f64>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Replays `inputs` through each layer's public functions, one span per call.
pub fn replay(tracer: &mut Tracer, inputs: &LayerInputs) -> LayerResult {
    let mut result = LayerResult::default();
    for source in &inputs.sources {
        let (term, _) = tracer.time(None, "spcf.parse_term", source, || parse_term(source));
        if let Ok(term) = term {
            tracer.time(None, "spcf.canonical_key", source, || term.canonical_key());
        }
    }
    result.parse_us = tracer.self_us("spcf.parse_term");
    result.canon_us = tracer.self_us("spcf.canonical_key");

    for program in &inputs.lower {
        result.lower.push(split_lower(tracer, program));
    }

    for (label, source) in &inputs.verify {
        let Ok(term) = parse_term(source) else {
            result
                .verify_errors
                .push(format!("{label}: does not parse"));
            continue;
        };
        let (tree, tree_time) = tracer.time(None, "astver.build_tree", label, || build_tree(&term));
        let (verdict, verify_time) =
            tracer.time(None, "astver.verify_ast", label, || verify_ast(&term));
        result.tree_ms += ms(tree_time);
        result.verify_ms += ms(verify_time);
        match (tree, verdict) {
            (Ok(_), Ok(v)) => result.strategies += v.strategies as u64,
            (tree, verdict) => result.verify_errors.push(format!(
                "{label}: tree {:?} verdict {:?}",
                tree.err(),
                verdict.err()
            )),
        }
    }

    let mut cache = ResultCache::new(1024);
    for line in &inputs.lines {
        let (request, _) = tracer.time(None, "service.parse_request", line, || parse_request(line));
        let Ok(request) = request else { continue };
        let Some(term) = request.program.as_deref().and_then(|p| parse_term(p).ok()) else {
            continue;
        };
        let key = cache_key(&request, term.canonical_key());
        let (hit, _) = tracer.time(None, "service.cache_get", line, || cache.get(&key));
        if hit.is_none() {
            let payload = Value::Object(vec![("line".into(), Value::Str(line.clone()))]);
            tracer.time(None, "service.cache_put", line, || cache.put(key, payload));
        }
    }
    result.parse_request_us = tracer.self_us("service.parse_request");
    result.cache_get_us = tracer.self_us("service.cache_get");
    result.cache_put_us = tracer.self_us("service.cache_put");

    if !inputs.handle_lines.is_empty() {
        let server = Server::new(ServerConfig::default());
        for line in &inputs.warm_lines {
            server.handle_line(line);
        }
        for line in &inputs.handle_lines {
            tracer.time(None, "service.handle_line", line, || {
                server.handle_line(line)
            });
        }
        result.handle_line_us = tracer.self_us("service.handle_line");
    }
    result
}

/// The cache key the service derives for a request (same fields, same
/// configuration rendering).
fn cache_key(request: &probterm_service::Request, term: u128) -> CacheKey {
    let depth = request.depth.unwrap_or(120);
    let (analysis, config) = match request.op.as_str() {
        "verify" => ("verify", String::new()),
        "lower" => ("lower", format!("depth={depth}")),
        "explain" => (
            "explain",
            format!(
                "depth={depth};top={}",
                request.top.map_or("all".to_string(), |t| t.to_string())
            ),
        ),
        _ => (
            "analyze",
            format!("depth={depth};runs=0;steps=20000;seed=2021"),
        ),
    };
    CacheKey {
        term,
        analysis,
        config,
    }
}

/// Times `lower_bound` on one program, then each of its parts as separate
/// calls: exploration, exact volumes, box sweeps and the accumulation.
fn split_lower(tracer: &mut Tracer, program: &LowerProgram) -> LowerSplit {
    let mut split = LowerSplit {
        label: program.label.clone(),
        ..Default::default()
    };
    let Ok(term) = parse_term(&program.source) else {
        return split;
    };
    let config = LowerBoundConfig::default().with_depth(program.depth);
    let row = tracer.begin(None, "row", &program.label);
    let (engine, t) = tracer.time(Some(row), "intervalsem.lower_bound", &program.label, || {
        lower_bound(&term, &config)
    });
    split.lower_bound_ms = ms(t);
    let (exploration, t) = tracer.time(Some(row), "intervalsem.explore", &program.label, || {
        explore(&term, &config.exploration())
    });
    split.explore_ms = ms(t);
    let mut volumes = Vec::with_capacity(exploration.terminated.len());
    for path in &exploration.terminated {
        let (exact, t) = tracer.time(Some(row), "intervalsem.exact_probability", "", || {
            path.exact_probability()
        });
        split.exact_ms += ms(t);
        let volume = match exact {
            Some(v) => {
                split.paths_exact += 1;
                v
            }
            None => {
                let (v, t) = tracer.time(Some(row), "intervalsem.box_lower_bound", "", || {
                    path.box_lower_bound(config.boxes_per_path)
                });
                split.boxes_ms += ms(t);
                split.paths_boxed += 1;
                v
            }
        };
        volumes.push((volume, path.steps));
    }
    let ((probability, expected_steps), t) =
        tracer.time(Some(row), "numerics.accumulate", &program.label, || {
            let mut probability = Rational::zero();
            let mut expected_steps = Rational::zero();
            for (volume, steps) in &volumes {
                expected_steps += volume * &Rational::from_int(*steps as i64);
                probability += volume.clone();
            }
            (probability, expected_steps)
        });
    split.accumulate_ms = ms(t);
    tracer.end(row);
    split.bound_bits = probability.denom().bits();
    split.consistent = probability == engine.probability && expected_steps == engine.expected_steps;
    // Counts come from a second, profiled exploration so that profiling
    // never inflates the timed one.
    let profiled = explore(&term, &config.exploration().with_profile(true));
    if let Some(profile) = profiled.profile {
        split.steps = profile.steps;
        split.forks = profile.forks;
        split.frontier = profile.max_frontier_depth;
    }
    split
}

/// Adds every per-layer metric the replay measured to `report`.
pub fn report_layers(report: &mut crate::report::Report, result: &LayerResult) {
    let sum = |f: &dyn Fn(&LowerSplit) -> f64| result.lower.iter().map(f).sum::<f64>();
    let n_lower = result.lower.len();
    let per = |what: &str| format!("{what}, summed over {n_lower} programs");
    report.metric(
        "spcf.parse_us",
        median(&result.parse_us),
        "us",
        format!("median of n={}", result.parse_us.len()),
    );
    report.metric(
        "spcf.canon_us",
        median(&result.canon_us),
        "us",
        format!("median of n={}", result.canon_us.len()),
    );
    report.metric(
        "intervalsem.explore_ms",
        sum(&|s| s.explore_ms),
        "ms",
        per("explore"),
    );
    report.metric(
        "intervalsem.steps",
        sum(&|s| s.steps as f64),
        "count",
        per("machine steps"),
    );
    report.metric(
        "intervalsem.forks",
        sum(&|s| s.forks as f64),
        "count",
        per("forks"),
    );
    report.metric(
        "intervalsem.frontier",
        result.lower.iter().map(|s| s.frontier).max().unwrap_or(0) as f64,
        "count",
        format!("largest BFS frontier over {n_lower} programs"),
    );
    report.metric(
        "intervalsem.measure_exact_ms",
        sum(&|s| s.exact_ms),
        "ms",
        per("exact volumes"),
    );
    report.metric(
        "intervalsem.paths_exact",
        sum(&|s| s.paths_exact as f64),
        "count",
        per("exactly measured paths"),
    );
    report.metric(
        "intervalsem.measure_boxes_ms",
        sum(&|s| s.boxes_ms),
        "ms",
        per("box sweeps"),
    );
    report.metric(
        "intervalsem.paths_boxed",
        sum(&|s| s.paths_boxed as f64),
        "count",
        per("box-swept paths"),
    );
    report.metric(
        "numerics.accumulate_ms",
        sum(&|s| s.accumulate_ms),
        "ms",
        per("rational accumulation"),
    );
    report.metric(
        "numerics.bound_bits",
        result.lower.iter().map(|s| s.bound_bits).max().unwrap_or(0) as f64,
        "bits",
        format!("largest bound denominator over {n_lower} programs"),
    );
    report.metric(
        "intervalsem.lower_bound_ms",
        sum(&|s| s.lower_bound_ms),
        "ms",
        per("lower_bound"),
    );
    report.metric(
        "intervalsem.residual_ms",
        sum(&LowerSplit::residual_ms),
        "ms",
        per("lower_bound minus its parts"),
    );
    let n_verify = result.strategies;
    report.metric(
        "astver.tree_ms",
        result.tree_ms,
        "ms",
        "build_tree, summed over the verify programs",
    );
    report.metric(
        "astver.verify_ms",
        result.verify_ms,
        "ms",
        "verify_ast, summed over the verify programs",
    );
    report.metric(
        "astver.strategies",
        n_verify as f64,
        "count",
        "strategies, summed over the verify programs",
    );
    for (name, samples, what) in [
        (
            "service.parse_request_us",
            &result.parse_request_us,
            "parse_request",
        ),
        (
            "service.cache_get_us",
            &result.cache_get_us,
            "ResultCache::get at capacity 1024",
        ),
        (
            "service.cache_put_us",
            &result.cache_put_us,
            "ResultCache::put at capacity 1024",
        ),
        (
            "service.handle_line_us",
            &result.handle_line_us,
            "in-process handle_line",
        ),
    ] {
        report.metric(
            name,
            median(samples),
            "us",
            format!("{what}; median of n={}", samples.len()),
        );
    }
    for split in &result.lower {
        report.detail(format!(
            "layers {:<18} lower_bound_ms={:.3} explore_ms={:.3} exact_ms={:.3} boxes_ms={:.3} accumulate_ms={:.3} residual_ms={:.3} paths_exact={} paths_boxed={} steps={} forks={} frontier={} bound_bits={}",
            split.label,
            split.lower_bound_ms,
            split.explore_ms,
            split.exact_ms,
            split.boxes_ms,
            split.accumulate_ms,
            split.residual_ms(),
            split.paths_exact,
            split.paths_boxed,
            split.steps,
            split.forks,
            split.frontier,
            split.bound_bits
        ));
    }
    for split in result.lower.iter().filter(|s| !s.consistent) {
        report.note_failure(
            "layers",
            &split.label,
            "parts do not re-add to the engine's bound",
            "",
            true,
        );
    }
    for error in &result.verify_errors {
        report.note_failure(
            "layers",
            "verify",
            "AST verifier failed in-process",
            error,
            true,
        );
    }
}
