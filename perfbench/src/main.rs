//! The probterm benchmark: one workload per run, end-to-end metrics by
//! default, per-layer metrics with `--trace 1`.
//!
//! ```text
//! perfbench --workload <paper-lower|serve-hot|serve-cold> --seed N --seconds S --trace 0|1
//!           --probterm <path to the probterm binary> [--out DIR] [--rev REVISION]
//! ```
//!
//! `perfbench/run.py` builds both binaries from source and passes the
//! paths; see `perfbench/README.md` for what every metric means.

mod gen;
mod paper;
mod report;
mod serve;
mod stats;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics every workload reports, with their units.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MiB"),
    ("rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("lb_gap", "prob"),
    ("slo_share", "share"),
];

/// The per-layer metrics every traced run reports, with their units.
const PER_LAYER: [(&str, &str); 40] = [
    ("probterm.cli_ms", "ms"),
    ("spcf.parse_us", "us"),
    ("spcf.canon_us", "us"),
    ("intervalsem.explore_ms", "ms"),
    ("intervalsem.steps", "count"),
    ("intervalsem.forks", "count"),
    ("intervalsem.frontier", "count"),
    ("intervalsem.measure_exact_ms", "ms"),
    ("intervalsem.paths_exact", "count"),
    ("intervalsem.measure_boxes_ms", "ms"),
    ("intervalsem.paths_boxed", "count"),
    ("numerics.accumulate_ms", "ms"),
    ("numerics.bound_bits", "bits"),
    ("intervalsem.lower_bound_ms", "ms"),
    ("intervalsem.residual_ms", "ms"),
    ("astver.tree_ms", "ms"),
    ("astver.verify_ms", "ms"),
    ("astver.strategies", "count"),
    ("service.parse_request_us", "us"),
    ("service.cache_get_us", "us"),
    ("service.cache_put_us", "us"),
    ("service.handle_line_us", "us"),
    ("service.queue_ms.p50", "ms"),
    ("service.queue_ms.p99", "ms"),
    ("service.cache_ms", "ms"),
    ("service.serialize_ms", "ms"),
    ("service.engine_ms.verify.p50", "ms"),
    ("service.engine_ms.lower.p50", "ms"),
    ("service.engine_ms.analyze.p50", "ms"),
    ("service.engine_ms.explain.p50", "ms"),
    ("service.engine_ms.lower_deadline.p50", "ms"),
    ("service.engine_ms.p99", "ms"),
    ("service.transport_ms", "ms"),
    ("service.hit_share", "share"),
    ("service.shed", "count"),
    ("service.coalesced", "count"),
    ("bench.late_p99_ms", "ms"),
    ("bench.deadline_ratio_p50", "ratio"),
    ("bench.deadline_ratio_p90", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// What a run was asked to do.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub probterm: PathBuf,
    pub out_dir: PathBuf,
    pub rev: String,
}

fn parse_args() -> Result<Ctx, String> {
    let mut args = std::env::args().skip(1);
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        probterm: PathBuf::new(),
        out_dir: PathBuf::from("perfbench/out"),
        rev: "unknown".into(),
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<f64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => ctx.workload = value.clone(),
            "--seed" => ctx.seed = value.parse().map_err(|_| format!("--seed: {value}"))?,
            "--seconds" => ctx.seconds = number()?,
            "--trace" => ctx.trace = number()? != 0.0,
            "--probterm" => ctx.probterm = PathBuf::from(&value),
            "--out" => ctx.out_dir = PathBuf::from(&value),
            "--rev" => ctx.rev = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["paper-lower", "serve-hot", "serve-cold"].contains(&ctx.workload.as_str()) {
        return Err(format!("unknown workload `{}`", ctx.workload));
    }
    if !ctx.probterm.is_file() {
        return Err(format!("no probterm binary at {}", ctx.probterm.display()));
    }
    Ok(ctx)
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.out_dir.display());
        return ExitCode::from(2);
    }
    let mut report = Report::new(&ctx.workload);
    let mut tracer = trace::Tracer::default();
    let outcome = match (ctx.workload.as_str(), ctx.trace) {
        ("paper-lower", false) => {
            paper::run(&ctx, &mut report);
            Ok(())
        }
        ("paper-lower", true) => {
            paper::run_traced(&ctx, &mut report, &mut tracer);
            Ok(())
        }
        (workload, false) => serve::run(&ctx, &mut report, workload == "serve-hot"),
        (workload, true) => {
            serve::run_traced(&ctx, &mut report, &mut tracer, workload == "serve-hot")
        }
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", ctx.workload);
        return ExitCode::from(1);
    }
    if report.attempted == 0 {
        eprintln!("perfbench: {} attempted nothing", ctx.workload);
        return ExitCode::from(1);
    }
    let wanted: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in wanted {
        if !report.has_metric(name) {
            report.metric(name, 0.0, unit, "not exercised by this workload");
        }
    }
    if let Some((name, unit)) = report.unit_mismatch(wanted) {
        eprintln!("perfbench: metric {name} is not reported in {unit}");
        return ExitCode::from(1);
    }
    if ctx.trace {
        let spans = ctx
            .out_dir
            .join(format!("{}-{}.spans.jsonl", ctx.workload, ctx.seed));
        match tracer.write(&spans) {
            Ok(()) => report.detail(format!("spans written to {}", spans.display())),
            Err(e) => report.detail(format!("spans not written: {e}")),
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let stamp = format!(
        "rev={} nproc={nproc} profile={profile} seed={}",
        ctx.rev, ctx.seed
    );
    let names: Vec<&str> = wanted.iter().map(|(name, _)| *name).collect();
    report.print(&stamp, &names);
    ExitCode::SUCCESS
}
