//! `paper-lower`: the paper's Tables 1 and 2 as a user runs them, one
//! `probterm` process per row, one row at a time.

use crate::gen::{paper_rows, setup_row, spell, Rng, Row, RowKind, SPELLINGS};
use crate::report::{quantile_note, Report};
use crate::stats::{median, quantile};
use crate::trace::{replay, report_layers, LayerInputs, LowerProgram, Tracer};
use crate::Ctx;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Latency limit of a row without a deadline.
const ROW_LIMIT_MS: f64 = 10_000.0;
/// Limit of a deadline-bounded row: `deadline × 1.1 + slack`, the slack
/// covering process start and exit.
const DEADLINE_SLACK_MS: f64 = 25.0;
/// Passes always run, whatever `--seconds` says, so that the medians over
/// passes have a middle.
const MIN_PASSES: usize = 3;
/// Cold starts timed as the set-up.
const SETUPS: usize = 15;

/// One row as run.
struct RowRun {
    latency_ms: f64,
    ok: bool,
    bound: Option<f64>,
}

fn cli_args(row: &Row, program: &str) -> Vec<String> {
    let mut args = Vec::new();
    match row.kind {
        RowKind::Lower { depth, .. } => {
            args.extend([
                "lower".into(),
                "-e".into(),
                program.into(),
                "--depth".into(),
            ]);
            args.push(depth.to_string());
        }
        RowKind::Deadline {
            depth, deadline_ms, ..
        } => {
            args.extend([
                "lower".into(),
                "-e".into(),
                program.into(),
                "--depth".into(),
            ]);
            args.extend([
                depth.to_string(),
                "--deadline-ms".into(),
                deadline_ms.to_string(),
            ]);
        }
        RowKind::Verify { .. } => args.extend(["verify".into(), "-e".into(), program.into()]),
    }
    args
}

/// The row's request line, for the in-process service-layer replay.
fn request_line(row: &Row, program: &str) -> String {
    match row.kind {
        RowKind::Lower { depth, .. } => {
            format!(r#"{{"op":"lower","program":"{program}","depth":{depth}}}"#)
        }
        RowKind::Deadline {
            depth, deadline_ms, ..
        } => format!(
            r#"{{"op":"lower","program":"{program}","depth":{depth},"deadline_ms":{deadline_ms}}}"#
        ),
        RowKind::Verify { .. } => format!(r#"{{"op":"verify","program":"{program}"}}"#),
    }
}

/// Checks a row's output against its reference; returns the bound it
/// certified, if any.
fn check(row: &Row, stdout: &str) -> Result<Option<f64>, String> {
    let text = stdout.trim();
    let bound = || -> Result<(String, f64), String> {
        let digits = text
            .strip_prefix("Pterm >= ")
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or("no `Pterm >=` line")?;
        let value = digits.parse::<f64>().map_err(|_| "bound is not a number")?;
        Ok((digits.to_string(), value))
    };
    match row.kind {
        RowKind::Lower { pinned, pterm, .. } => {
            let (digits, value) = bound()?;
            if digits != pinned {
                return Err(format!("bound {digits} differs from the pinned {pinned}"));
            }
            if value > pterm + 1e-12 {
                return Err(format!("bound {digits} exceeds Pterm {pterm}"));
            }
            Ok(Some(value))
        }
        RowKind::Deadline { pterm, .. } => {
            let (digits, value) = bound()?;
            if value > pterm + 1e-12 {
                return Err(format!("bound {digits} exceeds Pterm {pterm}"));
            }
            Ok(Some(value))
        }
        RowKind::Verify { papprox } => {
            let expected = format!("P_approx = {papprox} (");
            if text.starts_with(&expected) && text.ends_with(": AST") {
                Ok(None)
            } else {
                Err(format!("expected `{expected}…: AST`"))
            }
        }
    }
}

fn run_row(ctx: &Ctx, report: &mut Report, row: &Row, program: &str, id: &str) -> RowRun {
    let start = Instant::now();
    let output = Command::new(&ctx.probterm)
        .args(cli_args(row, program))
        .stdin(Stdio::null())
        .output();
    let latency_ms = start.elapsed().as_secs_f64() * 1e3;
    let op = match row.kind {
        RowKind::Verify { .. } => "verify",
        RowKind::Lower { .. } => "lower",
        RowKind::Deadline { .. } => "lower_deadline",
    };
    let outcome = match output {
        Err(e) => Err((format!("spawn failed: {e}"), String::new(), false)),
        Ok(out) => {
            let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
            if !out.status.success() {
                let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
                Err((format!("exit {}", out.status), stderr, false))
            } else {
                check(row, &stdout).map_err(|why| (why, stdout, true))
            }
        }
    };
    match outcome {
        Ok(bound) => {
            report.ok();
            RowRun {
                latency_ms,
                ok: true,
                bound,
            }
        }
        Err((why, reply, wrong)) => {
            report.fail(op, id, &format!("{} {why}", row.name), &reply, wrong);
            RowRun {
                latency_ms,
                ok: false,
                bound: None,
            }
        }
    }
}

fn limit_ms(row: &Row) -> f64 {
    match row.kind {
        RowKind::Deadline { deadline_ms, .. } => deadline_ms as f64 * 1.1 + DEADLINE_SLACK_MS,
        _ => ROW_LIMIT_MS,
    }
}

/// Peak resident set of any child process waited for so far, in MiB.
fn children_peak_rss_mb() -> f64 {
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a properly aligned, writable `struct rusage` with
    // the Linux layout (two `timeval`s then fourteen `long`s), which is all
    // `getrusage` writes to.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// The untraced run: set-up, then whole passes until `--seconds` is spent.
pub fn run(ctx: &Ctx, report: &mut Report) {
    let mut rng = Rng::new(ctx.seed);
    let setup = setup_row();
    let mut setups = Vec::new();
    let mut within = 0usize;
    for i in 0..SETUPS {
        let program = spell(setup.template, rng.below(SPELLINGS));
        let run = run_row(ctx, report, &setup, &program, &format!("setup{i}"));
        if run.ok && run.latency_ms <= limit_ms(&setup) {
            within += 1;
        }
        setups.push(run.latency_ms / 1e3);
    }
    let rows = paper_rows();
    let mut latencies = Vec::new();
    let mut pass_ms = Vec::new();
    let mut slowest_ms = Vec::new();
    let mut deadline_ratios = Vec::new();
    let mut ok_rows = 0usize;
    let mut gaps: Vec<Option<f64>> = vec![None; rows.len()];
    let start = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES || start.elapsed().as_secs_f64() < ctx.seconds {
        let mut order: Vec<usize> = (0..rows.len()).collect();
        rng.shuffle(&mut order);
        let pass_start = latencies.len();
        for i in order {
            let row = &rows[i];
            let program = spell(row.template, rng.below(SPELLINGS));
            let run = run_row(
                ctx,
                report,
                row,
                &program,
                &format!("pass{passes}/{}", row.name),
            );
            latencies.push(run.latency_ms);
            if run.ok {
                ok_rows += 1;
                if run.latency_ms <= limit_ms(row) {
                    within += 1;
                }
            }
            match row.kind {
                RowKind::Lower { pterm, .. } if passes == 0 => {
                    gaps[i] = Some(pterm - run.bound.unwrap_or(0.0));
                }
                RowKind::Deadline { deadline_ms, .. } if run.ok => {
                    deadline_ratios.push(run.latency_ms / deadline_ms as f64);
                }
                _ => {}
            }
        }
        let pass = &latencies[pass_start..];
        pass_ms.push(pass.iter().sum::<f64>());
        slowest_ms.push(pass.iter().copied().fold(0.0, f64::max));
        passes += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let rows_run = latencies.len();
    report.detail(format!(
        "paper-lower: {passes} passes of {} rows in {elapsed:.3} s",
        rows.len()
    ));

    report.metric(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {SETUPS} cold CLI starts to first reply"),
    );
    report.metric(
        "ok_share",
        report.ok_share(),
        "share",
        format!(
            "rows ok and matching their reference; n={}",
            report.attempted
        ),
    );
    report.metric(
        "peak_rss_mb",
        children_peak_rss_mb(),
        "MiB",
        "ru_maxrss over the CLI processes",
    );
    report.metric(
        "rps",
        ok_rows as f64 / elapsed,
        "1/s",
        format!("ok rows per second over {passes} passes"),
    );
    // The unit of work is one pass: the time to reproduce the tables, and
    // the longest single row a user waits for in it.
    report.metric(
        "latency_p50_ms",
        median(&pass_ms),
        "ms",
        format!("median pass wall time; n={passes} passes"),
    );
    report.metric(
        "latency_tail_ms",
        median(&slowest_ms),
        "ms",
        format!("median over passes of the slowest row's wall time; n={passes} passes"),
    );
    report.metric(
        "lb_gap",
        gaps.iter().flatten().sum::<f64>(),
        "prob",
        format!(
            "sum of Pterm - bound over {} Table 1 and nonlinear rows",
            gaps.iter().flatten().count()
        ),
    );
    report.metric(
        "slo_share",
        within as f64 / (rows_run + SETUPS) as f64,
        "share",
        format!(
            "rows ok within 10 s, or deadline x 1.1 + {DEADLINE_SLACK_MS} ms; n={}",
            rows_run + SETUPS
        ),
    );
    let ratio50 = quantile(&deadline_ratios, 0.5);
    let ratio90 = quantile(&deadline_ratios, 0.9);
    report.metric(
        "deadline_ratio_p50",
        ratio50.map_or(0.0, |q| q.value),
        "ratio",
        quantile_note(ratio50, "CLI reply time / deadline"),
    );
    report.metric(
        "deadline_ratio_p90",
        ratio90.map_or(0.0, |q| q.value),
        "ratio",
        quantile_note(ratio90, "CLI reply time / deadline"),
    );
}

/// The traced run: one untraced pass, then one pass with every CLI row
/// timed as a span, then the same programs replayed in-process through each
/// layer.
pub fn run_traced(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) {
    let mut rng = Rng::new(ctx.seed);
    let rows = paper_rows();
    let mut order: Vec<usize> = (0..rows.len()).collect();
    rng.shuffle(&mut order);
    let programs: Vec<String> = rows
        .iter()
        .map(|row| spell(row.template, rng.below(SPELLINGS)))
        .collect();

    let mut deadline_ratios = Vec::new();
    let mut untraced = 0.0;
    for &i in &order {
        let run = run_row(
            ctx,
            report,
            &rows[i],
            &programs[i],
            &format!("untraced/{}", rows[i].name),
        );
        untraced += run.latency_ms;
        if let RowKind::Deadline { deadline_ms, .. } = rows[i].kind {
            deadline_ratios.push(run.latency_ms / deadline_ms as f64);
        }
    }
    let mut cli_ms = vec![0.0; rows.len()];
    for &i in &order {
        let span = tracer.begin(None, "probterm.cli", rows[i].name);
        run_row(
            ctx,
            report,
            &rows[i],
            &programs[i],
            &format!("traced/{}", rows[i].name),
        );
        cli_ms[i] = tracer.end(span).as_secs_f64() * 1e3;
        if let RowKind::Deadline { deadline_ms, .. } = rows[i].kind {
            deadline_ratios.push(cli_ms[i] / deadline_ms as f64);
        }
    }
    let traced: f64 = cli_ms.iter().sum();
    for (name, q) in [
        ("bench.deadline_ratio_p50", 0.5),
        ("bench.deadline_ratio_p90", 0.9),
    ] {
        let ratio = quantile(&deadline_ratios, q);
        report.metric(
            name,
            ratio.map_or(0.0, |r| r.value),
            "ratio",
            quantile_note(ratio, "CLI reply time / deadline"),
        );
    }

    let mut inputs = LayerInputs::default();
    for (row, program) in rows.iter().zip(&programs) {
        match row.kind {
            RowKind::Lower { depth, .. } => inputs.lower.push(LowerProgram {
                label: row.name.to_string(),
                source: program.clone(),
                depth,
            }),
            RowKind::Verify { .. } => inputs.verify.push((row.name.to_string(), program.clone())),
            RowKind::Deadline { .. } => {}
        }
        inputs.sources.push(program.clone());
    }
    for _ in 0..MIN_PASSES {
        for &i in &order {
            inputs.lines.push(request_line(&rows[i], &programs[i]));
        }
    }
    let layers = replay(tracer, &inputs);

    let mut cli_self = 0.0;
    for split in &layers.lower {
        let i = rows
            .iter()
            .position(|r| r.name == split.label)
            .expect("row of its own split");
        let own = cli_ms[i] - split.lower_bound_ms;
        cli_self += own;
        report.detail(format!(
            "cli {:<18} cli_wall_ms={:.3} cli_ms={own:.3}",
            split.label, cli_ms[i]
        ));
    }
    report.metric(
        "probterm.cli_ms",
        cli_self,
        "ms",
        format!(
            "CLI wall time minus in-process lower_bound, summed over {} rows",
            layers.lower.len()
        ),
    );
    report_layers(report, &layers);
    report.metric(
        "bench.trace_overhead",
        traced / untraced,
        "ratio",
        format!("traced / untraced CLI pass time ({traced:.1} / {untraced:.1} ms)"),
    );
}
