//! `analysis-655`: default `smo check`, `smo report` and
//! `smo sweep --runs 32` on 655-row datapaths; and the traced split of
//! those commands into layers.

use crate::harness::{read_all, Env, Outcome};
use crate::inputs::analysis_designs;
use crate::layers::Layers;
use crate::oracle::agrees;
use crate::stats::median;
use crate::trace::Tracer;
use smo_analyze::{check, lint, CheckOptions};
use smo_api::{parse_netlist, ParseLimits};
use smo_circuit::Circuit;
use smo_core::{
    critical_report, delay_sensitivities, min_cycle_time_with, race_analysis_at, sweep_cycle_time,
    timing_report, MlpOptions, SweepOptions, SweepParam, SweepReport, TimingModel,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The three commands, as run on every design.
pub const COMMANDS: [&str; 3] = ["check", "report", "sweep"];
/// `smo sweep --runs` of the workload.
pub const SWEEP_RUNS: usize = 32;

fn args(command: &str, path: &Path) -> Vec<String> {
    let mut a = vec![command.to_string(), path.to_string_lossy().into_owned()];
    if command == "sweep" {
        a.extend(["--runs".to_string(), SWEEP_RUNS.to_string()]);
    }
    a
}

/// Checks one command's output against the oracle's cycle time.
///
/// # Errors
///
/// What did not match.
pub fn check_output(command: &str, stdout: &[u8], oracle: f64) -> Result<(), String> {
    let text = std::str::from_utf8(stdout).map_err(|_| "output is not UTF-8".to_string())?;
    let first = text.lines().next().unwrap_or("");
    let (prefix, decimals) = match command {
        "check" => ("cycle time Tc = ", 6),
        "report" => ("optimal cycle time: ", 4),
        _ => ("base: Tc = ", 6),
    };
    let tc: f64 = first
        .strip_prefix(prefix)
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no `{prefix}` line"))?;
    if !agrees(tc, oracle, decimals) {
        return Err(format!("Tc {tc} but the certified LP says {oracle:.6}"));
    }
    if command == "check" && !text.lines().any(|l| l == "clean: no findings") {
        return Err("findings on a lint-clean datapath".into());
    }
    Ok(())
}

/// The untraced workload: every design gets `check`, `report` and
/// `sweep` in turn, one process at a time, for at least two passes.
///
/// # Errors
///
/// Set-up, oracle or process failures.
pub fn run(env: &Env) -> Result<Outcome, String> {
    let designs = analysis_designs(env.seed);
    let (setup_s, paths) = env.timed_setup(|dir| env.generate(&designs, dir), |_| Ok(()))?;
    let netlists = read_all(&paths)?;
    let refs: Vec<&str> = netlists.iter().map(String::as_str).collect();
    let tcs = env.oracle.cycle_times(&refs)?;

    let mut out = Outcome::default();
    let mut per_command: Vec<Vec<f64>> = vec![Vec::new(); COMMANDS.len()];
    let mut totals = Vec::new();
    let mut peaks = Vec::new();
    let mut first: Vec<Vec<Option<Vec<u8>>>> = vec![vec![None; COMMANDS.len()]; paths.len()];
    let start = Instant::now();
    let mut passes = 0;
    while passes < 2 || start.elapsed() < env.seconds {
        for (i, path) in paths.iter().enumerate() {
            let mut total = 0.0;
            let mut all_ok = true;
            for (c, command) in COMMANDS.iter().enumerate() {
                let a = args(command, path);
                let refs: Vec<&str> = a.iter().map(String::as_str).collect();
                let run = env.smo(&refs)?;
                let verdict = check_output(command, &run.stdout, tcs[i]);
                let repeat_ok = first[i][c].as_ref().is_none_or(|f| *f == run.stdout);
                let ok = run.success && verdict.is_ok() && repeat_ok;
                out.check(ok, || {
                    format!(
                        "smo {command} {}: exit ok {}, {verdict:?}, same bytes as first pass \
                         {repeat_ok}",
                        designs[i].file_name(),
                        run.success
                    )
                });
                if ok {
                    per_command[c].push(run.ms);
                    peaks.push(run.peak_mb);
                }
                all_ok &= ok;
                total += run.ms;
                first[i][c].get_or_insert(run.stdout);
            }
            if all_ok {
                totals.push(total);
            }
        }
        passes += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    crate::harness::push_e2e(
        &mut out,
        setup_s,
        &totals,
        elapsed,
        median(&peaks).unwrap_or(0.0),
    );
    for (c, command) in COMMANDS.iter().enumerate() {
        out.notes.push(format!(
            "{command}_ms_p50 = {:.3} ms ({} samples)",
            median(&per_command[c]).unwrap_or(f64::NAN),
            per_command[c].len()
        ));
    }
    out.notes.push(format!(
        "{} designs x {passes} passes; latency = check + report + sweep of one design",
        designs.len()
    ));
    Ok(out)
}

/// The bytes `smo sweep <netlist> --runs N` prints, mirroring the CLI.
pub fn render_sweep_text(report: &SweepReport) -> String {
    let mut out = format!(
        "base: Tc = {:.6} ({} cold pivots)\n",
        report.base_cycle_time, report.base_iterations
    );
    out.push_str(&format!(
        "{} warm re-solve(s): Tc in [{:.6}, {:.6}], mean {:.6}, {} total pivots\n",
        report.runs.len(),
        report.min_cycle_time,
        report.max_cycle_time,
        report.mean_cycle_time,
        report.warm_iterations
    ));
    if !report.breakpoints.is_empty() {
        let bps: Vec<String> = report
            .breakpoints
            .iter()
            .map(|b| format!("{b:.6}"))
            .collect();
        out.push_str(&format!("exact Tc*(Δ) breakpoints: {}\n", bps.join(", ")));
    }
    for run in &report.runs {
        out.push_str(&format!(
            "  run {:4}  param {:>12.6}  Tc {:>12.6}  pivots {:4}\n",
            run.index, run.value, run.cycle_time, run.iterations
        ));
    }
    out
}

/// The options default `smo sweep --runs N` runs with.
pub fn sweep_options() -> SweepOptions {
    SweepOptions {
        param: SweepParam::Delay { spread: 0.1 },
        runs: SWEEP_RUNS,
        ..Default::default()
    }
}

fn load(path: &Path) -> Result<Circuit, String> {
    let src = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    parse_netlist(&src, &ParseLimits::default()).map_err(|e| e.to_string())
}

/// In-process `check`, `report` and `sweep` of one design, each as a
/// traced request, plus the layers under them. Returns the three outputs
/// as the CLI would print them.
///
/// # Errors
///
/// Parse or solve failures.
pub fn traced_design(
    tracer: &mut Tracer,
    layers: &mut Layers,
    request: u64,
    path: &Path,
) -> Result<[String; 3], String> {
    let circuit = load(path)?;
    let check_text = tracer.span("cli.check", request, None, |t, root| {
        let report = t
            .span("analyze.check", request, Some(root), |_, _| {
                check(&circuit, &CheckOptions::default())
            })
            .map_err(|e| e.to_string())?;
        let lint_report = t.span("analyze.lint", request, Some(root), |_, _| lint(&circuit));
        let sol = t
            .span("check.solve", request, Some(root), |_, _| {
                min_cycle_time_with(&circuit, &MlpOptions::default())
            })
            .map_err(|e| e.to_string())?;
        let race = t.span("core.race", request, Some(root), |_, _| {
            race_analysis_at(&circuit, report.race().schedule())
        });
        layers.add("check.lp_pivots", sol.lp_iterations() as f64);
        if !lint_report.is_clean() || race.races().len() != report.race().races().len() {
            return Err("check layers disagree with the full check".to_string());
        }
        Ok(format!("{report}\n"))
    })?;
    let report_text = tracer.span("cli.report", request, None, |t, root| {
        let text = t
            .span("core.report", request, Some(root), |_, _| {
                timing_report(&circuit, &MlpOptions::default())
            })
            .map_err(|e| e.to_string())?;
        let sol = t
            .span("report.solve", request, Some(root), |_, _| {
                min_cycle_time_with(&circuit, &MlpOptions::default())
            })
            .map_err(|e| e.to_string())?;
        let model = TimingModel::build(&circuit).map_err(|e| e.to_string())?;
        t.span("core.critical", request, Some(root), |_, _| {
            critical_report(&circuit, &model)
        })
        .map_err(|e| e.to_string())?;
        t.span("core.sensitivity", request, Some(root), |_, _| {
            delay_sensitivities(&circuit, &model)
        })
        .map_err(|e| e.to_string())?;
        let solve_ms = t
            .durations_ms("report.solve")
            .last()
            .copied()
            .unwrap_or(0.0);
        layers.add("lp.pivots", sol.lp_iterations() as f64);
        layers.add(
            "lp.pivots_per_s",
            sol.lp_iterations() as f64 / (solve_ms / 1e3),
        );
        Ok::<_, String>(text)
    })?;
    let options = sweep_options();
    let sweep_text = tracer.span("cli.sweep", request, None, |t, root| {
        let reports = t
            .span("core.sweep", request, Some(root), |_, _| {
                sweep_cycle_time(std::slice::from_ref(&circuit), &options)
            })
            .map_err(|e| e.to_string())?;
        let report = reports.first().ok_or("sweep returned no report")?;
        layers.add(
            "core.sweep_warm_pivots_per_run",
            report.warm_iterations as f64 / options.runs as f64,
        );
        Ok::<_, String>(render_sweep_text(report))
    })?;
    let last = |name: &str| tracer.durations_ms(name).last().copied().unwrap_or(0.0);
    for (metric, span) in [
        ("analyze.lint_ms", "analyze.lint"),
        ("check.solve_ms", "check.solve"),
        ("core.race_ms", "core.race"),
        ("report.solve_ms", "report.solve"),
        ("core.critical_ms", "core.critical"),
        ("core.sensitivity_ms", "core.sensitivity"),
    ] {
        layers.add(metric, last(span));
    }
    layers.add(
        "core.sweep_ms_per_run",
        last("core.sweep") / options.runs as f64,
    );
    Ok([check_text, report_text, sweep_text])
}

/// The traced section: the seed's first design, each command once as a
/// process and once in-process, repeated while `budget` lasts.
///
/// # Errors
///
/// Set-up, oracle or process failures.
pub fn traced_section(
    env: &Env,
    tracer: &mut Tracer,
    layers: &mut Layers,
    out: &mut Outcome,
    budget: std::time::Duration,
) -> Result<(), String> {
    let designs: Vec<_> = analysis_designs(env.seed).into_iter().take(1).collect();
    let paths: Vec<PathBuf> = env.generate(&designs, &env.work.join("analysis"))?;
    let netlists = read_all(&paths)?;
    let refs: Vec<&str> = netlists.iter().map(String::as_str).collect();
    let tcs = env.oracle.cycle_times(&refs)?;
    let start = Instant::now();
    let mut request = 2000u64;
    while request == 2000 || start.elapsed() < budget {
        for (i, path) in paths.iter().enumerate() {
            request += 1;
            let traced = traced_design(tracer, layers, request, path)?;
            for (c, command) in COMMANDS.iter().enumerate() {
                let a = args(command, path);
                let refs: Vec<&str> = a.iter().map(String::as_str).collect();
                let run = env.smo(&refs)?;
                let verdict = check_output(command, &run.stdout, tcs[i]);
                out.check(run.success && verdict.is_ok(), || {
                    format!("traced: smo {command}: {verdict:?}")
                });
                out.check(traced[c].as_bytes() == run.stdout.as_slice(), || {
                    format!("traced: in-process {command} differs from `smo {command}` bytes")
                });
            }
        }
    }
    Ok(())
}
