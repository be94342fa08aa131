//! `solve-10k`: default `smo solve <netlist>` on 10k-row datapaths, one
//! process at a time; and the traced decomposition of that command into
//! its layers.

use crate::harness::{read_all, tail_note, Env, Outcome};
use crate::inputs::solve_designs;
use crate::layers::Layers;
use crate::oracle::agrees;
use crate::stats::median;
use crate::trace::Tracer;
use smo_api::{parse_netlist, ParseLimits};
use smo_circuit::Circuit;
use smo_core::{
    classify_model, min_cycle_time_with, render_solution, variable_images, Backend, MlpOptions,
    TimingModel, TimingSolution,
};
use smo_lp::{DifferenceSystem, MinParamOutcome, SolveBudget};
use std::path::Path;
use std::time::Instant;

/// Every design is solved at least this many times per run, so a run
/// always has repetitions to compare byte for byte.
const MIN_PASSES: usize = 2;

/// The untraced workload.
///
/// # Errors
///
/// Set-up, oracle or process failures (wrong answers are counted, not
/// errors).
pub fn run(env: &Env) -> Result<Outcome, String> {
    let designs = solve_designs(env.seed);
    let (setup_s, paths) = env.timed_setup(|dir| env.generate(&designs, dir), |_| Ok(()))?;
    let netlists = read_all(&paths)?;
    let refs: Vec<&str> = netlists.iter().map(String::as_str).collect();
    let tcs = env.oracle.cycle_times(&refs)?;

    let mut out = Outcome::default();
    let mut ms = Vec::new();
    let mut peaks = Vec::new();
    let mut first: Vec<Option<Vec<u8>>> = vec![None; paths.len()];
    let start = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES || start.elapsed() < env.seconds {
        for (i, path) in paths.iter().enumerate() {
            let run = env.smo(&["solve", &path.to_string_lossy()])?;
            let verdict = check_solve_text(&run.stdout, tcs[i]);
            let repeat_ok = first[i].as_ref().is_none_or(|f| *f == run.stdout);
            let ok = run.success && verdict.is_ok() && repeat_ok;
            out.check(ok, || {
                format!(
                    "smo solve {}: exit ok {}, {:?}, same bytes as first pass {repeat_ok}",
                    designs[i].file_name(),
                    run.success,
                    verdict
                )
            });
            if ok {
                ms.push(run.ms);
                peaks.push(run.peak_mb);
            }
            first[i].get_or_insert(run.stdout);
        }
        passes += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    crate::harness::push_e2e(
        &mut out,
        setup_s,
        &ms,
        elapsed,
        median(&peaks).unwrap_or(0.0),
    );
    let p50 = median(&ms).unwrap_or(0.0);
    out.notes.push(format!("solve_ms_p50 = {p50:.3} ms"));
    if let Some((v, note)) = tail_note("solve_ms_tail", &ms) {
        out.notes.push(format!("solve_ms_tail = {v:.3} ms; {note}"));
    }
    out.notes.push(format!(
        "{} designs x {passes} passes of `smo solve`",
        designs.len()
    ));
    Ok(out)
}

/// Checks `smo solve` text output against the oracle: the first line's
/// cycle time (6 decimals) and a `certified: true` line.
///
/// # Errors
///
/// What did not match.
pub fn check_solve_text(stdout: &[u8], oracle: f64) -> Result<(), String> {
    let text = std::str::from_utf8(stdout).map_err(|_| "output is not UTF-8".to_string())?;
    let tc: f64 = text
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("optimal cycle time: "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or("no `optimal cycle time:` line")?;
    if !agrees(tc, oracle, 6) {
        return Err(format!("Tc {tc:.6} but the certified LP says {oracle:.6}"));
    }
    if !text.lines().any(|l| l == "certified: true") {
        return Err("not certified".into());
    }
    Ok(())
}

/// The bytes `smo solve <netlist>` prints for a solution (the text form,
/// timing diagram included), mirroring the CLI.
pub fn render_solve_text(circuit: &Circuit, sol: &TimingSolution) -> String {
    let mut out = format!("optimal cycle time: {:.6}\n", sol.cycle_time());
    out.push_str(&format!(
        "backend: {}\n",
        if sol.graph_certificate().is_some() {
            "graph (exact min-cycle-ratio)"
        } else {
            "lp (simplex)"
        }
    ));
    out.push_str(&format!("certified: {}\n", sol.certified()));
    for (i, cert) in sol.certificates().iter().enumerate() {
        out.push_str(&format!("  lp {}: {cert}\n", i + 1));
    }
    if let Some(gc) = sol.graph_certificate() {
        out.push_str(&format!("  graph: {gc}\n"));
    }
    out.push_str(&render_solution(circuit, sol));
    out
}

/// The options default `smo solve` runs with.
pub fn cli_options() -> MlpOptions {
    MlpOptions {
        backend: Backend::Auto,
        ..Default::default()
    }
}

/// What one traced `smo solve` produced.
#[derive(Debug, Clone)]
pub struct TracedSolve {
    /// The rendered stdout bytes.
    pub text: String,
    /// The solution.
    pub cycle_time: f64,
    /// `λ*` of the standalone `minimize_param` call.
    pub min_ratio_lambda: Option<f64>,
}

/// One traced `smo solve`: the request pipeline (read, parse, solve,
/// render) as a span tree, then the solve's first four layers called one
/// by one under a `decompose` span of the same request. Layer samples go
/// to `layers`.
///
/// # Errors
///
/// Read, parse or solve failures.
pub fn traced_solve(
    tracer: &mut Tracer,
    layers: &mut Layers,
    request: u64,
    path: &Path,
) -> Result<TracedSolve, String> {
    let (circuit, bytes, sol, text) = tracer.span("cli.solve", request, None, |t, root| {
        let src = t
            .span("cli.read", request, Some(root), |_, _| {
                std::fs::read_to_string(path)
            })
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let circuit = t
            .span("circuit.parse", request, Some(root), |_, _| {
                parse_netlist(&src, &ParseLimits::default())
            })
            .map_err(|e| e.to_string())?;
        let sol = t
            .span("core.solve", request, Some(root), |_, _| {
                min_cycle_time_with(&circuit, &cli_options())
            })
            .map_err(|e| e.to_string())?;
        let text = t.span("core.render", request, Some(root), |_, _| {
            render_solve_text(&circuit, &sol)
        });
        Ok::<_, String>((circuit, src.len(), sol, text))
    })?;
    let lambda = tracer.span("decompose", request, None, |t, root| {
        let model = t
            .span("core.model", request, Some(root), |_, _| {
                TimingModel::build(&circuit)
            })
            .map_err(|e| e.to_string())?;
        let cls = t
            .span("core.classify", request, Some(root), |_, _| {
                classify_model(&circuit, &model)
            })
            .map_err(|e| e.to_string())?;
        let sys = t
            .span("lp.graph_build", request, Some(root), |_, _| {
                let images = variable_images(&circuit, &model);
                DifferenceSystem::build(model.problem(), &images, &cls)
            })
            .map_err(|e| e.to_string())?;
        let outcome = t
            .span("lp.min_ratio", request, Some(root), |_, _| {
                sys.minimize_param(&SolveBudget::UNLIMITED)
            })
            .map_err(|e| e.to_string())?;
        layers.add("core.model_rows", model.num_constraints() as f64);
        layers.add("core.classify_general_rows", cls.num_general() as f64);
        layers.add("lp.graph_nodes", sys.num_nodes() as f64);
        layers.add("lp.graph_arcs", sys.num_arcs() as f64);
        Ok::<_, String>(match outcome {
            MinParamOutcome::Optimal {
                lambda, witness, ..
            } => {
                layers.add(
                    "lp.min_ratio_witness_rows",
                    witness.map_or(0, |w| w.rows().len()) as f64,
                );
                Some(lambda)
            }
            MinParamOutcome::Infeasible(_) => None,
        })
    })?;
    let last = |t: &Tracer, name: &str| t.durations_ms(name).last().copied().unwrap_or(0.0);
    let parse = last(tracer, "circuit.parse");
    let solve = last(tracer, "core.solve");
    let render = last(tracer, "core.render");
    let split: f64 = [
        "core.model",
        "core.classify",
        "lp.graph_build",
        "lp.min_ratio",
    ]
    .iter()
    .map(|n| last(tracer, n))
    .sum();
    layers.add("circuit.parse_ms", parse);
    layers.add("circuit.parse_mb_s", bytes as f64 / 1e6 / (parse / 1e3));
    for (metric, span) in [
        ("core.model_ms", "core.model"),
        ("core.classify_ms", "core.classify"),
        ("lp.graph_build_ms", "lp.graph_build"),
        ("lp.min_ratio_ms", "lp.min_ratio"),
    ] {
        layers.add(metric, last(tracer, span));
    }
    layers.add("core.assemble_ms", solve - split);
    layers.add("core.update_iterations", sol.update_iterations() as f64);
    layers.add("core.render_ms", render);
    layers.add("core.render_bytes", text.len() as f64);
    layers.add("solve.pipeline_ms", parse + solve + render);
    layers.add(
        "lp.min_ratio_share",
        last(tracer, "lp.min_ratio") / (parse + solve + render),
    );
    Ok(TracedSolve {
        text,
        cycle_time: sol.cycle_time(),
        min_ratio_lambda: lambda,
    })
}

/// The same pipeline with no spans, timed as a whole (for the tracing
/// overhead). Returns milliseconds and the rendered bytes.
///
/// # Errors
///
/// Read, parse or solve failures.
pub fn untraced_solve(path: &Path) -> Result<(f64, String), String> {
    let t = Instant::now();
    let src = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let circuit = parse_netlist(&src, &ParseLimits::default()).map_err(|e| e.to_string())?;
    let sol = min_cycle_time_with(&circuit, &cli_options()).map_err(|e| e.to_string())?;
    let text = render_solve_text(&circuit, &sol);
    Ok((t.elapsed().as_secs_f64() * 1e3, text))
}

/// The traced section: for each of the first `designs` designs of the
/// seed, an untraced `smo solve` process, a traced in-process pipeline
/// and an untraced in-process pipeline, repeated while `budget` lasts.
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
    let designs: Vec<_> = solve_designs(env.seed).into_iter().take(2).collect();
    let paths = env.generate(&designs, &env.work.join("solve"))?;
    let netlists = read_all(&paths)?;
    let refs: Vec<&str> = netlists.iter().map(String::as_str).collect();
    let tcs = env.oracle.cycle_times(&refs)?;
    let mut cli_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let start = Instant::now();
    let mut request = 0u64;
    while request == 0 || start.elapsed() < budget {
        for (i, path) in paths.iter().enumerate() {
            request += 1;
            let cli = env.smo(&["solve", &path.to_string_lossy()])?;
            let verdict = check_solve_text(&cli.stdout, tcs[i]);
            out.check(cli.success && verdict.is_ok(), || {
                format!("traced: smo solve {}: {verdict:?}", designs[i].file_name())
            });
            cli_ms.push(cli.ms);
            let traced = traced_solve(tracer, layers, 1000 + request, path)?;
            traced_ms.push(
                tracer
                    .durations_ms("cli.solve")
                    .last()
                    .copied()
                    .unwrap_or(0.0),
            );
            out.check(traced.text.as_bytes() == cli.stdout.as_slice(), || {
                format!(
                    "traced: in-process solve of {} differs from `smo solve` bytes",
                    designs[i].file_name()
                )
            });
            out.check(
                traced
                    .min_ratio_lambda
                    .is_some_and(|l| (l - traced.cycle_time).abs() <= 1e-9 * (1.0 + l.abs())),
                || {
                    format!(
                        "traced: minimize_param λ* {:?} differs from Tc {}",
                        traced.min_ratio_lambda, traced.cycle_time
                    )
                },
            );
            let (ms, text) = untraced_solve(path)?;
            untraced_ms.push(ms);
            out.check(text == traced.text, || {
                "traced and untraced in-process solves differ".to_string()
            });
        }
    }
    let pipeline = layers.median("solve.pipeline_ms").unwrap_or(0.0);
    layers.add("cli.overhead_ms", median(&cli_ms).unwrap_or(0.0) - pipeline);
    layers.add(
        "trace.overhead_ms",
        median(&traced_ms).unwrap_or(0.0) - median(&untraced_ms).unwrap_or(0.0),
    );
    Ok(())
}
