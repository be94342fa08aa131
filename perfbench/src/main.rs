//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Builds the release `smo` binary from the checkout it runs in, runs one
//! workload (untraced: end-to-end metrics) or the traced layer split
//! (`--trace 1`: per-layer metrics), and prints one JSON result object as
//! the last line of standard output. Run from the repository root.

use perfbench::harness::{Env, Outcome, END_TO_END};
use perfbench::layers::Layers;
use perfbench::oracle::Oracle;
use perfbench::trace::Tracer;
use perfbench::{analysis, serve, solve, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} value `{value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds: f64 = seconds.unwrap_or(20.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Builds `smo` in release mode from the checkout in the working
/// directory and returns the binary's path.
fn build_smo(target: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--bin",
            "smo",
            "--target-dir",
        ])
        .arg(target)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("building the smo binary failed".into());
    }
    Ok(target.join("release").join("smo"))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let target = PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into()),
    );
    let smo = build_smo(&target)?;
    let root = target.join("perfbench");
    let mode = if args.trace { "traced" } else { "untraced" };
    let work = root.join(format!("{}-seed{}-{mode}", args.workload, args.seed));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let env = Env {
        smo,
        work: work.clone(),
        oracle: Oracle::new(root.join("oracle")),
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
    };
    let outcome = if args.trace {
        traced(
            &env,
            &root.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed)),
        )?
    } else {
        let out = match args.workload.as_str() {
            "solve-10k" => solve::run(&env)?,
            "analysis-655" => analysis::run(&env)?,
            _ => serve::run(&env)?,
        };
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        if names != expected {
            return Err(format!("metric list {names:?} differs from {expected:?}"));
        }
        out
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("available parallelism: {cores}");
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        println!("{:32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.result_json());
    Ok(())
}

/// The traced run: every layer of all three workloads, each section
/// getting a third of the measurement window; spans go to `spans_path`.
fn traced(env: &Env, spans_path: &Path) -> Result<Outcome, String> {
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let mut out = Outcome::default();
    let share = env.seconds / 3;
    solve::traced_section(env, &mut tracer, &mut layers, &mut out, share)?;
    analysis::traced_section(env, &mut tracer, &mut layers, &mut out, share)?;
    serve::traced_section(env, &mut tracer, &mut layers, &mut out, share)?;
    tracer
        .write_jsonl(spans_path)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    out.metrics = layers.report()?;
    let pipeline = layers.median("solve.pipeline_ms").unwrap_or(f64::NAN);
    out.notes.push(format!(
        "solve-10k pipeline {pipeline:.3} ms; layer shares (median layer / median pipeline):"
    ));
    for name in [
        "circuit.parse_ms",
        "core.model_ms",
        "core.classify_ms",
        "lp.graph_build_ms",
        "lp.min_ratio_ms",
        "core.assemble_ms",
        "core.render_ms",
    ] {
        let v = layers.median(name).unwrap_or(f64::NAN);
        out.notes.push(format!(
            "  {name:24} {v:10.3} ms  {:6.2}%",
            100.0 * v / pipeline
        ));
    }
    out.notes.push(format!(
        "{} spans written to {}",
        tracer.spans().len(),
        spans_path.display()
    ));
    Ok(out)
}
