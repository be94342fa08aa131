//! `smo` — command-line optimal-clocking tool.
//!
//! The 1990 implementation was "a simple parser, a dense-matrix LP solver
//! … and graphical output routines"; this binary is the same package around
//! the library:
//!
//! ```text
//! smo optimize <netlist>            minimum cycle time + optimal schedule
//! smo solve    <netlist>            certified minimum cycle time (KKT-checked LPs)
//! smo report   <netlist>            full timing report (slacks, critical segments)
//! smo verify   <netlist> Tc s1,w1 [s2,w2 …]   check a concrete schedule
//! smo simulate <netlist> [waves]    behavioural simulation at the optimum
//! smo dot      <netlist>            Graphviz export
//! smo lp       <netlist>            CPLEX LP-format dump of problem P2
//! smo lint     <netlist>            structural sanity checks
//! smo check    <netlist>            lint + solve + short-path race analysis
//! smo analyze  <netlist>            bracket vs graph vs certified-LP cross-check
//! smo diagnose <netlist> [--cycle-time T]   why is there no schedule at T?
//! smo sweep    <netlist> [--param tc|delay]  parameter sweep
//! ```
//!
//! Long-lived use goes through the daemon (same code path, same JSON):
//!
//! ```text
//! smo serve    [--addr A] [--workers N] [--queue N]   timing daemon
//! smo call     <addr> <cmd> [netlist] [flags]         one request to a daemon
//! smo bench-serve [--quick]                           daemon load test
//! ```
//!
//! Netlists use the `smo_circuit::netlist` text format; files containing
//! `gate`/`wire` lines are parsed gate-level and extracted automatically.

use smo::analyze::{analyze, check, diagnose, lint, AnalyzeError, CheckOptions, PassConfig, Rule};
use smo::api::{solve_json, sweep_json, ParseLimits};
use smo::circuit::EdgeId;
use smo::circuit::{lump_equivalent_latches, netlist, to_dot, Circuit, ClockSchedule};
use smo::gen::datapath::{pipelined_datapath, DatapathConfig};
use smo::lp::SimplexVariant;
use smo::sim::{monte_carlo, simulate, MonteCarloOptions, SimOptions};
use smo::timing::{
    graph_feasible_at, min_cycle_time, min_cycle_time_with, render_solution, sweep_cycle_time,
    timing_report, verify, Backend, MlpOptions, SweepOptions, SweepParam, TimingModel,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  smo optimize <netlist>                         minimum cycle time + schedule
  smo solve    <netlist> [--backend auto|graph|lp] [--no-certify]
               [--variant dense|sparse] [--max-input-mb N]
               [--time-limit <secs>] [--json]
                                                 minimum cycle time with every
                                                 solver verdict independently
                                                 checked: KKT certificates on
                                                 the simplex path, a re-checked
                                                 critical cycle on the graph
                                                 fast path (exit 1 if any
                                                 check cannot be satisfied);
                                                 `auto` (default) solves
                                                 difference-only models on the
                                                 graph and warm-starts the
                                                 simplex otherwise;
                                                 --max-input-mb N lifts the
                                                 netlist input limits to N MiB
                                                 (default 4; lines/elements
                                                 scale with it) for generated
                                                 100k-latch circuits
  smo gen      [--latches N | --stages S --width W] [--phases K] [--fanin F]
               [--delay-min A] [--delay-max B] [--seed S] [--out FILE]
                                                 seeded pipelined-datapath
                                                 generator: K-phase pipeline,
                                                 byte-identical netlist for
                                                 identical flags (stdout or
                                                 FILE); lint-clean by
                                                 construction, built for the
                                                 1k-100k-latch scaling range
  smo report   <netlist>                         full timing report
  smo verify   <netlist> <Tc> <s,w> [<s,w> ...] [--backend auto|graph|lp]
                                                 check a concrete schedule;
                                                 with the graph backend also
                                                 reports whether ANY schedule
                                                 exists at Tc (exit 2 if that
                                                 cross-check contradicts the
                                                 row-by-row verdict)
  smo simulate <netlist> [waves]                 behavioural simulation
  smo dot      <netlist>                         Graphviz export
  smo lp       <netlist>                         LP-format dump of problem P2
  smo lump     <netlist>                         bus-lumped netlist (stdout)
  smo lint     <netlist> [--json]                structural sanity checks
                                                 (exit 1 on error findings)
  smo check    <netlist> [--cycle-time T] [--backend auto|graph|lp] [--json]
               [--allow RULE] [--deny RULE]
                                                 one-shot static gate: every
                                                 lint pass + the cycle-time
                                                 solve + short-path race
                                                 analysis; each double-clocking
                                                 race carries a witness naming
                                                 the short path and the
                                                 clock-separation fix (error
                                                 if the short path is a
                                                 measured `mindelay`, warn
                                                 under the max-delay
                                                 assumption). --allow
                                                 suppresses a rule, --deny
                                                 escalates it to error; exit 2
                                                 on any error-severity finding
  smo analyze  <netlist> [--json]                combinatorial cycle-time
                                                 bracket, graph optimum and
                                                 certified sparse-LU LP
                                                 optimum, row classes; exit 2
                                                 if the cross-checks disagree
                                                 (an internal soundness bug)
  smo diagnose <netlist> [--cycle-time T] [--json]
                                                 minimum cycle time, or a
                                                 Farkas-certified explanation
                                                 of why T is unachievable
  smo montecarlo <netlist> <scale> [runs]        jittered-margin campaign at
                                                 scale × the optimal schedule
  smo sweep    <netlist> [--param tc|delay] [--runs N] [--jobs N] [--json]
               [--edge E] [--max-delay D] [--spread S] [--seed S]
               [--max-input-mb N]
                                                 cycle-time sweep, every run
                                                 the certified `smo solve`
                                                 default: `tc` grids one
                                                 edge's delay (exact
                                                 breakpoints included),
                                                 `delay` jitters every delay
                                                 by ±spread; output is
                                                 identical for any --jobs
  smo serve    [--addr A] [--workers N] [--queue N]
                                                 long-lived timing daemon:
                                                 line-delimited JSON over TCP
                                                 with per-request deadlines,
                                                 bounded queueing + load
                                                 shedding, result caches and
                                                 graceful degradation under
                                                 load (see DESIGN.md)
  smo call     <addr> <cmd> [netlist] [--id I] [--deadline-ms N]
               [--backend auto|graph|lp] [--no-certify] [--cycle-time T]
               [--phase s,w ...] [--param tc|delay] [--runs N] [--edge E]
               [--spread S] [--seed S]
                                                 send one request to a daemon
                                                 (cmd: ping, stats, shutdown,
                                                 solve, verify, check,
                                                 diagnose, sweep) and print
                                                 the response line; exit 1 on
                                                 an error response
  smo bench-serve [--quick] [--out FILE]         daemon load generator: three
                                                 scenarios incl. forced
                                                 overload; writes
                                                 BENCH_serve.json";

fn run(args: &[String]) -> Result<ExitCode, String> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    match cmd.as_str() {
        "optimize" => {
            let circuit = load(rest.first().ok_or("missing netlist path")?)?;
            let sol = min_cycle_time(&circuit).map_err(|e| e.to_string())?;
            println!("optimal cycle time: {:.6}", sol.cycle_time());
            print!("{}", render_solution(&circuit, &sol));
            Ok(ExitCode::SUCCESS)
        }
        "solve" => {
            let mut path = None;
            let mut options = MlpOptions::default();
            let mut json = false;
            let mut max_mb = None;
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--no-certify" => options.certify = false,
                    "--backend" => {
                        options.backend = it
                            .next()
                            .ok_or("--backend needs a value (auto, graph or lp)")?
                            .parse()?;
                    }
                    "--variant" => options.simplex = parse_variant(&mut it)?,
                    "--max-input-mb" => max_mb = Some(parse_arg(&mut it, "--max-input-mb")?),
                    "--time-limit" => {
                        let secs: f64 = it
                            .next()
                            .ok_or("--time-limit needs a value in seconds")?
                            .parse()
                            .map_err(|e| format!("bad time limit: {e}"))?;
                        if !secs.is_finite() || secs <= 0.0 {
                            return Err(format!(
                                "time limit must be a positive number of seconds, got {secs}"
                            ));
                        }
                        options.time_limit = Some(std::time::Duration::from_secs_f64(secs));
                    }
                    "--json" => json = true,
                    other if path.is_none() && !other.starts_with('-') => {
                        path = Some(other.to_string());
                    }
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            let circuit = load_with(&path.ok_or("missing netlist path")?, &input_limits(max_mb)?)?;
            let sol = min_cycle_time_with(&circuit, &options).map_err(|e| e.to_string())?;
            if json {
                println!("{}", solve_json(&sol));
            } else {
                println!("optimal cycle time: {:.6}", sol.cycle_time());
                println!(
                    "backend: {}",
                    if sol.graph_certificate().is_some() {
                        "graph (exact min-cycle-ratio)"
                    } else {
                        "lp (simplex)"
                    }
                );
                println!("certified: {}", sol.certified());
                for (i, cert) in sol.certificates().iter().enumerate() {
                    println!("  lp {}: {cert}", i + 1);
                }
                if let Some(gc) = sol.graph_certificate() {
                    println!("  graph: {gc}");
                }
                print!("{}", render_solution(&circuit, &sol));
            }
            // `certify` on and a returned solution imply every solver
            // verdict passed its independent check (KKT on the simplex
            // path, the re-derived critical cycle on the graph path);
            // `certified()` can only be false here when the user asked for
            // --no-certify on a simplex-path solve.
            Ok(if options.certify && !sol.certified() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        "gen" => {
            let mut config = DatapathConfig::default();
            let mut latches: Option<usize> = None;
            let mut stages: Option<usize> = None;
            let mut width: Option<usize> = None;
            let mut seed: u64 = 0;
            let mut out: Option<String> = None;
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--latches" => latches = Some(parse_arg(&mut it, "--latches")?),
                    "--stages" => stages = Some(parse_arg(&mut it, "--stages")?),
                    "--width" => width = Some(parse_arg(&mut it, "--width")?),
                    "--phases" => config.phases = parse_arg(&mut it, "--phases")?,
                    "--fanin" => config.fanin = parse_arg(&mut it, "--fanin")?,
                    "--delay-min" => config.delay_range.0 = parse_arg(&mut it, "--delay-min")?,
                    "--delay-max" => config.delay_range.1 = parse_arg(&mut it, "--delay-max")?,
                    "--seed" => seed = parse_arg(&mut it, "--seed")?,
                    "--out" => out = Some(parse_arg(&mut it, "--out")?),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            if let Some(n) = latches {
                if stages.is_some() || width.is_some() {
                    return Err("--latches is exclusive with --stages/--width".into());
                }
                let sized = DatapathConfig::with_latches(n);
                config.stages = sized.stages;
                config.width = sized.width;
            }
            if let Some(s) = stages {
                config.stages = s;
            }
            if let Some(w) = width {
                config.width = w;
            }
            // Validate up front so bad flags are CLI errors, not panics.
            if !(2..=4).contains(&config.phases) {
                return Err(format!("--phases must be 2..=4, got {}", config.phases));
            }
            if config.stages < config.phases {
                return Err(format!(
                    "need --stages >= --phases so every phase clocks a rank ({} < {})",
                    config.stages, config.phases
                ));
            }
            if config.width < 2 {
                return Err("need --width >= 2".into());
            }
            if !(1..=config.width).contains(&config.fanin) {
                return Err(format!(
                    "--fanin must be in 1..={}, got {}",
                    config.width, config.fanin
                ));
            }
            if !(config.delay_range.0 > 0.0 && config.delay_range.0 <= config.delay_range.1) {
                return Err(format!(
                    "delay range must be positive and non-empty, got {:?}",
                    config.delay_range
                ));
            }
            let circuit = pipelined_datapath(&config, seed);
            let text = netlist::write(&circuit);
            eprintln!(
                "generated {} latches ({} stages x {} wide), {} edges, {} phases, seed {seed}",
                circuit.num_latches(),
                config.stages,
                config.width,
                circuit.num_edges(),
                circuit.num_phases()
            );
            match out {
                Some(path) => {
                    std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?
                }
                None => print!("{text}"),
            }
            Ok(ExitCode::SUCCESS)
        }
        "report" => {
            let circuit = load(rest.first().ok_or("missing netlist path")?)?;
            let text =
                timing_report(&circuit, &MlpOptions::default()).map_err(|e| e.to_string())?;
            print!("{text}");
            Ok(ExitCode::SUCCESS)
        }
        "verify" => {
            let mut backend = Backend::default();
            let mut positional: Vec<&String> = Vec::new();
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--backend" => {
                        backend = it
                            .next()
                            .ok_or("--backend needs a value (auto, graph or lp)")?
                            .parse()?;
                    }
                    _ => positional.push(arg),
                }
            }
            let mut it = positional.into_iter();
            let circuit = load(it.next().ok_or("missing netlist path")?)?;
            let tc: f64 = it
                .next()
                .ok_or("missing cycle time")?
                .parse()
                .map_err(|e| format!("bad cycle time: {e}"))?;
            let mut starts = Vec::new();
            let mut widths = Vec::new();
            for pair in it {
                let (s, w) = pair
                    .split_once(',')
                    .ok_or_else(|| format!("expected start,width but got `{pair}`"))?;
                starts.push(s.parse::<f64>().map_err(|e| format!("bad start: {e}"))?);
                widths.push(w.parse::<f64>().map_err(|e| format!("bad width: {e}"))?);
            }
            if starts.len() != circuit.num_phases() {
                return Err(format!(
                    "{} phase(s) given but the circuit has {}",
                    starts.len(),
                    circuit.num_phases()
                ));
            }
            if widths.len() != circuit.num_phases() {
                return Err(format!(
                    "{} width(s) given but the circuit has {} phase(s); \
                     pass one start,width pair per phase",
                    widths.len(),
                    circuit.num_phases()
                ));
            }
            let sched = ClockSchedule::new(tc, starts, widths).map_err(|e| e.to_string())?;
            let report = verify(&circuit, &sched);
            // Graph cross-check: Bellman–Ford on the difference graph
            // decides whether ANY schedule exists at this cycle time. A
            // feasible concrete schedule is itself a witness, so
            // "row check feasible, graph says nothing exists" is an
            // internal soundness bug worth a loud exit code.
            let exists = if backend == Backend::Lp {
                None
            } else {
                graph_feasible_at(&circuit, tc).map_err(|e| e.to_string())?
            };
            if report.is_feasible() {
                println!("FEASIBLE (worst setup slack {:.4})", report.worst_slack());
                match exists {
                    Some(true) => println!("graph: confirmed, Tc = {tc} is achievable"),
                    Some(false) => {
                        eprintln!(
                            "verify error: the schedule passes the row checks but the \
                             difference graph reports no feasible schedule at Tc = {tc}"
                        );
                        return Ok(ExitCode::from(2));
                    }
                    None => {}
                }
                Ok(ExitCode::SUCCESS)
            } else {
                for v in report.violations() {
                    println!("VIOLATION: {v}");
                }
                println!("INFEASIBLE");
                match exists {
                    Some(true) => println!(
                        "graph: a different schedule IS feasible at Tc = {tc} \
                         (try `smo solve`)"
                    ),
                    Some(false) => println!("graph: no schedule at all exists at Tc = {tc}"),
                    None => {}
                }
                Ok(ExitCode::FAILURE)
            }
        }
        "simulate" => {
            let circuit = load(rest.first().ok_or("missing netlist path")?)?;
            let waves: usize = match rest.get(1) {
                Some(w) => w.parse().map_err(|e| format!("bad wave count: {e}"))?,
                None => 64,
            };
            if waves == 0 {
                return Err("wave count must be at least 1".into());
            }
            let sol = min_cycle_time(&circuit).map_err(|e| e.to_string())?;
            let trace = simulate(
                &circuit,
                sol.schedule(),
                &SimOptions {
                    max_waves: waves,
                    ..Default::default()
                },
            );
            println!(
                "simulated {} wave(s) at Tc = {:.4}: converged at {:?}, {} violation(s)",
                trace.waves(),
                sol.cycle_time(),
                trace.converged_at(),
                trace.violations().len()
            );
            for (id, s) in circuit.syncs() {
                println!(
                    "  {:16} D = {:8.4}  (analysis: {:8.4})",
                    s.name,
                    trace.steady_departures()[id.index()],
                    sol.departure(id)
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        "dot" => {
            let circuit = load(rest.first().ok_or("missing netlist path")?)?;
            print!("{}", to_dot(&circuit));
            Ok(ExitCode::SUCCESS)
        }
        "lp" => {
            let circuit = load(rest.first().ok_or("missing netlist path")?)?;
            let model = TimingModel::build(&circuit).map_err(|e| e.to_string())?;
            print!("{}", smo::lp::write_lp(model.problem()));
            Ok(ExitCode::SUCCESS)
        }
        "lump" => {
            let circuit = load(rest.first().ok_or("missing netlist path")?)?;
            let (reduced, _) = lump_equivalent_latches(&circuit);
            eprintln!(
                "lumped {} → {} synchronizers, {} → {} paths",
                circuit.num_syncs(),
                reduced.num_syncs(),
                circuit.num_edges(),
                reduced.num_edges()
            );
            print!("{}", netlist::write(&reduced));
            Ok(ExitCode::SUCCESS)
        }
        "lint" => {
            let (path, json) = path_and_json(rest)?;
            let circuit = load(&path)?;
            let report = lint(&circuit);
            if json {
                println!("{}", report.to_json());
            } else {
                println!("{report}");
            }
            Ok(if report.has_errors() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        "check" => {
            let mut path = None;
            let mut options = CheckOptions::default();
            let mut config = PassConfig::new();
            let mut json = false;
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--cycle-time" => {
                        let t: f64 = it
                            .next()
                            .ok_or("--cycle-time needs a value")?
                            .parse()
                            .map_err(|e| format!("bad cycle time: {e}"))?;
                        if !t.is_finite() || t <= 0.0 {
                            return Err(format!("cycle time must be finite and positive, got {t}"));
                        }
                        options.cycle_time = Some(t);
                    }
                    "--backend" => {
                        options.backend = it
                            .next()
                            .ok_or("--backend needs a value (auto, graph or lp)")?
                            .parse()?;
                    }
                    "--allow" => config = config.allow(parse_rule(&mut it, "--allow")?),
                    "--deny" => config = config.deny(parse_rule(&mut it, "--deny")?),
                    "--json" => json = true,
                    other if path.is_none() && !other.starts_with('-') => {
                        path = Some(other.to_string());
                    }
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            options.config = config;
            let circuit = load(&path.ok_or("missing netlist path")?)?;
            match check(&circuit, &options) {
                Ok(report) => {
                    if json {
                        println!("{}", report.to_json());
                    } else {
                        println!("{report}");
                    }
                    Ok(if report.has_errors() {
                        ExitCode::from(2)
                    } else {
                        ExitCode::SUCCESS
                    })
                }
                // A solve failure means the race analysis never ran, not
                // that the circuit is clean: report it without the usage
                // banner (the arguments were fine).
                Err(e) => {
                    eprintln!("check error: {e}");
                    Ok(ExitCode::FAILURE)
                }
            }
        }
        "analyze" => {
            let (path, json) = path_and_json(rest)?;
            let circuit = load(&path)?;
            match analyze(&circuit) {
                Ok(report) => {
                    if json {
                        println!("{}", report.to_json());
                    } else {
                        print!("{report}");
                    }
                    Ok(ExitCode::SUCCESS)
                }
                // A failed cross-check is not a usage error: report it on
                // stderr with a distinct exit code and no usage banner.
                Err(
                    e
                    @ (AnalyzeError::BoundsDisagree { .. } | AnalyzeError::BackendDisagree { .. }),
                ) => {
                    eprintln!("analyze error: {e}");
                    Ok(ExitCode::from(2))
                }
                Err(e) => Err(e.to_string()),
            }
        }
        "diagnose" => {
            let mut path = None;
            let mut cycle_time = None;
            let mut json = false;
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--cycle-time" => {
                        let t: f64 = it
                            .next()
                            .ok_or("--cycle-time needs a value")?
                            .parse()
                            .map_err(|e| format!("bad cycle time: {e}"))?;
                        if !t.is_finite() || t < 0.0 {
                            return Err(format!(
                                "cycle time must be finite and non-negative, got {t}"
                            ));
                        }
                        cycle_time = Some(t);
                    }
                    "--json" => json = true,
                    other if path.is_none() && !other.starts_with('-') => {
                        path = Some(other.to_string());
                    }
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            let circuit = load(&path.ok_or("missing netlist path")?)?;
            let d = diagnose(&circuit, cycle_time).map_err(|e| e.to_string())?;
            if json {
                println!("{}", d.to_json());
            } else {
                println!("{d}");
            }
            Ok(if d.is_feasible() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "montecarlo" => {
            let circuit = load(rest.first().ok_or("missing netlist path")?)?;
            let scale: f64 = rest
                .get(1)
                .ok_or("missing schedule scale (e.g. 0.95)")?
                .parse()
                .map_err(|e| format!("bad scale: {e}"))?;
            if !scale.is_finite() || scale <= 0.0 {
                return Err(format!(
                    "scale must be a positive finite number, got {scale}"
                ));
            }
            let runs: usize = match rest.get(2) {
                Some(r) => r.parse().map_err(|e| format!("bad run count: {e}"))?,
                None => 200,
            };
            if runs == 0 {
                return Err("run count must be at least 1".into());
            }
            let sol = min_cycle_time(&circuit).map_err(|e| e.to_string())?;
            let sched = sol.schedule().scaled(scale);
            let report = monte_carlo(
                &circuit,
                &sched,
                &MonteCarloOptions {
                    runs,
                    threads: std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1),
                    ..Default::default()
                },
            );
            println!(
                "Tc = {:.4} ({}× optimum): {}/{} runs failed ({:.1}%), {} setup violations, worst shortfall {:.4}",
                sched.cycle(),
                scale,
                report.failing_runs,
                report.runs,
                report.failure_rate() * 100.0,
                report.setup_violations,
                report.worst_shortfall
            );
            Ok(ExitCode::SUCCESS)
        }
        "sweep" => {
            let mut path = None;
            let mut param = None;
            let mut runs = 16usize;
            let mut jobs = 1usize;
            let mut edge = 0usize;
            let mut max_delay = None;
            let mut spread = 0.1f64;
            let mut seed = 0u64;
            let mut json = false;
            let mut max_mb = None;
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--param" => {
                        param = Some(match it.next().map(String::as_str) {
                            Some("tc") => "tc",
                            Some("delay") => "delay",
                            other => {
                                return Err(format!(
                                    "--param must be `tc` or `delay`, got {other:?}"
                                ))
                            }
                        });
                    }
                    "--runs" => runs = parse_arg(&mut it, "--runs")?,
                    "--jobs" => jobs = parse_arg(&mut it, "--jobs")?,
                    "--edge" => edge = parse_arg(&mut it, "--edge")?,
                    "--max-delay" => max_delay = Some(parse_arg(&mut it, "--max-delay")?),
                    "--spread" => spread = parse_arg(&mut it, "--spread")?,
                    "--seed" => seed = parse_arg(&mut it, "--seed")?,
                    "--json" => json = true,
                    "--max-input-mb" => max_mb = Some(parse_arg(&mut it, "--max-input-mb")?),
                    other if path.is_none() && !other.starts_with('-') => {
                        path = Some(other.to_string());
                    }
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            let circuit = load_with(&path.ok_or("missing netlist path")?, &input_limits(max_mb)?)?;
            if runs == 0 {
                return Err("run count must be at least 1".into());
            }
            let param = match param.unwrap_or("delay") {
                "tc" => {
                    if edge >= circuit.num_edges() {
                        return Err(format!(
                            "--edge {edge} out of range ({} edges)",
                            circuit.num_edges()
                        ));
                    }
                    // Default range: up to twice the edge's present delay.
                    let max_delay =
                        max_delay.unwrap_or(2.0 * circuit.edge(EdgeId::new(edge)).max_delay);
                    SweepParam::Tc {
                        edge: EdgeId::new(edge),
                        max_delay,
                    }
                }
                _ => SweepParam::Delay { spread },
            };
            let options = SweepOptions {
                param,
                runs,
                seed,
                jobs,
            };
            let reports = sweep_cycle_time(std::slice::from_ref(&circuit), &options)
                .map_err(|e| e.to_string())?;
            let report = &reports[0];
            if json {
                println!("{}", sweep_json(report, &options));
            } else {
                println!(
                    "base: Tc = {:.6} ({} cold pivots)",
                    report.base_cycle_time, report.base_iterations
                );
                println!(
                    "{} warm re-solve(s): Tc in [{:.6}, {:.6}], mean {:.6}, {} total pivots",
                    report.runs.len(),
                    report.min_cycle_time,
                    report.max_cycle_time,
                    report.mean_cycle_time,
                    report.warm_iterations
                );
                if !report.breakpoints.is_empty() {
                    let bps: Vec<String> = report
                        .breakpoints
                        .iter()
                        .map(|b| format!("{b:.6}"))
                        .collect();
                    println!("exact Tc*(Δ) breakpoints: {}", bps.join(", "));
                }
                for run in &report.runs {
                    println!(
                        "  run {:4}  param {:>12.6}  Tc {:>12.6}  pivots {:4}",
                        run.index, run.value, run.cycle_time, run.iterations
                    );
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "serve" => {
            let mut config = smo::api::ServerConfig::default();
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--addr" => {
                        config.addr = it.next().ok_or("--addr needs host:port")?.to_string();
                    }
                    "--workers" => {
                        config.max_active = parse_arg(&mut it, "--workers")?;
                        if config.max_active == 0 {
                            return Err("--workers must be at least 1".into());
                        }
                    }
                    "--queue" => config.max_queue = parse_arg(&mut it, "--queue")?,
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            let server = smo::api::serve(config).map_err(|e| format!("serve: {e}"))?;
            // The first line of output is machine-readable so scripts can
            // scrape the bound port (`--addr 127.0.0.1:0` picks one).
            println!("listening on {}", server.addr());
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            server.wait();
            println!("drained, exiting");
            Ok(ExitCode::SUCCESS)
        }
        "call" => {
            let mut it = rest.iter();
            let addr = it.next().ok_or("missing daemon address (host:port)")?;
            let cmd = it.next().ok_or(
                "missing command (ping, stats, shutdown, solve, verify, check, diagnose, sweep)",
            )?;
            let mut fields: Vec<(String, String)> = vec![("cmd".into(), json_str(cmd))];
            let mut netlist_path = None;
            let mut phases: Vec<String> = Vec::new();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--id" => fields.push((
                        "id".into(),
                        json_str(it.next().ok_or("--id needs a value")?),
                    )),
                    "--deadline-ms" => {
                        let ms: u64 = parse_arg(&mut it, "--deadline-ms")?;
                        fields.push(("deadline_ms".into(), ms.to_string()));
                    }
                    "--backend" => fields.push((
                        "backend".into(),
                        json_str(it.next().ok_or("--backend needs a value")?),
                    )),
                    "--no-certify" => fields.push(("certify".into(), "false".into())),
                    "--certify" => fields.push(("certify".into(), "true".into())),
                    "--cycle-time" => {
                        let t: f64 = parse_arg(&mut it, "--cycle-time")?;
                        fields.push(("cycle_time".into(), format!("{t}")));
                    }
                    "--phase" => {
                        let pair = it.next().ok_or("--phase needs start,width")?;
                        let (s, w) = pair
                            .split_once(',')
                            .ok_or_else(|| format!("expected start,width but got `{pair}`"))?;
                        let s: f64 = s.parse().map_err(|e| format!("bad start: {e}"))?;
                        let w: f64 = w.parse().map_err(|e| format!("bad width: {e}"))?;
                        phases.push(format!("[{s},{w}]"));
                    }
                    "--param" => fields.push((
                        "param".into(),
                        json_str(it.next().ok_or("--param needs tc or delay")?),
                    )),
                    "--runs" => {
                        let n: usize = parse_arg(&mut it, "--runs")?;
                        fields.push(("runs".into(), n.to_string()));
                    }
                    "--edge" => {
                        let n: usize = parse_arg(&mut it, "--edge")?;
                        fields.push(("edge".into(), n.to_string()));
                    }
                    "--spread" => {
                        let s: f64 = parse_arg(&mut it, "--spread")?;
                        fields.push(("spread".into(), format!("{s}")));
                    }
                    "--seed" => {
                        let s: u64 = parse_arg(&mut it, "--seed")?;
                        fields.push(("seed".into(), s.to_string()));
                    }
                    other if netlist_path.is_none() && !other.starts_with('-') => {
                        netlist_path = Some(other.to_string());
                    }
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            if let Some(path) = &netlist_path {
                // The netlist travels inline: the daemon never reads the
                // caller's filesystem, and escaping happens here in code
                // rather than in fragile shell quoting.
                let src = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                fields.push(("netlist".into(), json_str(&src)));
            }
            if !phases.is_empty() {
                fields.push(("phases".into(), format!("[{}]", phases.join(","))));
            }
            let request = format!(
                "{{{}}}",
                fields
                    .iter()
                    .map(|(k, v)| format!("\"{k}\":{v}"))
                    .collect::<Vec<_>>()
                    .join(",")
            );
            let mut client =
                smo::api::Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            let response = client.call(&request).map_err(|e| format!("call: {e}"))?;
            println!("{response}");
            Ok(if response.contains("\"status\":\"ok\"") {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "bench-serve" => {
            let mut quick = false;
            let mut out_path = "BENCH_serve.json".to_string();
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--quick" => quick = true,
                    "--out" => {
                        out_path = it.next().ok_or("--out needs a path")?.to_string();
                    }
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            let json =
                smo::api::bench::run_bench(quick).map_err(|e| format!("bench-serve: {e}"))?;
            std::fs::write(&out_path, &json)
                .map_err(|e| format!("cannot write {out_path}: {e}"))?;
            print!("{json}");
            eprintln!("wrote {out_path}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

/// JSON string literal for `smo call` request assembly.
fn json_str(s: &str) -> String {
    smo::api::json::escape(s)
}

/// Parses the rule name following `--allow` / `--deny`.
fn parse_rule(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<Rule, String> {
    let name = it
        .next()
        .ok_or_else(|| format!("{flag} needs a rule name"))?;
    Rule::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Rule::ALL.iter().map(|r| r.name()).collect();
        format!(
            "unknown rule `{name}` for {flag}; known rules: {}",
            known.join(", ")
        )
    })
}

/// Parses the value following a flag, e.g. `--runs 32`.
fn parse_arg<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    it.next()
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|e| format!("bad {flag} value: {e}"))
}

/// Parses the value following `--variant`.
fn parse_variant(it: &mut std::slice::Iter<'_, String>) -> Result<SimplexVariant, String> {
    match it.next().map(String::as_str) {
        Some("dense") => Ok(SimplexVariant::Dense),
        Some("sparse") => Ok(SimplexVariant::SparseLu),
        Some(other) => Err(format!(
            "bad --variant `{other}` (expected dense or sparse)"
        )),
        None => Err("--variant needs a value (dense or sparse)".into()),
    }
}

/// Parses `<netlist> [--json]` argument lists (any order).
fn path_and_json(rest: &[String]) -> Result<(String, bool), String> {
    let mut path = None;
    let mut json = false;
    for arg in rest {
        match arg.as_str() {
            "--json" => json = true,
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok((path.ok_or("missing netlist path")?, json))
}

/// Loads a netlist file, auto-detecting the gate-level dialect. Shares
/// the daemon's parser (and its default input limits).
fn load(path: &str) -> Result<Circuit, String> {
    load_with(path, &ParseLimits::default())
}

/// [`load`] with explicit parse limits (see [`input_limits`]).
fn load_with(path: &str, limits: &ParseLimits) -> Result<Circuit, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    smo::api::parse_netlist(&src, limits).map_err(|e| format!("{path}: {e}"))
}

/// Parse limits for a `--max-input-mb` value: the daemon's strict defaults
/// when absent; otherwise the byte/line/element caps scale together with
/// the requested megabytes (the per-line caps stay put — bigger circuits
/// mean more lines, not longer ones). The daemon itself always keeps the
/// defaults: inline requests from untrusted clients do not get a knob.
fn input_limits(max_mb: Option<usize>) -> Result<ParseLimits, String> {
    match max_mb {
        None => Ok(ParseLimits::default()),
        Some(0) => Err("--max-input-mb must be at least 1".into()),
        Some(mb) => Ok(ParseLimits {
            max_bytes: mb.saturating_mul(1 << 20),
            max_lines: mb.saturating_mul(50_000),
            max_elements: mb.saturating_mul(25_000),
            ..ParseLimits::default()
        }),
    }
}
