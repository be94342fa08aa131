//! Parallel parameter sweeps on the default solve pipeline.
//!
//! §VI of the paper motivates "parametric programming techniques … to
//! study the effects on the optimal cycle time of varying the circuit
//! delays". [`sensitivity`](crate::cycle_time_curve) answers that exactly
//! for *one* edge; this module scales the question up: many runs, many
//! circuits, many threads.
//!
//! [`sweep_cycle_time`] fans a batch of solves over a work-claiming
//! thread pool:
//!
//! * **Clock sweeps** ([`SweepParam::Tc`]) — a grid sweep of one edge's
//!   delay over `[0, max]`, cross-checkable against the exact
//!   piecewise-linear curve ([`cycle_time_curve`](crate::cycle_time_curve))
//!   whose breakpoints ride along in the report.
//! * **Monte-Carlo delay perturbation** ([`SweepParam::Delay`]) — every
//!   edge delay jittered uniformly by ±`spread`
//!   ([`smo_gen::random::perturbed_delays`]), one solve per sample.
//! * **Many-circuit batches** — pass several circuits; work items are
//!   interleaved across the pool and reduced back per circuit.
//!
//! Every run is the solve `smo solve` performs: the circuit with that
//! run's delays ([`Circuit::with_max_delays`]) through
//! [`min_cycle_time_with`](crate::min_cycle_time_with) with default
//! options — the certified graph path on pure difference models, the
//! certified simplex otherwise. A sweep therefore reports exactly the
//! optima a user would get by solving each perturbed netlist.
//!
//! ## Determinism contract
//!
//! Results are identical for any `jobs` value: run `i` of a circuit is
//! seeded with `seed + i` (the `smo-sim` Monte-Carlo convention), each run
//! is an independent deterministic solve, and the reduction is ordered by
//! `(circuit, run)` index — worker scheduling affects wall-clock only.
//! `smo sweep --json` is byte-identical across `--jobs 1/2/8` because of
//! this contract; `tests/warm_start.rs` locks it down.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::TimingError;
use crate::mlp::{run_mlp, MlpOptions};
use crate::model::TimingModel;
use crate::sensitivity::cycle_time_curve;
use crate::solution::TimingSolution;
use smo_circuit::{Circuit, EdgeId};
use smo_gen::random::perturbed_delays;
use smo_lp::SolveBudget;

/// Which parameter a sweep varies.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepParam {
    /// Grid sweep of one edge's long-path delay over `[0, max_delay]`
    /// (`runs` evenly spaced points, the last at `max_delay`). The report
    /// carries the *exact* breakpoints of the piecewise-linear `T_c*(Δ)`
    /// curve for cross-checking (the Fig. 7 experiment at scale).
    Tc {
        /// The edge whose delay is swept.
        edge: EdgeId,
        /// Upper end of the sweep range.
        max_delay: f64,
    },
    /// Monte-Carlo solves with every edge delay drawn uniformly from
    /// `[Δ·(1−spread), Δ·(1+spread)]`; run `i` uses seed `seed + i`.
    Delay {
        /// Relative jitter half-width in `[0, 1]` (`0` = no perturbation).
        spread: f64,
    },
}

/// Options for [`sweep_cycle_time`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOptions {
    /// The swept parameter.
    pub param: SweepParam,
    /// Solves per circuit.
    pub runs: usize,
    /// Base RNG seed (delay mode; run `i` uses `seed + i`).
    pub seed: u64,
    /// Worker threads. Results are identical for any value; `0` and `1`
    /// both mean sequential. The value is a *ceiling*: it is clamped to
    /// the work-item count and to [`std::thread::available_parallelism`],
    /// so over-subscribing a small container no longer costs throughput.
    pub jobs: usize,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            param: SweepParam::Delay { spread: 0.1 },
            runs: 16,
            seed: 0,
            jobs: 1,
        }
    }
}

/// One solve of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRun {
    /// Run index within the circuit's sweep (`0..runs`).
    pub index: usize,
    /// The parameter value: the swept edge delay ([`SweepParam::Tc`]) or
    /// the largest relative delay deviation applied
    /// ([`SweepParam::Delay`]).
    pub value: f64,
    /// Optimal cycle time `T_c*` at this parameter value.
    pub cycle_time: f64,
    /// Simplex pivots this solve needed
    /// ([`TimingSolution::lp_iterations`]): `0` when the graph path
    /// solved it outright, as it does on every pure difference model.
    pub iterations: usize,
}

/// Per-circuit result of [`sweep_cycle_time`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Index of the circuit in the input batch.
    pub circuit: usize,
    /// Optimal cycle time of the unperturbed model.
    pub base_cycle_time: f64,
    /// Simplex pivots of the unperturbed solve (`0` on the graph path).
    pub base_iterations: usize,
    /// All runs, ordered by index.
    pub runs: Vec<SweepRun>,
    /// Exact breakpoints of `T_c*(Δ)` over the sweep range
    /// ([`SweepParam::Tc`] only; empty in delay mode).
    pub breakpoints: Vec<f64>,
    /// Smallest cycle time over the runs.
    pub min_cycle_time: f64,
    /// Largest cycle time over the runs.
    pub max_cycle_time: f64,
    /// Mean cycle time over the runs (summed in index order).
    pub mean_cycle_time: f64,
    /// Total simplex pivots across all runs.
    pub warm_iterations: usize,
    /// `true` when the base solve and every run were independently
    /// certified ([`TimingSolution::certified`]).
    pub certified: bool,
}

/// Sweeps the optimal cycle time of every circuit in `circuits` over the
/// configured parameter, returning one [`SweepReport`] per circuit (input
/// order).
///
/// All `circuits.len() × runs` solves are interleaved over
/// `options.jobs` threads that claim work from a shared atomic counter.
///
/// # Errors
///
/// [`TimingError::InvalidOptions`] for a degenerate configuration (zero
/// runs, spread outside `[0, 1]`, a swept edge missing from a circuit),
/// plus anything the underlying solves report. The error returned is the
/// one from the lowest-indexed failing work item, independent of thread
/// scheduling.
pub fn sweep_cycle_time(
    circuits: &[Circuit],
    options: &SweepOptions,
) -> Result<Vec<SweepReport>, TimingError> {
    sweep_cycle_time_within(circuits, options, &SolveBudget::UNLIMITED)
}

/// [`sweep_cycle_time`] under a wall-clock / iteration budget: one
/// absolute deadline shared by the base solves and every run, so a
/// daemon request with a deadline cannot run unbounded however many runs
/// it asks for.
///
/// # Errors
///
/// As [`sweep_cycle_time`], plus [`smo_lp::LpError::Budget`] (wrapped in
/// [`TimingError::Lp`]) once the budget expires.
pub fn sweep_cycle_time_within(
    circuits: &[Circuit],
    options: &SweepOptions,
    budget: &SolveBudget,
) -> Result<Vec<SweepReport>, TimingError> {
    validate(circuits, options)?;
    if circuits.is_empty() {
        return Ok(Vec::new());
    }
    let solve = |c: &Circuit| run_mlp(c, &MlpOptions::default(), budget);
    let bases: Vec<TimingSolution> = circuits.iter().map(solve).collect::<Result<_, _>>()?;

    let total = circuits.len() * options.runs;
    // Threads beyond the physical core count only add scheduler churn:
    // every extra worker claims runs it then time-slices against the
    // others, so `--jobs 8` on a 1-core container used to run *slower*
    // than `--jobs 1`. Cap the pool at the machine's parallelism (the
    // determinism contract makes the clamp invisible in the output).
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let jobs = options.jobs.clamp(1, total).min(cores);
    let next = AtomicUsize::new(0);

    // A worker's finished items, `(work index, run, certified)`, or the
    // first error it hit with its work index.
    type Claimed = Result<Vec<(usize, SweepRun, bool)>, (usize, TimingError)>;
    let work = || -> Claimed {
        let mut out = Vec::new();
        loop {
            let w = next.fetch_add(1, Ordering::Relaxed);
            if w >= total {
                return Ok(out);
            }
            let c = w / options.runs;
            let i = w % options.runs;
            let run = perturb(&circuits[c], i, options).and_then(|(circuit, value)| {
                let sol = solve(&circuit)?;
                let run = SweepRun {
                    index: i,
                    value,
                    cycle_time: sol.cycle_time(),
                    iterations: sol.lp_iterations(),
                };
                Ok((run, sol.certified()))
            });
            match run {
                Ok((run, certified)) => out.push((w, run, certified)),
                Err(e) => return Err((w, e)),
            }
        }
    };

    let mut results: Vec<Option<(SweepRun, bool)>> = vec![None; total];
    let outcomes: Vec<_> = if jobs == 1 {
        vec![work()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs).map(|_| scope.spawn(work)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        })
    };
    let mut first_error: Option<(usize, TimingError)> = None;
    for outcome in outcomes {
        match outcome {
            Ok(items) => {
                for (w, run, certified) in items {
                    results[w] = Some((run, certified));
                }
            }
            // Keep the lowest-indexed error so the verdict does not
            // depend on which worker happened to hit it first.
            Err((w, e)) => match &first_error {
                Some((prev, _)) if *prev <= w => {}
                _ => first_error = Some((w, e)),
            },
        }
    }
    if let Some((_, e)) = first_error {
        return Err(e);
    }

    // Ordered reduction: group the flat results back per circuit.
    let mut reports = Vec::with_capacity(circuits.len());
    let mut results = results.into_iter();
    for (c, base) in bases.iter().enumerate() {
        let mut certified = base.certified();
        let runs: Vec<SweepRun> = results
            .by_ref()
            .take(options.runs)
            .map(|r| {
                let (run, ok) = r.expect("every work item completed");
                certified &= ok;
                run
            })
            .collect();
        let breakpoints = match &options.param {
            SweepParam::Tc { edge, max_delay } => {
                let model = TimingModel::build(&circuits[c])?;
                cycle_time_curve(&circuits[c], &model, *edge, *max_delay)?.breakpoints()
            }
            SweepParam::Delay { .. } => Vec::new(),
        };
        let (mut min, mut max, mut sum, mut pivots) = (f64::INFINITY, f64::NEG_INFINITY, 0.0, 0);
        for r in &runs {
            min = min.min(r.cycle_time);
            max = max.max(r.cycle_time);
            sum += r.cycle_time;
            pivots += r.iterations;
        }
        reports.push(SweepReport {
            circuit: c,
            base_cycle_time: base.cycle_time(),
            base_iterations: base.lp_iterations(),
            breakpoints,
            min_cycle_time: min,
            max_cycle_time: max,
            mean_cycle_time: sum / runs.len() as f64,
            warm_iterations: pivots,
            certified,
            runs,
        });
    }
    Ok(reports)
}

/// Run `i`'s circuit and its parameter value: the grid delay on the swept
/// edge ([`SweepParam::Tc`]), or seed `seed + i`'s jittered delays and
/// their largest relative deviation ([`SweepParam::Delay`]).
fn perturb(
    circuit: &Circuit,
    i: usize,
    options: &SweepOptions,
) -> Result<(Circuit, f64), TimingError> {
    let (delays, value) = match &options.param {
        SweepParam::Tc { edge, max_delay } => {
            let theta = if options.runs == 1 {
                *max_delay
            } else {
                max_delay * i as f64 / (options.runs - 1) as f64
            };
            let mut delays: Vec<f64> = circuit.edges().iter().map(|e| e.max_delay).collect();
            delays[edge.index()] = theta;
            (delays, theta)
        }
        SweepParam::Delay { spread } => {
            let delays = perturbed_delays(circuit, *spread, options.seed.wrapping_add(i as u64));
            let worst = circuit
                .edges()
                .iter()
                .zip(&delays)
                .filter(|(edge, _)| edge.max_delay > 0.0)
                .map(|(edge, &new)| (new - edge.max_delay).abs() / edge.max_delay)
                .fold(0.0, f64::max);
            (delays, worst)
        }
    };
    Ok((circuit.with_max_delays(&delays)?, value))
}

fn validate(circuits: &[Circuit], options: &SweepOptions) -> Result<(), TimingError> {
    if options.runs == 0 {
        return Err(TimingError::InvalidOptions {
            reason: "sweep needs at least one run".into(),
        });
    }
    match &options.param {
        SweepParam::Tc { edge, max_delay } => {
            if !max_delay.is_finite() || *max_delay < 0.0 {
                return Err(TimingError::InvalidOptions {
                    reason: format!("sweep range must be finite and non-negative, got {max_delay}"),
                });
            }
            for (c, circuit) in circuits.iter().enumerate() {
                if edge.index() >= circuit.num_edges() {
                    return Err(TimingError::InvalidOptions {
                        reason: format!(
                            "edge {} does not exist in circuit {c} ({} edges)",
                            edge.index(),
                            circuit.num_edges()
                        ),
                    });
                }
            }
        }
        SweepParam::Delay { spread } => {
            if !(0.0..=1.0).contains(spread) {
                return Err(TimingError::InvalidOptions {
                    reason: format!("delay spread must lie in [0, 1], got {spread}"),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use smo_gen::paper::example1;
    use smo_gen::random::{random_circuit, GenConfig};

    #[test]
    fn zero_spread_reproduces_the_base_optimum_every_run() {
        let c = example1(80.0);
        let reports = sweep_cycle_time(
            &[c],
            &SweepOptions {
                param: SweepParam::Delay { spread: 0.0 },
                runs: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert!((r.base_cycle_time - 110.0).abs() < 1e-6);
        for run in &r.runs {
            assert!((run.cycle_time - 110.0).abs() < 1e-6, "{run:?}");
            assert_eq!(run.value, 0.0);
        }
        assert_eq!(r.min_cycle_time, r.max_cycle_time);
    }

    #[test]
    fn tc_sweep_matches_the_exact_parametric_curve() {
        let c = example1(50.0);
        let model = TimingModel::build(&c).unwrap();
        let curve = cycle_time_curve(&c, &model, EdgeId::new(3), 140.0).unwrap();
        let reports = sweep_cycle_time(
            &[c],
            &SweepOptions {
                param: SweepParam::Tc {
                    edge: EdgeId::new(3),
                    max_delay: 140.0,
                },
                runs: 15,
                ..Default::default()
            },
        )
        .unwrap();
        let r = &reports[0];
        assert_eq!(r.breakpoints, curve.breakpoints());
        for run in &r.runs {
            let exact = curve.objective_at(run.value).unwrap();
            assert!(
                (run.cycle_time - exact).abs() < 1e-6,
                "Δ = {}: {} vs exact {exact}",
                run.value,
                run.cycle_time
            );
        }
        // Endpoints of the grid are exact.
        assert_eq!(r.runs[0].value, 0.0);
        assert_eq!(r.runs.last().unwrap().value, 140.0);
    }

    #[test]
    fn results_are_identical_for_any_job_count() {
        let circuits = vec![
            example1(80.0),
            random_circuit(&GenConfig::default(), 1),
            random_circuit(&GenConfig::default(), 2),
        ];
        let base = SweepOptions {
            param: SweepParam::Delay { spread: 0.15 },
            runs: 10,
            seed: 42,
            ..Default::default()
        };
        let sequential = sweep_cycle_time(&circuits, &base).unwrap();
        for jobs in [2, 4, 8] {
            let parallel = sweep_cycle_time(
                &circuits,
                &SweepOptions {
                    jobs,
                    ..base.clone()
                },
            );
            assert_eq!(sequential, parallel.unwrap(), "jobs = {jobs}");
        }
    }

    #[test]
    fn an_expired_budget_stops_the_sweep() {
        let expired = SolveBudget::with_time_limit(std::time::Duration::ZERO);
        let options = SweepOptions {
            runs: 100_000,
            ..Default::default()
        };
        assert!(matches!(
            sweep_cycle_time_within(&[example1(80.0)], &options, &expired),
            Err(TimingError::Lp(smo_lp::LpError::Budget {
                timed_out: true,
                ..
            }))
        ));
    }

    #[test]
    fn degenerate_options_are_rejected() {
        let c = example1(80.0);
        let bad_runs = SweepOptions {
            runs: 0,
            ..Default::default()
        };
        assert!(matches!(
            sweep_cycle_time(std::slice::from_ref(&c), &bad_runs),
            Err(TimingError::InvalidOptions { .. })
        ));
        let bad_spread = SweepOptions {
            param: SweepParam::Delay { spread: 1.5 },
            ..Default::default()
        };
        assert!(matches!(
            sweep_cycle_time(std::slice::from_ref(&c), &bad_spread),
            Err(TimingError::InvalidOptions { .. })
        ));
        let bad_edge = SweepOptions {
            param: SweepParam::Tc {
                edge: EdgeId::new(99),
                max_delay: 10.0,
            },
            ..Default::default()
        };
        assert!(matches!(
            sweep_cycle_time(&[c], &bad_edge),
            Err(TimingError::InvalidOptions { .. })
        ));
    }
}
