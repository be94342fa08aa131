//! Algorithm MLP: optimal cycle-time calculation by modified linear
//! programming (§IV).
//!
//! 1. Solve the relaxed LP **P2** (constraints C1–C4, L1, L2R, L3),
//!    obtaining the optimal clock schedule and an initial departure vector
//!    `D⁰`.
//! 2. Holding the clock variables fixed, iterate the nonlinear propagation
//!    equations L2 until the departures stop changing — "sliding" each `D_i`
//!    toward the time origin. Starting from a point satisfying L2R the
//!    iteration is monotone non-increasing and terminates.
//!
//! By Theorem 1 the resulting point is optimal for the original nonlinear
//! problem **P1**: the cycle time is untouched by step 2, and the slid
//! departures still satisfy every setup constraint (they only decreased).

use crate::error::TimingError;
use crate::fastpath::{self, Backend, FastPathOutcome};
use crate::model::{ConstraintOptions, TimingModel};
use crate::propagation::PropagationSystem;
use crate::solution::TimingSolution;
use smo_circuit::{Circuit, ClockSchedule};

/// Which fixpoint iteration Algorithm MLP uses in its update step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateMode {
    /// The paper's synchronous (Jacobi) update.
    Jacobi,
    /// In-place sweeps; usually fewer sweeps than Jacobi.
    #[default]
    GaussSeidel,
    /// Worklist update recomputing only affected departures (the paper's
    /// suggested enhancement for large circuits).
    EventDriven,
}

/// Options for [`min_cycle_time_with`].
#[derive(Debug, Clone, PartialEq)]
pub struct MlpOptions {
    /// Constraint-generation options (extras like minimum phase width).
    pub constraints: ConstraintOptions,
    /// Fixpoint iteration style for the update step.
    pub update: UpdateMode,
    /// The optimal solution of P2 is generally not unique (§V, first
    /// observation on Example 1). When `true` (the default), a second LP
    /// pass fixes `T_c` at its optimum and minimizes `Σ(s_i + T_i)`,
    /// selecting a canonical "compact" schedule deterministically: phases
    /// start as early and are as narrow as the constraints allow.
    pub canonicalize: bool,
    /// Which simplex implementation solves the LPs (dense tableau or
    /// sparse LU; identical results, different scaling).
    pub simplex: smo_lp::SimplexVariant,
    /// When `true` (the default), every LP verdict is independently
    /// machine-checked via [`smo_lp::Problem::solve_certified`]: an
    /// `Optimal` answer carries a KKT [`Certificate`](smo_lp::Certificate)
    /// (see [`TimingSolution::certificates`](crate::TimingSolution)), a
    /// failed check walks the numerical recovery ladder, and exhaustion
    /// surfaces as a structured error instead of a silently-wrong cycle
    /// time.
    pub certify: bool,
    /// Wall-clock budget for the whole solve (`None` = unlimited). The
    /// deadline is absolute: it is fixed once at entry and shared by the
    /// graph fast path (checked per Bellman–Ford pass), the certified
    /// recovery ladder and the plain simplex loops, so even a pathological
    /// model returns [`smo_lp::LpError::Budget`] promptly on *every*
    /// backend and certification mode.
    pub time_limit: Option<std::time::Duration>,
    /// Which solver backs the cycle-time computation (see [`Backend`];
    /// defaults to [`Backend::default`]).
    pub backend: Backend,
}

impl Default for MlpOptions {
    fn default() -> Self {
        MlpOptions {
            constraints: ConstraintOptions::default(),
            update: UpdateMode::default(),
            canonicalize: true,
            simplex: smo_lp::SimplexVariant::default(),
            certify: true,
            time_limit: None,
            backend: Backend::default(),
        }
    }
}

impl MlpOptions {
    /// The budget shared by every solver stage of one solve: built once at
    /// entry so the deadline is absolute across the graph fast path, the
    /// cycle-time LP and the canonicalizing re-solve.
    fn budget(&self) -> smo_lp::SolveBudget {
        match self.time_limit {
            Some(limit) => smo_lp::SolveBudget::with_time_limit(limit),
            None => smo_lp::SolveBudget::UNLIMITED,
        }
    }

    /// The [`smo_lp::RecoveryPolicy`] these options induce under `budget`,
    /// or `None` when certification is off.
    fn policy(&self, budget: smo_lp::SolveBudget) -> Option<smo_lp::RecoveryPolicy> {
        self.certify.then_some(smo_lp::RecoveryPolicy {
            variant: self.simplex,
            budget,
            ..smo_lp::RecoveryPolicy::default()
        })
    }
}

/// Computes the minimum cycle time and an optimal clock schedule for
/// `circuit` (problem **P1**), using Algorithm MLP with default options.
///
/// # Errors
///
/// Returns [`TimingError::Infeasible`] only when extra options
/// over-constrain the model (the plain SMO constraints always admit a
/// schedule), and [`TimingError::Lp`]/[`TimingError::NotConverged`] on
/// solver failures.
///
/// # Examples
///
/// ```
/// use smo_circuit::{CircuitBuilder, PhaseId};
/// use smo_core::min_cycle_time;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::new(2);
/// let a = b.add_latch("A", PhaseId::from_number(1), 10.0, 10.0);
/// let c = b.add_latch("B", PhaseId::from_number(2), 10.0, 10.0);
/// b.connect(a, c, 20.0);
/// b.connect(c, a, 60.0);
/// let circuit = b.build()?;
/// let solution = min_cycle_time(&circuit)?;
/// // The A→B→A loop crosses the cycle boundary once (φ1→φ2 stays within
/// // a cycle, φ2→φ1 crosses), so the whole loop delay must fit in one
/// // period: Tc = 20 + 60 + two latch delays = 100.
/// assert!((solution.cycle_time() - 100.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn min_cycle_time(circuit: &Circuit) -> Result<TimingSolution, TimingError> {
    min_cycle_time_with(circuit, &MlpOptions::default())
}

/// [`min_cycle_time`] with explicit [`MlpOptions`].
///
/// # Errors
///
/// See [`min_cycle_time`].
pub fn min_cycle_time_with(
    circuit: &Circuit,
    options: &MlpOptions,
) -> Result<TimingSolution, TimingError> {
    run_mlp(circuit, options, &options.budget())
}

/// [`min_cycle_time_with`] under a caller-fixed `budget` in place of
/// `options.time_limit`, so a batch of solves (a sweep) can share one
/// absolute deadline.
pub(crate) fn run_mlp(
    circuit: &Circuit,
    options: &MlpOptions,
    budget: &smo_lp::SolveBudget,
) -> Result<TimingSolution, TimingError> {
    let model = TimingModel::build_with(circuit, &options.constraints)?;
    let budget = *budget;
    let policy = options.policy(budget);
    // Difference-constraint fast path: exact graph solve on pure models,
    // crossover warm start on mixed ones (see [`crate::fastpath`]).
    let mut warm: Option<smo_lp::Basis> = None;
    if options.backend != Backend::Lp {
        match fastpath::attempt(circuit, &model, options.update, &budget) {
            Ok(FastPathOutcome::Solved(solution)) => return Ok(*solution),
            Ok(FastPathOutcome::WarmStart(basis)) => {
                if options.backend == Backend::Graph {
                    return Err(TimingError::InvalidOptions {
                        reason: "backend `graph` requires a pure difference-constraint \
                                 model, but the generated rows include general linear \
                                 constraints (use `auto` or `lp`)"
                            .into(),
                    });
                }
                warm = basis;
            }
            Err(e @ TimingError::Infeasible { .. }) => return Err(e),
            Err(e @ TimingError::Lp(smo_lp::LpError::Budget { .. })) => {
                // The deadline expired inside the fast path; falling
                // through to the simplex would defeat it.
                return Err(e);
            }
            Err(e) => {
                if options.backend == Backend::Graph {
                    return Err(e);
                }
                // `auto` treats numerical trouble in the fast path as a
                // miss, not a verdict: fall through to the certified LP.
            }
        }
    }
    if options.canonicalize {
        canonical_inner(
            circuit,
            &model,
            options.update,
            options.simplex,
            policy.as_ref(),
            warm.as_ref(),
            budget,
        )
    } else {
        model_inner(
            circuit,
            &model,
            options.update,
            options.simplex,
            policy.as_ref(),
            warm.as_ref(),
            budget,
        )
    }
}

/// Like [`solve_model`], but after finding the optimal `T_c` it re-solves
/// with `T_c` bounded at that optimum and the objective
/// `minimize Σ(s_i + T_i)`, returning a canonical compact schedule among
/// the (generally non-unique) optima.
///
/// # Errors
///
/// See [`min_cycle_time`].
pub fn solve_model_canonical(
    circuit: &Circuit,
    model: &TimingModel,
    update: UpdateMode,
) -> Result<TimingSolution, TimingError> {
    canonical_inner(
        circuit,
        model,
        update,
        smo_lp::SimplexVariant::Dense,
        None,
        None,
        smo_lp::SolveBudget::UNLIMITED,
    )
}

/// Canonicalizing pipeline shared by the certified and plain paths. A warm
/// basis (from the fast path's crossover) only seeds the *first* solve —
/// the refined model has an extra row, so the snapshot no longer fits it.
pub(crate) fn canonical_inner(
    circuit: &Circuit,
    model: &TimingModel,
    update: UpdateMode,
    variant: smo_lp::SimplexVariant,
    policy: Option<&smo_lp::RecoveryPolicy>,
    warm: Option<&smo_lp::Basis>,
    budget: smo_lp::SolveBudget,
) -> Result<TimingSolution, TimingError> {
    let (first, mut certificates) = match policy {
        Some(pol) => {
            let (sol, cert) = model.solve_lp_certified_from_basis(pol, warm)?;
            (sol, vec![cert])
        }
        None => (model.solve_lp_budgeted(variant, warm, budget)?, Vec::new()),
    };
    let tc_opt = first.objective();

    let mut refined = model.clone();
    {
        let vars = refined.vars().clone();
        let p = refined.problem_mut();
        p.constrain(smo_lp::LinExpr::from(vars.tc()), smo_lp::Sense::Eq, tc_opt);
        let mut secondary = smo_lp::LinExpr::new();
        for i in 0..vars.num_phases() {
            let ph = smo_circuit::PhaseId::new(i);
            secondary = secondary + vars.start(ph) + vars.width(ph);
        }
        p.minimize(secondary);
    }
    match model_inner(circuit, &refined, update, variant, policy, None, budget) {
        Ok(mut solution) => {
            solution.num_constraints = model.num_constraints();
            solution.lp_iterations += first.iterations();
            // Both certificates travel with the solution: the cycle-time
            // solve first, the canonicalizing re-solve second.
            certificates.append(&mut solution.certificates);
            solution.certificates = certificates;
            Ok(solution)
        }
        // Fixing Tc at the float optimum can, in principle, be defeated by
        // round-off; fall back to the (correct, just non-canonical) first
        // solution rather than fail. On the certified path a marginally
        // infeasible pin surfaces as `CertificationFailed` instead (the
        // Farkas check rightly refuses to confirm a round-off
        // infeasibility), so that exhaustion gets the same fallback.
        Err(TimingError::Infeasible { .. })
        | Err(TimingError::Lp(smo_lp::LpError::CertificationFailed { .. })) => {
            model_inner(circuit, model, update, variant, policy, warm, budget)
        }
        Err(e) => Err(e),
    }
}

/// Runs steps 1 (LP) and 2 (departure slide) of Algorithm MLP on an already
/// built model. Exposed so callers that tweak the model (extra rows, RHS
/// sweeps) can reuse the pipeline.
///
/// # Errors
///
/// See [`min_cycle_time`].
pub fn solve_model(
    circuit: &Circuit,
    model: &TimingModel,
    update: UpdateMode,
) -> Result<TimingSolution, TimingError> {
    solve_model_with(circuit, model, update, smo_lp::SimplexVariant::Dense)
}

/// [`solve_model`] with an explicit simplex implementation.
///
/// # Errors
///
/// See [`min_cycle_time`].
pub fn solve_model_with(
    circuit: &Circuit,
    model: &TimingModel,
    update: UpdateMode,
    variant: smo_lp::SimplexVariant,
) -> Result<TimingSolution, TimingError> {
    model_inner(
        circuit,
        model,
        update,
        variant,
        None,
        None,
        smo_lp::SolveBudget::UNLIMITED,
    )
}

/// Step 2 of Algorithm MLP: slide the departures from `d0` to the
/// nonlinear fixpoint under a fixed schedule. The slide is geometric when
/// a loop's gain is a tiny negative number, so the cap is generous;
/// hitting it is reported as `NotConverged` rather than silently accepted.
/// Returns `(departures, arrivals, iterations)`. Shared with the graph
/// fast path, whose schedule also satisfies L2R at its start point.
pub(crate) fn slide_departures(
    circuit: &Circuit,
    schedule: &ClockSchedule,
    d0: &[f64],
    update: UpdateMode,
) -> Result<(Vec<f64>, Vec<f64>, usize), TimingError> {
    let system = PropagationSystem::new(circuit, schedule);
    let cap = 1000 + 100 * circuit.num_syncs();
    let result = match update {
        UpdateMode::Jacobi => system.jacobi(d0, cap),
        UpdateMode::GaussSeidel => system.gauss_seidel(d0, cap),
        UpdateMode::EventDriven => {
            system.event_driven(d0, 1000 + 100 * circuit.num_syncs() * circuit.num_syncs())
        }
    };
    if !result.converged {
        return Err(TimingError::NotConverged {
            iterations: result.iterations,
            residuals: result.residuals,
        });
    }
    let arrivals = system.arrivals(&result.departures);
    Ok((result.departures, arrivals, result.iterations))
}

/// Steps 1–2 of Algorithm MLP, optionally on the certified LP path,
/// optionally warm-started from a crossover basis.
fn model_inner(
    circuit: &Circuit,
    model: &TimingModel,
    update: UpdateMode,
    variant: smo_lp::SimplexVariant,
    policy: Option<&smo_lp::RecoveryPolicy>,
    warm: Option<&smo_lp::Basis>,
    budget: smo_lp::SolveBudget,
) -> Result<TimingSolution, TimingError> {
    // Step 1: LP.
    let (lp, certificates) = match policy {
        Some(pol) => {
            let (sol, cert) = model.solve_lp_certified_from_basis(pol, warm)?;
            (sol, vec![cert])
        }
        None => (model.solve_lp_budgeted(variant, warm, budget)?, Vec::new()),
    };
    let schedule = model.extract_schedule(&lp)?;
    let d0 = model.extract_departures(&lp);

    // Step 2: slide the departures to the nonlinear fixpoint.
    let (departures, arrivals, update_iterations) =
        slide_departures(circuit, &schedule, &d0, update)?;
    Ok(TimingSolution {
        schedule,
        departures,
        arrivals,
        update_iterations,
        lp_iterations: lp.iterations(),
        num_constraints: model.num_constraints(),
        certificates,
        graph_certificate: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smo_circuit::{CircuitBuilder, LatchId, PhaseId, SyncKind, Synchronizer};

    fn p(n: usize) -> PhaseId {
        PhaseId::from_number(n)
    }

    use smo_gen::paper::example1;

    /// The paper's closed form for Example 1 (§V): the optimal cycle time is
    /// the max of the average loop delay and the difference of the two
    /// single-cycle delays.
    fn example1_expected(d41: f64) -> f64 {
        let avg = (140.0 + d41) / 2.0;
        let diff = (80.0 + d41) - 60.0;
        let floor = 80.0; // set by L3→L4 single-stage requirement (Fig. 7 flat part)
        avg.max(diff).max(floor)
    }

    #[test]
    fn matches_paper_figure7_closed_form() {
        for d41 in [
            0.0, 10.0, 20.0, 40.0, 60.0, 80.0, 99.0, 100.0, 101.0, 120.0, 140.0,
        ] {
            let sol = min_cycle_time(&example1(d41)).unwrap();
            let expect = example1_expected(d41);
            assert!(
                (sol.cycle_time() - expect).abs() < 1e-6,
                "Δ41 = {d41}: got {}, expected {expect}",
                sol.cycle_time()
            );
        }
    }

    #[test]
    fn departures_satisfy_nonlinear_fixpoint() {
        for d41 in [80.0, 100.0, 120.0] {
            let c = example1(d41);
            let sol = min_cycle_time(&c).unwrap();
            let sys = PropagationSystem::new(&c, sol.schedule());
            for i in 0..c.num_syncs() {
                let expect = sys.update(sol.departures(), i);
                assert!(
                    (sol.departures()[i] - expect).abs() < 1e-7,
                    "Δ41 = {d41}, latch {i}: D = {} but F(D) = {expect}",
                    sol.departures()[i]
                );
            }
        }
    }

    #[test]
    fn setup_constraints_hold_at_optimum() {
        for d41 in [0.0, 60.0, 80.0, 120.0] {
            let c = example1(d41);
            let sol = min_cycle_time(&c).unwrap();
            for (id, s) in c.syncs() {
                let t = sol.schedule().width(s.phase);
                assert!(
                    sol.departure(id) + s.setup <= t + 1e-7,
                    "Δ41 = {d41}: latch {id} violates setup"
                );
            }
        }
    }

    #[test]
    fn update_modes_agree() {
        for mode in [
            UpdateMode::Jacobi,
            UpdateMode::GaussSeidel,
            UpdateMode::EventDriven,
        ] {
            let opts = MlpOptions {
                update: mode,
                ..Default::default()
            };
            let sol = min_cycle_time_with(&example1(120.0), &opts).unwrap();
            assert!((sol.cycle_time() - 140.0).abs() < 1e-6);
            let sys = PropagationSystem::new(&example1(120.0), sol.schedule());
            for i in 0..4 {
                let expect = sys.update(sol.departures(), i);
                assert!((sol.departures()[i] - expect).abs() < 1e-7, "{mode:?}");
            }
        }
    }

    #[test]
    fn update_terminates_in_few_sweeps() {
        // The paper: "the update process usually terminated in two to three
        // iterations (in some cases no iterations were even necessary)".
        // One sweep is always needed to *detect* the fixpoint, so allow a
        // small handful.
        let opts = MlpOptions {
            update: UpdateMode::Jacobi,
            ..Default::default()
        };
        for d41 in [60.0, 80.0, 100.0, 120.0] {
            let sol = min_cycle_time_with(&example1(d41), &opts).unwrap();
            assert!(
                sol.update_iterations() <= 6,
                "Δ41 = {d41}: {} sweeps",
                sol.update_iterations()
            );
        }
    }

    #[test]
    fn flip_flop_loop_solves_like_classic_sta() {
        // Two FFs on the same phase in a loop: Tc = max stage (dq + Δ + setup).
        let mut b = CircuitBuilder::new(1);
        let f1 = b.add_flip_flop("F1", p(1), 1.0, 2.0);
        let f2 = b.add_flip_flop("F2", p(1), 1.0, 2.0);
        b.connect(f1, f2, 10.0);
        b.connect(f2, f1, 4.0);
        let c = b.build().unwrap();
        let sol = min_cycle_time(&c).unwrap();
        assert!(
            (sol.cycle_time() - 13.0).abs() < 1e-6,
            "Tc = {}",
            sol.cycle_time()
        );
        assert_eq!(sol.departures(), &[0.0, 0.0]);
    }

    #[test]
    fn mixed_ff_latch_loop() {
        // FF → latch → FF loop over two phases.
        let mut b = CircuitBuilder::new(2);
        let f = b.add_flip_flop("F", p(1), 1.0, 2.0);
        let l = b.add_latch("L", p(2), 1.0, 2.0);
        b.connect(f, l, 10.0);
        b.connect(l, f, 10.0);
        let c = b.build().unwrap();
        let sol = min_cycle_time(&c).unwrap();
        // loop: dq_F + 10 (+ wait) + dq_L + 10 + setup_F ≤ Tc, achievable
        // with zero wait → Tc = 2+10+2+10+1 = 25
        assert!(
            (sol.cycle_time() - 25.0).abs() < 1e-6,
            "Tc = {}",
            sol.cycle_time()
        );
    }

    #[test]
    fn latch_without_fanin_needs_only_setup_width() {
        let mut b = CircuitBuilder::new(1);
        b.add_latch("solo", p(1), 7.0, 8.0);
        let c = b.build().unwrap();
        let sol = min_cycle_time(&c).unwrap();
        // T1 ≥ setup = 7 and T1 ≤ Tc → Tc = 7
        assert!((sol.cycle_time() - 7.0).abs() < 1e-6);
    }

    #[test]
    fn hold_annotations_do_not_affect_long_path_optimum() {
        let mut b = CircuitBuilder::new(2);
        let a = b.add_sync(Synchronizer::latch("A", p(1), 10.0, 10.0).with_hold(2.0));
        let c2 = b.add_latch("B", p(2), 10.0, 10.0);
        b.connect_min_max(a, c2, 5.0, 20.0);
        b.connect_min_max(c2, a, 5.0, 60.0);
        let c = b.build().unwrap();
        let sol = min_cycle_time(&c).unwrap();
        assert!((sol.cycle_time() - 100.0).abs() < 1e-6);
        assert_eq!(c.sync(LatchId::new(0)).kind, SyncKind::Latch);
    }
}
