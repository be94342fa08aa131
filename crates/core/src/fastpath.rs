//! The difference-constraint fast path: graph algorithms for the SMO
//! timing LP.
//!
//! Under the variable recombination `E_p = s_p + T_p` (absolute phase
//! end) and `u_i = s_{p_i} + D_i` (absolute departure), every row the
//! default [`TimingModel`] generates — C1–C3, L1, L2R, FF setup and
//! departure pinning, plus the optional extras — is a two-variable
//! difference constraint `x_a − x_b ≤ base + slope·T_c` over the node set
//! `{s_p} ∪ {E_p} ∪ {u_i}`. This module builds that mapping
//! ([`variable_images`]), routes pure-difference models to the
//! shortest-path solver of [`smo_lp::DifferenceSystem`] (Bellman–Ford
//! feasibility, Lawler's exact min-cycle-ratio `T_c*`), and hands mixed
//! models back to the simplex with a crossover warm start
//! ([`smo_lp::Problem::basis_from_point`]).
//!
//! The fast path never weakens the engine's verification story:
//!
//! * an optimal graph solve carries a [`GraphCertificate`] — the row
//!   arithmetic of the critical cycle re-checked against the raw LP rows,
//!   the graph analogue of the simplex path's KKT
//!   [`Certificate`](smo_lp::Certificate);
//! * an infeasible graph solve surfaces the negative cycle as a Farkas
//!   vector checked by [`smo_lp::certifies_infeasibility`] and named in
//!   paper vocabulary (C1/C3/L1/…), exactly like
//!   [`diagnose_infeasibility`](crate::diagnose_infeasibility);
//! * any numerical doubt (an uncheckable certificate, a stalled
//!   iteration) falls back to the certified simplex path under
//!   [`Backend::Auto`].

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::error::TimingError;
use crate::mlp::UpdateMode;
use crate::model::TimingModel;
use crate::solution::TimingSolution;
use smo_circuit::{Circuit, ClockSchedule, LatchId, PhaseId};
use smo_lp::{
    classify, Classification, DifferenceSystem, FixedParamOutcome, GraphInfeasibility,
    MinParamOutcome, ParamLowerWitness, Problem, Sense, SolveBudget, Tol, VarImage,
};

/// Which solver backs [`min_cycle_time_with`](crate::min_cycle_time_with).
///
/// The default, [`Backend::Auto`], is the one default of every entry point
/// — library options, the `smo` CLI and the `smo serve` request parser all
/// inherit it from here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Route difference-only models to the graph solver, warm-start the
    /// simplex from the graph schedule on mixed models, and fall back to
    /// the certified LP path on any numerical doubt (default).
    #[default]
    Auto,
    /// Graph solver only; models with rows outside the difference
    /// fragment are rejected with
    /// [`TimingError::InvalidOptions`](crate::TimingError).
    Graph,
    /// The certified simplex on every model, pure or not — the
    /// paper-faithful route and the oracle the graph path is tested
    /// against.
    Lp,
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(Backend::Auto),
            "graph" => Ok(Backend::Graph),
            "lp" => Ok(Backend::Lp),
            other => Err(format!(
                "unknown backend `{other}` (expected auto, graph or lp)"
            )),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Auto => write!(f, "auto"),
            Backend::Graph => write!(f, "graph"),
            Backend::Lp => write!(f, "lp"),
        }
    }
}

/// The variable recombination that turns the SMO model into a
/// difference-constraint system: one [`VarImage`] per LP variable.
///
/// Node numbering (with `k` phases and `l` synchronizers): node `p` is
/// the phase start `s_p`, node `k + p` the phase end `E_p = s_p + T_p`,
/// node `2k + i` the absolute departure `u_i = s_{p_i} + D_i`. `T_c` is
/// the parameter `λ`.
pub fn variable_images(circuit: &Circuit, model: &TimingModel) -> Vec<VarImage> {
    let vars = model.vars();
    let k = vars.num_phases();
    let l = vars.num_latches();
    let mut images = vec![VarImage::Param; model.problem().num_vars()];
    images[vars.tc().index()] = VarImage::Param;
    for p in 0..k {
        let ph = PhaseId::new(p);
        images[vars.start(ph).index()] = VarImage::Node(p);
        images[vars.width(ph).index()] = VarImage::Diff(k + p, p);
    }
    for i in 0..l {
        let id = LatchId::new(i);
        let p = circuit.sync(id).phase.index();
        images[vars.departure(id).index()] = VarImage::Diff(2 * k + i, p);
    }
    images
}

/// Classifies every row of the model under [`variable_images`] — the
/// static-analysis pass behind the fast path, also surfaced per paper
/// family by `smo analyze`.
///
/// # Errors
///
/// [`TimingError::Lp`] only on an internal dimension mismatch.
pub fn classify_model(
    circuit: &Circuit,
    model: &TimingModel,
) -> Result<Classification, TimingError> {
    let images = variable_images(circuit, model);
    Ok(classify(model.problem(), &images)?)
}

/// Does a feasible schedule exist at the given cycle time, by Bellman–Ford
/// on the difference graph? Returns `None` when the model has rows outside
/// the difference fragment (the graph alone cannot decide).
///
/// # Errors
///
/// [`TimingError`] if the model cannot be built for `circuit`.
pub fn graph_feasible_at(circuit: &Circuit, cycle: f64) -> Result<Option<bool>, TimingError> {
    graph_feasible_at_within(circuit, cycle, &SolveBudget::UNLIMITED)
}

/// [`graph_feasible_at`] under a wall-clock / iteration budget: the
/// Bellman–Ford sweep aborts with [`smo_lp::LpError::Budget`] (wrapped in
/// [`TimingError::Lp`]) when the budget expires, so daemon-style callers
/// can bound even the feasibility probe.
///
/// # Errors
///
/// As [`graph_feasible_at`], plus the budget error above.
pub fn graph_feasible_at_within(
    circuit: &Circuit,
    cycle: f64,
    budget: &SolveBudget,
) -> Result<Option<bool>, TimingError> {
    let model = TimingModel::build(circuit)?;
    let images = variable_images(circuit, &model);
    let cls = classify(model.problem(), &images)?;
    if !cls.is_pure() {
        return Ok(None);
    }
    let sys = DifferenceSystem::build(model.problem(), &images, &cls)?;
    let (lo, hi) = sys.param_range();
    if cycle < lo - Tol::FEAS.abs_for(lo) || cycle > hi + Tol::FEAS.abs_for(hi) {
        return Ok(Some(false));
    }
    Ok(Some(matches!(
        sys.feasible_at(cycle, budget)?,
        FixedParamOutcome::Feasible { .. }
    )))
}

/// Independent optimality check of a graph solve, the analogue of the
/// KKT [`Certificate`](smo_lp::Certificate) on the simplex path.
///
/// Validity means two things were re-derived from the raw LP rows with no
/// reference to the graph solver: *achievability* (the returned schedule
/// satisfies every constraint row within [`Tol::FEAS`]) and *minimality*
/// (the critical cycle's row multipliers aggregate — by plain row
/// arithmetic over the variable box — to a proof that `T_c ≥ T_c*`; or
/// `T_c*` sits on the model's declared cycle-time lower bound).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphCertificate {
    tc: f64,
    implied_lower: f64,
    max_violation: f64,
    witness_rows: usize,
    valid: bool,
}

impl GraphCertificate {
    /// `true` when both the achievability and the minimality re-checks
    /// passed.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// The certified optimal cycle time.
    pub fn tc(&self) -> f64 {
        self.tc
    }

    /// The lower bound on `T_c` re-derived from the witness rows (equals
    /// [`GraphCertificate::tc`] up to tolerance when valid).
    pub fn implied_lower(&self) -> f64 {
        self.implied_lower
    }

    /// Worst relative constraint violation of the returned schedule
    /// (comparable against [`Tol::FEAS`]`.rel()`).
    pub fn max_violation(&self) -> f64 {
        self.max_violation
    }

    /// Number of constraint rows on the critical cycle (zero when `T_c*`
    /// sits on the declared lower bound).
    pub fn witness_rows(&self) -> usize {
        self.witness_rows
    }
}

impl std::fmt::Display for GraphCertificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (Tc >= {:.6} from {} critical row(s), worst residual {:.2e})",
            if self.valid { "valid" } else { "INVALID" },
            self.implied_lower,
            self.witness_rows,
            self.max_violation
        )
    }
}

/// What [`attempt`] produced.
pub(crate) enum FastPathOutcome {
    /// The model was pure-difference and solved exactly on the graph.
    Solved(Box<TimingSolution>),
    /// The model has rows outside the difference fragment; the simplex
    /// must run, warm-started from the graph relaxation's schedule when
    /// one was obtained.
    WarmStart(Option<smo_lp::Basis>),
}

/// Runs the fast path on a freshly built model.
///
/// # Errors
///
/// [`TimingError::Infeasible`] with a machine-checked negative-cycle
/// certificate (also correct for mixed models — the difference subset's
/// rows are a subset of the full row set, so its Farkas vector condemns
/// the whole model); [`TimingError::Lp`] on numerical trouble inside the
/// graph solver (callers under [`Backend::Auto`] fall back to the
/// simplex).
pub(crate) fn attempt(
    circuit: &Circuit,
    model: &TimingModel,
    update: UpdateMode,
    budget: &SolveBudget,
) -> Result<FastPathOutcome, TimingError> {
    let p = model.problem();
    let images = variable_images(circuit, model);
    let cls = classify(p, &images)?;
    let sys = DifferenceSystem::build(p, &images, &cls)?;
    let pure = cls.is_pure();
    match sys.minimize_param(budget)? {
        MinParamOutcome::Infeasible(cert) => {
            if cert.check(p) {
                Err(infeasibility_error(circuit, model, &cert))
            } else if pure {
                // A pure system whose certificate fails the independent
                // check is numerical trouble, not a verdict.
                Err(TimingError::Lp(smo_lp::LpError::Numerical {
                    context: "graph negative-cycle certificate failed its independent check".into(),
                }))
            } else {
                Ok(FastPathOutcome::WarmStart(None))
            }
        }
        MinParamOutcome::Optimal {
            lambda,
            potentials,
            witness,
        } => {
            let x = reconstruct_point(circuit, model, lambda, &potentials);
            if !pure {
                // Mixed mode: the graph relaxation's schedule seeds the
                // simplex through the crossover; a failed crossover just
                // means a cold start.
                return Ok(FastPathOutcome::WarmStart(p.basis_from_point(&x).ok()));
            }
            let solution =
                build_solution(circuit, model, update, lambda, &x, witness.as_ref(), &sys)?;
            Ok(FastPathOutcome::Solved(Box::new(solution)))
        }
    }
}

/// Reconstructs the canonical graph schedule at a *fixed* cycle time:
/// Bellman–Ford potentials of the difference system at `λ = tc`, mapped
/// back through [`reconstruct_point`]. The potentials are origin-normalized
/// shortest-path distances, so the result is a deterministic function of
/// `(circuit, tc)` alone — the race analysis relies on this to make hold
/// slacks backend-independent (graph and LP solves of the same circuit
/// agree on `T_c*` to within [`Tol::TIGHT`], hence on this schedule).
///
/// Returns `Ok(None)` when the model has rows outside the difference
/// fragment (the caller must fall back to a canonicalized LP solve at a
/// pinned cycle time).
///
/// # Errors
///
/// [`TimingError::Infeasible`] when no schedule exists at `tc` (with the
/// machine-checked negative-cycle certificate named in paper vocabulary).
pub(crate) fn schedule_at(
    circuit: &Circuit,
    model: &TimingModel,
    tc: f64,
    budget: &SolveBudget,
) -> Result<Option<ClockSchedule>, TimingError> {
    let p = model.problem();
    let images = variable_images(circuit, model);
    let cls = classify(p, &images)?;
    if !cls.is_pure() {
        return Ok(None);
    }
    let sys = DifferenceSystem::build(p, &images, &cls)?;
    let (lo, hi) = sys.param_range();
    if tc < lo - Tol::FEAS.abs_for(lo) || tc > hi + Tol::FEAS.abs_for(hi) {
        return Err(TimingError::Infeasible {
            reason: format!(
                "cycle time {tc} is outside the model's declared parameter range [{lo}, {hi}]"
            ),
        });
    }
    match sys.feasible_at(tc, budget)? {
        FixedParamOutcome::Feasible { potentials } => {
            let x = reconstruct_point(circuit, model, tc, &potentials);
            let vars = model.vars();
            let k = vars.num_phases();
            let starts: Vec<f64> = (0..k)
                .map(|p| x[vars.start(PhaseId::new(p)).index()])
                .collect();
            let widths: Vec<f64> = (0..k)
                .map(|p| x[vars.width(PhaseId::new(p)).index()])
                .collect();
            Ok(Some(
                ClockSchedule::new(tc, starts, widths).map_err(TimingError::Circuit)?,
            ))
        }
        FixedParamOutcome::NegativeCycle(cycle) => Err(TimingError::Infeasible {
            reason: format!(
                "no feasible schedule at cycle time {tc}: negative constraint cycle \
                 over {} row(s) (minimum feasible cycle time {})",
                cycle.rows().len(),
                cycle
                    .min_feasible_lambda()
                    .map_or_else(|| "unbounded".to_string(), |l| format!("{l:.6}")),
            ),
        }),
    }
}

/// Optimal LP duals of a pure model, read off the graph solve with no
/// simplex run: the Lawler witness multipliers divided by the witness's
/// `T_c` slope (the support of an optimal dual — the witness aggregates
/// to `T_c ≥ T_c*`, and every variable bound it leans on is the `0` lower
/// bound, so the scaled multipliers are dual feasible and their objective
/// `Σ yᵢ·rhsᵢ` is `T_c*`). When `T_c*` sits on a declared lower-bound row
/// the witness is empty and that row carries the whole dual.
///
/// Returns `Ok(None)` when the graph cannot answer alone — a mixed model,
/// numerical trouble in the search, or a witness that fails its re-check
/// — so the caller falls back to the simplex.
///
/// # Errors
///
/// [`TimingError::Infeasible`] with a machine-checked negative-cycle
/// certificate when no schedule exists.
pub(crate) fn graph_duals(
    circuit: &Circuit,
    model: &TimingModel,
) -> Result<Option<Vec<f64>>, TimingError> {
    let p = model.problem();
    let images = variable_images(circuit, model);
    let cls = classify(p, &images)?;
    if !cls.is_pure() {
        return Ok(None);
    }
    let sys = DifferenceSystem::build(p, &images, &cls)?;
    let tc = model.vars().tc();
    let support = match sys.minimize_param(&SolveBudget::UNLIMITED) {
        Ok(MinParamOutcome::Optimal {
            lambda,
            witness: Some(w),
            ..
        }) => {
            if witness_bound(p, tc, &w) < lambda - Tol::FEAS.abs_for(lambda) {
                return Ok(None);
            }
            w.rows().to_vec()
        }
        // `T_c*` on the declared lower bound: its row, when there is one,
        // is the whole dual (a bound from the variable box leaves y = 0).
        Ok(MinParamOutcome::Optimal { witness: None, .. }) => {
            sys.param_lower_row().into_iter().collect()
        }
        Ok(MinParamOutcome::Infeasible(cert)) if cert.check(p) => {
            return Err(infeasibility_error(circuit, model, &cert));
        }
        Ok(MinParamOutcome::Infeasible(_)) | Err(_) => return Ok(None),
    };
    let mut y = vec![0.0; p.num_constraints()];
    if support.is_empty() {
        return Ok(Some(y));
    }
    let tc_coef = |c: smo_lp::ConstraintId| {
        p.constraint(c)
            .0
            .iter()
            .find(|&(v, _)| v == tc)
            .map_or(0.0, |(_, a)| a)
    };
    let slope: f64 = support.iter().map(|&(c, m)| m * tc_coef(c)).sum();
    if slope <= Tol::TIGHT.rel() {
        return Ok(None);
    }
    for (c, m) in support {
        y[c.index()] += m / slope;
    }
    Ok(Some(y))
}

/// Maps graph node potentials back to an LP-variable point, with the same
/// clamping discipline as
/// [`TimingModel::extract_schedule`](crate::TimingModel::extract_schedule):
/// tiny negatives to zero, starts monotone, everything capped at the
/// cycle.
fn reconstruct_point(
    circuit: &Circuit,
    model: &TimingModel,
    lambda: f64,
    potentials: &[f64],
) -> Vec<f64> {
    let vars = model.vars();
    let k = vars.num_phases();
    let clamp = |v: f64| if v.abs() < 1e-9 { 0.0 } else { v.max(0.0) };
    let mut starts: Vec<f64> = (0..k).map(|p| clamp(potentials[p]).min(lambda)).collect();
    for i in 1..k {
        if starts[i] < starts[i - 1] {
            starts[i] = starts[i - 1];
        }
    }
    let mut x = vec![0.0; model.problem().num_vars()];
    x[vars.tc().index()] = lambda;
    for p in 0..k {
        let ph = PhaseId::new(p);
        x[vars.start(ph).index()] = starts[p];
        x[vars.width(ph).index()] = clamp(potentials[k + p] - potentials[p]).min(lambda);
    }
    for i in 0..vars.num_latches() {
        let id = LatchId::new(i);
        let p = circuit.sync(id).phase.index();
        x[vars.departure(id).index()] = clamp(potentials[2 * k + i] - potentials[p]);
    }
    x
}

/// Assembles the [`TimingSolution`] for a pure-difference optimum:
/// schedule from the potentials, departures slid to the nonlinear
/// fixpoint (MLP step 2, same as the LP path), and the independently
/// re-checked [`GraphCertificate`].
fn build_solution(
    circuit: &Circuit,
    model: &TimingModel,
    update: UpdateMode,
    lambda: f64,
    x: &[f64],
    witness: Option<&ParamLowerWitness>,
    sys: &DifferenceSystem,
) -> Result<TimingSolution, TimingError> {
    let vars = model.vars();
    let k = vars.num_phases();
    let starts: Vec<f64> = (0..k)
        .map(|p| x[vars.start(PhaseId::new(p)).index()])
        .collect();
    let widths: Vec<f64> = (0..k)
        .map(|p| x[vars.width(PhaseId::new(p)).index()])
        .collect();
    let schedule = ClockSchedule::new(lambda, starts, widths).map_err(TimingError::Circuit)?;
    let d0: Vec<f64> = (0..vars.num_latches())
        .map(|i| x[vars.departure(LatchId::new(i)).index()])
        .collect();
    let (departures, arrivals, update_iterations) =
        crate::mlp::slide_departures(circuit, &schedule, &d0, update)?;
    let certificate = certify(model, lambda, x, witness, sys.param_range().0);
    Ok(TimingSolution {
        schedule,
        departures,
        arrivals,
        update_iterations,
        lp_iterations: 0,
        num_constraints: model.num_constraints(),
        certificates: Vec::new(),
        graph_certificate: Some(certificate),
    })
}

/// Re-derives achievability and minimality from the raw LP rows (see
/// [`GraphCertificate`]).
fn certify(
    model: &TimingModel,
    lambda: f64,
    x: &[f64],
    witness: Option<&ParamLowerWitness>,
    param_lower: f64,
) -> GraphCertificate {
    let p = model.problem();
    // Achievability: every row holds at `x` within FEAS.
    let mut max_violation: f64 = 0.0;
    for info in model.constraints() {
        let (expr, sense, rhs) = p.constraint(info.row);
        let lhs = expr.eval(x);
        let scale = lhs.abs().max(rhs.abs());
        let viol = match sense {
            Sense::Le => Tol::FEAS.violation(lhs, rhs, scale),
            Sense::Ge => Tol::FEAS.violation(rhs, lhs, scale),
            Sense::Eq => Tol::FEAS
                .violation(lhs, rhs, scale)
                .max(Tol::FEAS.violation(rhs, lhs, scale)),
        };
        max_violation = max_violation.max(viol);
    }
    let feasible = max_violation <= Tol::FEAS.rel();
    // Minimality: either the witness rows aggregate to `T_c ≥ λ*`, or λ*
    // sits on the model's declared parameter lower bound.
    let (implied_lower, witness_rows, lower_ok) = match witness {
        None => (
            param_lower,
            0,
            lambda <= param_lower + Tol::FEAS.abs_for(param_lower),
        ),
        Some(w) => {
            let bound = witness_bound(p, model.vars().tc(), w);
            (
                bound,
                w.rows().len(),
                bound >= lambda - Tol::FEAS.abs_for(lambda),
            )
        }
    };
    GraphCertificate {
        tc: lambda,
        implied_lower,
        max_violation,
        witness_rows,
        valid: feasible && lower_ok,
    }
}

/// The lower bound on `T_c` that the witness rows prove, re-derived from
/// the rows and the variable box alone: aggregate the rows with their
/// multipliers (checking Farkas sign conventions), then relax every
/// non-`T_c` coefficient against its variable bound. Returns `−∞` when
/// the aggregation is unusable (wrong sign, unbounded relaxation, no
/// positive `T_c` coefficient).
fn witness_bound(p: &Problem, tc: smo_lp::VarId, witness: &ParamLowerWitness) -> f64 {
    let tol = Tol::TIGHT;
    let mut coef = vec![0.0; p.num_vars()];
    let mut vars: Vec<Option<smo_lp::VarId>> = vec![None; p.num_vars()];
    let mut rhs_agg = 0.0;
    let mut scale: f64 = 0.0;
    for &(c, m) in witness.rows() {
        let (expr, sense, rhs) = p.constraint(c);
        let ok = match sense {
            Sense::Le => m <= tol.rel(),
            Sense::Ge => m >= -tol.rel(),
            Sense::Eq => true,
        };
        if !ok {
            return f64::NEG_INFINITY;
        }
        for (v, a) in expr.iter() {
            coef[v.index()] += m * a;
            vars[v.index()] = Some(v);
            scale = scale.max((m * a).abs());
        }
        rhs_agg += m * rhs;
    }
    // The aggregate Σ coef·x ≥ rhs_agg holds for every feasible x. Move
    // everything except T_c to the right at its worst box value: on a
    // well-formed witness the node coefficients all cancel except
    // bound-arc residuals, which relax against the box below.
    let mut gamma = 0.0;
    let mut slack = 0.0;
    for (i, &cv) in coef.iter().enumerate() {
        if cv.abs() <= tol.abs_for(scale) {
            continue;
        }
        let Some(var) = vars[i] else {
            return f64::NEG_INFINITY;
        };
        if var == tc {
            gamma = cv;
            continue;
        }
        let (lo, up) = p.var_bounds(var);
        // sup over the box of cv·x_v.
        let sup = if cv > 0.0 { cv * up } else { cv * lo };
        if !sup.is_finite() {
            return f64::NEG_INFINITY;
        }
        slack += sup;
    }
    if gamma <= tol.abs_for(scale) {
        return f64::NEG_INFINITY;
    }
    (rhs_agg - slack) / gamma
}

/// Builds the [`TimingError::Infeasible`] for a machine-checked
/// negative-cycle certificate, naming the conflict in paper vocabulary
/// the way [`diagnose_infeasibility`](crate::diagnose_infeasibility)
/// does.
fn infeasibility_error(
    circuit: &Circuit,
    model: &TimingModel,
    cert: &GraphInfeasibility,
) -> TimingError {
    let mut families: Vec<String> = Vec::new();
    for &(c, _) in cert.rows() {
        let info = &model.constraints()[c.index()];
        let described = crate::diagnose::describe(circuit, model, info);
        let label = format!("[{}] {}", described.label, described.detail);
        if !families.contains(&label) {
            families.push(label);
        }
    }
    TimingError::Infeasible {
        reason: format!(
            "negative constraint cycle (machine-checked Farkas certificate over {} row(s)): {}",
            cert.rows().len(),
            families.join("; ")
        ),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::mlp::{min_cycle_time_with, MlpOptions};
    use crate::model::ConstraintOptions;
    use crate::propagation::PropagationSystem;
    use smo_gen::paper::example1;

    fn opts(backend: Backend) -> MlpOptions {
        MlpOptions {
            backend,
            ..Default::default()
        }
    }

    #[test]
    fn graph_backend_solves_example1_exactly() {
        let c = example1(80.0);
        let sol = min_cycle_time_with(&c, &opts(Backend::Graph)).unwrap();
        // Lawler's iteration lands on the exact critical ratio, no simplex.
        assert!(
            (sol.cycle_time() - 110.0).abs() < 1e-9,
            "{}",
            sol.cycle_time()
        );
        assert_eq!(sol.lp_iterations(), 0);
        let cert = sol.graph_certificate().expect("graph path must certify");
        assert!(cert.is_valid());
        assert!((cert.implied_lower() - 110.0).abs() < 1e-6);
        assert!(sol.certified());
        assert!(sol.to_string().contains("[certified]"));
        // The slid departures satisfy the nonlinear fixpoint (Theorem 1).
        let sys = PropagationSystem::new(&c, sol.schedule());
        for i in 0..c.num_syncs() {
            let expect = sys.update(sol.departures(), i);
            assert!((sol.departures()[i] - expect).abs() < 1e-7);
        }
    }

    #[test]
    fn auto_backend_agrees_with_lp_across_example1_sweep() {
        for d41 in [0.0, 20.0, 60.0, 80.0, 99.0, 100.0, 101.0, 120.0, 140.0] {
            let c = example1(d41);
            let lp = min_cycle_time_with(&c, &opts(Backend::Lp)).unwrap();
            let fast = min_cycle_time_with(&c, &opts(Backend::Auto)).unwrap();
            assert!(
                (lp.cycle_time() - fast.cycle_time()).abs() < 1e-7,
                "Δ41 = {d41}: lp {} vs graph {}",
                lp.cycle_time(),
                fast.cycle_time()
            );
            assert!(fast.graph_certificate().is_some(), "Δ41 = {d41}");
        }
    }

    #[test]
    fn default_models_are_pure_difference_systems() {
        let c = example1(80.0);
        let model = TimingModel::build(&c).unwrap();
        let cls = classify_model(&c, &model).unwrap();
        assert!(cls.is_pure());
        assert_eq!(cls.len(), model.num_constraints());
        assert!(cls.num_difference() > 0);
    }

    #[test]
    fn mixed_model_warm_starts_the_simplex() {
        let c = example1(80.0);
        let mut model = TimingModel::build(&c).unwrap();
        // A redundant non-difference row (sum of two widths): the fast
        // path must refuse to decide alone and hand back a crossover
        // basis for the simplex.
        let (w1, w2, tc) = {
            let vars = model.vars();
            (
                vars.width(PhaseId::new(0)),
                vars.width(PhaseId::new(1)),
                vars.tc(),
            )
        };
        let expr = smo_lp::LinExpr::from(w1) + w2 - tc - tc;
        model.problem_mut().constrain(expr, smo_lp::Sense::Le, 0.0);
        let outcome =
            attempt(&c, &model, UpdateMode::GaussSeidel, &SolveBudget::UNLIMITED).unwrap();
        let FastPathOutcome::WarmStart(basis) = outcome else {
            panic!("general row must not solve on the graph");
        };
        let basis = basis.expect("subset relaxation should cross over");
        let warm = model
            .solve_lp_from_basis(smo_lp::SimplexVariant::Dense, &basis)
            .unwrap();
        let cold = model.solve_lp().unwrap();
        assert!((warm.objective() - cold.objective()).abs() < 1e-9);
    }

    #[test]
    fn infeasible_cycle_cap_names_constraint_families() {
        let c = example1(80.0);
        let options = MlpOptions {
            backend: Backend::Graph,
            constraints: ConstraintOptions {
                max_cycle: Some(50.0),
                ..Default::default()
            },
            ..Default::default()
        };
        let err = min_cycle_time_with(&c, &options).unwrap_err();
        let TimingError::Infeasible { reason } = err else {
            panic!("expected infeasibility, got {err:?}");
        };
        assert!(
            reason.contains("negative constraint cycle"),
            "reason: {reason}"
        );
        assert!(reason.contains("machine-checked"), "reason: {reason}");
        // The conflict names at least one paper constraint family.
        assert!(
            ["C1", "C2", "C3", "L1", "cycle"]
                .iter()
                .any(|f| reason.contains(f)),
            "reason: {reason}"
        );
    }

    #[test]
    fn graph_feasible_at_separates_the_optimum() {
        let c = example1(80.0);
        assert_eq!(graph_feasible_at(&c, 110.0).unwrap(), Some(true));
        assert_eq!(graph_feasible_at(&c, 200.0).unwrap(), Some(true));
        assert_eq!(graph_feasible_at(&c, 100.0).unwrap(), Some(false));
    }

    #[test]
    fn backend_parses_and_displays() {
        for (s, b) in [
            ("auto", Backend::Auto),
            ("graph", Backend::Graph),
            ("lp", Backend::Lp),
        ] {
            assert_eq!(s.parse::<Backend>().unwrap(), b);
            assert_eq!(b.to_string(), s);
        }
        assert!("simplex".parse::<Backend>().is_err());
    }
}
