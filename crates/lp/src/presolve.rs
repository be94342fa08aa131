//! LP presolve: model reductions applied before the simplex, plus a
//! postsolve map back to the original problem.
//!
//! The SMO timing LPs carry a fair amount of structure the simplex does not
//! need to see: flip-flop departures are pinned to zero by equality rows
//! (eq. 21), `CycleBound`/`MinWidth` extras are single-variable rows that are
//! really just bounds, and same-phase edges generate `C3` rows that duplicate
//! the `C1` width rows (§IV). [`Problem::presolve`] strips all of that:
//!
//! 1. **empty rows** — constant rows are checked and dropped;
//! 2. **singleton rows** — `a·x ⋛ b` folds into the bound box of `x`;
//! 3. **fixed variables** — `lower == upper` substitutes the value into every
//!    row and removes the column (flip-flop departure variables, pinned
//!    departures);
//! 4. **bound tightening** — row activities over the bound box imply tighter
//!    variable bounds;
//! 5. **redundant rows** — rows satisfied by every point of the bound box;
//! 6. **dominated rows** — rows whose coefficient vector duplicates another
//!    row with a weaker right-hand side.
//!
//! The result is a [`Presolved`] bundle: the reduced [`Problem`], per-row
//! [`RowFate`]s and per-variable [`VarFate`]s keyed by the **original**
//! [`ConstraintId`]/[`VarId`] (so IIS extraction and `diagnose` provenance
//! keep working), plus [`Presolved::postsolve`] which lifts a solution of the
//! reduced problem back to a full primal/dual solution of the original.
//!
//! [`Problem::solve_with_presolve`] wires the pass into the solve path. It
//! is deliberately conservative: whenever the reduced solve (or the presolve
//! itself) concludes anything other than [`Status::Optimal`], it falls back
//! to solving the *original* problem so that infeasibility statuses, Farkas
//! certificates and IIS extraction see the exact original row set.
//!
//! Postsolve guarantees: the primal point, slacks and objective are exact
//! (slacks are re-evaluated on the original rows). Duals of kept rows are
//! exact; a singleton row that supplied the binding bound of a variable
//! receives the multiplier implied by that variable's reduced cost; other
//! removed rows are non-binding at the optimum and get a zero multiplier.

use crate::error::LpError;
use crate::expr::{LinExpr, VarId};
use crate::problem::{ConstraintId, Objective, Problem, Sense, SimplexVariant};
use crate::solution::{Solution, Status};
use crate::EPS;
use std::collections::HashMap;
use std::fmt;

/// Feasibility tolerance for presolve-level conflict detection (matches the
/// IIS certificate tolerance).
const FEAS_TOL: f64 = 1e-7;

/// Knobs for [`Problem::presolve`] / [`Problem::solve_with_presolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PresolveOptions {
    /// Master switch; when `false`, [`Problem::solve_with_presolve`] behaves
    /// exactly like [`Problem::solve_with`].
    pub enabled: bool,
    /// Maximum number of reduction sweeps (each sweep re-runs every pass
    /// until a fixpoint or this cap).
    pub max_passes: usize,
}

impl Default for PresolveOptions {
    fn default() -> Self {
        PresolveOptions {
            enabled: true,
            max_passes: 8,
        }
    }
}

impl PresolveOptions {
    /// Presolve disabled: the solve path is byte-for-byte the plain simplex.
    pub fn off() -> Self {
        PresolveOptions {
            enabled: false,
            ..Self::default()
        }
    }
}

/// What presolve did with one constraint row of the original problem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RowFate {
    /// Row survives; its id in the reduced problem.
    Kept(ConstraintId),
    /// Row had no variable terms (after substitutions) and was trivially
    /// satisfied.
    Empty,
    /// Single-variable row folded into the variable's bound box.
    Singleton,
    /// Row is satisfied by every point of the variable bound box.
    Redundant,
    /// Row duplicates the referenced original row with an equal-or-weaker
    /// right-hand side.
    Dominated(ConstraintId),
}

/// What presolve did with one variable of the original problem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VarFate {
    /// Variable survives; its id in the reduced problem.
    Kept(VarId),
    /// Variable was fixed at the given value and substituted out.
    Fixed(f64),
}

/// Reduction counters reported by [`Presolved::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PresolveStats {
    /// Rows in the original problem.
    pub rows_before: usize,
    /// Rows in the reduced problem.
    pub rows_after: usize,
    /// Variables in the original problem.
    pub vars_before: usize,
    /// Variables in the reduced problem.
    pub vars_after: usize,
    /// Rows removed because they had no variable terms.
    pub empty_rows: usize,
    /// Single-variable rows folded into bounds.
    pub singleton_rows: usize,
    /// Rows implied by the variable bound box.
    pub redundant_rows: usize,
    /// Rows dominated by a duplicate row.
    pub dominated_rows: usize,
    /// Variables fixed and substituted out.
    pub fixed_vars: usize,
    /// Variable bounds tightened from row activities.
    pub tightened_bounds: usize,
    /// Reduction sweeps executed.
    pub passes: usize,
}

impl PresolveStats {
    /// Total rows removed by any pass.
    pub fn rows_removed(&self) -> usize {
        self.rows_before - self.rows_after
    }
}

impl fmt::Display for PresolveStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} rows ({} removed: {} singleton, {} dominated, {} redundant, {} empty), \
             {} -> {} vars ({} fixed), {} bound(s) tightened, {} pass(es)",
            self.rows_before,
            self.rows_after,
            self.rows_removed(),
            self.singleton_rows,
            self.dominated_rows,
            self.redundant_rows,
            self.empty_rows,
            self.vars_before,
            self.vars_after,
            self.fixed_vars,
            self.tightened_bounds,
            self.passes
        )
    }
}

/// Output of [`Problem::presolve`]: the reduced problem plus the postsolve
/// map back to the original.
#[derive(Debug, Clone)]
pub struct Presolved {
    original: Problem,
    reduced: Problem,
    row_fates: Vec<RowFate>,
    var_fates: Vec<VarFate>,
    stats: PresolveStats,
    verdict: Option<Status>,
    /// Original row index that supplied the final lower/upper bound of each
    /// original variable, when that bound came from a folded singleton row.
    lb_row: Vec<Option<usize>>,
    ub_row: Vec<Option<usize>>,
    /// Equality singleton row that fixed each variable, if any.
    fixing_row: Vec<Option<usize>>,
}

impl Presolved {
    /// The reduced problem. Only meaningful when
    /// [`Presolved::proven_status`] is `None`.
    pub fn reduced(&self) -> &Problem {
        &self.reduced
    }

    /// Reduction counters.
    pub fn stats(&self) -> &PresolveStats {
        &self.stats
    }

    /// Status proven during presolve itself (infeasible or unbounded), if
    /// any. [`Problem::solve_with_presolve`] re-solves the original problem
    /// in that case so certificates reference original rows.
    pub fn proven_status(&self) -> Option<Status> {
        self.verdict
    }

    /// Fate of an original constraint row.
    ///
    /// # Panics
    ///
    /// Panics if `c` does not belong to the original problem.
    pub fn row_fate(&self, c: ConstraintId) -> RowFate {
        self.row_fates[c.index()]
    }

    /// Fate of an original variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the original problem.
    pub fn var_fate(&self, v: VarId) -> VarFate {
        self.var_fates[v.index()]
    }

    /// Maps a constraint of the reduced problem back to the original row it
    /// came from.
    ///
    /// # Panics
    ///
    /// Panics if `c` does not belong to the reduced problem.
    pub fn original_row(&self, c: ConstraintId) -> ConstraintId {
        for (i, fate) in self.row_fates.iter().enumerate() {
            if let RowFate::Kept(r) = fate {
                if *r == c {
                    return ConstraintId(i);
                }
            }
        }
        panic!("constraint #{} does not belong to the reduced problem", c.0)
    }

    /// Maps an original constraint to its id in the reduced problem, if it
    /// survived.
    ///
    /// # Panics
    ///
    /// Panics if `c` does not belong to the original problem.
    pub fn reduced_row(&self, c: ConstraintId) -> Option<ConstraintId> {
        match self.row_fates[c.index()] {
            RowFate::Kept(r) => Some(r),
            _ => None,
        }
    }

    /// Lifts a solution of the reduced problem back to the original problem.
    ///
    /// The primal point, slacks and objective are exact (slacks are
    /// re-evaluated on the original rows at the reconstructed point). Duals
    /// of kept rows are copied; a folded singleton row that supplies the
    /// binding bound of a variable receives the multiplier implied by that
    /// variable's reduced cost, and all other removed rows get zero.
    ///
    /// For a non-[`Status::Optimal`] input the status is forwarded with
    /// empty vectors; [`Problem::solve_with_presolve`] never surfaces that
    /// case (it falls back to solving the original problem instead).
    pub fn postsolve(&self, reduced: &Solution) -> Solution {
        if reduced.status != Status::Optimal {
            return Solution {
                status: reduced.status,
                objective: None,
                values: vec![],
                duals: vec![],
                reduced_costs: vec![],
                slacks: vec![],
                iterations: reduced.iterations,
                farkas: None,
                basis: None,
                stats: None,
            };
        }

        let n = self.original.vars.len();
        let m = self.original.rows.len();

        // Primal point.
        let mut values = vec![0.0; n];
        for (j, fate) in self.var_fates.iter().enumerate() {
            values[j] = match *fate {
                VarFate::Kept(r) => reduced.values[r.index()],
                VarFate::Fixed(v) => v,
            };
        }

        // Duals: kept rows copy theirs, then transfer reduced costs onto the
        // singleton rows that supplied binding bounds.
        let mut duals = vec![0.0; m];
        for (i, fate) in self.row_fates.iter().enumerate() {
            if let RowFate::Kept(r) = fate {
                duals[i] = reduced.duals[r.index()];
            }
        }
        let mut reduced_costs = vec![0.0; n];
        for (j, fate) in self.var_fates.iter().enumerate() {
            if let VarFate::Kept(r) = *fate {
                let mut rc = reduced.reduced_costs[r.index()];
                let bound_row = if rc > EPS {
                    self.lb_row[j]
                } else if rc < -EPS {
                    self.ub_row[j]
                } else {
                    None
                };
                if let Some(i) = bound_row {
                    if matches!(self.row_fates[i], RowFate::Singleton) {
                        let a = self.original.rows[i].expr.coeff(VarId(j));
                        if a.abs() > EPS {
                            duals[i] = rc / a;
                            rc = 0.0;
                        }
                    }
                }
                reduced_costs[j] = rc;
            }
        }
        // Fixed variables: close the stationarity gap through the equality
        // singleton that fixed them, when there is one.
        let obj_expr = self.original.objective.as_ref().map(|(_, e)| e);
        for (j, fate) in self.var_fates.iter().enumerate() {
            if let VarFate::Fixed(_) = *fate {
                let c_j = obj_expr.map_or(0.0, |e| e.coeff(VarId(j)));
                let mut gap = c_j;
                for (i, row) in self.original.rows.iter().enumerate() {
                    if duals[i] != 0.0 {
                        gap -= duals[i] * row.expr.coeff(VarId(j));
                    }
                }
                let carrier = self.fixing_row[j].or(if gap > EPS {
                    self.lb_row[j]
                } else if gap < -EPS {
                    self.ub_row[j]
                } else {
                    None
                });
                if let Some(i) = carrier {
                    if matches!(self.row_fates[i], RowFate::Singleton) {
                        let a = self.original.rows[i].expr.coeff(VarId(j));
                        if a.abs() > EPS {
                            duals[i] += gap / a;
                            gap = 0.0;
                        }
                    }
                }
                reduced_costs[j] = gap;
            }
        }

        // Slacks and objective, evaluated exactly on the original model.
        let slacks = self
            .original
            .rows
            .iter()
            .map(|r| {
                let lhs = r.expr.eval(&values);
                match r.sense {
                    Sense::Le | Sense::Eq => r.rhs - lhs,
                    Sense::Ge => lhs - r.rhs,
                }
            })
            .collect();
        let objective = self
            .original
            .objective
            .as_ref()
            .map(|(_, e)| e.eval(&values));

        Solution {
            status: Status::Optimal,
            objective,
            values,
            duals,
            reduced_costs,
            slacks,
            iterations: reduced.iterations,
            // The reduced problem's basis does not map onto the original
            // rows; postsolved solutions are not warm-start sources.
            farkas: None,
            basis: None,
            stats: None,
        }
    }
}

// ---- working state ------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum WorkFate {
    Alive,
    Empty,
    Singleton,
    Redundant,
    Dominated(usize),
}

struct Work {
    lb: Vec<f64>,
    ub: Vec<f64>,
    rows: Vec<LinExpr>,
    sense: Vec<Sense>,
    rhs: Vec<f64>,
    fate: Vec<WorkFate>,
    fixed: Vec<Option<f64>>,
    lb_row: Vec<Option<usize>>,
    ub_row: Vec<Option<usize>>,
    fixing_row: Vec<Option<usize>>,
    stats: PresolveStats,
    verdict: Option<Status>,
}

impl Work {
    fn alive(&self, i: usize) -> bool {
        self.fate[i] == WorkFate::Alive
    }

    /// Raises the lower bound of `j` to `b` if that is a strict improvement
    /// of at least `min_gain`; `prov` records which row supplied the bound.
    fn tighten_lb(&mut self, j: usize, b: f64, prov: Option<usize>, min_gain: f64) -> bool {
        if b > self.lb[j] + min_gain || (self.lb[j] == f64::NEG_INFINITY && b > f64::NEG_INFINITY) {
            self.lb[j] = b;
            self.lb_row[j] = prov;
            true
        } else {
            false
        }
    }

    /// Mirror of [`Work::tighten_lb`] for the upper bound.
    fn tighten_ub(&mut self, j: usize, b: f64, prov: Option<usize>, min_gain: f64) -> bool {
        if b < self.ub[j] - min_gain || (self.ub[j] == f64::INFINITY && b < f64::INFINITY) {
            self.ub[j] = b;
            self.ub_row[j] = prov;
            true
        } else {
            false
        }
    }

    /// Minimum and maximum of `expr` over the current bound box. Each entry
    /// is either finite or the matching infinity; never NaN.
    fn activity(&self, expr: &LinExpr) -> (f64, f64) {
        let mut lo = 0.0;
        let mut hi = 0.0;
        let mut lo_inf = false;
        let mut hi_inf = false;
        for (v, a) in expr.iter() {
            let j = v.index();
            let (cl, ch) = if a > 0.0 {
                (a * self.lb[j], a * self.ub[j])
            } else {
                (a * self.ub[j], a * self.lb[j])
            };
            if cl == f64::NEG_INFINITY {
                lo_inf = true;
            } else {
                lo += cl;
            }
            if ch == f64::INFINITY {
                hi_inf = true;
            } else {
                hi += ch;
            }
        }
        (
            if lo_inf { f64::NEG_INFINITY } else { lo },
            if hi_inf { f64::INFINITY } else { hi },
        )
    }

    /// Folds the singleton row `i` (`a·x ⋛ rhs`) into the bounds of `x`.
    fn fold_singleton(&mut self, i: usize) {
        let Some((v, a)) = self.rows[i].iter().next() else {
            return; // empty rows are classified elsewhere, never folded
        };
        let j = v.index();
        let b = self.rhs[i] / a;
        match (self.sense[i], a > 0.0) {
            (Sense::Le, true) | (Sense::Ge, false) => {
                self.tighten_ub(j, b, Some(i), 0.0);
            }
            (Sense::Ge, true) | (Sense::Le, false) => {
                self.tighten_lb(j, b, Some(i), 0.0);
            }
            (Sense::Eq, _) => {
                if b < self.lb[j] - FEAS_TOL || b > self.ub[j] + FEAS_TOL {
                    self.verdict = Some(Status::Infeasible);
                    return;
                }
                self.tighten_lb(j, b, Some(i), 0.0);
                self.tighten_ub(j, b, Some(i), 0.0);
                self.fixing_row[j] = Some(i);
            }
        }
        self.fate[i] = WorkFate::Singleton;
        self.stats.singleton_rows += 1;
    }

    /// Substitutes `x_j = v` into every alive row.
    fn substitute(&mut self, j: usize, value: f64) {
        let var = VarId(j);
        for i in 0..self.rows.len() {
            if !self.alive(i) {
                continue;
            }
            let a = self.rows[i].coeff(var);
            if a != 0.0 {
                self.rows[i].add_term(var, -a);
                self.rhs[i] -= a * value;
            }
        }
    }
}

impl Problem {
    /// Runs the presolve reductions and returns the reduced problem together
    /// with the postsolve map. See the [module docs](crate::presolve) for
    /// the pass list.
    ///
    /// With `opts.enabled == false` this is the identity reduction: every
    /// row and variable is [`RowFate::Kept`]/[`VarFate::Kept`].
    pub fn presolve(&self, opts: &PresolveOptions) -> Presolved {
        let n = self.vars.len();
        let m = self.rows.len();
        let mut w = Work {
            lb: self.vars.iter().map(|v| v.lower).collect(),
            ub: self.vars.iter().map(|v| v.upper).collect(),
            rows: self.rows.iter().map(|r| r.expr.clone()).collect(),
            sense: self.rows.iter().map(|r| r.sense).collect(),
            rhs: self.rows.iter().map(|r| r.rhs).collect(),
            fate: vec![WorkFate::Alive; m],
            fixed: vec![None; n],
            lb_row: vec![None; n],
            ub_row: vec![None; n],
            fixing_row: vec![None; n],
            stats: PresolveStats {
                rows_before: m,
                vars_before: n,
                ..PresolveStats::default()
            },
            verdict: None,
        };

        if opts.enabled {
            let mut changed = true;
            while changed && w.stats.passes < opts.max_passes && w.verdict.is_none() {
                w.stats.passes += 1;
                changed = false;
                changed |= sweep_rows(&mut w);
                changed |= fix_variables(&mut w);
                changed |= sweep_activities(&mut w);
                changed |= sweep_duplicates(&mut w);
            }
            if w.verdict.is_none() {
                fix_empty_columns(&mut w, self.objective.as_ref());
            }
        }

        build_presolved(self, w)
    }

    /// Solves the model through the presolve pipeline: reduce, solve the
    /// reduced problem with `variant`, then postsolve back to the original.
    ///
    /// Falls back to a plain [`Problem::solve_with`] on the original problem
    /// whenever presolve or the reduced solve reaches a non-optimal status,
    /// so infeasible/unbounded results (including Farkas certificates and
    /// IIS extraction) are always reported in terms of the original rows.
    /// With `opts.enabled == false` this is exactly [`Problem::solve_with`].
    ///
    /// # Errors
    ///
    /// Same as [`Problem::solve`].
    pub fn solve_with_presolve(
        &self,
        variant: SimplexVariant,
        opts: &PresolveOptions,
    ) -> Result<Solution, LpError> {
        if !opts.enabled {
            return self.solve_with(variant);
        }
        self.validate()?;
        let pre = self.presolve(opts);
        if pre.proven_status().is_some() {
            return self.solve_with(variant);
        }
        if pre.reduced.vars.is_empty() {
            // Everything was fixed; synthesize an empty optimal solution and
            // postsolve it.
            let empty = Solution {
                status: Status::Optimal,
                objective: pre.reduced.objective.as_ref().map(|(_, e)| e.constant()),
                values: vec![],
                duals: vec![],
                reduced_costs: vec![],
                slacks: vec![],
                iterations: 0,
                farkas: None,
                basis: None,
                stats: None,
            };
            return Ok(pre.postsolve(&empty));
        }
        let rsol = pre.reduced.solve_with(variant)?;
        if rsol.status != Status::Optimal {
            return self.solve_with(variant);
        }
        Ok(pre.postsolve(&rsol))
    }
}

/// Empty-row checks and singleton folds. Returns whether anything changed.
fn sweep_rows(w: &mut Work) -> bool {
    let mut changed = false;
    for i in 0..w.rows.len() {
        if !w.alive(i) || w.verdict.is_some() {
            continue;
        }
        match w.rows[i].len() {
            0 => {
                let ok = match w.sense[i] {
                    Sense::Le => 0.0 <= w.rhs[i] + FEAS_TOL,
                    Sense::Ge => 0.0 >= w.rhs[i] - FEAS_TOL,
                    Sense::Eq => w.rhs[i].abs() <= FEAS_TOL,
                };
                if ok {
                    w.fate[i] = WorkFate::Empty;
                    w.stats.empty_rows += 1;
                } else {
                    w.verdict = Some(Status::Infeasible);
                }
                changed = true;
            }
            1 => {
                w.fold_singleton(i);
                changed = true;
            }
            _ => {}
        }
    }
    changed
}

/// Fixes variables whose bound box collapsed; detects inverted boxes.
fn fix_variables(w: &mut Work) -> bool {
    let mut changed = false;
    for j in 0..w.lb.len() {
        if w.fixed[j].is_some() || w.verdict.is_some() {
            continue;
        }
        if w.lb[j] > w.ub[j] + FEAS_TOL {
            w.verdict = Some(Status::Infeasible);
            continue;
        }
        if w.lb[j].is_finite() && w.ub[j] - w.lb[j] <= EPS {
            let value = w.lb[j];
            w.fixed[j] = Some(value);
            w.stats.fixed_vars += 1;
            w.substitute(j, value);
            changed = true;
        }
    }
    changed
}

/// Activity-based redundancy detection, conflict detection and bound
/// tightening.
fn sweep_activities(w: &mut Work) -> bool {
    let mut changed = false;
    for i in 0..w.rows.len() {
        if !w.alive(i) || w.verdict.is_some() {
            continue;
        }
        let (lo, hi) = w.activity(&w.rows[i]);
        let rhs = w.rhs[i];
        let (redundant, conflict) = match w.sense[i] {
            Sense::Le => (hi <= rhs + EPS, lo > rhs + FEAS_TOL),
            Sense::Ge => (lo >= rhs - EPS, hi < rhs - FEAS_TOL),
            Sense::Eq => (
                hi <= rhs + EPS && lo >= rhs - EPS,
                lo > rhs + FEAS_TOL || hi < rhs - FEAS_TOL,
            ),
        };
        if conflict {
            w.verdict = Some(Status::Infeasible);
            return true;
        }
        if redundant {
            w.fate[i] = WorkFate::Redundant;
            w.stats.redundant_rows += 1;
            changed = true;
            continue;
        }
        changed |= tighten_from_row(w, i, lo, hi);
    }
    changed
}

/// Derives implied variable bounds from row `i` given its activity range.
fn tighten_from_row(w: &mut Work, i: usize, lo: f64, hi: f64) -> bool {
    let mut changed = false;
    let terms: Vec<(usize, f64)> = w.rows[i].iter().map(|(v, a)| (v.index(), a)).collect();
    let sense = w.sense[i];
    let rhs = w.rhs[i];
    for &(j, a) in &terms {
        let (cl, ch) = if a > 0.0 {
            (a * w.lb[j], a * w.ub[j])
        } else {
            (a * w.ub[j], a * w.lb[j])
        };
        // `expr ≤ rhs` ⇒ a·x_j ≤ rhs − (lo − contribution of x_j).
        if matches!(sense, Sense::Le | Sense::Eq) && lo > f64::NEG_INFINITY && cl.is_finite() {
            let limit = rhs - (lo - cl);
            let gain = 1e-9 * (1.0 + limit.abs());
            if a > 0.0 {
                changed |= w.tighten_ub(j, limit / a, None, gain);
            } else {
                changed |= w.tighten_lb(j, limit / a, None, gain);
            }
        }
        // `expr ≥ rhs` ⇒ a·x_j ≥ rhs − (hi − contribution of x_j).
        if matches!(sense, Sense::Ge | Sense::Eq) && hi < f64::INFINITY && ch.is_finite() {
            let limit = rhs - (hi - ch);
            let gain = 1e-9 * (1.0 + limit.abs());
            if a > 0.0 {
                changed |= w.tighten_lb(j, limit / a, None, gain);
            } else {
                changed |= w.tighten_ub(j, limit / a, None, gain);
            }
        }
    }
    changed
}

/// Canonical duplicate-detection key: coefficient vector as exact bit
/// patterns.
type RowKey = Vec<(usize, u64)>;

fn row_key(expr: &LinExpr, negate: bool) -> RowKey {
    expr.iter()
        .map(|(v, a)| (v.index(), (if negate { -a } else { a }).to_bits()))
        .collect()
}

/// Removes rows whose coefficient vector duplicates another row's with an
/// equal-or-weaker right-hand side. `≥` rows are compared in negated (`≤`)
/// form, so a `C3` self-pair row `Tc − T_i ≥ 0` collides with the `C1`
/// width row `T_i − Tc ≤ 0`.
fn sweep_duplicates(w: &mut Work) -> bool {
    let mut changed = false;
    // key -> (row index, rhs in ≤-normalized orientation)
    let mut le_rows: HashMap<RowKey, (usize, f64)> = HashMap::new();
    // key (sign-normalized) -> (row index, rhs in normalized orientation)
    let mut eq_rows: HashMap<RowKey, (usize, f64)> = HashMap::new();

    for i in 0..w.rows.len() {
        if !w.alive(i) || w.verdict.is_some() || w.rows[i].len() < 2 {
            continue;
        }
        match w.sense[i] {
            Sense::Eq => {
                let flip = w.rows[i]
                    .iter()
                    .next()
                    .map(|(_, a)| a < 0.0)
                    .unwrap_or(false);
                let key = row_key(&w.rows[i], flip);
                let rhs = if flip { -w.rhs[i] } else { w.rhs[i] };
                match eq_rows.get(&key) {
                    Some(&(prev, prev_rhs)) => {
                        if (rhs - prev_rhs).abs() <= FEAS_TOL {
                            w.fate[i] = WorkFate::Dominated(prev);
                            w.stats.dominated_rows += 1;
                            changed = true;
                        } else {
                            w.verdict = Some(Status::Infeasible);
                        }
                    }
                    None => {
                        eq_rows.insert(key, (i, rhs));
                    }
                }
            }
            Sense::Le | Sense::Ge => {
                let negate = w.sense[i] == Sense::Ge;
                let key = row_key(&w.rows[i], negate);
                let rhs = if negate { -w.rhs[i] } else { w.rhs[i] };
                match le_rows.get_mut(&key) {
                    Some(entry) => {
                        let (prev, prev_rhs) = *entry;
                        if rhs >= prev_rhs {
                            w.fate[i] = WorkFate::Dominated(prev);
                        } else {
                            // This row is strictly tighter: it dominates the
                            // previously kept duplicate.
                            w.fate[prev] = WorkFate::Dominated(i);
                            *entry = (i, rhs);
                        }
                        w.stats.dominated_rows += 1;
                        changed = true;
                    }
                    None => {
                        le_rows.insert(key, (i, rhs));
                    }
                }
            }
        }
    }
    changed
}

/// Fixes variables that appear in no alive row at their objective-optimal
/// bound; detects unboundedness when that bound is infinite.
fn fix_empty_columns(w: &mut Work, objective: Option<&(Objective, LinExpr)>) {
    let mut used = vec![false; w.lb.len()];
    for i in 0..w.rows.len() {
        if w.alive(i) {
            for (v, _) in w.rows[i].iter() {
                used[v.index()] = true;
            }
        }
    }
    for (j, &in_use) in used.iter().enumerate() {
        if in_use || w.fixed[j].is_some() || w.verdict.is_some() {
            continue;
        }
        let c_eff = objective.map_or(0.0, |(dir, e)| {
            let c = e.coeff(VarId(j));
            match dir {
                Objective::Minimize => c,
                Objective::Maximize => -c,
            }
        });
        let value = if c_eff > EPS {
            if w.lb[j].is_finite() {
                w.lb[j]
            } else {
                w.verdict = Some(Status::Unbounded);
                continue;
            }
        } else if c_eff < -EPS {
            if w.ub[j].is_finite() {
                w.ub[j]
            } else {
                w.verdict = Some(Status::Unbounded);
                continue;
            }
        } else if w.lb[j].is_finite() {
            w.lb[j]
        } else if w.ub[j].is_finite() {
            w.ub[j]
        } else {
            0.0
        };
        w.fixed[j] = Some(value);
        w.stats.fixed_vars += 1;
    }
}

/// Assembles the final [`Presolved`] from the work state.
fn build_presolved(original: &Problem, mut w: Work) -> Presolved {
    let n = original.vars.len();

    let mut var_fates = Vec::with_capacity(n);
    let mut reduced = Problem::new();
    for j in 0..n {
        match w.fixed[j] {
            Some(v) => var_fates.push(VarFate::Fixed(v)),
            None => {
                let id = reduced.add_var_bounded(original.vars[j].name.clone(), w.lb[j], w.ub[j]);
                var_fates.push(VarFate::Kept(id));
            }
        }
    }

    let remap = |expr: &LinExpr| -> (LinExpr, f64) {
        let mut out = LinExpr::new();
        let mut fixed_part = 0.0;
        for (v, a) in expr.iter() {
            match var_fates[v.index()] {
                VarFate::Kept(r) => out.add_term(r, a),
                VarFate::Fixed(val) => fixed_part += a * val,
            }
        }
        (out, fixed_part)
    };

    let mut row_fates = Vec::with_capacity(original.rows.len());
    for i in 0..original.rows.len() {
        match w.fate[i] {
            WorkFate::Alive => {
                // Work rows already have fixed variables substituted out, so
                // remap is a pure renumbering here.
                let (expr, _) = remap(&w.rows[i]);
                let id = reduced.constrain_named(
                    original.rows[i].name.clone(),
                    expr,
                    w.sense[i],
                    w.rhs[i],
                );
                row_fates.push(RowFate::Kept(id));
            }
            WorkFate::Empty => row_fates.push(RowFate::Empty),
            WorkFate::Singleton => row_fates.push(RowFate::Singleton),
            WorkFate::Redundant => row_fates.push(RowFate::Redundant),
            WorkFate::Dominated(by) => row_fates.push(RowFate::Dominated(ConstraintId(by))),
        }
    }

    if let Some((dir, expr)) = &original.objective {
        let (mut obj, fixed_part) = remap(expr);
        obj.add_constant(expr.constant() + fixed_part);
        match dir {
            Objective::Minimize => reduced.minimize(obj),
            Objective::Maximize => reduced.maximize(obj),
        }
    }

    w.stats.rows_after = reduced.rows.len();
    w.stats.vars_after = reduced.vars.len();

    Presolved {
        original: original.clone(),
        reduced,
        row_fates,
        var_fates,
        stats: w.stats,
        verdict: w.verdict,
        lb_row: w.lb_row,
        ub_row: w.ub_row,
        fixing_row: w.fixing_row,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::Status;

    fn on() -> PresolveOptions {
        PresolveOptions::default()
    }

    #[test]
    fn disabled_presolve_is_identity() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.constrain(x + y, Sense::Ge, 2.0);
        p.minimize(x + y);
        let pre = p.presolve(&PresolveOptions::off());
        assert_eq!(pre.stats().rows_removed(), 0);
        assert_eq!(pre.stats().fixed_vars, 0);
        assert_eq!(pre.reduced().num_constraints(), 1);
        let a = p.solve().unwrap();
        let b = p
            .solve_with_presolve(SimplexVariant::Dense, &PresolveOptions::off())
            .unwrap();
        assert_eq!(a.objective(), b.objective());
        assert_eq!(a.iterations(), b.iterations());
    }

    #[test]
    fn singleton_rows_fold_into_bounds() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let c = p.constrain(LinExpr::term(x, 2.0), Sense::Ge, 4.0);
        p.minimize(x.into());
        let pre = p.presolve(&on());
        assert_eq!(pre.row_fate(c), RowFate::Singleton);
        assert_eq!(pre.stats().singleton_rows, 1);
        let sol = p
            .solve_with_presolve(SimplexVariant::Dense, &on())
            .unwrap()
            .into_optimal()
            .unwrap();
        assert_eq!(sol.objective(), 2.0);
        assert_eq!(sol.value(x), 2.0);
        // The folded row supplied the binding lower bound, so it carries the
        // multiplier implied by the reduced cost: min x s.t. 2x ≥ 4 has
        // dual 1/2 on the row.
        assert!((sol.dual(c) - 0.5).abs() < 1e-9);
        assert!(sol.reduced_cost(x).abs() < 1e-9);
    }

    #[test]
    fn equality_singleton_fixes_variable() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let pin = p.constrain(LinExpr::from(x), Sense::Eq, 3.0);
        let link = p.constrain(y - x, Sense::Ge, 1.0);
        p.minimize(x + y);
        let pre = p.presolve(&on());
        assert_eq!(pre.row_fate(pin), RowFate::Singleton);
        assert_eq!(pre.var_fate(x), VarFate::Fixed(3.0));
        // After substituting x, `y − x ≥ 1` becomes the singleton `y ≥ 4`,
        // and y (objective-improving at its lower bound) is fixed too.
        assert_eq!(pre.var_fate(y), VarFate::Fixed(4.0));
        let sol = p
            .solve_with_presolve(SimplexVariant::Dense, &on())
            .unwrap()
            .into_optimal()
            .unwrap();
        assert_eq!(sol.objective(), 7.0);
        assert_eq!(sol.value(x), 3.0);
        assert_eq!(sol.value(y), 4.0);
        // Slacks are re-evaluated on the original rows.
        assert_eq!(sol.slack(pin), 0.0);
        assert_eq!(sol.slack(link), 0.0);
    }

    #[test]
    fn duplicate_rows_are_dominated() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let keep = p.constrain(x - y, Sense::Le, 0.0);
        // Same coefficients through the ≥-negation, weaker after flipping.
        let dup = p.constrain(y - x, Sense::Ge, -1.0);
        p.constrain(x + y, Sense::Ge, 2.0);
        p.minimize(x + y);
        let pre = p.presolve(&on());
        assert!(matches!(pre.row_fate(keep), RowFate::Kept(_)));
        assert_eq!(pre.row_fate(dup), RowFate::Dominated(keep));
        assert_eq!(pre.stats().dominated_rows, 1);
        let a = p.solve().unwrap().objective();
        let b = p
            .solve_with_presolve(SimplexVariant::Dense, &on())
            .unwrap()
            .objective();
        assert_eq!(a, b);
    }

    #[test]
    fn tighter_duplicate_wins() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let weak = p.constrain(x - y, Sense::Le, 5.0);
        let tight = p.constrain(x - y, Sense::Le, 1.0);
        p.minimize(x + y);
        let pre = p.presolve(&on());
        assert_eq!(pre.row_fate(weak), RowFate::Dominated(tight));
        assert!(matches!(pre.row_fate(tight), RowFate::Kept(_)));
    }

    #[test]
    fn activity_redundant_rows_are_removed() {
        let mut p = Problem::new();
        let x = p.add_var_bounded("x", 0.0, 5.0);
        let y = p.add_var_bounded("y", 0.0, 5.0);
        let r = p.constrain(x + y, Sense::Le, 20.0);
        let live = p.constrain(x + y, Sense::Ge, 2.0);
        p.minimize(x + y);
        let pre = p.presolve(&on());
        assert_eq!(pre.row_fate(r), RowFate::Redundant);
        assert!(matches!(pre.row_fate(live), RowFate::Kept(_)));
    }

    #[test]
    fn empty_row_feasible_and_conflicting() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let c = p.constrain(LinExpr::new(), Sense::Le, 1.0);
        p.minimize(x.into());
        let pre = p.presolve(&on());
        assert_eq!(pre.row_fate(c), RowFate::Empty);
        assert_eq!(pre.proven_status(), None);

        let mut q = Problem::new();
        let x = q.add_var("x");
        q.constrain(LinExpr::new(), Sense::Ge, 1.0);
        q.minimize(x.into());
        let pre = q.presolve(&on());
        assert_eq!(pre.proven_status(), Some(Status::Infeasible));
        // The solve path falls back to the full problem, which reports the
        // infeasibility with a certificate over original rows.
        let sol = q.solve_with_presolve(SimplexVariant::Dense, &on()).unwrap();
        assert_eq!(sol.status(), Status::Infeasible);
    }

    #[test]
    fn conflicting_singletons_prove_infeasibility() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.constrain(LinExpr::from(x), Sense::Ge, 3.0);
        p.constrain(LinExpr::from(x), Sense::Le, 1.0);
        p.minimize(x.into());
        let pre = p.presolve(&on());
        assert_eq!(pre.proven_status(), Some(Status::Infeasible));
        let sol = p.solve_with_presolve(SimplexVariant::Dense, &on()).unwrap();
        assert_eq!(sol.status(), Status::Infeasible);
        assert!(sol.farkas().is_some());
    }

    #[test]
    fn all_variables_fixed_still_solves() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.constrain(LinExpr::from(x), Sense::Eq, 2.0);
        p.constrain(LinExpr::from(y), Sense::Eq, 5.0);
        p.minimize(x + y);
        let sol = p
            .solve_with_presolve(SimplexVariant::Dense, &on())
            .unwrap()
            .into_optimal()
            .unwrap();
        assert_eq!(sol.objective(), 7.0);
        assert_eq!(sol.values(), &[2.0, 5.0]);
    }

    #[test]
    fn unconstrained_column_with_improving_infinite_bound_is_unbounded() {
        let mut p = Problem::new();
        let x = p.add_free_var("x");
        let y = p.add_var("y");
        p.constrain(LinExpr::from(y), Sense::Ge, 1.0);
        p.minimize(x + y);
        let pre = p.presolve(&on());
        assert_eq!(pre.proven_status(), Some(Status::Unbounded));
        let sol = p.solve_with_presolve(SimplexVariant::Dense, &on()).unwrap();
        assert_eq!(sol.status(), Status::Unbounded);
    }

    #[test]
    fn provenance_round_trips_between_problems() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.constrain(LinExpr::from(x), Sense::Le, 9.0); // singleton: removed
        let kept = p.constrain(x + y, Sense::Ge, 2.0);
        p.minimize(x + y);
        let pre = p.presolve(&on());
        let r = pre.reduced_row(kept).expect("row survives");
        assert_eq!(pre.original_row(r), kept);
        assert_eq!(pre.reduced().num_constraints(), 1);
    }

    #[test]
    fn postsolve_matches_full_solve_on_composite_model() {
        // Mix of singleton rows, a fixed variable, a duplicate and a live
        // core; the presolved path must agree with the plain simplex on the
        // primal point, objective, and slacks.
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let z = p.add_var("z");
        p.constrain(LinExpr::from(z), Sense::Eq, 4.0);
        p.constrain(LinExpr::from(x), Sense::Ge, 1.0);
        p.constrain(x - y, Sense::Le, 0.0);
        p.constrain(y - x, Sense::Ge, 0.0);
        p.constrain(x + y + z, Sense::Ge, 10.0);
        p.minimize(x + y + z);
        let full = p.solve().unwrap().into_optimal().unwrap();
        let pre = p
            .solve_with_presolve(SimplexVariant::Dense, &on())
            .unwrap()
            .into_optimal()
            .unwrap();
        // The optimum is degenerate (a whole face), so the vertex may
        // differ; the objective must not, and the postsolved point must be
        // feasible for every original row.
        assert_eq!(full.objective(), pre.objective());
        for s in pre.slacks() {
            assert!(*s > -1e-9, "postsolved point violates a row: slack {s}");
        }
        for (j, v) in pre.values().iter().enumerate() {
            let (lo, hi) = p.var_bounds(VarId(j));
            assert!(*v > lo - 1e-9 && *v < hi + 1e-9, "value out of bounds");
        }
    }

    #[test]
    fn sparse_variant_agrees_through_presolve() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.constrain(LinExpr::from(x), Sense::Ge, 2.0);
        p.constrain(x + y, Sense::Ge, 5.0);
        p.minimize(2.0 * x + y);
        let dense = p
            .solve_with_presolve(SimplexVariant::Dense, &on())
            .unwrap()
            .objective()
            .unwrap();
        let sparse = p
            .solve_with_presolve(SimplexVariant::SparseLu, &on())
            .unwrap()
            .objective()
            .unwrap();
        assert_eq!(dense, sparse);
        assert_eq!(dense, 7.0);
    }

    #[test]
    fn stats_display_is_self_describing() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.constrain(LinExpr::from(x), Sense::Ge, 1.0);
        p.minimize(x.into());
        let pre = p.presolve(&on());
        let s = pre.stats().to_string();
        assert!(s.contains("1 -> 0 rows"), "unexpected stats: {s}");
        assert!(s.contains("1 singleton"), "unexpected stats: {s}");
    }
}
