//! LP model builder.

use crate::error::LpError;
use crate::expr::{LinExpr, VarId};
use crate::simplex;
use crate::solution::Solution;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which simplex implementation [`Problem::solve_with`] runs.
///
/// Both variants produce the same statuses and optima. The dense tableau
/// is the paper-faithful oracle (its §V prototype was "a dense-matrix LP
/// solver") and the engine of parametric analysis; the sparse-LU variant
/// is the one to use on large models. Pure difference-constraint timing
/// models never reach either by default: they are answered on the
/// certified graph path (`smo_core::Backend::Auto`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SimplexVariant {
    /// Classical dense tableau (default; required for parametric analysis).
    #[default]
    Dense,
    /// Sparse-LU revised simplex: Markowitz-ordered basis factorization,
    /// bounded-eta updates, devex pricing. The only variant whose
    /// per-solve memory and refactorization cost scale with the matrix
    /// *nonzeros* rather than `rows²`/`rows³` — use it beyond a few
    /// thousand rows.
    SparseLu,
}

/// Direction of optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Objective {
    /// Minimize the objective expression.
    Minimize,
    /// Maximize the objective expression.
    Maximize,
}

/// Sense (direction) of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Sense {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

impl fmt::Display for Sense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sense::Le => write!(f, "<="),
            Sense::Ge => write!(f, ">="),
            Sense::Eq => write!(f, "=="),
        }
    }
}

/// Opaque handle to a constraint row of a [`Problem`]; indexes the dual
/// vector of a [`Solution`](crate::Solution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ConstraintId(pub(crate) usize);

impl ConstraintId {
    /// Zero-based row index of this constraint in its owning problem.
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Variable {
    pub name: String,
    pub lower: f64,
    pub upper: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Row {
    pub name: Option<String>,
    pub expr: LinExpr,
    pub sense: Sense,
    pub rhs: f64,
}

/// A linear program under construction.
///
/// Variables default to the domain `[0, +∞)` — the natural domain for the SMO
/// timing variables (`Tc`, phase widths, phase starts, departure times are all
/// non-negative, eqs. (7)–(9), (18)). Free or bounded variables are available
/// through [`Problem::add_var_bounded`] / [`Problem::add_free_var`].
///
/// See the [crate docs](crate) for a worked example.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Problem {
    pub(crate) vars: Vec<Variable>,
    pub(crate) rows: Vec<Row>,
    pub(crate) objective: Option<(Objective, LinExpr)>,
}

impl Problem {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with domain `[0, +∞)` and returns its handle.
    pub fn add_var(&mut self, name: impl Into<String>) -> VarId {
        self.push_var(name.into(), 0.0, f64::INFINITY)
    }

    /// Adds a variable with domain `[lower, upper]` (either bound may be
    /// infinite).
    pub fn add_var_bounded(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> VarId {
        self.push_var(name.into(), lower, upper)
    }

    /// Adds a free variable with domain `(-∞, +∞)`.
    pub fn add_free_var(&mut self, name: impl Into<String>) -> VarId {
        self.push_var(name.into(), f64::NEG_INFINITY, f64::INFINITY)
    }

    fn push_var(&mut self, name: String, lower: f64, upper: f64) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(Variable { name, lower, upper });
        id
    }

    /// Adds the constraint `expr (sense) rhs` and returns its handle.
    ///
    /// Any constant inside `expr` is folded onto the right-hand side, so
    /// `constrain(x - y + 3, Le, 5)` stores `x - y ≤ 2`.
    pub fn constrain(&mut self, expr: LinExpr, sense: Sense, rhs: f64) -> ConstraintId {
        self.constrain_named(None::<String>, expr, sense, rhs)
    }

    /// Like [`Problem::constrain`] but attaches a diagnostic name reported in
    /// infeasibility analyses.
    pub fn constrain_named(
        &mut self,
        name: Option<impl Into<String>>,
        mut expr: LinExpr,
        sense: Sense,
        rhs: f64,
    ) -> ConstraintId {
        let k = expr.constant();
        expr.add_constant(-k);
        let id = ConstraintId(self.rows.len());
        self.rows.push(Row {
            name: name.map(Into::into),
            expr,
            sense,
            rhs: rhs - k,
        });
        id
    }

    /// Sets the objective to minimize `expr`.
    pub fn minimize(&mut self, expr: LinExpr) {
        self.objective = Some((Objective::Minimize, expr));
    }

    /// Sets the objective to maximize `expr`.
    pub fn maximize(&mut self, expr: LinExpr) {
        self.objective = Some((Objective::Maximize, expr));
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraint rows.
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Name of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this problem.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.vars[var.0].name
    }

    /// `(lower, upper)` bounds of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this problem.
    pub fn var_bounds(&self, var: VarId) -> (f64, f64) {
        let v = &self.vars[var.0];
        (v.lower, v.upper)
    }

    /// Optional diagnostic name of a constraint.
    ///
    /// # Panics
    ///
    /// Panics if `c` does not belong to this problem.
    pub fn constraint_name(&self, c: ConstraintId) -> Option<&str> {
        self.rows[c.0].name.as_deref()
    }

    /// The `(expr, sense, rhs)` triple of a constraint row.
    ///
    /// # Panics
    ///
    /// Panics if `c` does not belong to this problem.
    pub fn constraint(&self, c: ConstraintId) -> (&LinExpr, Sense, f64) {
        let r = &self.rows[c.0];
        (&r.expr, r.sense, r.rhs)
    }

    /// Overwrites the right-hand side of an existing constraint.
    ///
    /// This is the entry point used by sweep-style experiments that re-solve
    /// the same model with a perturbed delay.
    ///
    /// # Panics
    ///
    /// Panics if `c` does not belong to this problem.
    pub fn set_rhs(&mut self, c: ConstraintId, rhs: f64) {
        self.rows[c.0].rhs = rhs;
    }

    /// Validates the model without solving it.
    ///
    /// # Errors
    ///
    /// Returns the first problem found: missing objective, empty model,
    /// inverted bounds, or non-finite input data.
    pub fn validate(&self) -> Result<(), LpError> {
        if self.vars.is_empty() {
            return Err(LpError::EmptyModel);
        }
        let (_, obj) = self.objective.as_ref().ok_or(LpError::MissingObjective)?;
        if !obj.is_finite() {
            return Err(LpError::NonFiniteInput {
                context: "objective".into(),
            });
        }
        for v in &self.vars {
            if v.lower > v.upper {
                return Err(LpError::InvalidBounds {
                    var: v.name.clone(),
                    lower: v.lower,
                    upper: v.upper,
                });
            }
            if v.lower.is_nan() || v.upper.is_nan() {
                return Err(LpError::NonFiniteInput {
                    context: format!("bounds of variable `{}`", v.name),
                });
            }
        }
        for (i, r) in self.rows.iter().enumerate() {
            if !r.expr.is_finite() || !r.rhs.is_finite() {
                return Err(LpError::NonFiniteInput {
                    context: match &r.name {
                        Some(n) => format!("constraint `{n}`"),
                        None => format!("constraint #{i}"),
                    },
                });
            }
        }
        Ok(())
    }

    /// Solves the model with the two-phase primal simplex.
    ///
    /// Infeasible and unbounded models are reported through
    /// [`Status`](crate::Status) on the returned [`Solution`], not as errors.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid models (see [`Problem::validate`]) or if
    /// the internal iteration safeguard trips.
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.solve_with(SimplexVariant::Dense)
    }

    /// Solves the model with an explicit simplex implementation.
    ///
    /// # Errors
    ///
    /// Same as [`Problem::solve`].
    pub fn solve_with(&self, variant: SimplexVariant) -> Result<Solution, LpError> {
        self.solve_with_budget(variant, crate::recover::SolveBudget::UNLIMITED)
    }

    /// Solves the model under a wall-clock / iteration budget, checked
    /// inside both simplex pivot loops.
    ///
    /// # Errors
    ///
    /// Same as [`Problem::solve`], plus [`LpError::Budget`] when the
    /// budget is exhausted before the solve terminates.
    pub fn solve_with_budget(
        &self,
        variant: SimplexVariant,
        budget: crate::recover::SolveBudget,
    ) -> Result<Solution, LpError> {
        self.solve_with_options(variant, budget, crate::Pricing::default())
    }

    /// [`Problem::solve_with_budget`] with an explicit pricing strategy.
    /// Pricing is honored by the sparse-LU variant; the dense variant
    /// prices its full tableau rows by construction and ignores
    /// it. Every strategy yields the same verdict and optimum.
    ///
    /// # Errors
    ///
    /// Same as [`Problem::solve_with_budget`].
    pub fn solve_with_options(
        &self,
        variant: SimplexVariant,
        budget: crate::recover::SolveBudget,
        pricing: crate::Pricing,
    ) -> Result<Solution, LpError> {
        self.validate()?;
        match variant {
            SimplexVariant::Dense => simplex::solve_budgeted(self, budget),
            SimplexVariant::SparseLu => crate::sparse::solve_budgeted(self, budget, pricing),
        }
    }

    /// Solves warm-starting from a basis snapshot captured by an earlier
    /// optimal solve ([`Solution::basis`](crate::Solution::basis)) of this
    /// or a perturbed copy of this model.
    ///
    /// The snapshot is installed and repaired with a bounded dual/primal
    /// phase instead of a from-scratch phase 1; when it no longer fits the
    /// model (dimensions changed, a row's standard form flipped, the basis
    /// went singular, the repair budget ran out) the solve silently falls
    /// back to the cold path. Warm starts therefore never change a
    /// verdict — an `Infeasible`/`Unbounded` status and its Farkas
    /// certificate always come from the proven cold phase-1 machinery.
    ///
    /// # Errors
    ///
    /// Same as [`Problem::solve`].
    pub fn solve_from_basis(&self, basis: &crate::Basis) -> Result<Solution, LpError> {
        self.solve_from_basis_with(SimplexVariant::Dense, basis)
    }

    /// [`Problem::solve_from_basis`] with an explicit simplex
    /// implementation.
    ///
    /// # Errors
    ///
    /// Same as [`Problem::solve`].
    pub fn solve_from_basis_with(
        &self,
        variant: SimplexVariant,
        basis: &crate::Basis,
    ) -> Result<Solution, LpError> {
        self.solve_from_basis_with_budget(variant, basis, crate::recover::SolveBudget::UNLIMITED)
    }

    /// [`Problem::solve_from_basis_with`] under a wall-clock / iteration
    /// budget (shared by the warm attempt and any cold fallback).
    ///
    /// # Errors
    ///
    /// Same as [`Problem::solve_with_budget`].
    pub fn solve_from_basis_with_budget(
        &self,
        variant: SimplexVariant,
        basis: &crate::Basis,
        budget: crate::recover::SolveBudget,
    ) -> Result<Solution, LpError> {
        self.solve_from_basis_with_options(variant, basis, budget, crate::Pricing::default())
    }

    /// [`Problem::solve_from_basis_with_budget`] with an explicit pricing
    /// strategy (see [`Problem::solve_with_options`]).
    ///
    /// # Errors
    ///
    /// Same as [`Problem::solve_with_budget`].
    pub fn solve_from_basis_with_options(
        &self,
        variant: SimplexVariant,
        basis: &crate::Basis,
        budget: crate::recover::SolveBudget,
        pricing: crate::Pricing,
    ) -> Result<Solution, LpError> {
        self.validate()?;
        match variant {
            SimplexVariant::Dense => simplex::solve_from_basis_budgeted(self, basis, budget),
            SimplexVariant::SparseLu => {
                crate::sparse::solve_from_basis_budgeted(self, basis, budget, pricing)
            }
        }
    }

    /// Crossover: builds a warm-start [`Basis`](crate::Basis) from a bare
    /// primal point (one value per variable), with no prior simplex run.
    ///
    /// This is how a solution produced *outside* the simplex — the
    /// difference-constraint graph backend's schedule, a cached point from
    /// a related model — enters the warm-start machinery: rows with strict
    /// slack at the point get their logical column, tight rows get a
    /// supporting structural column. The guess is best-effort; if it turns
    /// out singular or badly infeasible,
    /// [`Problem::solve_from_basis`] falls back to a cold solve, so the
    /// verdict is never at risk.
    ///
    /// # Errors
    ///
    /// [`LpError`] if `x` has the wrong length or the problem fails
    /// standard-form construction (no objective, malformed bounds, …).
    pub fn basis_from_point(&self, x: &[f64]) -> Result<crate::Basis, LpError> {
        self.validate()?;
        simplex::Tableau::basis_from_point(self, x)
    }
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.objective {
            Some((Objective::Minimize, e)) => writeln!(f, "minimize {e}")?,
            Some((Objective::Maximize, e)) => writeln!(f, "maximize {e}")?,
            None => writeln!(f, "(no objective)")?,
        }
        writeln!(f, "subject to")?;
        for r in &self.rows {
            write!(f, "  ")?;
            if let Some(n) = &r.name {
                write!(f, "[{n}] ")?;
            }
            writeln!(f, "{} {} {}", r.expr, r.sense, r.rhs)?;
        }
        for (i, v) in self.vars.iter().enumerate() {
            if v.lower != 0.0 || v.upper != f64::INFINITY {
                writeln!(
                    f,
                    "  {} in [{}, {}]  ({})",
                    VarId(i),
                    v.lower,
                    v.upper,
                    v.name
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_fold_into_rhs() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let c = p.constrain(x - y + 3.0, Sense::Le, 5.0);
        let (expr, sense, rhs) = p.constraint(c);
        assert_eq!(expr.constant(), 0.0);
        assert_eq!(sense, Sense::Le);
        assert_eq!(rhs, 2.0);
    }

    #[test]
    fn validate_rejects_empty_and_objectiveless() {
        let p = Problem::new();
        assert_eq!(p.validate(), Err(LpError::EmptyModel));
        let mut p = Problem::new();
        p.add_var("x");
        assert_eq!(p.validate(), Err(LpError::MissingObjective));
    }

    #[test]
    fn validate_rejects_bad_bounds_and_nan() {
        let mut p = Problem::new();
        let x = p.add_var_bounded("x", 2.0, 1.0);
        p.minimize(x.into());
        assert!(matches!(p.validate(), Err(LpError::InvalidBounds { .. })));

        let mut p = Problem::new();
        let x = p.add_var("x");
        p.constrain(LinExpr::term(x, f64::NAN), Sense::Le, 1.0);
        p.minimize(x.into());
        assert!(matches!(p.validate(), Err(LpError::NonFiniteInput { .. })));
    }

    #[test]
    fn display_round_trips_senses() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.constrain_named(Some("cap"), x.into(), Sense::Le, 4.0);
        p.minimize(x.into());
        let s = format!("{p}");
        assert!(s.contains("minimize x0"));
        assert!(s.contains("[cap] x0 <= 4"));
    }

    #[test]
    fn set_rhs_updates_row() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let c = p.constrain(x.into(), Sense::Ge, 1.0);
        p.set_rhs(c, 7.0);
        assert_eq!(p.constraint(c).2, 7.0);
    }
}
