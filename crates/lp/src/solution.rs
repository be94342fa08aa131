//! Solver results: status, primal/dual values, slacks.

use crate::basis::Basis;
use crate::error::LpError;
use crate::expr::VarId;
use crate::problem::ConstraintId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Termination status of a simplex run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Status {
    /// An optimal solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Status::Optimal => write!(f, "optimal"),
            Status::Infeasible => write!(f, "infeasible"),
            Status::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// Result of [`Problem::solve`](crate::Problem::solve).
///
/// For non-[`Optimal`](Status::Optimal) statuses the primal/dual vectors are
/// empty and [`Solution::objective`] is `None`; an
/// [`Infeasible`](Status::Infeasible) solution instead carries a Farkas
/// certificate (see [`Solution::farkas`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Solution {
    pub(crate) status: Status,
    pub(crate) objective: Option<f64>,
    pub(crate) values: Vec<f64>,
    pub(crate) duals: Vec<f64>,
    pub(crate) reduced_costs: Vec<f64>,
    pub(crate) slacks: Vec<f64>,
    pub(crate) iterations: usize,
    pub(crate) farkas: Option<Vec<f64>>,
    pub(crate) basis: Option<Basis>,
    /// Factorization-kernel counters; only the sparse-LU variant fills
    /// these in (`#[serde(default)]` keeps old serialized solutions
    /// readable).
    #[serde(default)]
    pub(crate) stats: Option<SolveStats>,
}

/// Factorization and update counters from a sparse-LU solve, for
/// attributing where the time went (exposed per variant in
/// `BENCH_scale.json`). `None` on the dense variant, which has no eta
/// file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SolveStats {
    /// Fresh basis factorizations after the initial one.
    pub refactorizations: usize,
    /// Total eta nonzeros appended across the whole solve (the measured
    /// update fill the fill-aware trigger bounds).
    pub eta_nnz_total: usize,
    /// Largest eta-file fill observed between refactorizations.
    pub peak_eta_nnz: usize,
    /// `nnz(L+U)` of the final factorization.
    pub factor_nnz: usize,
}

impl Solution {
    /// Termination status.
    pub fn status(&self) -> Status {
        self.status
    }

    /// `true` iff the status is [`Status::Optimal`].
    pub fn is_optimal(&self) -> bool {
        self.status == Status::Optimal
    }

    /// Optimal objective value, if optimal.
    pub fn objective(&self) -> Option<f64> {
        self.objective
    }

    /// Total simplex iterations across both phases.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Farkas certificate of infeasibility, present when the status is
    /// [`Status::Infeasible`].
    ///
    /// The returned vector `y` has one multiplier per constraint row (in
    /// [`ConstraintId`] order) with `y_r ≤ 0` for `≤` rows, `y_r ≥ 0` for
    /// `≥` rows and free sign for `=` rows. Summing `y_r ×` each row
    /// yields an aggregate inequality `(Σ y_r a_r)·x ≥ Σ y_r b_r` that
    /// every feasible point would have to satisfy, yet whose left-hand
    /// side stays below the right-hand side over the entire variable box —
    /// a self-contained proof that no feasible point exists. Rows with
    /// `y_r = 0` play no part in the conflict; the non-zero support is the
    /// natural seed for IIS extraction
    /// ([`extract_iis`](crate::extract_iis)).
    pub fn farkas(&self) -> Option<&[f64]> {
        self.farkas.as_deref()
    }

    /// Basis snapshot captured at an optimal solve, usable to warm-start
    /// later solves of the same (or a perturbed) model through
    /// [`Problem::solve_from_basis`](crate::Problem::solve_from_basis).
    ///
    /// `None` for non-optimal statuses, and for derived solutions
    /// (equilibrated, refined) whose internal basis would not
    /// map back onto the original problem's standard form.
    pub fn basis(&self) -> Option<&Basis> {
        self.basis.as_ref()
    }

    /// Sparse-LU kernel counters (refactorizations, eta fill) for this
    /// solve; `None` under the dense variant.
    pub fn stats(&self) -> Option<&SolveStats> {
        self.stats.as_ref()
    }

    /// Converts into an [`OptimalSolution`], failing if the status is not
    /// optimal.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::NotOptimal`] carrying the actual status.
    pub fn into_optimal(self) -> Result<OptimalSolution, LpError> {
        if self.status == Status::Optimal {
            Ok(OptimalSolution(self))
        } else {
            Err(LpError::NotOptimal {
                status: self.status,
            })
        }
    }
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.status {
            Status::Optimal => write!(
                f,
                "optimal: objective {} after {} iteration(s)",
                self.objective.unwrap_or(f64::NAN),
                self.iterations
            ),
            Status::Infeasible => {
                write!(f, "infeasible after {} iteration(s)", self.iterations)?;
                if let Some(y) = &self.farkas {
                    let support = y.iter().filter(|v| v.abs() > 1e-9).count();
                    write!(f, "; Farkas certificate over {support} row(s)")?;
                }
                Ok(())
            }
            Status::Unbounded => {
                write!(f, "unbounded after {} iteration(s)", self.iterations)
            }
        }
    }
}

/// A solution whose optimality is statically guaranteed, giving non-optional
/// accessors to the primal point, duals, reduced costs and slacks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptimalSolution(Solution);

impl OptimalSolution {
    /// The optimal objective value.
    pub fn objective(&self) -> f64 {
        self.0.objective.expect("optimal solution has an objective")
    }

    /// Value of a decision variable at the optimum.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to the solved problem.
    pub fn value(&self, var: VarId) -> f64 {
        self.0.values[var.index()]
    }

    /// The full primal point, indexed by variable index.
    pub fn values(&self) -> &[f64] {
        &self.0.values
    }

    /// Dual value (shadow price) of a constraint.
    ///
    /// Sign convention: for a minimization problem, the dual of a binding
    /// `≥` constraint is non-negative and the dual of a binding `≤`
    /// constraint is non-positive; increasing the RHS by `ε` changes the
    /// optimum by `dual · ε` (to first order).
    ///
    /// # Panics
    ///
    /// Panics if `c` does not belong to the solved problem.
    pub fn dual(&self, c: ConstraintId) -> f64 {
        self.0.duals[c.index()]
    }

    /// All dual values, indexed by constraint index.
    pub fn duals(&self) -> &[f64] {
        &self.0.duals
    }

    /// Slack of a constraint: `rhs − expr(x*)` for `≤`/`=` rows and
    /// `expr(x*) − rhs` for `≥` rows, i.e. non-negative iff satisfied, zero
    /// iff binding.
    ///
    /// # Panics
    ///
    /// Panics if `c` does not belong to the solved problem.
    pub fn slack(&self, c: ConstraintId) -> f64 {
        self.0.slacks[c.index()]
    }

    /// All slacks, indexed by constraint index.
    pub fn slacks(&self) -> &[f64] {
        &self.0.slacks
    }

    /// Reduced cost of a variable at the optimum (zero for basic variables).
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to the solved problem.
    pub fn reduced_cost(&self, var: VarId) -> f64 {
        self.0.reduced_costs[var.index()]
    }

    /// Total simplex iterations across both phases.
    pub fn iterations(&self) -> usize {
        self.0.iterations
    }

    /// Basis snapshot for warm-starting related solves (see
    /// [`Solution::basis`]).
    pub fn basis(&self) -> Option<&Basis> {
        self.0.basis()
    }

    /// Borrows the underlying [`Solution`].
    pub fn as_solution(&self) -> &Solution {
        &self.0
    }

    /// Recovers the underlying [`Solution`].
    pub fn into_inner(self) -> Solution {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_display() {
        assert_eq!(Status::Optimal.to_string(), "optimal");
        assert_eq!(Status::Infeasible.to_string(), "infeasible");
        assert_eq!(Status::Unbounded.to_string(), "unbounded");
    }

    #[test]
    fn into_optimal_rejects_infeasible() {
        let s = Solution {
            status: Status::Infeasible,
            objective: None,
            values: vec![],
            duals: vec![],
            reduced_costs: vec![],
            slacks: vec![],
            iterations: 3,
            farkas: None,
            basis: None,
            stats: None,
        };
        let err = s.into_optimal().unwrap_err();
        assert_eq!(
            err,
            LpError::NotOptimal {
                status: Status::Infeasible
            }
        );
    }

    #[test]
    fn display_is_self_describing() {
        let mut s = Solution {
            status: Status::Infeasible,
            objective: None,
            values: vec![],
            duals: vec![],
            reduced_costs: vec![],
            slacks: vec![],
            iterations: 3,
            farkas: Some(vec![-1.0, 0.0, 2.0]),
            basis: None,
            stats: None,
        };
        assert_eq!(
            s.to_string(),
            "infeasible after 3 iteration(s); Farkas certificate over 2 row(s)"
        );
        s.status = Status::Optimal;
        s.objective = Some(8.0);
        assert_eq!(s.to_string(), "optimal: objective 8 after 3 iteration(s)");
        s.status = Status::Unbounded;
        assert_eq!(s.to_string(), "unbounded after 3 iteration(s)");
    }
}
