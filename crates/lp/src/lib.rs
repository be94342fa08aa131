//! # smo-lp — a dense simplex linear-programming solver
//!
//! This crate is the linear-programming substrate of the SMO latch-timing
//! reproduction. The paper's initial implementation used "a dense-matrix LP
//! solver which implements the standard simplex algorithm" (§V); this crate is
//! exactly that, built from scratch:
//!
//! * a [`Problem`] builder with named variables, bounds, and linear
//!   constraints in `≤` / `≥` / `=` form ([`Sense`]),
//! * a two-phase primal simplex with Dantzig pricing and Bland anti-cycling
//!   fallback ([`Problem::solve`]),
//! * dual values, reduced costs, and slacks on the returned [`Solution`]
//!   (used by the timing engine for critical-segment analysis),
//! * parametric right-hand-side analysis ([`parametric_rhs`])
//!   implementing the paper's §VI "parametric programming" direction — it
//!   returns the exact breakpoints of the optimal objective as a piecewise
//!   linear function of a scalar parameter (this regenerates Fig. 7's
//!   breakpoints without sweeping),
//! * infeasibility diagnosis: infeasible solves carry a Farkas certificate
//!   ([`Solution::farkas`]) and [`extract_iis`] reduces the conflict to an
//!   irreducible infeasible subsystem of named rows,
//! * independent optimality checking ([`Solution::certify`] returning a
//!   [`Certificate`] of KKT residuals) and certified solving with a
//!   numerical recovery ladder ([`Problem::solve_certified`]): alternate
//!   simplex variant, geometric-mean equilibration, and one round of
//!   iterative refinement, all verified against the *original* problem,
//! * solve budgets ([`SolveBudget`]): wall-clock deadlines and iteration
//!   allowances enforced inside both simplex pivot loops,
//! * basis warm-starting ([`Basis`], [`Problem::solve_from_basis`]): every
//!   optimal solve snapshots its basis, and sweep-style workloads re-enter
//!   it with a bounded dual/primal repair instead of a fresh phase 1 —
//!   falling back to the cold path whenever the snapshot no longer fits,
//! * a difference-constraint fast path ([`classify`], [`DifferenceSystem`]):
//!   rows recognized as two-variable differences `x_i − x_j ≤ base + slope·λ`
//!   solve by Bellman–Ford feasibility and Lawler's exact min-cycle-ratio
//!   iteration instead of the simplex, with negative-cycle infeasibility
//!   certificates that [`certifies_infeasibility`] checks exactly like an LP
//!   Farkas vector, and a crossover ([`Problem::basis_from_point`]) that
//!   turns a graph schedule into a warm-start basis for mixed systems.
//!
//! The SMO constraint matrices contain only `0, ±1` entries (§VI), so a dense
//! f64 tableau with modest tolerances ([`EPS`]) is numerically comfortable.
//!
//! ## Example
//!
//! ```
//! use smo_lp::{Problem, Sense};
//!
//! # fn main() -> Result<(), smo_lp::LpError> {
//! // minimize x2 subject to x1 >= 2, x1 >= x2, x1 <= 4, x2 <= 2, x2 >= 1
//! let mut p = Problem::new();
//! let x1 = p.add_var("x1");
//! let x2 = p.add_var("x2");
//! p.constrain(x1.into(), Sense::Ge, 2.0);
//! p.constrain(x1 - x2, Sense::Ge, 0.0);
//! p.constrain(x1.into(), Sense::Le, 4.0);
//! p.constrain(x2.into(), Sense::Le, 2.0);
//! p.constrain(x2.into(), Sense::Ge, 1.0);
//! p.minimize(x2.into());
//! let sol = p.solve()?.into_optimal()?;
//! assert!((sol.objective() - 1.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod basis;
mod error;
mod export;
mod expr;
mod graph;
mod hypersparse;
mod iis;
mod parametric;
mod pricing;
mod problem;
mod recover;
mod scale;
mod simplex;
mod solution;
mod sparse;
mod tol;
mod verify;

pub use basis::Basis;
pub use error::LpError;
pub use export::write_lp;
pub use expr::{LinExpr, VarId};
pub use graph::{
    classify, AffineBound, Classification, DifferenceSystem, FixedParamOutcome, GraphInfeasibility,
    MinParamOutcome, NegativeCycle, ParamLowerWitness, RowClass, VarImage,
};
pub use hypersparse::{LuWorkspace, ScatterVec};
pub use iis::{certifies_infeasibility, extract_iis, Iis};
pub use parametric::{parametric_objective, parametric_rhs, ParametricCurve, ParametricSegment};
pub use pricing::Pricing;
pub use problem::{ConstraintId, Objective, Problem, Sense, SimplexVariant};
pub use recover::{CertifiedSolution, RecoveryPolicy, RecoveryStep, SolveBudget};
pub use solution::{OptimalSolution, Solution, SolveStats, Status};
pub use sparse::LuFactors;
pub use tol::Tol;
pub use verify::Certificate;

/// Absolute tolerance used throughout the solver for feasibility, pivot
/// eligibility and optimality tests.
///
/// The SMO constraint matrices are `0, ±1` valued, so this comfortable
/// tolerance does not mask genuine degeneracy.
pub const EPS: f64 = 1e-9;
