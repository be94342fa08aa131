//! Irreducible infeasible subsystem (IIS) extraction.
//!
//! When a model is infeasible, *which* constraints conflict? An IIS is an
//! infeasible subset of the constraint rows that becomes feasible if any
//! single member is removed — the minimal "story" of the conflict. This
//! module extracts one by the classic **deletion filter**: start from an
//! infeasible subset (seeded by the support of the solver's Farkas
//! certificate, which is usually already small), then try deleting each
//! member once, keeping the deletion whenever the remainder stays
//! infeasible. One pass leaves an irreducible set.
//!
//! Variable bounds are treated as part of the ambient box, not as
//! removable rows: an IIS here means "these rows conflict *given* the
//! declared variable domains", which matches how the SMO timing models
//! are built (non-negativity is structural, eqs. (7)–(9), (18)).

use crate::error::LpError;
use crate::expr::VarId;
use crate::problem::{ConstraintId, Problem, Sense};
use crate::solution::Status;

/// An irreducible infeasible subsystem of a [`Problem`]'s rows.
///
/// Produced by [`extract_iis`]; every member is necessary (removing any
/// one of them makes the remaining subsystem feasible) and the set as a
/// whole is infeasible under the problem's variable bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Iis {
    rows: Vec<ConstraintId>,
}

impl Iis {
    /// The member rows, in ascending [`ConstraintId`] order.
    pub fn rows(&self) -> &[ConstraintId] {
        &self.rows
    }

    /// Number of member rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the IIS has no rows (cannot happen for IISes produced
    /// by [`extract_iis`], which requires an infeasible row set).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// `true` if `c` is a member.
    pub fn contains(&self, c: ConstraintId) -> bool {
        self.rows.binary_search(&c).is_ok()
    }
}

impl Problem {
    /// A copy of this problem containing only the rows in `keep` (same
    /// variables, bounds and objective).
    ///
    /// Row order follows `keep`; constraint ids of the returned problem
    /// index into `keep`, not into `self`.
    ///
    /// # Panics
    ///
    /// Panics if any id in `keep` does not belong to this problem.
    pub fn restricted(&self, keep: &[ConstraintId]) -> Problem {
        Problem {
            vars: self.vars.clone(),
            rows: keep.iter().map(|c| self.rows[c.index()].clone()).collect(),
            objective: self.objective.clone(),
        }
    }
}

/// Solves the subsystem of `p` given by `keep` and reports whether it is
/// infeasible (unbounded and optimal both count as feasible).
fn subsystem_infeasible(p: &Problem, keep: &[ConstraintId]) -> Result<bool, LpError> {
    Ok(p.restricted(keep).solve()?.status() == Status::Infeasible)
}

/// Extracts an irreducible infeasible subsystem from `p`.
///
/// Returns `Ok(None)` when `p` is feasible (or unbounded). Otherwise the
/// returned [`Iis`] satisfies both minimality properties, by
/// construction of the deletion filter:
///
/// * re-solving `p.restricted(iis.rows())` is infeasible, and
/// * removing any single member from it yields a feasible subsystem.
///
/// Cost: one solve of `p` plus at most one solve per candidate row —
/// candidates come from the Farkas certificate's support, so this is
/// usually far fewer than `p.num_constraints()` solves.
///
/// # Errors
///
/// Propagates solver errors ([`Problem::validate`] failures, iteration
/// limit) from any of the subsystem solves.
pub fn extract_iis(p: &Problem) -> Result<Option<Iis>, LpError> {
    let sol = p.solve()?;
    if sol.status() != Status::Infeasible {
        return Ok(None);
    }
    let all: Vec<ConstraintId> = (0..p.num_constraints()).map(ConstraintId).collect();

    // Seed from the Farkas support when it is itself infeasible (it can
    // fail to be only through numerical noise in the certificate).
    let mut members = match sol.farkas() {
        Some(y) => {
            let support: Vec<ConstraintId> = all
                .iter()
                .copied()
                .filter(|c| y[c.index()].abs() > crate::tol::Tol::TIGHT.rel())
                .collect();
            if !support.is_empty()
                && support.len() < all.len()
                && subsystem_infeasible(p, &support)?
            {
                support
            } else {
                all
            }
        }
        None => all,
    };

    // Deletion filter: one removal attempt per member.
    let mut i = 0;
    while i < members.len() {
        if members.len() == 1 {
            break; // a single infeasible row is trivially irreducible
        }
        let mut trial = members.clone();
        trial.remove(i);
        if subsystem_infeasible(p, &trial)? {
            members = trial; // row i was not needed for the conflict
        } else {
            i += 1; // row i is essential, keep it
        }
    }
    Ok(Some(Iis { rows: members }))
}

/// Checks that `y` is a valid Farkas certificate of infeasibility for `p`.
///
/// `y` must have one multiplier per constraint row, with `y_r ≤ 0` on `≤`
/// rows and `y_r ≥ 0` on `≥` rows (`=` rows are free). The check then
/// aggregates the rows into `(Σ y_r a_r)·x ≥ Σ y_r b_r` — implied by
/// feasibility — and verifies that the left-hand side's supremum over the
/// declared variable bounds stays strictly below the right-hand side.
/// When that holds no feasible point can exist, so a `true` return is a
/// machine-checked proof of infeasibility independent of the simplex run
/// that produced `y`.
pub fn certifies_infeasibility(p: &Problem, y: &[f64]) -> bool {
    let tol = crate::tol::Tol::FEAS;
    if y.len() != p.num_constraints() || y.iter().any(|v| !v.is_finite()) {
        return false;
    }
    // Sign conditions per row sense.
    for (c, &yr) in y.iter().enumerate() {
        let (_, sense, _) = p.constraint(ConstraintId(c));
        match sense {
            Sense::Le if yr > tol.rel() => return false,
            Sense::Ge if yr < -tol.rel() => return false,
            _ => {}
        }
    }
    // Aggregate coefficients and RHS, tracking the accumulation scale so
    // cancellation noise is not mistaken for a genuine coefficient.
    let n = p.num_vars();
    let mut coeff = vec![0.0; n];
    let mut scale = vec![0.0; n];
    let mut rhs = 0.0;
    for (c, &yr) in y.iter().enumerate() {
        if yr == 0.0 {
            continue;
        }
        let (expr, _, b) = p.constraint(ConstraintId(c));
        for (v, a) in expr.iter() {
            coeff[v.index()] += yr * a;
            scale[v.index()] += (yr * a).abs();
        }
        rhs += yr * b;
    }
    // sup over the variable box of `coeff·x`.
    let mut sup = 0.0;
    for j in 0..n {
        if coeff[j].abs() <= tol.abs_for(scale[j]) {
            continue; // numerically zero: contributes nothing
        }
        let (lo, up) = p.var_bounds(VarId(j));
        let term = if coeff[j] > 0.0 {
            coeff[j] * up
        } else {
            coeff[j] * lo
        };
        if !term.is_finite() {
            return false; // unbounded in the violating direction
        }
        sup += term;
    }
    sup < rhs - tol.abs_for(rhs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinExpr, Problem, Sense, SimplexVariant};

    /// x ≤ 1 vs x ≥ 2, plus an unrelated satisfiable row.
    fn tiny_conflict() -> (Problem, Vec<ConstraintId>) {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let c0 = p.constrain_named(Some("cap"), x.into(), Sense::Le, 1.0);
        let c1 = p.constrain_named(Some("floor"), x.into(), Sense::Ge, 2.0);
        let c2 = p.constrain_named(Some("bystander"), y.into(), Sense::Ge, 0.5);
        p.minimize(LinExpr::from(x) + y);
        (p, vec![c0, c1, c2])
    }

    #[test]
    fn farkas_certificate_is_produced_and_verifies() {
        let (p, _) = tiny_conflict();
        for variant in [SimplexVariant::Dense, SimplexVariant::SparseLu] {
            let sol = p.solve_with(variant).unwrap();
            assert_eq!(sol.status(), Status::Infeasible);
            let y = sol
                .farkas()
                .expect("infeasible solutions carry a certificate");
            assert!(
                certifies_infeasibility(&p, y),
                "{variant:?} certificate {y:?} does not verify"
            );
        }
    }

    #[test]
    fn feasible_solutions_have_no_certificate() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.constrain(x.into(), Sense::Ge, 1.0);
        p.minimize(x.into());
        let sol = p.solve().unwrap();
        assert_eq!(sol.status(), Status::Optimal);
        assert!(sol.farkas().is_none());
    }

    #[test]
    fn iis_finds_the_two_conflicting_rows() {
        let (p, ids) = tiny_conflict();
        let iis = extract_iis(&p).unwrap().expect("model is infeasible");
        assert_eq!(iis.rows(), &[ids[0], ids[1]]);
        assert!(iis.contains(ids[0]));
        assert!(!iis.contains(ids[2]));
        // infeasible in isolation…
        assert_eq!(
            p.restricted(iis.rows()).solve().unwrap().status(),
            Status::Infeasible
        );
        // …and minimal: each single-row removal is feasible.
        for drop in 0..iis.len() {
            let mut rest = iis.rows().to_vec();
            rest.remove(drop);
            assert_ne!(
                p.restricted(&rest).solve().unwrap().status(),
                Status::Infeasible
            );
        }
    }

    #[test]
    fn extract_iis_returns_none_on_feasible_models() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.constrain(x.into(), Sense::Le, 3.0);
        p.minimize(x.into());
        assert_eq!(extract_iis(&p).unwrap(), None);
    }

    #[test]
    fn iis_handles_chained_conflicts() {
        // x ≤ y − 1, y ≤ z − 1, z ≤ x − 1: a 3-cycle of strict gaps, only
        // jointly infeasible; plus two bystander rows.
        let mut p = Problem::new();
        let x = p.add_free_var("x");
        let y = p.add_free_var("y");
        let z = p.add_free_var("z");
        let a = p.constrain(LinExpr::from(x) - y, Sense::Le, -1.0);
        let b = p.constrain(LinExpr::from(y) - z, Sense::Le, -1.0);
        let c = p.constrain(LinExpr::from(z) - x, Sense::Le, -1.0);
        p.constrain(x.into(), Sense::Ge, -100.0);
        p.constrain(LinExpr::from(y) + z, Sense::Le, 500.0);
        p.minimize(x.into());
        let iis = extract_iis(&p).unwrap().expect("infeasible");
        assert_eq!(iis.rows(), &[a, b, c]);
    }

    #[test]
    fn certificate_check_rejects_wrong_signs_and_lengths() {
        let (p, _) = tiny_conflict();
        // wrong length
        assert!(!certifies_infeasibility(&p, &[1.0]));
        // wrong sign on the ≤ row
        assert!(!certifies_infeasibility(&p, &[1.0, 1.0, 0.0]));
        // all-zero proves nothing
        assert!(!certifies_infeasibility(&p, &[0.0, 0.0, 0.0]));
        // the textbook certificate: −1·(x ≤ 1) + 1·(x ≥ 2) ⇒ 0 ≥ 1
        assert!(certifies_infeasibility(&p, &[-1.0, 1.0, 0.0]));
    }

    #[test]
    fn restricted_preserves_vars_and_objective() {
        let (p, ids) = tiny_conflict();
        let q = p.restricted(&[ids[2]]);
        assert_eq!(q.num_vars(), p.num_vars());
        assert_eq!(q.num_constraints(), 1);
        let s = q.solve().unwrap();
        assert_eq!(s.status(), Status::Optimal);
        // min x + y with only y ≥ 0.5 ⇒ objective 0.5
        assert!((s.objective().unwrap() - 0.5).abs() < 1e-9);
    }
}
