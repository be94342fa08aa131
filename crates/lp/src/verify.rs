//! Independent certification of `Optimal` verdicts.
//!
//! [`certifies_infeasibility`](crate::certifies_infeasibility) (PR 1)
//! closes the loop on the *infeasible* verdict: a Farkas vector is checked
//! against the original rows, so the caller never has to trust the simplex
//! internals. This module does the same for the *optimal* verdict.
//! [`Solution::certify`] re-derives every optimality condition from the
//! original (pre-scaling) [`Problem`] and the returned
//! primal/dual vectors alone:
//!
//! 1. **Primal feasibility** — every row holds at the returned values;
//! 2. **Bound satisfaction** — every variable sits inside its box;
//! 3. **Dual feasibility** — row duals carry the sign their sense demands,
//!    and no reduced cost pushes against an infinite bound;
//! 4. **Stationarity** — `c − Aᵀy = rc`, column by column;
//! 5. **Complementary slackness** — a nonzero dual forces a binding row, a
//!    nonzero reduced cost forces a variable at its bound;
//! 6. **Duality gap** — the primal and dual objectives agree.
//!
//! All residuals are *relative* to the magnitudes that produced them
//! ([`Tol`]); there is no raw-`EPS` comparison anywhere, so the
//! certificate is as meaningful at picosecond scale as at second scale.
//!
//! Sign conventions (matching [`Solution::duals`] /
//! [`Solution::reduced_costs`]): after multiplying by `σ = +1` for
//! `Minimize` and `σ = −1` for `Maximize`, a binding `≥` row has dual
//! `≥ 0`, a binding `≤` row has dual `≤ 0`, and the *effective* reduced
//! cost `g = c − Aᵀy` is `≥ 0` for a variable at its lower bound and
//! `≤ 0` at its upper bound. The solver encodes finite upper bounds as
//! internal `≤` rows whose duals are invisible to the caller, so the
//! *reported* reduced cost of a variable at its upper bound may differ
//! from `g` by that hidden multiplier; the stationarity check admits
//! exactly that discrepancy (correct sign, variable pinned at the bound)
//! and nothing else. All other conditions are evaluated on `g`, so the
//! certificate rests on `(x, y)` and weak duality alone.

use crate::problem::{Objective, Problem, Sense};
use crate::solution::{Solution, Status};
use crate::tol::Tol;
use std::fmt;

/// The result of independently checking an `Optimal` verdict against the
/// original problem. Produced by [`Solution::certify`].
///
/// Each field is the *worst relative residual* of one optimality
/// condition; the verdict is certified when every residual is at most
/// [`Certificate::tol`]. A solution whose status is not
/// [`Status::Optimal`] yields an infinite-residual (invalid) certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Worst relative violation of a constraint row (primal feasibility).
    pub primal: f64,
    /// Worst relative violation of a variable bound.
    pub bounds: f64,
    /// Worst relative stationarity residual: how far the reported reduced
    /// cost `rc_j` is from the effective `c_j − Σᵢ aᵢⱼ yᵢ`, beyond what a
    /// hidden upper-bound multiplier can explain.
    pub stationarity: f64,
    /// Worst relative dual-sign violation (row dual with the wrong sign
    /// for its sense, or a reduced cost pushing against an infinite
    /// bound).
    pub dual_sign: f64,
    /// Worst relative complementary-slackness violation (nonzero dual on
    /// a slack row, or nonzero reduced cost on an interior variable).
    pub complementarity: f64,
    /// Relative gap between the primal and dual objective values.
    pub gap: f64,
    tol: Tol,
}

impl Certificate {
    /// A certificate that fails every check (used for non-optimal or
    /// malformed solutions).
    fn invalid() -> Self {
        Certificate {
            primal: f64::INFINITY,
            bounds: f64::INFINITY,
            stationarity: f64::INFINITY,
            dual_sign: f64::INFINITY,
            complementarity: f64::INFINITY,
            gap: f64::INFINITY,
            tol: Tol::FEAS,
        }
    }

    /// The relative tolerance every residual is judged against.
    pub fn tol(&self) -> f64 {
        self.tol.rel()
    }

    /// Does every residual pass? `true` means the `Optimal` verdict is
    /// machine-checked against the original problem.
    pub fn is_valid(&self) -> bool {
        // NaN compares false, so a NaN residual correctly fails here.
        self.residuals().iter().all(|&(_, r)| r <= self.tol.rel())
    }

    /// The largest residual across all six conditions (NaN-safe: NaN maps
    /// to `+∞`).
    pub fn worst(&self) -> f64 {
        self.residuals()
            .iter()
            .map(|&(_, r)| if r.is_nan() { f64::INFINITY } else { r })
            .fold(0.0, f64::max)
    }

    /// The name and value of the worst residual.
    pub fn worst_named(&self) -> (&'static str, f64) {
        let mut out = ("primal", 0.0f64);
        for &(name, r) in &self.residuals() {
            let r = if r.is_nan() { f64::INFINITY } else { r };
            if r >= out.1 {
                out = (name, r);
            }
        }
        out
    }

    /// All residuals with their condition names, in checking order.
    pub fn residuals(&self) -> [(&'static str, f64); 6] {
        [
            ("primal", self.primal),
            ("bounds", self.bounds),
            ("stationarity", self.stationarity),
            ("dual sign", self.dual_sign),
            ("complementarity", self.complementarity),
            ("duality gap", self.gap),
        ]
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_valid() {
            write!(
                f,
                "certified optimal (worst residual {:.3e} <= {:.0e} relative)",
                self.worst(),
                self.tol.rel()
            )
        } else {
            let (name, worst) = self.worst_named();
            write!(
                f,
                "NOT certified: {name} residual {worst:.3e} exceeds {:.0e} relative",
                self.tol.rel()
            )
        }
    }
}

/// NaN-safe running maximum: a NaN residual poisons the certificate as
/// `+∞` rather than being silently dropped by `f64::max`.
fn bump(worst: &mut f64, r: f64) {
    *worst = worst.max(if r.is_nan() { f64::INFINITY } else { r });
}

impl Solution {
    /// Independently certifies this solution's `Optimal` verdict against
    /// `p` — the *original* problem, before any scaling.
    ///
    /// The check uses only the returned primal values, duals and reduced
    /// costs; nothing is trusted from the solver's internal state. See the
    /// [module docs](crate::verify) for the conditions and sign
    /// conventions. Solutions with a non-`Optimal` status, or with vectors
    /// that do not match the problem's shape, yield an invalid
    /// certificate.
    pub fn certify(&self, p: &Problem) -> Certificate {
        let tol = Tol::FEAS;
        let n = p.vars.len();
        let m = p.rows.len();
        let Some((direction, obj)) = p.objective.as_ref() else {
            return Certificate::invalid();
        };
        if self.status() != Status::Optimal
            || self.values.len() != n
            || self.duals.len() != m
            || self.reduced_costs.len() != n
        {
            return Certificate::invalid();
        }
        let sigma = match direction {
            Objective::Minimize => 1.0,
            Objective::Maximize => -1.0,
        };
        let x = &self.values;
        let dual_scale = self
            .duals
            .iter()
            .fold(0.0f64, |a, &y| a.max(y.abs()))
            .max(1.0);

        let mut primal = 0.0f64;
        let mut dual_sign = 0.0f64;
        let mut complementarity = 0.0f64;
        // Per-column accumulators for stationarity: Σᵢ aᵢⱼ yᵢ and its
        // cancellation scale Σᵢ |aᵢⱼ yᵢ|.
        let mut aty = vec![0.0f64; n];
        let mut aty_scale = vec![0.0f64; n];
        // Dual objective: Σᵢ yᵢ bᵢ (normalized) plus bound terms below.
        let mut dual_obj = 0.0f64;

        for (row, &y) in p.rows.iter().zip(&self.duals) {
            // Row activity with its cancellation scale.
            let mut activity = 0.0;
            let mut act_scale = row.rhs.abs();
            for (var, coeff) in row.expr.iter() {
                let term = coeff * x[var.index()];
                activity += term;
                act_scale += term.abs();
                aty[var.index()] += coeff * y;
                aty_scale[var.index()] += (coeff * y).abs();
            }
            // 1. Primal feasibility.
            let viol = match row.sense {
                Sense::Le => activity - row.rhs,
                Sense::Ge => row.rhs - activity,
                Sense::Eq => (activity - row.rhs).abs(),
            };
            bump(&mut primal, tol.violation(viol, 0.0, act_scale));

            // 3. Dual sign per sense (normalized orientation).
            let yn = sigma * y;
            let wrong = match row.sense {
                Sense::Le => yn.max(0.0),
                Sense::Ge => (-yn).max(0.0),
                Sense::Eq => 0.0,
            };
            bump(&mut dual_sign, wrong / dual_scale);

            // 5. Complementary slackness on rows: either the dual or the
            // slack must vanish (relative to their own scales).
            if !matches!(row.sense, Sense::Eq) {
                let slack = match row.sense {
                    Sense::Le => row.rhs - activity,
                    Sense::Ge => activity - row.rhs,
                    Sense::Eq => 0.0,
                };
                let rel_y = y.abs() / dual_scale;
                let rel_slack = slack.abs() / (1.0 + act_scale);
                bump(&mut complementarity, rel_y.min(rel_slack));
            }

            dual_obj += sigma * y * row.rhs;
        }

        let mut bounds = 0.0f64;
        let mut stationarity = 0.0f64;
        for (j, (var, &xj)) in p.vars.iter().zip(x).enumerate() {
            // 2. Bound satisfaction.
            if var.lower.is_finite() {
                let scale = xj.abs().max(var.lower.abs());
                bump(&mut bounds, tol.violation(var.lower - xj, 0.0, scale));
            }
            if var.upper.is_finite() {
                let scale = xj.abs().max(var.upper.abs());
                bump(&mut bounds, tol.violation(xj - var.upper, 0.0, scale));
            }

            // The *effective* reduced cost is derived from the duals
            // alone: g_j = c_j − Σᵢ aᵢⱼ yᵢ. The optimality conditions are
            // checked on g_j, so the certificate rests on (x, y) and weak
            // duality, not on trusting the reported reduced costs.
            let cj = obj.coeff(crate::expr::VarId(j));
            let rc = self.reduced_costs[j];
            let g = cj - aty[j];
            let gscale = 1.0 + cj.abs() + aty_scale[j] + rc.abs();

            // 4. Stationarity (consistency of the reported reduced cost):
            // the solver folds finite upper bounds into internal `≤` rows
            // whose duals are not part of the user-visible vector, so
            // rc_j may differ from g_j by an upper-bound multiplier
            // μ_j = g_j − rc_j — admissible only with the `≤`-row sign
            // (normalized μ ≤ 0) and only when x_j sits at its upper
            // bound. Anywhere else rc_j must equal g_j.
            let mu_n = sigma * (g - rc) / gscale;
            let at_ub = var.upper.is_finite()
                && (var.upper - xj).abs() <= tol.abs_for(xj.abs().max(var.upper.abs()));
            let resid = if at_ub { mu_n.max(0.0) } else { mu_n.abs() };
            bump(&mut stationarity, resid);

            // 3b/5b. Direction and complementarity of the effective
            // reduced cost: (normalized) positive holds the variable at
            // its lower bound, negative at its upper bound; pushing
            // against an infinite bound is dual-infeasible.
            let gn = sigma * g;
            let rel_g = gn.abs() / gscale;
            if gn > 0.0 {
                if var.lower.is_finite() {
                    let dist = (xj - var.lower).abs() / (1.0 + xj.abs() + var.lower.abs());
                    bump(&mut complementarity, rel_g.min(dist));
                    dual_obj += gn * var.lower;
                } else {
                    bump(&mut dual_sign, rel_g);
                }
            } else if gn < 0.0 {
                if var.upper.is_finite() {
                    let dist = (var.upper - xj).abs() / (1.0 + xj.abs() + var.upper.abs());
                    bump(&mut complementarity, rel_g.min(dist));
                    dual_obj += gn * var.upper;
                } else {
                    bump(&mut dual_sign, rel_g);
                }
            }
        }

        // 6. Duality gap, on the linear parts (the objective constant is
        // shared by both sides and cancels). The primal value is
        // re-evaluated from the returned point, never read back from the
        // solver.
        let primal_obj = sigma * (obj.eval(x) - obj.constant());
        let gap = (primal_obj - dual_obj).abs() / (1.0 + primal_obj.abs() + dual_obj.abs());

        Certificate {
            primal,
            bounds,
            stationarity,
            dual_sign,
            complementarity,
            gap: if gap.is_nan() { f64::INFINITY } else { gap },
            tol,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::problem::SimplexVariant;
    use proptest::prelude::*;

    /// A tiny hand-checkable LP: min x + 2y s.t. x + y ≥ 4, x ≤ 3.
    /// Optimum (3, 1), objective 5.
    fn tiny() -> Problem {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.constrain(
            LinExpr::term(x, 1.0) + LinExpr::term(y, 1.0),
            Sense::Ge,
            4.0,
        );
        p.constrain(LinExpr::term(x, 1.0), Sense::Le, 3.0);
        p.minimize(LinExpr::term(x, 1.0) + LinExpr::term(y, 2.0));
        p
    }

    #[test]
    fn accepts_both_variants_on_a_tiny_lp() {
        let p = tiny();
        for variant in [SimplexVariant::Dense, SimplexVariant::SparseLu] {
            let sol = p.solve_with(variant).expect("solves");
            let cert = sol.certify(&p);
            assert!(cert.is_valid(), "{variant:?}: {cert}");
            assert!(
                cert.worst() < 1e-9,
                "{variant:?}: residual {}",
                cert.worst()
            );
        }
    }

    #[test]
    fn accepts_a_maximize_lp() {
        let mut p = Problem::new();
        let x = p.add_var_bounded("x", 0.0, 10.0);
        let y = p.add_var_bounded("y", 0.0, 10.0);
        p.constrain(
            LinExpr::term(x, 1.0) + LinExpr::term(y, 1.0),
            Sense::Le,
            12.0,
        );
        p.maximize(LinExpr::term(x, 3.0) + LinExpr::term(y, 1.0));
        let sol = p.solve().expect("solves");
        let cert = sol.certify(&p);
        assert!(cert.is_valid(), "{cert}");
    }

    #[test]
    fn rejects_non_optimal_and_mismatched_shapes() {
        let p = tiny();
        let mut sol = p.solve().expect("solves");
        let cert_ok = sol.certify(&p);
        assert!(cert_ok.is_valid());
        sol.values.push(0.0); // wrong arity
        assert!(!sol.certify(&p).is_valid());
    }

    #[test]
    fn display_names_the_failing_condition() {
        let p = tiny();
        let mut sol = p.solve().expect("solves");
        sol.duals[0] = -sol.duals[0] - 1.0; // Ge row dual goes negative
        let cert = sol.certify(&p);
        assert!(!cert.is_valid());
        let text = cert.to_string();
        assert!(text.contains("NOT certified"), "{text}");
    }

    #[test]
    fn scale_invariance_of_the_certificate() {
        // The same model at 1e6× the magnitudes must certify identically.
        for scale in [1.0, 1e-6, 1e6] {
            let mut p = Problem::new();
            let x = p.add_var("x");
            let y = p.add_var("y");
            p.constrain(
                LinExpr::term(x, 1.0) + LinExpr::term(y, 1.0),
                Sense::Ge,
                4.0 * scale,
            );
            p.constrain(LinExpr::term(x, 1.0), Sense::Le, 3.0 * scale);
            p.minimize(LinExpr::term(x, 1.0) + LinExpr::term(y, 2.0));
            let sol = p.solve().expect("solves");
            let cert = sol.certify(&p);
            assert!(cert.is_valid(), "scale {scale}: {cert}");
        }
    }

    /// Strategy: a random feasible, bounded LP (box-constrained minimize
    /// with rows generated around an interior point).
    #[derive(Debug, Clone)]
    struct LpSpec {
        ub: Vec<f64>,                   // per-var upper bound
        point: Vec<f64>,                // interior point (fraction of ub)
        costs: Vec<f64>,                // strictly positive objective
        rows: Vec<(Vec<f64>, u8, f64)>, // (coeffs, sense code, slack)
    }

    fn lp_strategy() -> impl Strategy<Value = LpSpec> {
        (2usize..=6).prop_flat_map(|n| {
            let bounds = proptest::collection::vec(1.0f64..50.0, n..=n);
            let point = proptest::collection::vec(0.05f64..0.95, n..=n);
            let costs = proptest::collection::vec(0.1f64..5.0, n..=n);
            let row = (
                proptest::collection::vec(-3.0f64..3.0, n..=n),
                0u8..3,
                0.0f64..10.0,
            );
            let rows = proptest::collection::vec(row, 1..=2 * n);
            (bounds, point, costs, rows).prop_map(|(ub, point, costs, rows)| LpSpec {
                ub,
                point,
                costs,
                rows,
            })
        })
    }

    fn build_lp(spec: &LpSpec) -> Problem {
        let mut p = Problem::new();
        let vars: Vec<_> = spec
            .ub
            .iter()
            .enumerate()
            .map(|(i, &u)| p.add_var_bounded(format!("x{i}"), 0.0, u))
            .collect();
        let x0: Vec<f64> = spec
            .point
            .iter()
            .zip(&spec.ub)
            .map(|(&f, &u)| f * u)
            .collect();
        let mut obj = LinExpr::new();
        for (&c, &v) in spec.costs.iter().zip(&vars) {
            obj = obj + LinExpr::term(v, c);
        }
        p.minimize(obj);
        for (coeffs, sense, slack) in &spec.rows {
            let mut expr = LinExpr::new();
            let mut at_point = 0.0;
            for ((&a, &v), &xi) in coeffs.iter().zip(&vars).zip(&x0) {
                expr = expr + LinExpr::term(v, a);
                at_point += a * xi;
            }
            // rhs chosen so the interior point satisfies the row.
            match sense % 3 {
                0 => p.constrain(expr, Sense::Le, at_point + slack),
                1 => p.constrain(expr, Sense::Ge, at_point - slack),
                _ => p.constrain(expr, Sense::Eq, at_point),
            };
        }
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Acceptance: every optimal solve of a random LP certifies, with
        /// both simplex variants.
        #[test]
        fn prop_certify_accepts_optimal_solves(spec in lp_strategy()) {
            let p = build_lp(&spec);
            for variant in [SimplexVariant::Dense, SimplexVariant::SparseLu] {
                let sol = p.solve_with(variant).expect("runs");
                if sol.status() == Status::Optimal {
                    let cert = sol.certify(&p);
                    prop_assert!(cert.is_valid(), "{variant:?}: {cert}");
                }
            }
        }

        /// Mutation: perturbing any primal variable away from the optimum
        /// is caught (the objective is strictly positive, so sliding a
        /// value up either breaks feasibility or opens a duality gap).
        #[test]
        fn prop_certify_rejects_perturbed_variable(
            spec in lp_strategy(),
            which in 0usize..64,
        ) {
            let p = build_lp(&spec);
            let mut sol = p.solve().expect("runs");
            prop_assume!(sol.status() == Status::Optimal);
            prop_assume!(sol.certify(&p).is_valid());
            let j = which % sol.values.len();
            let scale = sol.values.iter().fold(1.0f64, |a, v| a.max(v.abs()));
            sol.values[j] += 0.5 * scale;
            let cert = sol.certify(&p);
            prop_assert!(!cert.is_valid(), "mutation survived: {cert}");
        }

        /// Mutation: flipping the sign of a significant dual is caught via
        /// the sign convention or the stationarity residual.
        #[test]
        fn prop_certify_rejects_flipped_dual(
            spec in lp_strategy(),
            which in 0usize..64,
        ) {
            let p = build_lp(&spec);
            let mut sol = p.solve().expect("runs");
            prop_assume!(sol.status() == Status::Optimal);
            prop_assume!(sol.certify(&p).is_valid());
            let significant: Vec<usize> = sol
                .duals
                .iter()
                .enumerate()
                .filter(|(_, y)| y.abs() > 1e-3)
                .map(|(i, _)| i)
                .collect();
            prop_assume!(!significant.is_empty());
            let i = significant[which % significant.len()];
            sol.duals[i] = -sol.duals[i];
            let cert = sol.certify(&p);
            prop_assert!(!cert.is_valid(), "mutation survived: {cert}");
        }

        /// Mutation: planting a correctly-signed dual on a row with real
        /// slack breaks complementary slackness and is caught.
        #[test]
        fn prop_certify_rejects_broken_complementarity(
            spec in lp_strategy(),
            which in 0usize..64,
        ) {
            let p = build_lp(&spec);
            let mut sol = p.solve().expect("runs");
            prop_assume!(sol.status() == Status::Optimal);
            prop_assume!(sol.certify(&p).is_valid());
            // rows with genuine slack and a ~zero dual
            let loose: Vec<(usize, f64)> = p
                .rows
                .iter()
                .enumerate()
                .filter_map(|(i, row)| {
                    let activity = row.expr.eval(&sol.values);
                    let slack = match row.sense {
                        Sense::Le => row.rhs - activity,
                        Sense::Ge => activity - row.rhs,
                        Sense::Eq => return None,
                    };
                    let sign = match row.sense {
                        Sense::Le => -1.0, // minimize: binding ≤ has y ≤ 0
                        _ => 1.0,
                    };
                    (slack > 1e-2 * (1.0 + row.rhs.abs()) && sol.duals[i].abs() < 1e-9)
                        .then_some((i, sign))
                })
                .collect();
            prop_assume!(!loose.is_empty());
            let (i, sign) = loose[which % loose.len()];
            sol.duals[i] = sign; // right sign, wrong row: pure CS break
            let cert = sol.certify(&p);
            prop_assert!(!cert.is_valid(), "mutation survived: {cert}");
        }
    }
}
