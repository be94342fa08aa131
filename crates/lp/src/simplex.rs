//! Dense two-phase primal simplex with Bland anti-cycling fallback.
//!
//! The implementation works on a classical dense tableau. Models are brought
//! to standard form as follows:
//!
//! * a variable with a finite lower bound `lo` is shifted, `x = lo + x'`,
//!   `x' ≥ 0`;
//! * a free variable is split, `x = x⁺ − x⁻`;
//! * a finite upper bound becomes an extra `≤` row (in the shifted variable);
//! * every row is normalized to a non-negative right-hand side (recording the
//!   sign flip so dual values can be mapped back);
//! * `≤` rows get a slack column (initially basic), `≥` rows a surplus and an
//!   artificial column, `=` rows an artificial column.
//!
//! Phase 1 minimizes the sum of artificials; phase 2 the real objective.
//! Pricing is Dantzig (most negative reduced cost) switching to Bland's rule
//! after a fixed number of iterations, which guarantees termination.
//!
//! The tableau carries one extra **parametric** column alongside the RHS; it
//! is transformed by every pivot and is used by [`crate::parametric`] to run
//! the Gass–Saaty parametric-RHS procedure on the optimal tableau.

use crate::basis::{Basis, BasisEntry};
use crate::error::LpError;
use crate::problem::{Problem, Sense};
use crate::solution::{Solution, Status};
use crate::EPS;

/// What a standard-form column represents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ColKind {
    /// Part of user variable `var`: contributes `sign · col_value`.
    Structural { var: usize, sign: f64 },
    /// Slack of standard-form row `row` (`+1` coefficient).
    Slack { row: usize },
    /// Surplus of standard-form row `row` (`−1` coefficient).
    Surplus { row: usize },
    /// Artificial of standard-form row `row` (`+1` coefficient).
    Artificial { row: usize },
}

use crate::sparse::VarCols;

/// Standard-form tableau shared between the primal solver and the parametric
/// post-processor.
#[derive(Debug, Clone)]
pub(crate) struct Tableau {
    /// `m` rows of width `ncols + 2`: columns, then RHS, then parametric Δ.
    pub(crate) tab: Vec<Vec<f64>>,
    /// Basic column index per row.
    pub(crate) basis: Vec<usize>,
    pub(crate) ncols: usize,
    pub(crate) col_kinds: Vec<ColKind>,
    /// Phase-2 cost per column, already in *minimize* orientation.
    pub(crate) costs: Vec<f64>,
    /// Current reduced-cost row for the phase-2 costs (valid after solve).
    pub(crate) z: Vec<f64>,
    /// Optional second reduced-cost row (used by parametric objective
    /// ranging); transformed by every pivot alongside `z`.
    pub(crate) z2: Option<Vec<f64>>,
    /// `+1.0` for minimize, `−1.0` for maximize.
    pub(crate) sense_factor: f64,
    /// Per standard-form row: was the row negated during normalization?
    row_flip: Vec<bool>,
    /// For standard row `r`, the column whose reduced cost yields the dual:
    /// prefer the artificial, else the slack.
    dual_col: Vec<usize>,
    /// Number of leading standard rows that correspond 1:1 to user rows.
    pub(crate) user_rows: usize,
    /// FNV-1a hash of the standard-form matrix (coefficients only, no
    /// RHS), computed at build time before any pivot. Two builds with the
    /// same hash share every column, so a basis factorization carries over.
    pub(crate) matrix_hash: u64,
    var_cols: Vec<VarCols>,
    pub(crate) iterations: usize,
    /// Caller-supplied wall-clock / iteration budget, consulted inside
    /// the pivot loop every [`crate::recover::BUDGET_CHECK_EVERY`] pivots.
    pub(crate) budget: crate::recover::SolveBudget,
}

const RHS: usize = 0; // symbolic: rhs column is at index ncols + RHS
const PARAM: usize = 1; // parametric column is at index ncols + PARAM

impl Tableau {
    #[inline]
    pub(crate) fn rhs(&self, r: usize) -> f64 {
        self.tab[r][self.ncols + RHS]
    }

    #[inline]
    pub(crate) fn param(&self, r: usize) -> f64 {
        self.tab[r][self.ncols + PARAM]
    }

    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.tab.len()
    }

    /// Builds the standard-form tableau for `p`. `param` gives the per-user-row
    /// RHS perturbation direction (defaults to all zeros).
    pub(crate) fn build(p: &Problem, param: Option<&[f64]>) -> Result<Tableau, LpError> {
        Ok(Tableau::from_std_form(crate::sparse::StdForm::build(
            p, param,
        )?))
    }

    /// Densifies the shared CSC standard form into the classic tableau
    /// layout: one row of width `ncols + 2` per constraint (columns, then
    /// RHS, then the parametric Δ). Every standard-form convention —
    /// column order, RHS normalization, the matrix hash — is inherited
    /// from [`StdForm`](crate::sparse::StdForm), so the dense and
    /// sparse-LU variants agree on them by construction.
    pub(crate) fn from_std_form(sf: crate::sparse::StdForm) -> Tableau {
        let m = sf.m;
        let ncols = sf.ncols;
        let mut tab = vec![vec![0.0; ncols + 2]; m];
        for (j, col) in sf.cols.iter().enumerate() {
            for &(r, v) in col {
                tab[r][j] = v;
            }
        }
        for (r, row) in tab.iter_mut().enumerate() {
            row[ncols + RHS] = sf.rhs[r];
            row[ncols + PARAM] = sf.param[r];
        }
        Tableau {
            tab,
            basis: sf.initial_basis,
            ncols,
            col_kinds: sf.col_kinds,
            costs: sf.costs,
            z: vec![0.0; ncols],
            z2: None,
            sense_factor: sf.sense_factor,
            row_flip: sf.row_flip,
            dual_col: sf.dual_col,
            user_rows: sf.user_rows,
            matrix_hash: sf.matrix_hash,
            var_cols: sf.var_cols,
            iterations: 0,
            budget: crate::recover::SolveBudget::UNLIMITED,
        }
    }

    /// Snapshots an arbitrary basic-column list as a [`Basis`] in
    /// problem-structure terms.
    pub(crate) fn capture_basis_from(&self, basic: &[usize]) -> Basis {
        let entries = basic
            .iter()
            .map(|&b| match self.col_kinds[b] {
                ColKind::Structural { var, sign } => BasisEntry::Structural {
                    var,
                    negative: sign < 0.0,
                },
                ColKind::Slack { row } => BasisEntry::Slack { row },
                ColKind::Surplus { row } => BasisEntry::Surplus { row },
                ColKind::Artificial { row } => BasisEntry::Artificial { row },
            })
            .collect();
        Basis {
            entries,
            num_vars: self.var_cols.len(),
            user_rows: self.user_rows,
            ncols: self.ncols,
            matrix_hash: self.matrix_hash,
        }
    }

    /// Snapshots the tableau's current basis.
    pub(crate) fn capture_basis(&self) -> Basis {
        self.capture_basis_from(&self.basis)
    }

    /// Crossover: guesses a basis that supports the primal point `x`
    /// (user-variable space), for warm-starting a simplex solve from a
    /// solution obtained outside the simplex — e.g. the graph fast path's
    /// schedule on the difference subset of a mixed system.
    ///
    /// Per standard-form row, the slack/surplus is made basic when the row
    /// has strict slack at `x`; tight rows take an unused structural
    /// column that is positive at `x` (largest pivot coefficient first),
    /// or park a logical column at zero when none remains. The result is
    /// not guaranteed nonsingular or feasible — the warm-start entry path
    /// validates and silently falls back to a cold solve, so a poor guess
    /// costs nothing but the attempt.
    pub(crate) fn basis_from_point(p: &Problem, x: &[f64]) -> Result<Basis, LpError> {
        if x.len() != p.vars.len() {
            return Err(LpError::Numerical {
                context: format!(
                    "basis_from_point: {} values for {} variables",
                    x.len(),
                    p.vars.len()
                ),
            });
        }
        let t = Tableau::build(p, None)?;
        // Standard-form values of the structural columns at `x`.
        let mut xstd = vec![0.0; t.ncols];
        for (v, vc) in t.var_cols.iter().enumerate() {
            match *vc {
                VarCols::Shifted { col, shift } => xstd[col] = x[v] - shift,
                VarCols::Split { pos, neg } => {
                    xstd[pos] = x[v].max(0.0);
                    xstd[neg] = (-x[v]).max(0.0);
                }
            }
        }
        let m = t.rows();
        let mut slack_of = vec![usize::MAX; m];
        let mut surplus_of = vec![usize::MAX; m];
        let mut art_of = vec![usize::MAX; m];
        let mut nstruct = 0usize;
        for (c, k) in t.col_kinds.iter().enumerate() {
            match *k {
                ColKind::Structural { .. } => nstruct += 1,
                ColKind::Slack { row } => slack_of[row] = c,
                ColKind::Surplus { row } => surplus_of[row] = c,
                ColKind::Artificial { row } => art_of[row] = c,
            }
        }
        let mut used = vec![false; t.ncols];
        let mut basic = vec![usize::MAX; m];
        let mut tight: Vec<usize> = Vec::new();
        for (r, slot) in basic.iter_mut().enumerate() {
            let activity: f64 = (0..nstruct).map(|c| t.tab[r][c] * xstd[c]).sum();
            let resid = t.rhs(r) - activity;
            if slack_of[r] != usize::MAX && resid > crate::EPS {
                *slot = slack_of[r];
                used[slack_of[r]] = true;
            } else if surplus_of[r] != usize::MAX && resid < -crate::EPS {
                *slot = surplus_of[r];
                used[surplus_of[r]] = true;
            } else {
                tight.push(r);
            }
        }
        for &r in &tight {
            let mut best: Option<(usize, f64)> = None;
            for c in 0..nstruct {
                if used[c] || xstd[c] <= crate::EPS {
                    continue;
                }
                let a = t.tab[r][c].abs();
                if a > crate::EPS && best.is_none_or(|(_, ba)| a > ba) {
                    best = Some((c, a));
                }
            }
            let col = match best {
                Some((c, _)) => c,
                // Degenerate row: park a logical column at value zero.
                None if art_of[r] != usize::MAX => art_of[r],
                None if slack_of[r] != usize::MAX => slack_of[r],
                None => surplus_of[r],
            };
            basic[r] = col;
            used[col] = true;
        }
        Ok(t.capture_basis_from(&basic))
    }

    /// Resolves a snapshot's entries to column indices of *this* tableau,
    /// or `None` when the snapshot is incompatible (different dimensions,
    /// or an entry with no matching column — e.g. a row whose RHS
    /// normalization flipped, swapping its slack for a surplus).
    pub(crate) fn basis_columns(&self, basis: &Basis) -> Option<Vec<usize>> {
        if basis.num_vars != self.var_cols.len()
            || basis.user_rows != self.user_rows
            || basis.ncols != self.ncols
            || basis.entries.len() != self.rows()
        {
            return None;
        }
        basis
            .entries
            .iter()
            .map(|e| {
                let want = match *e {
                    BasisEntry::Structural { var, negative } => ColKind::Structural {
                        var,
                        sign: if negative { -1.0 } else { 1.0 },
                    },
                    BasisEntry::Slack { row } => ColKind::Slack { row },
                    BasisEntry::Surplus { row } => ColKind::Surplus { row },
                    BasisEntry::Artificial { row } => ColKind::Artificial { row },
                };
                self.col_kinds.iter().position(|k| *k == want)
            })
            .collect()
    }

    /// Recomputes the reduced-cost row `z = c − c_B·B⁻¹A` for cost vector `c`.
    pub(crate) fn reduced_costs_for(&self, costs: &[f64]) -> Vec<f64> {
        let mut z = costs.to_vec();
        for (r, &b) in self.basis.iter().enumerate() {
            let cb = costs[b];
            if cb != 0.0 {
                let row = &self.tab[r];
                for (j, zj) in z.iter_mut().enumerate() {
                    *zj -= cb * row[j];
                }
            }
        }
        z
    }

    /// Performs one pivot on `(row, col)`, updating the tableau, the basis
    /// and the reduced-cost row.
    pub(crate) fn pivot(&mut self, row: usize, col: usize) {
        let width = self.ncols + 2;
        let piv = self.tab[row][col];
        debug_assert!(piv.abs() > EPS, "pivot on near-zero element");
        let inv = 1.0 / piv;
        for j in 0..width {
            self.tab[row][j] *= inv;
        }
        // exact unit pivot column in the pivot row
        self.tab[row][col] = 1.0;
        // Split the rows around the pivot row so the elimination can stream
        // over slices instead of double-indexing every element.
        let (before, rest) = self.tab.split_at_mut(row);
        let Some((pivot_row, after)) = rest.split_first_mut() else {
            return; // row ≥ tab.len(): nothing to eliminate against
        };
        for r in before.iter_mut().chain(after.iter_mut()) {
            let factor = r[col];
            if factor != 0.0 {
                for (dst, &src) in r.iter_mut().zip(pivot_row.iter()).take(width) {
                    *dst -= factor * src;
                }
                r[col] = 0.0;
            }
        }
        let zfac = self.z[col];
        if zfac != 0.0 {
            for j in 0..self.ncols {
                self.z[j] -= zfac * self.tab[row][j];
            }
            self.z[col] = 0.0;
        }
        if let Some(z2) = &mut self.z2 {
            let z2fac = z2[col];
            if z2fac != 0.0 {
                for (j, z2j) in z2.iter_mut().enumerate().take(self.ncols) {
                    *z2j -= z2fac * self.tab[row][j];
                }
                z2[col] = 0.0;
            }
        }
        self.basis[row] = col;
        self.iterations += 1;
    }

    /// Primal simplex on the current basis for cost vector `costs`
    /// (minimize). `allow_artificial_entering` is true only in phase 1.
    ///
    /// Returns `Ok(true)` on optimal, `Ok(false)` on unbounded.
    fn primal_loop(
        &mut self,
        costs: &[f64],
        allow_artificial_entering: bool,
        limit: usize,
    ) -> Result<bool, LpError> {
        self.z = self.reduced_costs_for(costs);
        let bland_after = self.iterations + 10 * (self.rows() + self.ncols);
        loop {
            if self.iterations > limit {
                return Err(LpError::IterationLimit { limit });
            }
            if self
                .iterations
                .is_multiple_of(crate::recover::BUDGET_CHECK_EVERY)
            {
                self.budget.check(self.iterations)?;
            }
            let bland = self.iterations > bland_after;
            // entering column
            let mut enter = None;
            let mut best = -EPS;
            for j in 0..self.ncols {
                if !allow_artificial_entering
                    && matches!(self.col_kinds[j], ColKind::Artificial { .. })
                {
                    continue;
                }
                if self.z[j] < -EPS {
                    if bland {
                        enter = Some(j);
                        break;
                    }
                    if self.z[j] < best {
                        best = self.z[j];
                        enter = Some(j);
                    }
                }
            }
            let Some(jc) = enter else {
                return Ok(true); // optimal
            };
            // ratio test
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..self.rows() {
                let a = self.tab[r][jc];
                if a > EPS {
                    let ratio = self.rhs(r) / a;
                    let better = ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS
                            && leave.is_some_and(|l| self.basis[r] < self.basis[l]));
                    if better {
                        best_ratio = ratio;
                        leave = Some(r);
                    }
                }
            }
            let Some(r) = leave else {
                return Ok(false); // unbounded in this phase
            };
            self.pivot(r, jc);
        }
    }

    /// Sum of artificial basic values (the phase-1 objective).
    fn artificial_infeasibility(&self) -> f64 {
        self.basis
            .iter()
            .enumerate()
            .filter(|(_, &b)| matches!(self.col_kinds[b], ColKind::Artificial { .. }))
            .map(|(r, _)| self.rhs(r))
            .sum()
    }

    /// Runs phase 1 + phase 2.
    pub(crate) fn optimize(&mut self) -> Result<Status, LpError> {
        let limit = 50_000 + 200 * (self.rows() + self.ncols);

        // Phase 1 (skip when no artificials exist).
        let has_art = self
            .col_kinds
            .iter()
            .any(|k| matches!(k, ColKind::Artificial { .. }));
        if has_art {
            let phase1_costs: Vec<f64> = self
                .col_kinds
                .iter()
                .map(|k| {
                    if matches!(k, ColKind::Artificial { .. }) {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect();
            let optimal = self.primal_loop(&phase1_costs, true, limit)?;
            debug_assert!(optimal, "phase-1 objective is bounded below by zero");
            // NOTE: absolute threshold — adequate for the 0/±1-coefficient
            // SMO matrices this crate serves; models with very large RHS
            // magnitudes should be scaled by the caller.
            if self.artificial_infeasibility() > 1e-7 {
                return Ok(Status::Infeasible);
            }
            // Drive remaining artificials out of the basis where possible.
            for r in 0..self.rows() {
                if matches!(self.col_kinds[self.basis[r]], ColKind::Artificial { .. }) {
                    if let Some(j) = (0..self.ncols).find(|&j| {
                        !matches!(self.col_kinds[j], ColKind::Artificial { .. })
                            && self.tab[r][j].abs() > EPS
                    }) {
                        self.pivot(r, j);
                    }
                    // else: redundant row; inert because artificials never
                    // re-enter and all its non-artificial entries are ~0.
                }
            }
        }

        // Phase 2.
        let costs = self.costs.clone();
        let optimal = self.primal_loop(&costs, false, limit)?;
        if optimal {
            Ok(Status::Optimal)
        } else {
            Ok(Status::Unbounded)
        }
    }

    /// Current value of each standard-form column at the basic solution.
    fn column_values(&self) -> Vec<f64> {
        let mut vals = vec![0.0; self.ncols];
        for (r, &b) in self.basis.iter().enumerate() {
            vals[b] = self.rhs(r);
        }
        vals
    }

    /// Maps the basic solution back to user-variable values.
    pub(crate) fn user_values(&self) -> Vec<f64> {
        let cols = self.column_values();
        self.user_values_from(&cols)
    }

    /// Maps arbitrary standard-form column values back to user variables.
    pub(crate) fn user_values_from(&self, cols: &[f64]) -> Vec<f64> {
        self.var_cols
            .iter()
            .map(|vc| match *vc {
                VarCols::Shifted { col, shift } => cols[col] + shift,
                VarCols::Split { pos, neg } => cols[pos] - cols[neg],
            })
            .collect()
    }

    /// Converts a per-user-variable cost delta into a standard-column cost
    /// vector (minimize orientation), for parametric objective ranging.
    pub(crate) fn user_costs_to_columns(&self, delta: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.ncols];
        for (var, vc) in self.var_cols.iter().enumerate() {
            let d = self.sense_factor * delta[var];
            match *vc {
                VarCols::Shifted { col, .. } => out[col] += d,
                VarCols::Split { pos, neg } => {
                    out[pos] += d;
                    out[neg] -= d;
                }
            }
        }
        out
    }

    /// Maps a standard-row dual vector back to user rows undoing only the
    /// normalization flips — **not** the objective orientation.
    ///
    /// Used for phase-1 (feasibility) duals, which are independent of
    /// whether the user minimizes or maximizes. Multipliers of internal
    /// upper-bound rows (standard rows past `user_rows`) are dropped; the
    /// certificate stays valid because each dropped row is `x_i ≤ u_i`
    /// with `y ≤ 0`, which the variable-box supremum check used by
    /// [`certifies_infeasibility`](crate::certifies_infeasibility) already
    /// accounts for.
    pub(crate) fn map_feasibility_duals(&self, y: &[f64]) -> Vec<f64> {
        (0..self.user_rows)
            .map(|r| if self.row_flip[r] { -y[r] } else { y[r] })
            .collect()
    }

    /// Phase-1 duals per standard row, read off the phase-1 reduced-cost
    /// row. Only meaningful right after phase 1 terminated infeasible (no
    /// phase-2 pivots may have run since).
    ///
    /// Each row's dual comes from the reduced cost of its designated
    /// logical column `j`: `z_j = c_j − y·a_j`, and `a_j` is `±e_r`, so a
    /// slack (`c = 0`, `a = +e_r`) gives `y_r = −z_j` and an artificial
    /// (`c = 1` in phase 1, `a = +e_r`) gives `y_r = 1 − z_j`.
    pub(crate) fn phase1_duals(&self) -> Vec<f64> {
        (0..self.rows())
            .map(|r| {
                let col = self.dual_col[r];
                match self.col_kinds[col] {
                    ColKind::Slack { .. } => -self.z[col],
                    ColKind::Artificial { .. } => 1.0 - self.z[col],
                    ColKind::Surplus { .. } | ColKind::Structural { .. } => {
                        unreachable!("dual col is a slack or artificial")
                    }
                }
            })
            .collect()
    }

    /// Objective value in the *user's* orientation (NaN if the problem has
    /// no objective, which `validate` rules out before any solve).
    pub(crate) fn user_objective(&self, p: &Problem) -> f64 {
        let values = self.user_values();
        p.objective
            .as_ref()
            .map_or(f64::NAN, |(_, obj)| obj.eval(&values))
    }

    /// Dual value of each user constraint, in the user's orientation and
    /// original row signs.
    pub(crate) fn user_duals(&self) -> Vec<f64> {
        (0..self.user_rows)
            .map(|r| {
                let col = self.dual_col[r];
                let y = match self.col_kinds[col] {
                    ColKind::Slack { .. } => -self.z[col],
                    ColKind::Artificial { .. } => -self.z[col],
                    ColKind::Surplus { .. } => self.z[col],
                    ColKind::Structural { .. } => unreachable!("dual col is logical"),
                };
                let y = if self.row_flip[r] { -y } else { y };
                self.sense_factor * y
            })
            .collect()
    }

    /// Reduced cost of each user variable (positive part for split vars), in
    /// the user's orientation.
    pub(crate) fn user_reduced_costs(&self) -> Vec<f64> {
        self.var_cols
            .iter()
            .map(|vc| {
                let col = match *vc {
                    VarCols::Shifted { col, .. } => col,
                    VarCols::Split { pos, .. } => pos,
                };
                self.sense_factor * self.z[col]
            })
            .collect()
    }
}

/// Solves `p`, returning both the packaged [`Solution`] and (when optimal)
/// the final tableau for parametric post-processing.
pub(crate) fn solve_with_tableau(
    p: &Problem,
    param: Option<&[f64]>,
) -> Result<(Solution, Option<Tableau>), LpError> {
    let t = Tableau::build(p, param)?;
    finish_solve(p, t)
}

/// Packages an optimal tableau (reduced costs in `t.z`) as a [`Solution`],
/// including the basis snapshot for warm restarts.
fn package_optimal(p: &Problem, t: &Tableau) -> Solution {
    let values = t.user_values();
    let slacks = p
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
    Solution {
        status: Status::Optimal,
        objective: Some(t.user_objective(p)),
        duals: t.user_duals(),
        reduced_costs: t.user_reduced_costs(),
        values,
        slacks,
        iterations: t.iterations,
        farkas: None,
        basis: Some(t.capture_basis()),
        stats: None,
    }
}

/// Runs the already-built tableau to termination and packages the result.
fn finish_solve(p: &Problem, mut t: Tableau) -> Result<(Solution, Option<Tableau>), LpError> {
    let status = t.optimize()?;
    let solution = match status {
        Status::Optimal => package_optimal(p, &t),
        _ => Solution {
            status,
            objective: None,
            values: vec![],
            duals: vec![],
            reduced_costs: vec![],
            slacks: vec![],
            iterations: t.iterations,
            // When phase 1 ends with positive artificial mass, its duals
            // are exactly a Farkas certificate of infeasibility.
            farkas: (status == Status::Infeasible)
                .then(|| t.map_feasibility_duals(&t.phase1_duals())),
            basis: None,
            stats: None,
        },
    };
    let keep = solution.status == Status::Optimal;
    Ok((solution, keep.then_some(t)))
}

/// Entry point used by [`Problem::solve_with_budget`].
pub(crate) fn solve_budgeted(
    p: &Problem,
    budget: crate::recover::SolveBudget,
) -> Result<Solution, LpError> {
    solve_with_tableau_budgeted(p, None, budget).map(|(s, _)| s)
}

/// [`solve_with_tableau`] under a caller-supplied budget.
pub(crate) fn solve_with_tableau_budgeted(
    p: &Problem,
    param: Option<&[f64]>,
    budget: crate::recover::SolveBudget,
) -> Result<(Solution, Option<Tableau>), LpError> {
    let mut t = Tableau::build(p, param)?;
    t.budget = budget;
    finish_solve(p, t)
}

/// Outcome of a warm-start attempt: a repaired optimal tableau, or a
/// signal to fall back to the cold two-phase path.
enum Warm {
    Solved,
    Fallback,
}

/// Feasibility tolerance for warm-start repair decisions; matches the
/// solvers' absolute phase-1 threshold rather than the pivot `EPS`.
const WARM_FEAS: f64 = 1e-7;

/// Dense dual simplex on the current basis: restores `rhs ≥ 0` while
/// preserving dual feasibility of `t.z` (which must already hold). Pivots
/// are bounded by `max_pivots`.
///
/// Returns `Ok(true)` when primal feasibility is reached, `Ok(false)` when
/// the repair gives up (primal infeasibility detected, pivot budget spent,
/// or a numerically hopeless row) — the caller falls back to a cold solve
/// either way, so a `false` is never wrong, only slower.
fn dual_simplex(t: &mut Tableau, max_pivots: usize) -> Result<bool, LpError> {
    let mut pivots = 0usize;
    loop {
        // Leaving row: most negative basic value.
        let mut leave = None;
        let mut most = -WARM_FEAS;
        for r in 0..t.rows() {
            if t.rhs(r) < most {
                most = t.rhs(r);
                leave = Some(r);
            }
        }
        let Some(r) = leave else {
            return Ok(true);
        };
        if pivots >= max_pivots {
            return Ok(false);
        }
        if pivots.is_multiple_of(crate::recover::BUDGET_CHECK_EVERY) {
            t.budget.check(t.iterations)?;
        }
        // Entering column: dual ratio test over the negative entries of the
        // leaving row. Artificials are barred (they never re-enter); basic
        // columns have a unit/zero entry in this row and are excluded by
        // the `< -EPS` screen. First-come tie-breaking keeps the lowest
        // index, Bland-style.
        let mut enter = None;
        let mut best = f64::INFINITY;
        for j in 0..t.ncols {
            if matches!(t.col_kinds[j], ColKind::Artificial { .. }) {
                continue;
            }
            let a = t.tab[r][j];
            if a < -EPS {
                let ratio = t.z[j].max(0.0) / -a;
                if ratio < best {
                    best = ratio;
                    enter = Some(j);
                }
            }
        }
        let Some(j) = enter else {
            // Row r reads `(≥0 coeffs)·x = rhs < 0`: primal infeasible.
            // Fall back so the Farkas certificate comes from phase 1.
            return Ok(false);
        };
        t.pivot(r, j);
        pivots += 1;
    }
}

/// Attempts to install `basis` into the freshly built tableau `t` and
/// repair it to optimality without a phase 1.
///
/// Install = bounded Gauss–Jordan pivots onto the snapshot's columns;
/// repair = dual simplex when the start is primal-infeasible but
/// dual-feasible (the RHS-perturbation case), then a primal phase-2
/// cleanup. Every failure mode returns [`Warm::Fallback`]; only
/// [`LpError::Budget`] propagates as an error.
fn warm_optimize(t: &mut Tableau, basis: &Basis) -> Result<Warm, LpError> {
    let Some(targets) = t.basis_columns(basis) else {
        return Ok(Warm::Fallback);
    };
    let m = t.rows();

    // --- install ------------------------------------------------------
    // First claim the targets that are basic already (the initial basis is
    // slacks + artificials, so snapshot slacks usually are), then pivot
    // the rest in, choosing the largest available pivot each time.
    let mut placed = vec![false; m];
    for &jc in &targets {
        if let Some(r) = t.basis.iter().position(|&b| b == jc) {
            placed[r] = true;
        }
    }
    for &jc in &targets {
        if t.basis.contains(&jc) {
            continue;
        }
        let mut best_r = None;
        let mut best_a = 1e-9;
        for (r, &done) in placed.iter().enumerate() {
            if done {
                continue;
            }
            let a = t.tab[r][jc].abs();
            if a > best_a {
                best_a = a;
                best_r = Some(r);
            }
        }
        let Some(r) = best_r else {
            return Ok(Warm::Fallback); // snapshot basis singular here
        };
        t.pivot(r, jc);
        placed[r] = true;
    }
    // Install pivots are bookkeeping, not simplex work: report only the
    // repair pivots so warm-vs-cold iteration counts compare honestly.
    t.iterations = 0;

    // --- classify the starting point ----------------------------------
    let costs = t.costs.clone();
    t.z = t.reduced_costs_for(&costs);
    let primal_ok = (0..m).all(|r| t.rhs(r) >= -WARM_FEAS);
    if !primal_ok {
        let in_basis = {
            let mut flags = vec![false; t.ncols];
            for &b in &t.basis {
                flags[b] = true;
            }
            flags
        };
        let dual_ok = (0..t.ncols).all(|j| {
            in_basis[j]
                || matches!(t.col_kinds[j], ColKind::Artificial { .. })
                || t.z[j] >= -WARM_FEAS
        });
        if !dual_ok {
            return Ok(Warm::Fallback);
        }
        let repair_budget = 2 * (m + t.ncols);
        if !dual_simplex(t, repair_budget)? {
            return Ok(Warm::Fallback);
        }
    }
    // Snap residual tolerance-level negatives so the primal ratio test
    // starts from a clean feasible point.
    for r in 0..m {
        let v = t.rhs(r);
        if (-WARM_FEAS..0.0).contains(&v) {
            let c = t.ncols;
            t.tab[r][c] = 0.0;
        }
    }
    // A warm path must never claim infeasibility: positive artificial mass
    // means the snapshot dragged in an artificial the repair cannot judge.
    if t.artificial_infeasibility() > WARM_FEAS {
        return Ok(Warm::Fallback);
    }

    // --- primal cleanup (phase 2 from the repaired basis) --------------
    let limit = 50_000 + 200 * (m + t.ncols);
    match t.primal_loop(&costs, false, limit) {
        Ok(true) => {}
        Ok(false) => return Ok(Warm::Fallback), // suspicious: verify cold
        Err(e @ LpError::Budget { .. }) => return Err(e),
        Err(_) => return Ok(Warm::Fallback),
    }
    if t.artificial_infeasibility() > WARM_FEAS {
        return Ok(Warm::Fallback);
    }
    Ok(Warm::Solved)
}

/// Entry point used by [`Problem::solve_from_basis_with_budget`]: solve
/// warm from `basis`, falling back to the cold two-phase path whenever the
/// snapshot cannot be installed and repaired cleanly.
pub(crate) fn solve_from_basis_budgeted(
    p: &Problem,
    basis: &Basis,
    budget: crate::recover::SolveBudget,
) -> Result<Solution, LpError> {
    let mut t = Tableau::build(p, None)?;
    t.budget = budget;
    match warm_optimize(&mut t, basis)? {
        Warm::Solved => Ok(package_optimal(p, &t)),
        Warm::Fallback => {
            let mut cold = Tableau::build(p, None)?;
            cold.budget = budget;
            finish_solve(p, cold).map(|(s, _)| s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Tableau;
    use crate::{LinExpr, Problem, Sense, Status, VarId};

    fn near(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-7
    }

    #[test]
    fn solves_textbook_max() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> z* = 36 at (2,6)
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.constrain(x.into(), Sense::Le, 4.0);
        p.constrain(2.0 * y, Sense::Le, 12.0);
        p.constrain(3.0 * x + 2.0 * y, Sense::Le, 18.0);
        p.maximize(3.0 * x + 5.0 * y);
        let s = p.solve().unwrap().into_optimal().unwrap();
        assert!(near(s.objective(), 36.0));
        assert!(near(s.value(x), 2.0));
        assert!(near(s.value(y), 6.0));
    }

    #[test]
    fn solves_min_with_ge_rows() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1 -> z* = 8 at (4, 0)? check:
        // candidates: (4,0) z=8; (1,3) z=11 -> optimum (4,0).
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.constrain(x + y, Sense::Ge, 4.0);
        p.constrain(x.into(), Sense::Ge, 1.0);
        p.minimize(2.0 * x + 3.0 * y);
        let s = p.solve().unwrap().into_optimal().unwrap();
        assert!(near(s.objective(), 8.0));
        assert!(near(s.value(x), 4.0));
        assert!(near(s.value(y), 0.0));
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.constrain(x.into(), Sense::Le, 1.0);
        p.constrain(x.into(), Sense::Ge, 2.0);
        p.minimize(x.into());
        assert_eq!(p.solve().unwrap().status(), Status::Infeasible);
    }

    #[test]
    fn basis_from_point_warm_starts() {
        // Crossover from the known optimum of the textbook model: the
        // warm solve must reach the same optimum, typically in fewer
        // pivots than the cold two-phase run.
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.constrain(x.into(), Sense::Le, 4.0);
        p.constrain(2.0 * y, Sense::Le, 12.0);
        p.constrain(3.0 * x + 2.0 * y, Sense::Le, 18.0);
        p.maximize(3.0 * x + 5.0 * y);
        let basis = p.basis_from_point(&[2.0, 6.0]).unwrap();
        let warm = p.solve_from_basis(&basis).unwrap().into_optimal().unwrap();
        assert!(near(warm.objective(), 36.0));
        assert!(near(warm.value(x), 2.0));
        assert!(near(warm.value(y), 6.0));
        // An interior (suboptimal) point still yields a usable basis.
        let rough = p.basis_from_point(&[1.0, 1.0]).unwrap();
        let s = p.solve_from_basis(&rough).unwrap().into_optimal().unwrap();
        assert!(near(s.objective(), 36.0));
        // And a wrong-length point is rejected.
        assert!(p.basis_from_point(&[1.0]).is_err());
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.constrain(x.into(), Sense::Ge, 1.0);
        p.maximize(x.into());
        assert_eq!(p.solve().unwrap().status(), Status::Unbounded);
    }

    #[test]
    fn equality_rows_via_artificials() {
        // min x + y s.t. x + 2y = 6, x - y = 0  -> x = y = 2, z = 4
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.constrain(x + 2.0 * y, Sense::Eq, 6.0);
        p.constrain(x - y, Sense::Eq, 0.0);
        p.minimize(x + y);
        let s = p.solve().unwrap().into_optimal().unwrap();
        assert!(near(s.value(x), 2.0));
        assert!(near(s.value(y), 2.0));
        assert!(near(s.objective(), 4.0));
    }

    #[test]
    fn free_variables_split() {
        // min |style|: min t s.t. t >= x - 3, t >= 3 - x with x free and
        // x = 5 forced -> t = 2.
        let mut p = Problem::new();
        let x = p.add_free_var("x");
        let t = p.add_var("t");
        p.constrain(LinExpr::from(t) - x, Sense::Ge, -3.0);
        p.constrain(LinExpr::from(t) + x, Sense::Ge, 3.0);
        p.constrain(x.into(), Sense::Eq, 5.0);
        p.minimize(t.into());
        let s = p.solve().unwrap().into_optimal().unwrap();
        assert!(near(s.value(x), 5.0));
        assert!(near(s.value(t), 2.0));
    }

    #[test]
    fn negative_lower_bounds_shift() {
        // min x s.t. x >= -5 with domain [-10, inf) -> x* = -5
        let mut p = Problem::new();
        let x = p.add_var_bounded("x", -10.0, f64::INFINITY);
        p.constrain(x.into(), Sense::Ge, -5.0);
        p.minimize(x.into());
        let s = p.solve().unwrap().into_optimal().unwrap();
        assert!(near(s.value(x), -5.0));
        assert!(near(s.objective(), -5.0));
    }

    #[test]
    fn upper_bounds_enforced() {
        let mut p = Problem::new();
        let x = p.add_var_bounded("x", 0.0, 3.5);
        p.maximize(x.into());
        let s = p.solve().unwrap().into_optimal().unwrap();
        assert!(near(s.value(x), 3.5));
    }

    #[test]
    fn duals_match_shadow_prices() {
        // max 3x + 5y as in `solves_textbook_max`; known duals y* = (0, 1.5, 1)
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let c1 = p.constrain(x.into(), Sense::Le, 4.0);
        let c2 = p.constrain(2.0 * y, Sense::Le, 12.0);
        let c3 = p.constrain(3.0 * x + 2.0 * y, Sense::Le, 18.0);
        p.maximize(3.0 * x + 5.0 * y);
        let s = p.solve().unwrap().into_optimal().unwrap();
        assert!(near(s.dual(c1), 0.0), "dual c1 = {}", s.dual(c1));
        assert!(near(s.dual(c2), 1.5), "dual c2 = {}", s.dual(c2));
        assert!(near(s.dual(c3), 1.0), "dual c3 = {}", s.dual(c3));
        // slack of c1 at (2,6) is 2
        assert!(near(s.slack(c1), 2.0));
        assert!(near(s.slack(c2), 0.0));
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy: multiple redundant constraints through a vertex.
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.constrain(x + y, Sense::Le, 1.0);
        p.constrain(x + y, Sense::Le, 1.0);
        p.constrain(2.0 * x + 2.0 * y, Sense::Le, 2.0);
        p.constrain(x - y, Sense::Le, 0.0);
        p.maximize(x + y);
        let s = p.solve().unwrap().into_optimal().unwrap();
        assert!(near(s.objective(), 1.0));
    }

    #[test]
    fn redundant_equalities_are_handled() {
        // x + y = 2 listed twice: phase 1 leaves a redundant artificial basic.
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.constrain(x + y, Sense::Eq, 2.0);
        p.constrain(x + y, Sense::Eq, 2.0);
        p.minimize(x.into());
        let s = p.solve().unwrap().into_optimal().unwrap();
        assert!(near(s.value(x), 0.0));
        assert!(near(s.value(y), 2.0));
    }

    #[test]
    fn smo_shaped_problem() {
        // A miniature of the SMO LP: min Tc with a borrowing chain.
        // Tc >= D + 5; D >= 7 - g; g <= Tc/2 encoded as 2g - Tc <= 0.
        let mut p = Problem::new();
        let tc = p.add_var("Tc");
        let d = p.add_var("D");
        let g = p.add_var("g");
        p.constrain(LinExpr::from(tc) - d, Sense::Ge, 5.0);
        p.constrain(LinExpr::from(d) + g, Sense::Ge, 7.0);
        p.constrain(2.0 * g - tc, Sense::Le, 0.0);
        p.minimize(tc.into());
        let s = p.solve().unwrap().into_optimal().unwrap();
        // Tc = D + 5, D = 7 - g, g = Tc/2 -> Tc = 12 - Tc/2 -> Tc = 8
        assert!(near(s.objective(), 8.0), "Tc = {}", s.objective());
    }

    #[test]
    fn objective_constant_is_respected() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.constrain(x.into(), Sense::Ge, 2.0);
        p.minimize(LinExpr::from(x) + 10.0);
        let s = p.solve().unwrap().into_optimal().unwrap();
        assert!(near(s.objective(), 12.0));
    }

    #[test]
    fn warm_start_agrees_after_rhs_perturbation() {
        // Solve, perturb a RHS, warm-start from the stale basis: the
        // verdict must match a cold re-solve exactly.
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.constrain(x.into(), Sense::Le, 4.0);
        p.constrain(2.0 * y, Sense::Le, 12.0);
        let c3 = p.constrain(3.0 * x + 2.0 * y, Sense::Le, 18.0);
        p.maximize(3.0 * x + 5.0 * y);
        let cold = p.solve().unwrap();
        let basis = cold
            .basis()
            .expect("optimal solve captures a basis")
            .clone();
        p.set_rhs(c3, 15.0);
        let warm = p.solve_from_basis(&basis).unwrap();
        let cold2 = p.solve().unwrap();
        assert_eq!(warm.status(), Status::Optimal);
        assert!(near(warm.objective().unwrap(), cold2.objective().unwrap()));
        // The warm solve skipped phase 1: strictly fewer pivots.
        assert!(warm.iterations() <= cold2.iterations());
    }

    #[test]
    fn warm_start_falls_back_when_structure_flips() {
        // Driving the RHS negative flips the row's standard-form sign
        // (slack becomes surplus + artificial): the snapshot no longer
        // matches and the warm path must fall back to a correct cold solve.
        let mut p = Problem::new();
        let x = p.add_var_bounded("x", -10.0, f64::INFINITY);
        let c = p.constrain(x.into(), Sense::Ge, 2.0);
        p.minimize(x.into());
        let cold = p.solve().unwrap();
        let basis = cold.basis().unwrap().clone();
        p.set_rhs(c, -5.0);
        let warm = p.solve_from_basis(&basis).unwrap();
        assert!(near(warm.objective().unwrap(), -5.0));
    }

    #[test]
    fn warm_start_never_claims_uncertified_infeasibility() {
        // Perturb the model into infeasibility: the warm solve must come
        // back Infeasible *with* a Farkas certificate (i.e. via the cold
        // phase-1 path, since the dual repair cannot certify).
        let mut p = Problem::new();
        let x = p.add_var("x");
        let hi = p.constrain(x.into(), Sense::Le, 5.0);
        p.constrain(x.into(), Sense::Ge, 2.0);
        p.minimize(x.into());
        let cold = p.solve().unwrap();
        let basis = cold.basis().unwrap().clone();
        p.set_rhs(hi, 1.0);
        let warm = p.solve_from_basis(&basis).unwrap();
        assert_eq!(warm.status(), Status::Infeasible);
        let y = warm.farkas().expect("infeasible carries Farkas");
        assert!(crate::certifies_infeasibility(&p, y));
    }

    #[test]
    fn matrix_hash_ignores_rhs_but_not_coefficients() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let c = p.constrain(2.0 * x, Sense::Ge, 3.0);
        p.minimize(x.into());
        let h1 = Tableau::build(&p, None).unwrap().matrix_hash;
        p.set_rhs(c, 7.0);
        let h2 = Tableau::build(&p, None).unwrap().matrix_hash;
        assert_eq!(h1, h2, "RHS change must keep the matrix hash");
        let mut q = Problem::new();
        let x = q.add_var("x");
        q.constrain(4.0 * x, Sense::Ge, 3.0);
        q.minimize(x.into());
        let h3 = Tableau::build(&q, None).unwrap().matrix_hash;
        assert_ne!(h1, h3, "coefficient change must change the hash");
    }

    #[test]
    fn var_id_index_is_stable() {
        let mut p = Problem::new();
        let a = p.add_var("a");
        let b = p.add_var("b");
        assert_eq!(a, VarId(0));
        assert_eq!(b.index(), 1);
    }
}
