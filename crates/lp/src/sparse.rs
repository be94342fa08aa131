//! Sparse-LU revised simplex: CSC standard form, Markowitz-ordered basis
//! factorization with bounded-eta updates, and devex pricing.
//!
//! The large-model solver variant ([`SimplexVariant::SparseLu`]
//! (crate::SimplexVariant::SparseLu)), built for the 10k–100k-latch
//! netlists the paper's §VI scaling discussion anticipates. The dense
//! tableau ([`crate::simplex`]) holds an `m×n` matrix — fine at the
//! paper's ~650-row scale, hopeless at 10k rows. This module removes every
//! dense `m×m` object:
//!
//! * **[`StdForm`]** — the standard-form constraint matrix assembled
//!   directly in compressed sparse columns. It is the *single source of
//!   truth* for the standard-form conventions (variable shifting and
//!   splitting, bound rows, RHS normalization, logical-column order, the
//!   FNV-1a matrix hash): the dense tableau of [`crate::simplex`] is
//!   densified *from* it, so a [`Basis`] snapshot, a cached
//!   `matrix_hash`, or a dual vector means exactly the same thing under
//!   both variants by construction.
//! * **[`LuFactors`]** — a sparse LU factorization of the basis with
//!   Markowitz pivot ordering (minimize `(r−1)(c−1)` fill bound, subject
//!   to a relative stability threshold), forward/backward substitution in
//!   `O(nnz(L+U))`, and bounded product-form **eta updates** for column
//!   replacement — the Forrest–Tomlin-style "update, don't refactorize"
//!   discipline, with a fresh factorization forced once the eta file's
//!   length or fill crosses a budget. Public, so the factorization kernel
//!   is property-testable in isolation (`L·U = P·B·Q` residuals,
//!   update-equals-refactorization).
//! * **devex pricing** — reference-framework weights approximate
//!   steepest-edge at Dantzig cost, cutting pivot counts on the long thin
//!   models the large-circuit generator emits; the Bland anti-cycling
//!   fallback of the dense variant is retained unchanged.
//!
//! Results remain interchangeable with the dense variant at the
//! [`Solution`] level — same statuses, same optima, same certificates —
//! which `tests/scale_differential.rs` enforces on every shipped circuit,
//! the stress suite, random circuits, and generated 1k/5k-row models.

#![deny(clippy::unwrap_used, clippy::expect_used)]
// Index-heavy linear algebra: range loops are the clearest form here.
#![allow(clippy::needless_range_loop)]

use crate::basis::{Basis, BasisEntry};
use crate::error::LpError;
use crate::hypersparse::{LuWorkspace, ScatterVec};
use crate::pricing::{PartialPricer, Pricing};
use crate::problem::{Objective, Problem, Sense};
use crate::simplex::ColKind;
use crate::solution::{Solution, SolveStats, Status};
use crate::EPS;

/// Hard cap on eta-file length between refactorizations — a safety valve
/// behind the fill-aware trigger ([`LuFactors::fill_exceeded`]), which is
/// what normally fires. The fill trigger compares *measured* eta fill
/// against the cost of the last factorization, so cheap (sparse) updates
/// can run much longer than the old fixed 64-eta interval while expensive
/// ones refactorize sooner.
const REFACTOR_ETAS: usize = 256;

/// Fill-aware refactorization: refactorize once the eta file carries more
/// nonzeros than `ETA_FILL_FACTOR ×` the last factorization's fill plus
/// [`ETA_FILL_SLACK`]. The factor balances the amortized cost of a
/// Markowitz refactorization against the `O(eta_nnz)` transposed eta pass
/// every BTRAN pays: measured at the 10k-row bench anchor, total solve
/// time is convex in this knob (71.9 s at 1, 16.8 s at 8, 13.2 s at 12,
/// 15.4 s at 16) and 12 sits at the bottom of the bowl. Deliberately
/// nnz-based, never wall-clock-based: solve trajectories stay
/// byte-deterministic at any `--jobs`.
const ETA_FILL_FACTOR: usize = 12;

/// Absolute slack under the fill trigger so near-identity factorizations
/// (tiny `factor_nnz`) still get a useful eta run.
const ETA_FILL_SLACK: usize = 1024;

/// How many smallest-count columns the Markowitz search examines per pivot.
const MARKOWITZ_CANDIDATES: usize = 8;

/// Relative stability threshold: a pivot must have magnitude at least
/// `MARKOWITZ_TAU` times the largest entry of its column.
const MARKOWITZ_TAU: f64 = 0.1;

/// A sparse column: `(row, value)` pairs sorted by row.
pub(crate) type SparseCol = Vec<(usize, f64)>;

/// How a user variable maps to standard-form columns.
#[derive(Debug, Clone, Copy)]
pub(crate) enum VarCols {
    /// Finite lower bound: `x = shift + x'`, one column.
    Shifted { col: usize, shift: f64 },
    /// Free variable: `x = x⁺ − x⁻`, two columns.
    Split { pos: usize, neg: usize },
}

/// The standard-form model in compressed sparse columns.
///
/// Built once per solve; the dense tableau densifies from it and the
/// sparse core consumes it directly, so every convention (column order,
/// `ColKind` assignment, RHS normalization, the matrix hash) is shared by
/// construction rather than by parallel reimplementation.
pub(crate) struct StdForm {
    /// Standard-form row count (user rows + finite-upper-bound rows).
    pub(crate) m: usize,
    /// Standard-form column count (structural + logical).
    pub(crate) ncols: usize,
    /// The constraint matrix, one sorted sparse column per index.
    pub(crate) cols: Vec<SparseCol>,
    /// Normalized (non-negative) right-hand sides.
    pub(crate) rhs: Vec<f64>,
    /// Parametric RHS direction, transformed alongside normalization.
    pub(crate) param: Vec<f64>,
    /// Phase-2 costs, already in minimize orientation.
    pub(crate) costs: Vec<f64>,
    /// What each column represents.
    pub(crate) col_kinds: Vec<ColKind>,
    /// Was row `r` negated during RHS normalization?
    pub(crate) row_flip: Vec<bool>,
    /// Per row: the logical column whose reduced cost yields the dual.
    pub(crate) dual_col: Vec<usize>,
    /// Leading standard rows that correspond 1:1 to user rows.
    pub(crate) user_rows: usize,
    /// `+1.0` minimize, `−1.0` maximize.
    pub(crate) sense_factor: f64,
    /// FNV-1a hash of the matrix coefficients (RHS excluded), identical to
    /// the dense tableau's hash for the same problem.
    pub(crate) matrix_hash: u64,
    /// The all-logical starting basis (slacks + artificials = identity).
    pub(crate) initial_basis: Vec<usize>,
    pub(crate) var_cols: Vec<VarCols>,
}

/// Accumulates one expression into a sparse structural row using a dense
/// scratch vector plus a touched-index list, so assembly is `O(nnz)` per
/// row instead of `O(nstruct)`. The accumulation arithmetic (`+=` on a
/// zero-initialized slot) is exactly the dense builder's, so coefficients
/// are bit-identical and the matrix hash agrees.
fn expr_to_sparse(
    expr: &crate::LinExpr,
    var_cols: &[VarCols],
    scratch: &mut [f64],
    mark: &mut [bool],
    touched: &mut Vec<usize>,
) -> (SparseCol, f64) {
    let mut shift_sum = 0.0;
    let touch = |col: usize, mark: &mut [bool], touched: &mut Vec<usize>| {
        if !mark[col] {
            mark[col] = true;
            touched.push(col);
        }
    };
    for (v, c) in expr.iter() {
        match var_cols[v.index()] {
            VarCols::Shifted { col, shift } => {
                touch(col, mark, touched);
                scratch[col] += c;
                shift_sum += c * shift;
            }
            VarCols::Split { pos, neg } => {
                touch(pos, mark, touched);
                scratch[pos] += c;
                touch(neg, mark, touched);
                scratch[neg] -= c;
            }
        }
    }
    touched.sort_unstable();
    let entries: SparseCol = touched
        .iter()
        .filter(|&&c| scratch[c] != 0.0)
        .map(|&c| (c, scratch[c]))
        .collect();
    for &c in touched.iter() {
        scratch[c] = 0.0;
        mark[c] = false;
    }
    touched.clear();
    (entries, shift_sum)
}

impl StdForm {
    /// Builds the standard form of `p` with optional per-user-row RHS
    /// perturbation directions, mirroring the dense
    /// [`Tableau::build`](crate::simplex::Tableau) conventions exactly.
    pub(crate) fn build(p: &Problem, param: Option<&[f64]>) -> Result<StdForm, LpError> {
        let (direction, obj_expr) = p.objective.as_ref().ok_or(LpError::MissingObjective)?;
        let sense_factor = match direction {
            Objective::Minimize => 1.0,
            Objective::Maximize => -1.0,
        };

        // --- variable mapping -------------------------------------------
        let mut var_cols = Vec::with_capacity(p.vars.len());
        let mut col_kinds: Vec<ColKind> = Vec::new();
        let mut bound_rows: Vec<(usize, f64)> = Vec::new();
        for (i, v) in p.vars.iter().enumerate() {
            if v.lower.is_finite() {
                let col = col_kinds.len();
                col_kinds.push(ColKind::Structural { var: i, sign: 1.0 });
                var_cols.push(VarCols::Shifted {
                    col,
                    shift: v.lower,
                });
            } else {
                let pos = col_kinds.len();
                col_kinds.push(ColKind::Structural { var: i, sign: 1.0 });
                let neg = col_kinds.len();
                col_kinds.push(ColKind::Structural { var: i, sign: -1.0 });
                var_cols.push(VarCols::Split { pos, neg });
            }
            if v.upper.is_finite() {
                bound_rows.push((i, v.upper));
            }
        }
        let nstruct = col_kinds.len();

        // --- assemble raw rows (sparse over structural columns) ---------
        struct RawRow {
            entries: SparseCol,
            sense: Sense,
            rhs: f64,
            param: f64,
        }
        let mut scratch = vec![0.0; nstruct];
        let mut mark = vec![false; nstruct];
        let mut touched: Vec<usize> = Vec::new();
        let mut raw: Vec<RawRow> = Vec::with_capacity(p.rows.len() + bound_rows.len());
        let zero_param = vec![0.0; p.rows.len()];
        let param = param.unwrap_or(&zero_param);
        debug_assert_eq!(param.len(), p.rows.len());

        for (i, row) in p.rows.iter().enumerate() {
            let (entries, shift_sum) =
                expr_to_sparse(&row.expr, &var_cols, &mut scratch, &mut mark, &mut touched);
            raw.push(RawRow {
                entries,
                sense: row.sense,
                rhs: row.rhs - shift_sum,
                param: param[i],
            });
        }
        for &(var, upper) in &bound_rows {
            let (entries, rhs) = match var_cols[var] {
                VarCols::Shifted { col, shift } => (vec![(col, 1.0)], upper - shift),
                VarCols::Split { pos, neg } => (vec![(pos, 1.0), (neg, -1.0)], upper),
            };
            raw.push(RawRow {
                entries,
                sense: Sense::Le,
                rhs,
                param: 0.0,
            });
        }

        // --- normalize RHS >= 0 -----------------------------------------
        let m = raw.len();
        let mut row_flip = vec![false; m];
        for (r, row) in raw.iter_mut().enumerate() {
            if row.rhs < 0.0 {
                row_flip[r] = true;
                for (_, v) in &mut row.entries {
                    *v = -*v;
                }
                row.rhs = -row.rhs;
                row.param = -row.param;
                row.sense = match row.sense {
                    Sense::Le => Sense::Ge,
                    Sense::Ge => Sense::Le,
                    Sense::Eq => Sense::Eq,
                };
            }
        }

        // --- logical columns --------------------------------------------
        let mut slack_col = vec![usize::MAX; m];
        let mut surplus_col = vec![usize::MAX; m];
        let mut art_col = vec![usize::MAX; m];
        for (r, row) in raw.iter().enumerate() {
            match row.sense {
                Sense::Le => {
                    slack_col[r] = col_kinds.len();
                    col_kinds.push(ColKind::Slack { row: r });
                }
                Sense::Ge => {
                    surplus_col[r] = col_kinds.len();
                    col_kinds.push(ColKind::Surplus { row: r });
                    art_col[r] = col_kinds.len();
                    col_kinds.push(ColKind::Artificial { row: r });
                }
                Sense::Eq => {
                    art_col[r] = col_kinds.len();
                    col_kinds.push(ColKind::Artificial { row: r });
                }
            }
        }
        let ncols = col_kinds.len();

        // --- rows with logical entries, basis, duals ---------------------
        // Logical column indices all exceed the structural ones and grow
        // with the row index, so appending them keeps each row sorted.
        let mut initial_basis = vec![usize::MAX; m];
        let mut dual_col = vec![usize::MAX; m];
        let mut rhs = vec![0.0; m];
        let mut params = vec![0.0; m];
        let mut rows: Vec<SparseCol> = Vec::with_capacity(m);
        for (r, row) in raw.iter().enumerate() {
            let mut entries = row.entries.clone();
            if slack_col[r] != usize::MAX {
                entries.push((slack_col[r], 1.0));
                initial_basis[r] = slack_col[r];
                dual_col[r] = slack_col[r];
            }
            if surplus_col[r] != usize::MAX {
                entries.push((surplus_col[r], -1.0));
            }
            if art_col[r] != usize::MAX {
                entries.push((art_col[r], 1.0));
                initial_basis[r] = art_col[r];
                dual_col[r] = art_col[r];
            }
            rhs[r] = row.rhs;
            params[r] = row.param;
            rows.push(entries);
        }

        // --- matrix hash (row-major over nonzeros, same as dense) --------
        let mut matrix_hash: u64 = 0xcbf2_9ce4_8422_2325;
        for (r, row) in rows.iter().enumerate() {
            for &(j, v) in row {
                if v != 0.0 {
                    for word in [r as u64, j as u64, v.to_bits()] {
                        matrix_hash ^= word;
                        matrix_hash = matrix_hash.wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
            }
        }

        // --- transpose rows -> CSC ---------------------------------------
        let mut cols: Vec<SparseCol> = vec![Vec::new(); ncols];
        for (r, row) in rows.iter().enumerate() {
            for &(j, v) in row {
                cols[j].push((r, v));
            }
        }

        // --- phase-2 costs (minimize orientation) -------------------------
        let mut costs = vec![0.0; ncols];
        let (obj_entries, _shift_sum) =
            expr_to_sparse(obj_expr, &var_cols, &mut scratch, &mut mark, &mut touched);
        for (c, v) in obj_entries {
            costs[c] = sense_factor * v;
        }

        Ok(StdForm {
            m,
            ncols,
            cols,
            rhs,
            param: params,
            costs,
            col_kinds,
            row_flip,
            dual_col,
            user_rows: p.rows.len(),
            sense_factor,
            matrix_hash,
            initial_basis,
            var_cols,
        })
    }

    /// Snapshots an arbitrary basic-column list as a [`Basis`] in
    /// problem-structure terms (shared semantics with the dense tableau).
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

    /// Resolves a snapshot's entries to column indices of this standard
    /// form, or `None` when the snapshot no longer fits.
    pub(crate) fn basis_columns(&self, basis: &Basis) -> Option<Vec<usize>> {
        if basis.num_vars != self.var_cols.len()
            || basis.user_rows != self.user_rows
            || basis.ncols != self.ncols
            || basis.entries.len() != self.m
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

    /// Maps standard-form column values back to user variables.
    pub(crate) fn user_values_from(&self, cols: &[f64]) -> Vec<f64> {
        self.var_cols
            .iter()
            .map(|vc| match *vc {
                VarCols::Shifted { col, shift } => cols[col] + shift,
                VarCols::Split { pos, neg } => cols[pos] - cols[neg],
            })
            .collect()
    }

    /// Maps a standard-row dual vector to user-constraint duals (undoing
    /// normalization flips and the minimize orientation).
    pub(crate) fn map_duals(&self, y: &[f64]) -> Vec<f64> {
        (0..self.user_rows)
            .map(|r| {
                let v = if self.row_flip[r] { -y[r] } else { y[r] };
                self.sense_factor * v
            })
            .collect()
    }

    /// Maps a standard-row dual vector back to user rows undoing only the
    /// normalization flips (for phase-1 Farkas certificates; see the dense
    /// twin for why bound-row multipliers may be dropped).
    pub(crate) fn map_feasibility_duals(&self, y: &[f64]) -> Vec<f64> {
        (0..self.user_rows)
            .map(|r| if self.row_flip[r] { -y[r] } else { y[r] })
            .collect()
    }

    /// Maps standard-column reduced costs to user-variable reduced costs.
    pub(crate) fn map_reduced_costs(&self, z: &[f64]) -> Vec<f64> {
        self.var_cols
            .iter()
            .map(|vc| {
                let col = match *vc {
                    VarCols::Shifted { col, .. } => col,
                    VarCols::Split { pos, .. } => pos,
                };
                self.sense_factor * z[col]
            })
            .collect()
    }
}

/// One product-form eta update: basis position `pos` was replaced by a
/// column whose FTRAN direction had pivot `pivot` at `pos` and the given
/// sparse off-pivot entries (sorted by position).
pub(crate) struct Eta {
    pub(crate) pos: usize,
    pub(crate) pivot: f64,
    pub(crate) entries: Vec<(usize, f64)>,
}

/// A sparse LU factorization of a basis matrix with Markowitz pivot
/// ordering, plus a bounded product-form eta file for column replacements.
///
/// The factorization solves `B·x = b` ([`LuFactors::solve`]) and
/// `Bᵀ·y = c` ([`LuFactors::solve_transpose`]) in time proportional to the
/// factor fill, and absorbs simplex basis changes through
/// [`LuFactors::replace_column`] without refactorizing — the caller
/// refactorizes when [`LuFactors::eta_count`] / [`LuFactors::eta_nnz`]
/// cross its budget. Row indices address the original matrix rows; column
/// indices address basis *positions* (the order columns were passed to
/// [`LuFactors::factorize`]).
///
/// Exposed publicly so the kernel is testable in isolation; the solver
/// entry points remain [`Problem`]-level.
#[derive(Debug, Clone)]
pub struct LuFactors {
    pub(crate) m: usize,
    /// Elimination step -> pivot row (original index).
    pub(crate) prow: Vec<usize>,
    /// Elimination step -> pivot column (basis position).
    pub(crate) pcol: Vec<usize>,
    /// Original row -> elimination step.
    pub(crate) row_step: Vec<usize>,
    /// Basis position -> elimination step.
    pub(crate) col_step: Vec<usize>,
    /// Per step: L multipliers as `(original row, multiplier)`.
    pub(crate) lower: Vec<Vec<(usize, f64)>>,
    /// Per step: U off-pivot entries as `(basis position, value)`.
    pub(crate) upper: Vec<Vec<(usize, f64)>>,
    /// Per step: the pivot value.
    pub(crate) pivots: Vec<f64>,
    /// Reverse U dependencies in step space: `u_rev[s]` lists the steps
    /// `k < s` whose U row references step `s`'s pivot column. The
    /// hypersparse FTRAN's backward symbolic phase walks these edges.
    pub(crate) u_rev: Vec<Vec<usize>>,
    /// Reverse L dependencies in step space: `l_rev[s]` lists the steps
    /// `k < s` whose L column hits step `s`'s pivot row (for the
    /// hypersparse BTRAN's `Lᵀ` symbolic phase).
    pub(crate) l_rev: Vec<Vec<usize>>,
    pub(crate) etas: Vec<Eta>,
    pub(crate) eta_nnz: usize,
    /// `factor_nnz` cached at factorization time (the fill-trigger
    /// comparison runs every pivot).
    pub(crate) factor_fill: usize,
}

impl std::fmt::Debug for Eta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Eta")
            .field("pos", &self.pos)
            .field("pivot", &self.pivot)
            .field("nnz", &self.entries.len())
            .finish()
    }
}

impl Clone for Eta {
    fn clone(&self) -> Self {
        Eta {
            pos: self.pos,
            pivot: self.pivot,
            entries: self.entries.clone(),
        }
    }
}

impl LuFactors {
    /// Factorizes the `m × m` matrix whose `columns[pos]` lists sorted
    /// `(row, value)` pairs, choosing pivots by Markowitz count (minimal
    /// `(row_nnz−1)·(col_nnz−1)` fill bound among the lowest-count columns,
    /// subject to `|pivot| ≥ 0.1·colmax` for stability).
    ///
    /// # Errors
    ///
    /// [`LpError::Numerical`] when the matrix is structurally or
    /// numerically singular.
    pub fn factorize(m: usize, columns: &[SparseCol]) -> Result<LuFactors, LpError> {
        assert_eq!(columns.len(), m, "need exactly m columns");
        let singular = || LpError::Numerical {
            context: "sparse LU factorization (singular basis)".into(),
        };

        // Active rows as sorted (position, value) vectors.
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        for (pos, col) in columns.iter().enumerate() {
            for &(r, v) in col {
                assert!(r < m, "row index out of range");
                if v != 0.0 {
                    rows[r].push((pos, v));
                }
            }
        }
        // Column -> candidate rows, maintained lazily (entries may be
        // stale; verified against `rows` on use).
        let mut col_rows: Vec<Vec<usize>> = vec![Vec::new(); m];
        let mut col_count = vec![0usize; m];
        for (r, row) in rows.iter().enumerate() {
            for &(pos, _) in row {
                col_rows[pos].push(r);
                col_count[pos] += 1;
            }
        }
        let mut row_active = vec![true; m];
        let mut col_active = vec![true; m];
        // Ordered (count, col) queue for Markowitz candidate selection.
        let mut queue: std::collections::BTreeSet<(usize, usize)> =
            (0..m).map(|c| (col_count[c], c)).collect();

        let mut prow = Vec::with_capacity(m);
        let mut pcol = Vec::with_capacity(m);
        let mut row_step = vec![usize::MAX; m];
        let mut col_step = vec![usize::MAX; m];
        let mut lower: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut upper: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut pivots = Vec::with_capacity(m);
        let mut merged: Vec<(usize, f64)> = Vec::new();

        for step in 0..m {
            // --- pick a pivot among the lowest-count columns -------------
            let candidates: Vec<(usize, usize)> =
                queue.iter().take(MARKOWITZ_CANDIDATES).copied().collect();
            let mut best: Option<(usize, usize, f64, usize)> = None; // (row, col, val, cost)
            for (stale_count, c) in candidates {
                // Compact this column's candidate rows and find its max.
                let lookup = |r: usize| -> Option<f64> {
                    rows[r]
                        .binary_search_by_key(&c, |&(p, _)| p)
                        .ok()
                        .map(|i| rows[r][i].1)
                };
                let mut live: Vec<(usize, f64)> = Vec::new();
                for &r in &col_rows[c] {
                    if row_active[r] {
                        if let Some(v) = lookup(r) {
                            live.push((r, v));
                        }
                    }
                }
                col_rows[c] = live.iter().map(|&(r, _)| r).collect();
                if col_count[c] != col_rows[c].len() || stale_count != col_rows[c].len() {
                    queue.remove(&(stale_count, c));
                    queue.remove(&(col_count[c], c));
                    col_count[c] = col_rows[c].len();
                    queue.insert((col_count[c], c));
                }
                if live.is_empty() {
                    return Err(singular());
                }
                let colmax = live.iter().map(|&(_, v)| v.abs()).fold(0.0, f64::max);
                if colmax < 1e-12 {
                    return Err(singular());
                }
                let threshold = MARKOWITZ_TAU * colmax;
                for &(r, v) in &live {
                    if v.abs() < threshold {
                        continue;
                    }
                    let cost = (rows[r].len() - 1) * (live.len() - 1);
                    let better = match best {
                        None => true,
                        Some((_, _, bv, bcost)) => {
                            cost < bcost || (cost == bcost && v.abs() > bv.abs())
                        }
                    };
                    if better {
                        best = Some((r, c, v, cost));
                    }
                }
                if best.is_some_and(|(_, _, _, cost)| cost == 0) {
                    break; // perfect pivot: no fill at all
                }
            }
            let Some((pr, pc, pv, _)) = best else {
                return Err(singular());
            };

            // --- record the pivot ----------------------------------------
            prow.push(pr);
            pcol.push(pc);
            pivots.push(pv);
            row_step[pr] = step;
            col_step[pc] = step;
            row_active[pr] = false;
            col_active[pc] = false;
            queue.remove(&(col_count[pc], pc));
            let pivot_row: Vec<(usize, f64)> =
                rows[pr].iter().copied().filter(|&(p, _)| p != pc).collect();
            // Every column in the pivot row loses pr from its active rows.
            for &(p, _) in &pivot_row {
                if col_active[p] {
                    queue.remove(&(col_count[p], p));
                    col_count[p] = col_count[p].saturating_sub(1);
                    queue.insert((col_count[p], p));
                }
            }
            upper.push(pivot_row.clone());

            // --- eliminate the pivot column from the other active rows ---
            let mut mults: Vec<(usize, f64)> = Vec::new();
            let targets: Vec<usize> = col_rows[pc]
                .iter()
                .copied()
                .filter(|&r| row_active[r])
                .collect();
            for r in targets {
                let Ok(i) = rows[r].binary_search_by_key(&pc, |&(p, _)| p) else {
                    continue; // stale col_rows entry
                };
                let mult = rows[r][i].1 / pv;
                mults.push((r, mult));
                // rows[r] <- rows[r] - mult * pivot_row, dropping pc.
                merged.clear();
                let mut a = rows[r].iter().copied().peekable();
                let mut b = pivot_row.iter().copied().peekable();
                loop {
                    match (a.peek().copied(), b.peek().copied()) {
                        (Some((pa, va)), Some((pb, vb))) => {
                            if pa < pb {
                                a.next();
                                if pa != pc {
                                    merged.push((pa, va));
                                }
                            } else if pb < pa {
                                b.next();
                                let nv = -mult * vb;
                                if nv != 0.0 {
                                    merged.push((pb, nv));
                                    if col_active[pb] {
                                        queue.remove(&(col_count[pb], pb));
                                        col_count[pb] += 1;
                                        queue.insert((col_count[pb], pb));
                                        col_rows[pb].push(r);
                                    }
                                }
                            } else {
                                a.next();
                                b.next();
                                let nv = va - mult * vb;
                                if nv != 0.0 {
                                    merged.push((pa, nv));
                                } else if col_active[pa] {
                                    // exact cancellation: column loses r
                                    queue.remove(&(col_count[pa], pa));
                                    col_count[pa] = col_count[pa].saturating_sub(1);
                                    queue.insert((col_count[pa], pa));
                                }
                            }
                        }
                        (Some((pa, va)), None) => {
                            a.next();
                            if pa != pc {
                                merged.push((pa, va));
                            }
                        }
                        (None, Some((pb, vb))) => {
                            b.next();
                            let nv = -mult * vb;
                            if nv != 0.0 {
                                merged.push((pb, nv));
                                if col_active[pb] {
                                    queue.remove(&(col_count[pb], pb));
                                    col_count[pb] += 1;
                                    queue.insert((col_count[pb], pb));
                                    col_rows[pb].push(r);
                                }
                            }
                        }
                        (None, None) => break,
                    }
                }
                std::mem::swap(&mut rows[r], &mut merged);
            }
            lower.push(mults);
        }

        // Reverse dependency lists in step space, one pass over the
        // factors: these are the graphs the hypersparse symbolic phases
        // traverse (see `hypersparse.rs`).
        let mut u_rev: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (k, row) in upper.iter().enumerate() {
            for &(pos, _) in row {
                u_rev[col_step[pos]].push(k);
            }
        }
        let mut l_rev: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (k, col) in lower.iter().enumerate() {
            for &(r, _) in col {
                l_rev[row_step[r]].push(k);
            }
        }
        let factor_fill = m
            + lower.iter().map(Vec::len).sum::<usize>()
            + upper.iter().map(Vec::len).sum::<usize>();

        Ok(LuFactors {
            m,
            prow,
            pcol,
            row_step,
            col_step,
            lower,
            upper,
            pivots,
            u_rev,
            l_rev,
            etas: Vec::new(),
            eta_nnz: 0,
            factor_fill,
        })
    }

    /// Dimension of the factored matrix.
    pub fn size(&self) -> usize {
        self.m
    }

    /// Number of eta updates applied since factorization.
    pub fn eta_count(&self) -> usize {
        self.etas.len()
    }

    /// Total nonzeros across the eta file (the update fill the caller's
    /// refactorization budget bounds).
    pub fn eta_nnz(&self) -> usize {
        self.eta_nnz
    }

    /// Nonzeros in the L and U factors (including pivots), excluding etas.
    pub fn factor_nnz(&self) -> usize {
        self.factor_fill
    }

    /// The fill-aware refactorization trigger: `true` once the eta file
    /// carries more fill than rebuilding the factors would
    /// (`eta_nnz > ETA_FILL_FACTOR × factor_nnz + ETA_FILL_SLACK`). The
    /// caller combines this with a hard [`LuFactors::eta_count`] cap.
    pub fn fill_exceeded(&self) -> bool {
        self.eta_nnz > ETA_FILL_FACTOR * self.factor_fill + ETA_FILL_SLACK
    }

    /// Solves `B·x = b` (FTRAN), where `b` is indexed by original row and
    /// the result by basis position. Eta updates are applied in order, so
    /// the result is for the *current* (updated) basis.
    ///
    /// Dense compatibility wrapper over [`LuFactors::ftran_scatter`]; the
    /// simplex hot loop calls the scatter kernel directly with a reused
    /// workspace.
    ///
    /// # Panics
    ///
    /// Panics when `b.len() != self.size()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.m);
        let sparse_b: Vec<(usize, f64)> = b
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0.0)
            .map(|(i, &v)| (i, v))
            .collect();
        let mut ws = crate::hypersparse::LuWorkspace::new(self.m);
        let mut x = crate::hypersparse::ScatterVec::new(self.m);
        self.ftran_scatter(&sparse_b, &mut ws, &mut x);
        x.to_dense()
    }

    /// Solves `Bᵀ·y = c` (BTRAN), where `c` is indexed by basis position
    /// and the result by original row. Eta updates are applied (transposed,
    /// in reverse), so the result is for the current basis.
    ///
    /// Dense compatibility wrapper over [`LuFactors::btran_scatter`].
    ///
    /// # Panics
    ///
    /// Panics when `c.len() != self.size()`.
    pub fn solve_transpose(&self, c: &[f64]) -> Vec<f64> {
        assert_eq!(c.len(), self.m);
        let sparse_c: Vec<(usize, f64)> = c
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0.0)
            .map(|(i, &v)| (i, v))
            .collect();
        let mut ws = crate::hypersparse::LuWorkspace::new(self.m);
        let mut y = crate::hypersparse::ScatterVec::new(self.m);
        self.btran_scatter(&sparse_c, &mut ws, &mut y);
        y.to_dense()
    }

    /// Replaces the basis column at `pos` with `column` (sorted sparse
    /// `(row, value)`), recording a product-form eta update.
    ///
    /// # Errors
    ///
    /// [`LpError::Numerical`] when the replacement would make the basis
    /// singular (the FTRAN direction's pivot entry is ~0); the factors are
    /// left unchanged in that case.
    pub fn replace_column(&mut self, pos: usize, column: &[(usize, f64)]) -> Result<(), LpError> {
        let mut ws = crate::hypersparse::LuWorkspace::new(self.m);
        let mut d = crate::hypersparse::ScatterVec::new(self.m);
        self.ftran_scatter(column, &mut ws, &mut d);
        self.replace_column_scatter(pos, &d)
    }

    /// [`LuFactors::replace_column`] when the caller already holds the
    /// FTRAN direction `d = B⁻¹·a` of the incoming column (the simplex has
    /// it from the ratio test — this avoids a second solve).
    ///
    /// # Errors
    ///
    /// [`LpError::Numerical`] when `|d[pos]|` is ~0.
    pub fn replace_column_with_direction(
        &mut self,
        pos: usize,
        direction: &[f64],
    ) -> Result<(), LpError> {
        assert_eq!(direction.len(), self.m);
        let pivot = direction[pos];
        if pivot.abs() < 1e-12 {
            return Err(LpError::Numerical {
                context: "sparse LU update (singular replacement column)".into(),
            });
        }
        let entries: Vec<(usize, f64)> = direction
            .iter()
            .enumerate()
            .filter(|&(i, &d)| i != pos && d != 0.0)
            .map(|(i, &d)| (i, d))
            .collect();
        self.push_eta(pos, pivot, entries);
        Ok(())
    }

    /// Appends one eta to the file and maintains the fill counter (both
    /// update paths funnel through here).
    pub(crate) fn push_eta(&mut self, pos: usize, pivot: f64, entries: Vec<(usize, f64)>) {
        self.eta_nnz += entries.len() + 1;
        self.etas.push(Eta {
            pos,
            pivot,
            entries,
        });
    }

    /// Reconstructs the factored matrix as a dense `m × m` array indexed
    /// `[row][position]` by multiplying the L and U factors back together
    /// and undoing the permutations — a testing diagnostic for checking
    /// `L·U = P·B·Q` residuals. Eta updates are **not** applied; call on a
    /// freshly factorized basis.
    pub fn reconstruct(&self) -> Vec<Vec<f64>> {
        let m = self.m;
        let mut l = vec![vec![0.0; m]; m];
        let mut u = vec![vec![0.0; m]; m];
        for k in 0..m {
            l[k][k] = 1.0;
            u[k][k] = self.pivots[k];
            for &(r, mult) in &self.lower[k] {
                l[self.row_step[r]][k] = mult;
            }
            for &(pos, v) in &self.upper[k] {
                u[k][self.col_step[pos]] = v;
            }
        }
        let mut out = vec![vec![0.0; m]; m];
        for i in 0..m {
            for j in 0..m {
                let mut s = 0.0;
                for k in 0..m {
                    s += l[i][k] * u[k][j];
                }
                out[self.prow[i]][self.pcol[j]] = s;
            }
        }
        out
    }
}

/// Reset devex weights when any grows beyond this (reference-framework
/// restart, standard practice to keep the approximation honest).
const DEVEX_RESET: f64 = 1e12;

/// Update/refactorization counters accumulated over one solve, surfaced as
/// [`crate::SolveStats`] on the solution.
#[derive(Debug, Clone, Copy, Default)]
struct CoreStats {
    refactorizations: usize,
    eta_nnz_total: usize,
    peak_eta_nnz: usize,
}

struct SparseCore {
    sf: StdForm,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    lu: LuFactors,
    /// current basic values x_B, by basis position
    xb: Vec<f64>,
    /// devex reference weights, one per standard-form column
    devex: Vec<f64>,
    /// running upper bound on the largest devex weight written since the
    /// last reset (replaces an `O(ncols)` scan per pivot; an overwritten
    /// maximum can make this an overestimate, which at worst resets early
    /// — always safe).
    devex_max: f64,
    iterations: usize,
    /// eta-file length that triggers refactorization
    refactor_every: usize,
    budget: crate::recover::SolveBudget,
    /// phase-1 duals captured at infeasible termination
    farkas_y: Option<Vec<f64>>,
    pricing: Pricing,
    stats: CoreStats,
    /// reusable hypersparse scratch: no per-iteration allocation
    ws: LuWorkspace,
    /// dual vector `y = Bᵀ⁻¹ c_B` (row space)
    y: ScatterVec,
    /// FTRAN direction `d = B⁻¹ a_q` (position space)
    d: ScatterVec,
    /// BTRAN of the leaving unit vector (row space)
    row_r: ScatterVec,
    /// sparse basic-cost buffer for the dual BTRAN
    cb_buf: Vec<(usize, f64)>,
}

impl SparseCore {
    fn new(sf: StdForm, budget: crate::recover::SolveBudget) -> Result<Self, LpError> {
        let basis = sf.initial_basis.clone();
        let mut in_basis = vec![false; sf.ncols];
        for &b in &basis {
            in_basis[b] = true;
        }
        // The initial basis is slacks + artificials: an identity matrix,
        // so this first factorization is trivial.
        let bcols: Vec<SparseCol> = basis.iter().map(|&j| sf.cols[j].clone()).collect();
        let lu = LuFactors::factorize(sf.m, &bcols)?;
        let xb = lu.solve(&sf.rhs);
        let devex = vec![1.0; sf.ncols];
        let m = sf.m;
        Ok(SparseCore {
            sf,
            basis,
            in_basis,
            lu,
            xb,
            devex,
            devex_max: 1.0,
            iterations: 0,
            refactor_every: REFACTOR_ETAS,
            budget,
            farkas_y: None,
            pricing: Pricing::default(),
            stats: CoreStats::default(),
            ws: LuWorkspace::new(m),
            y: ScatterVec::new(m),
            d: ScatterVec::new(m),
            row_r: ScatterVec::new(m),
            cb_buf: Vec::new(),
        })
    }

    fn sparse_dot(&self, y: &[f64], j: usize) -> f64 {
        self.sf.cols[j].iter().map(|&(r, v)| y[r] * v).sum()
    }

    /// `y = Bᵀ⁻¹ c_B` into `self.y`, seeding only nonzero basic costs —
    /// in phase 2 the SMO objective makes `c_B` nearly empty, so this
    /// BTRAN is the textbook hypersparse win.
    fn compute_duals(&mut self, costs: &[f64]) {
        self.cb_buf.clear();
        for (r, &j) in self.basis.iter().enumerate() {
            let c = costs[j];
            if c != 0.0 {
                self.cb_buf.push((r, c));
            }
        }
        self.lu
            .btran_scatter(&self.cb_buf, &mut self.ws, &mut self.y);
    }

    /// FTRAN of column `q` into `self.d`.
    fn compute_direction(&mut self, q: usize) {
        self.lu
            .ftran_scatter(&self.sf.cols[q], &mut self.ws, &mut self.d);
    }

    /// BTRAN of the unit vector at basis position `r` into `self.row_r`.
    fn compute_pivot_row(&mut self, r: usize) {
        self.lu
            .btran_scatter(&[(r, 1.0)], &mut self.ws, &mut self.row_r);
    }

    /// Fresh factorization of the current basis; recomputes `xb` from the
    /// RHS so accumulated pivot error is flushed.
    fn refactorize(&mut self) -> Result<(), LpError> {
        let bcols: Vec<SparseCol> = self
            .basis
            .iter()
            .map(|&j| self.sf.cols[j].clone())
            .collect();
        self.lu = LuFactors::factorize(self.sf.m, &bcols)?;
        let rhs: Vec<(usize, f64)> = self
            .sf
            .rhs
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0.0)
            .map(|(i, &v)| (i, v))
            .collect();
        self.lu.ftran_scatter(&rhs, &mut self.ws, &mut self.d);
        for v in &mut self.xb {
            *v = 0.0;
        }
        for (i, v) in self.d.iter_nonzero() {
            self.xb[i] = v;
        }
        self.stats.refactorizations += 1;
        Ok(())
    }

    fn eta_budget_exceeded(&self) -> bool {
        self.lu.eta_count() >= self.refactor_every || self.lu.fill_exceeded()
    }

    /// Records the eta update for pivot direction `self.d` at position `r`
    /// and refactorizes if the fill budget tripped. Returns whether a
    /// refactorization happened (the caller invalidates incremental duals
    /// on that boundary).
    fn apply_update(&mut self, r: usize) -> Result<bool, LpError> {
        let before = self.lu.eta_nnz();
        self.lu.replace_column_scatter(r, &self.d)?;
        let after = self.lu.eta_nnz();
        self.stats.eta_nnz_total += after - before;
        self.stats.peak_eta_nnz = self.stats.peak_eta_nnz.max(after);
        self.iterations += 1;
        if self.eta_budget_exceeded() {
            self.refactorize()?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Is column `j` priceable this phase?
    fn eligible(&self, j: usize, allow_artificial: bool) -> bool {
        !self.in_basis[j]
            && (allow_artificial || !matches!(self.sf.col_kinds[j], ColKind::Artificial { .. }))
    }

    /// One column's devex reference test against the current pivot row
    /// (`self.row_r`): grows `devex[j]` to the candidate weight when the
    /// row touches the column.
    #[inline]
    fn devex_bump(&mut self, j: usize, q: usize, alpha_q: f64, wq: f64) {
        if self.in_basis[j] || j == q {
            return;
        }
        let alpha = self.sparse_dot(self.row_r.values(), j);
        if alpha != 0.0 {
            let cand = (alpha / alpha_q) * (alpha / alpha_q) * wq;
            if cand > self.devex[j] {
                self.devex[j] = cand;
                if cand > self.devex_max {
                    self.devex_max = cand;
                }
            }
        }
    }

    /// Devex weight update against the leaving row `r` (must run before
    /// the basis changes), restricted to `scope` — the full nonbasic range
    /// under `Pricing::Devex` (`None`, no per-pivot index allocation), the
    /// candidate list under `Partial`.
    fn update_devex_weights(&mut self, scope: Option<&[usize]>, q: usize, r: usize, alpha_q: f64) {
        let wq = self.devex[q];
        match scope {
            Some(list) => {
                for &j in list {
                    self.devex_bump(j, q, alpha_q, wq);
                }
            }
            None => {
                for j in 0..self.sf.ncols {
                    self.devex_bump(j, q, alpha_q, wq);
                }
            }
        }
        let leaving = (wq / (alpha_q * alpha_q)).max(1.0);
        self.devex[self.basis[r]] = leaving;
        if leaving > self.devex_max {
            self.devex_max = leaving;
        }
        if self.devex_max > DEVEX_RESET {
            for w in &mut self.devex {
                *w = 1.0;
            }
            self.devex_max = 1.0;
        }
    }

    /// Ratio test over the (sorted) nonzeros of `self.d`: identical
    /// tie-breaking to the dense scan, which visited rows in ascending
    /// order with `d[r] == 0` elsewhere.
    fn ratio_test(&self) -> Option<usize> {
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for &i in self.d.touched() {
            let di = self.d.get(i);
            if di > EPS {
                let ratio = self.xb[i] / di;
                let better = ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS
                        && leave.is_some_and(|l| self.basis[i] < self.basis[l]));
                if better {
                    best_ratio = ratio;
                    leave = Some(i);
                }
            }
        }
        leave
    }

    /// Applies the primal pivot `x_B -= θ·d` over the direction's nonzeros
    /// only. Equivalent to the old full-row sweep: untouched entries have
    /// `d[i] == 0` exactly, and the tiny-negative clamp only ever fires on
    /// entries a pivot just wrote.
    fn update_xb(&mut self, r: usize, theta: f64) {
        for &i in self.d.touched() {
            if i != r {
                self.xb[i] -= theta * self.d.get(i);
                if self.xb[i] < 0.0 && self.xb[i] > -1e-10 {
                    self.xb[i] = 0.0;
                }
            }
        }
        self.xb[r] = if theta < 0.0 && theta > -1e-10 {
            0.0
        } else {
            theta
        };
    }

    /// One simplex phase (minimize `costs`): devex / partial / Bland
    /// pricing with the shared Bland anti-cycling fallback, hypersparse
    /// FTRAN/BTRAN, ratio test, eta update, fill-aware refactorization.
    /// `Ok(true)` at optimality, `Ok(false)` if unbounded.
    fn phase(
        &mut self,
        costs: &[f64],
        allow_artificial: bool,
        limit: usize,
    ) -> Result<bool, LpError> {
        let m = self.sf.m;
        let ncols = self.sf.ncols;
        let bland_after = self.iterations + 10 * (m + ncols);
        for w in &mut self.devex {
            *w = 1.0;
        }
        self.devex_max = 1.0;
        let mut pricer = PartialPricer::new(ncols);
        // Dual maintenance. `y_valid` gates a from-scratch BTRAN; after a
        // pivot the duals are instead *updated* along the pivot row
        // (`y' = y + (z_q/α_r)·ρ_r`, the textbook rank-one dual update) —
        // that BTRAN was the single largest per-iteration cost at 10k+
        // rows. `y_fresh` records whether any incremental updates have
        // been folded in since the last exact BTRAN: optimality is only
        // ever declared on exact duals (see the rescan below), so the
        // update changes pivot routes, never verdicts.
        let mut y_valid = false;
        let mut y_fresh = false;
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
            let bland = self.iterations > bland_after || self.pricing == Pricing::Bland;
            if !y_valid {
                self.compute_duals(costs);
                y_valid = true;
                y_fresh = true;
            }

            // Pricing: devex score z²/w (Dantzig weighted by the reference
            // framework) over the full range or the candidate list, or
            // plain Bland first-eligible in fallback mode.
            let enter = if bland {
                let mut enter = None;
                for j in 0..ncols {
                    if self.eligible(j, allow_artificial)
                        && costs[j] - self.sparse_dot(self.y.values(), j) < -EPS
                    {
                        enter = Some(j);
                        break;
                    }
                }
                enter
            } else if self.pricing == Pricing::Partial {
                let y = self.y.values();
                pricer.select(
                    ncols,
                    |j| self.eligible(j, allow_artificial),
                    |j| costs[j] - self.sparse_dot(y, j),
                    |j| self.devex[j],
                )
            } else {
                let mut enter = None;
                let mut best_score = 0.0;
                for j in 0..ncols {
                    if !self.eligible(j, allow_artificial) {
                        continue;
                    }
                    let zj = costs[j] - self.sparse_dot(self.y.values(), j);
                    if zj < -EPS {
                        let score = zj * zj / self.devex[j];
                        if score > best_score {
                            best_score = score;
                            enter = Some(j);
                        }
                    }
                }
                enter
            };
            let Some(q) = enter else {
                if y_fresh {
                    return Ok(true);
                }
                // "No candidate" on incrementally-updated duals is only a
                // hint: recompute them exactly and rescan before declaring
                // optimality. At most one extra BTRAN per false alarm, and
                // the verdict itself never rests on drifted numbers.
                y_valid = false;
                continue;
            };

            // Direction and ratio test.
            self.compute_direction(q);
            let Some(r) = self.ratio_test() else {
                return Ok(false);
            };

            // Devex weight update against the leaving row, computed before
            // the basis changes (the BTRAN row is for the current basis).
            if !bland {
                self.compute_pivot_row(r);
                let alpha_q = self.d.get(r);
                if self.pricing == Pricing::Partial {
                    // Maintain weights only where they are read: on the
                    // candidate list. Off-list weights go stale, which can
                    // reorder pivots but never changes any verdict.
                    self.update_devex_weights(Some(pricer.candidates()), q, r, alpha_q);
                } else {
                    self.update_devex_weights(None, q, r, alpha_q);
                }
                // Rank-one dual update along the pivot row (z_q on the
                // *pre-pivot* duals, ρ_r for the pre-pivot basis — both in
                // hand). Replaces next iteration's from-scratch BTRAN.
                let zq = costs[q] - self.sparse_dot(self.y.values(), q);
                let g = zq / alpha_q;
                if g != 0.0 {
                    for &i in self.row_r.touched() {
                        self.y.add(i, g * self.row_r.get(i));
                    }
                }
                y_fresh = false;
            } else {
                // Bland mode never computes the pivot row, so the duals
                // are rebuilt from scratch next iteration — exactly the
                // pre-update behavior of the fallback path.
                y_valid = false;
            }

            // Pivot: update xb, the basis, and the LU eta file.
            let theta = self.xb[r] / self.d.get(r);
            self.update_xb(r, theta);
            self.in_basis[self.basis[r]] = false;
            self.in_basis[q] = true;
            self.basis[r] = q;
            let refactorized = self.apply_update(r)?;
            if refactorized {
                // A fresh factorization flushes accumulated pivot error;
                // give the duals the same treatment.
                y_valid = false;
            }
        }
    }

    /// The per-solve kernel counters as the public stats record.
    fn solve_stats(&self) -> SolveStats {
        SolveStats {
            refactorizations: self.stats.refactorizations,
            eta_nnz_total: self.stats.eta_nnz_total,
            peak_eta_nnz: self.stats.peak_eta_nnz,
            factor_nnz: self.lu.factor_nnz(),
        }
    }

    fn artificial_infeasibility(&self) -> f64 {
        self.basis
            .iter()
            .zip(&self.xb)
            .filter(|(&j, _)| matches!(self.sf.col_kinds[j], ColKind::Artificial { .. }))
            .map(|(_, &x)| x)
            .sum()
    }

    fn optimize(&mut self) -> Result<Status, LpError> {
        let m = self.sf.m;
        let ncols = self.sf.ncols;
        let limit = 50_000 + 200 * (m + ncols);
        let has_art = self
            .sf
            .col_kinds
            .iter()
            .any(|k| matches!(k, ColKind::Artificial { .. }));
        if has_art {
            let phase1: Vec<f64> = self
                .sf
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
            let optimal = self.phase(&phase1, true, limit)?;
            debug_assert!(optimal, "phase 1 is bounded below");
            if self.artificial_infeasibility() > 1e-7 {
                self.compute_duals(&phase1);
                self.farkas_y = Some(self.y.to_dense());
                return Ok(Status::Infeasible);
            }
            // Drive basic artificials out where possible (mirrors the
            // sibling variants; a stuck artificial on a redundant row stays
            // basic at zero and is harmless).
            for r in 0..m {
                if matches!(self.sf.col_kinds[self.basis[r]], ColKind::Artificial { .. }) {
                    self.compute_pivot_row(r);
                    for q in 0..ncols {
                        if self.in_basis[q]
                            || matches!(self.sf.col_kinds[q], ColKind::Artificial { .. })
                            || self.sparse_dot(self.row_r.values(), q).abs() <= EPS
                        {
                            continue;
                        }
                        self.compute_direction(q);
                        if self.d.get(r).abs() > EPS {
                            self.in_basis[self.basis[r]] = false;
                            self.in_basis[q] = true;
                            self.basis[r] = q;
                            self.lu.replace_column_scatter(r, &self.d)?;
                            self.refactorize()?;
                            break;
                        }
                    }
                }
            }
        }
        let phase2 = self.sf.costs.clone();
        let optimal = self.phase(&phase2, false, limit)?;
        Ok(if optimal {
            Status::Optimal
        } else {
            Status::Unbounded
        })
    }
}

/// Entry point used by [`Problem::solve_with_budget`].
pub(crate) fn solve_budgeted(
    p: &Problem,
    budget: crate::recover::SolveBudget,
    pricing: Pricing,
) -> Result<Solution, LpError> {
    solve_inner(p, REFACTOR_ETAS, budget, pricing)
}

/// [`solve_budgeted`] with an explicit eta-file budget (exposed for tests
/// exercising the refactorization path).
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn solve_with_refactor_interval(
    p: &Problem,
    refactor_every: usize,
) -> Result<Solution, LpError> {
    solve_inner(
        p,
        refactor_every,
        crate::recover::SolveBudget::UNLIMITED,
        Pricing::default(),
    )
}

fn solve_inner(
    p: &Problem,
    refactor_every: usize,
    budget: crate::recover::SolveBudget,
    pricing: Pricing,
) -> Result<Solution, LpError> {
    let sf = StdForm::build(p, None)?;
    let mut core = SparseCore::new(sf, budget)?;
    core.refactor_every = refactor_every.max(1);
    core.pricing = pricing;
    let status = core.optimize()?;
    if status != Status::Optimal {
        let farkas = core
            .farkas_y
            .take()
            .map(|y| core.sf.map_feasibility_duals(&y));
        return Ok(Solution {
            status,
            objective: None,
            values: vec![],
            duals: vec![],
            reduced_costs: vec![],
            slacks: vec![],
            iterations: core.iterations,
            farkas,
            basis: None,
            stats: Some(core.solve_stats()),
        });
    }
    package_optimal(p, &core)
}

/// Packages an optimal [`SparseCore`] as a [`Solution`] with the basis
/// snapshot for warm restarts.
fn package_optimal(p: &Problem, core: &SparseCore) -> Result<Solution, LpError> {
    let mut col_values = vec![0.0; core.sf.ncols];
    for (r, &j) in core.basis.iter().enumerate() {
        col_values[j] = core.xb[r].max(0.0);
    }
    let values = core.sf.user_values_from(&col_values);
    let cb: Vec<f64> = core.basis.iter().map(|&j| core.sf.costs[j]).collect();
    let y = core.lu.solve_transpose(&cb);
    let duals = core.sf.map_duals(&y);
    let z: Vec<f64> = (0..core.sf.ncols)
        .map(|j| core.sf.costs[j] - core.sparse_dot(&y, j))
        .collect();
    let reduced_costs = core.sf.map_reduced_costs(&z);
    let Some((_, obj_expr)) = p.objective.as_ref() else {
        return Err(LpError::MissingObjective);
    };
    let objective = obj_expr.eval(&values);
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
    Ok(Solution {
        status: Status::Optimal,
        objective: Some(objective),
        values,
        duals,
        reduced_costs,
        slacks,
        iterations: core.iterations,
        farkas: None,
        basis: Some(core.sf.capture_basis_from(&core.basis)),
        stats: Some(core.solve_stats()),
    })
}

/// Feasibility tolerance for warm-start repair decisions (matches the
/// sibling variants' `WARM_FEAS`).
const WARM_FEAS: f64 = 1e-7;

/// Sparse dual simplex on the current basis: restores `x_B ≥ 0` while
/// preserving dual feasibility. `Ok(false)` means "give up and fall back
/// cold" — never wrong, only slower.
fn dual_simplex(core: &mut SparseCore, costs: &[f64]) -> Result<bool, LpError> {
    let m = core.sf.m;
    let max_pivots = 2 * (m + core.sf.ncols);
    let mut pivots = 0usize;
    loop {
        let mut leave = None;
        let mut most = -WARM_FEAS;
        for (r, &x) in core.xb.iter().enumerate() {
            if x < most {
                most = x;
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
            core.budget.check(core.iterations)?;
        }
        core.compute_pivot_row(r);
        core.compute_duals(costs);
        let mut enter = None;
        let mut best = f64::INFINITY;
        for j in 0..core.sf.ncols {
            if core.in_basis[j] || matches!(core.sf.col_kinds[j], ColKind::Artificial { .. }) {
                continue;
            }
            let alpha = core.sparse_dot(core.row_r.values(), j);
            if alpha < -EPS {
                let zj = (costs[j] - core.sparse_dot(core.y.values(), j)).max(0.0);
                let ratio = zj / -alpha;
                if ratio < best {
                    best = ratio;
                    enter = Some(j);
                }
            }
        }
        let Some(q) = enter else {
            return Ok(false); // primal infeasible: certify via cold phase 1
        };
        core.compute_direction(q);
        if core.d.get(r).abs() <= EPS {
            return Ok(false); // BTRAN screen passed but FTRAN pivot is tiny
        }
        let theta = core.xb[r] / core.d.get(r);
        for &i in core.d.touched() {
            if i != r {
                core.xb[i] -= theta * core.d.get(i);
                if core.xb[i] < 0.0 && core.xb[i] > -1e-10 {
                    core.xb[i] = 0.0;
                }
            }
        }
        core.xb[r] = theta;
        core.in_basis[core.basis[r]] = false;
        core.in_basis[q] = true;
        core.basis[r] = q;
        if core.lu.replace_column_scatter(r, &core.d).is_err() {
            return Ok(false);
        }
        core.iterations += 1;
        pivots += 1;
        if core.eta_budget_exceeded() && core.refactorize().is_err() {
            return Ok(false);
        }
    }
}

/// Installs `basis` into `core` and repairs it to optimality without a
/// phase 1. `Ok(false)` for any condition that should fall back to the
/// cold path; only [`LpError::Budget`] propagates.
fn warm_optimize(core: &mut SparseCore, basis: &Basis) -> Result<bool, LpError> {
    let Some(targets) = core.sf.basis_columns(basis) else {
        return Ok(false);
    };
    core.basis = targets;
    core.in_basis = vec![false; core.sf.ncols];
    for &j in &core.basis {
        core.in_basis[j] = true;
    }
    // A fresh sparse factorization is O(nnz): factorize the snapshot
    // basis directly.
    if core.refactorize().is_err() {
        return Ok(false); // snapshot basis singular for this matrix
    }

    let costs = core.sf.costs.clone();
    let primal_ok = core.xb.iter().all(|&x| x >= -WARM_FEAS);
    if !primal_ok {
        core.compute_duals(&costs);
        let dual_ok = (0..core.sf.ncols).all(|j| {
            core.in_basis[j]
                || matches!(core.sf.col_kinds[j], ColKind::Artificial { .. })
                || costs[j] - core.sparse_dot(core.y.values(), j) >= -WARM_FEAS
        });
        if !dual_ok {
            return Ok(false);
        }
        if !dual_simplex(core, &costs)? {
            return Ok(false);
        }
    }
    for x in &mut core.xb {
        if (-WARM_FEAS..0.0).contains(x) {
            *x = 0.0;
        }
    }
    // A warm path must never claim infeasibility.
    if core.artificial_infeasibility() > WARM_FEAS {
        return Ok(false);
    }

    let limit = 50_000 + 200 * (core.sf.m + core.sf.ncols);
    match core.phase(&costs, false, limit) {
        Ok(true) => {}
        Ok(false) => return Ok(false), // suspicious unbounded: verify cold
        Err(e @ LpError::Budget { .. }) => return Err(e),
        Err(_) => return Ok(false),
    }
    if core.artificial_infeasibility() > WARM_FEAS {
        return Ok(false);
    }
    Ok(true)
}

/// Entry point used by [`Problem::solve_from_basis_with_budget`]: solve
/// warm from `basis`, falling back to the cold two-phase path whenever the
/// snapshot cannot be installed and repaired cleanly.
pub(crate) fn solve_from_basis_budgeted(
    p: &Problem,
    basis: &Basis,
    budget: crate::recover::SolveBudget,
    pricing: Pricing,
) -> Result<Solution, LpError> {
    let sf = StdForm::build(p, None)?;
    let mut core = SparseCore::new(sf, budget)?;
    core.pricing = pricing;
    if warm_optimize(&mut core, basis)? {
        package_optimal(p, &core)
    } else {
        solve_inner(p, REFACTOR_ETAS, budget, pricing)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::{LuFactors, SparseCol, StdForm};
    use crate::simplex::Tableau;
    use crate::{LinExpr, Problem, Sense, SimplexVariant, Status};

    fn near(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-7
    }

    fn textbook_max() -> Problem {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.constrain(x.into(), Sense::Le, 4.0);
        p.constrain(2.0 * y, Sense::Le, 12.0);
        p.constrain(3.0 * x + 2.0 * y, Sense::Le, 18.0);
        p.maximize(3.0 * x + 5.0 * y);
        p
    }

    #[test]
    fn std_form_matches_dense_tableau() {
        // The CSC standard form and the dense tableau must agree entry for
        // entry — including the matrix hash, which warm-start caches key on.
        let mut p = Problem::new();
        let x = p.add_var_bounded("x", -2.0, 7.0);
        let f = p.add_free_var("f");
        let y = p.add_var("y");
        p.constrain(2.0 * x + f - y, Sense::Ge, -3.0); // flips
        p.constrain(LinExpr::from(y) + f, Sense::Eq, 5.0);
        p.constrain(x + y, Sense::Le, 9.0);
        p.maximize(x + 2.0 * f - y);
        let sf = StdForm::build(&p, None).unwrap();
        let t = Tableau::build(&p, None).unwrap();
        assert_eq!(sf.m, t.rows());
        assert_eq!(sf.ncols, t.ncols);
        assert_eq!(sf.matrix_hash, t.matrix_hash);
        assert_eq!(sf.col_kinds, t.col_kinds);
        let mut dense = vec![vec![0.0; sf.ncols]; sf.m];
        for (j, col) in sf.cols.iter().enumerate() {
            for &(r, v) in col {
                dense[r][j] = v;
            }
        }
        for r in 0..sf.m {
            for j in 0..sf.ncols {
                assert_eq!(dense[r][j], t.tab[r][j], "entry ({r},{j})");
            }
            assert_eq!(sf.rhs[r], t.rhs(r), "rhs {r}");
        }
        for j in 0..sf.ncols {
            assert_eq!(sf.costs[j], t.costs[j], "cost {j}");
        }
    }

    #[test]
    fn lu_solves_a_small_system() {
        // B = [[2,1,0],[1,3,1],[0,1,4]] (by columns)
        let cols: Vec<SparseCol> = vec![
            vec![(0, 2.0), (1, 1.0)],
            vec![(0, 1.0), (1, 3.0), (2, 1.0)],
            vec![(1, 1.0), (2, 4.0)],
        ];
        let lu = LuFactors::factorize(3, &cols).unwrap();
        let b = vec![5.0, 10.0, 9.0];
        let x = lu.solve(&b);
        // Check B x = b.
        for r in 0..3 {
            let mut s = 0.0;
            for (pos, col) in cols.iter().enumerate() {
                for &(rr, v) in col {
                    if rr == r {
                        s += v * x[pos];
                    }
                }
            }
            assert!(near(s, b[r]), "row {r}: {s} vs {}", b[r]);
        }
        // Check Bᵀ y = c.
        let c = vec![1.0, -2.0, 3.0];
        let y = lu.solve_transpose(&c);
        for (pos, col) in cols.iter().enumerate() {
            let s: f64 = col.iter().map(|&(r, v)| v * y[r]).sum();
            assert!(near(s, c[pos]), "col {pos}");
        }
        // Reconstruction matches the input matrix.
        let rec = lu.reconstruct();
        let mut want = vec![vec![0.0; 3]; 3];
        for (pos, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                want[r][pos] = v;
            }
        }
        for r in 0..3 {
            for cj in 0..3 {
                assert!(near(rec[r][cj], want[r][cj]), "({r},{cj})");
            }
        }
    }

    #[test]
    fn lu_rejects_singular_matrices() {
        // Second column is a multiple of the first.
        let cols: Vec<SparseCol> = vec![vec![(0, 1.0), (1, 2.0)], vec![(0, 2.0), (1, 4.0)]];
        assert!(LuFactors::factorize(2, &cols).is_err());
        // Structurally empty column.
        let cols: Vec<SparseCol> = vec![vec![(0, 1.0)], vec![]];
        assert!(LuFactors::factorize(2, &cols).is_err());
    }

    #[test]
    fn lu_eta_update_tracks_refactorization() {
        let mut cols: Vec<SparseCol> = vec![
            vec![(0, 2.0), (1, 1.0)],
            vec![(0, 1.0), (1, 3.0), (2, 1.0)],
            vec![(1, 1.0), (2, 4.0)],
        ];
        let mut lu = LuFactors::factorize(3, &cols).unwrap();
        // Replace position 1 with a new column.
        let newcol: SparseCol = vec![(0, 1.0), (2, 2.0)];
        lu.replace_column(1, &newcol).unwrap();
        assert_eq!(lu.eta_count(), 1);
        cols[1] = newcol;
        let fresh = LuFactors::factorize(3, &cols).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let xu = lu.solve(&b);
        let xf = fresh.solve(&b);
        for i in 0..3 {
            assert!(near(xu[i], xf[i]), "ftran {i}: {} vs {}", xu[i], xf[i]);
        }
        let yu = lu.solve_transpose(&b);
        let yf = fresh.solve_transpose(&b);
        for i in 0..3 {
            assert!(near(yu[i], yf[i]), "btran {i}");
        }
    }

    fn both(p: &Problem) -> (crate::Solution, crate::Solution) {
        let d = p.solve().expect("dense solves");
        let s = p
            .solve_with(SimplexVariant::SparseLu)
            .expect("sparse solves");
        (d, s)
    }

    #[test]
    fn agrees_on_textbook_max() {
        let p = textbook_max();
        let (d, s) = both(&p);
        assert!(near(s.objective().unwrap(), 36.0));
        assert!(near(d.objective().unwrap(), s.objective().unwrap()));
        assert!(s.certify(&p).is_valid(), "{}", s.certify(&p));
    }

    #[test]
    fn agrees_on_infeasible_and_unbounded() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.constrain(x.into(), Sense::Le, 1.0);
        p.constrain(x.into(), Sense::Ge, 2.0);
        p.minimize(x.into());
        let s = p.solve_with(SimplexVariant::SparseLu).unwrap();
        assert_eq!(s.status(), Status::Infeasible);
        let y = s.farkas().expect("infeasible carries Farkas");
        assert!(crate::certifies_infeasibility(&p, y));

        let mut p = Problem::new();
        let x = p.add_var("x");
        p.constrain(x.into(), Sense::Ge, 1.0);
        p.maximize(x.into());
        assert_eq!(
            p.solve_with(SimplexVariant::SparseLu).unwrap().status(),
            Status::Unbounded
        );
    }

    #[test]
    fn agrees_on_equalities_and_free_vars() {
        let mut p = Problem::new();
        let x = p.add_free_var("x");
        let t = p.add_var("t");
        p.constrain(LinExpr::from(t) - x, Sense::Ge, -3.0);
        p.constrain(LinExpr::from(t) + x, Sense::Ge, 3.0);
        p.constrain(x.into(), Sense::Eq, 5.0);
        p.minimize(t.into());
        let (d, s) = both(&p);
        assert!(near(d.objective().unwrap(), s.objective().unwrap()));
    }

    #[test]
    fn duals_agree_on_nondegenerate_model() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let c1 = p.constrain(x.into(), Sense::Le, 4.0);
        let c2 = p.constrain(2.0 * y, Sense::Le, 12.0);
        let c3 = p.constrain(3.0 * x + 2.0 * y, Sense::Le, 18.0);
        p.maximize(3.0 * x + 5.0 * y);
        let d = p.solve().unwrap().into_optimal().unwrap();
        let s = p
            .solve_with(SimplexVariant::SparseLu)
            .unwrap()
            .into_optimal()
            .unwrap();
        for c in [c1, c2, c3] {
            assert!(near(d.dual(c), s.dual(c)), "dual mismatch on {c:?}");
        }
    }

    #[test]
    fn refactorization_path_is_exercised() {
        let mut p = Problem::new();
        let n = 60;
        let xs: Vec<_> = (0..n).map(|i| p.add_var(format!("x{i}"))).collect();
        let mut obj = LinExpr::new();
        for (i, &x) in xs.iter().enumerate() {
            p.constrain(x.into(), Sense::Ge, 1.0 + (i % 7) as f64);
            if i > 0 {
                p.constrain(LinExpr::from(x) - xs[i - 1], Sense::Ge, 0.5);
            }
            obj = obj + x;
        }
        p.minimize(obj);
        let d = p.solve().expect("dense solves");
        let s = super::solve_with_refactor_interval(&p, 7).expect("sparse solves");
        assert!(near(
            d.objective().expect("optimal"),
            s.objective().expect("optimal")
        ));
        assert!(s.iterations() > 7, "refactorization must have happened");
    }

    #[test]
    fn warm_start_repairs_rhs_perturbations() {
        let mut p = textbook_max();
        let cold = p.solve_with(SimplexVariant::SparseLu).unwrap();
        let basis = cold.basis().expect("optimal captures basis").clone();
        let c3 = crate::ConstraintId(2);
        p.set_rhs(c3, 15.0);
        let warm = p
            .solve_from_basis_with(SimplexVariant::SparseLu, &basis)
            .unwrap();
        let check = p.solve().unwrap();
        assert_eq!(warm.status(), Status::Optimal);
        assert!(near(warm.objective().unwrap(), check.objective().unwrap()));
        assert!(warm.iterations() <= check.iterations());
    }

    #[test]
    fn smo_model_solves_identically() {
        let mut p = Problem::new();
        let tc = p.add_var("Tc");
        let d = p.add_var("D");
        let g = p.add_var("g");
        p.constrain(LinExpr::from(tc) - d, Sense::Ge, 5.0);
        p.constrain(LinExpr::from(d) + g, Sense::Ge, 7.0);
        p.constrain(2.0 * g - tc, Sense::Le, 0.0);
        p.minimize(tc.into());
        let (dd, ss) = both(&p);
        assert!(near(dd.objective().unwrap(), 8.0));
        assert!(near(ss.objective().unwrap(), 8.0));
    }
}
