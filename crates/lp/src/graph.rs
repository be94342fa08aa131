//! Difference-constraint classification and a shortest-path fast path.
//!
//! The SMO constraint matrices are `0, ±1` valued (§VI of the paper), and
//! under the variable recombination performed by the timing layer (phase
//! ends `E_p = s_p + T_p`, global departures `u_i = s_{p_i} + D_i`) every
//! generated row becomes a *two-variable difference constraint*
//! `x_i − x_j ≤ base + slope·λ`, affine in the cycle time `λ = T_c`. Such
//! systems are exactly the shortest-path / DBM fragment of linear
//! programming:
//!
//! * feasibility at a fixed `λ` is the absence of a negative cycle in the
//!   constraint graph (Bellman–Ford, `O(V·E)`),
//! * the minimal feasible `λ` is a minimum cycle-ratio problem, solved
//!   here by Lawler's parametric iteration (repeatedly jump `λ` to the
//!   ratio of the current negative-cycle witness),
//! * infeasibility yields a *negative-cycle certificate*: `±1` multipliers
//!   on the cycle's rows whose sum telescopes to an absurd inequality —
//!   precisely a Farkas vector, independently checkable by
//!   [`certifies_infeasibility`](crate::certifies_infeasibility) with no
//!   reference to the graph solver.
//!
//! The entry points are [`classify`] (map every row of a [`Problem`] to a
//! [`RowClass`] under a caller-provided [`VarImage`] substitution) and
//! [`DifferenceSystem::build`] (assemble the classified difference subset
//! into a graph). Rows that do not fit ([`RowClass::General`]) are simply
//! absent from the graph; callers decide whether the system is exact
//! ([`Classification::is_pure`]) or a relaxation that routes to the
//! simplex fallback.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::expr::VarId;
use crate::problem::{ConstraintId, Problem, Sense};
use crate::recover::SolveBudget;

/// Absolute tolerance for coefficient recognition and cycle negativity,
/// matching the solver-wide [`EPS`](crate::EPS) on the `0, ±1` matrices
/// this module targets.
const TOL: f64 = 1e-9;

/// How one problem variable maps into difference-graph node space.
///
/// The caller supplies one image per variable (see [`classify`]); node
/// indices are the caller's, dense from `0`. Values are interpreted as
/// potentials relative to an implicit *origin* node pinned at `0`, which
/// the [`DifferenceSystem`] appends itself (single-variable rows and
/// finite variable bounds become arcs to or from the origin).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VarImage {
    /// The variable *is* the potential of node `i`.
    Node(usize),
    /// The variable equals the potential difference `x_a − x_b`.
    Diff(usize, usize),
    /// The variable is the parameter `λ` (the cycle time).
    Param,
}

/// An affine bound `base + slope·λ` on a difference of potentials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffineBound {
    /// Constant part.
    pub base: f64,
    /// Coefficient of the parameter `λ`.
    pub slope: f64,
}

impl AffineBound {
    /// The bound's value at a fixed parameter.
    pub fn at(&self, lambda: f64) -> f64 {
        self.base + self.slope * lambda
    }
}

/// Classification of one constraint row under a [`VarImage`] substitution,
/// normalized to `≤` form (a `≥` row is negated first; an `=` row
/// classifies by its `≤` direction and contributes both directions to the
/// graph).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RowClass {
    /// `x_i − x_j ≤ base + slope·λ` — a pure difference constraint.
    Difference {
        /// Node with coefficient `+1`.
        i: usize,
        /// Node with coefficient `−1`.
        j: usize,
        /// The affine right-hand side.
        bound: AffineBound,
    },
    /// `±x_i ≤ base + slope·λ` — one node against the origin.
    SingleVar {
        /// The single node.
        i: usize,
        /// `true` when the node's coefficient is `−1` (a lower bound on
        /// `x_i`).
        negated: bool,
        /// The affine right-hand side.
        bound: AffineBound,
    },
    /// `coef·λ ≤ rhs` — a bound on the parameter alone (`coef` may be
    /// zero: a constant row).
    ParamBound {
        /// Coefficient of `λ`.
        coef: f64,
        /// Right-hand side.
        rhs: f64,
    },
    /// Anything else — outside the difference fragment; handled by the
    /// simplex fallback.
    General,
}

impl RowClass {
    /// `true` for every class except [`RowClass::General`].
    pub fn is_difference_fragment(&self) -> bool {
        !matches!(self, RowClass::General)
    }
}

/// One normalized `≤`-form atom of a row, with the Farkas multiplier that
/// "using this atom once" contributes to the row (`−1` for the stated
/// direction of a `≤`/`=` row, `+1` for the negated direction of a `≥`/`=`
/// row).
#[derive(Debug, Clone, Copy)]
struct Atom {
    class: RowClass,
    sign: f64,
}

/// The per-row result of [`classify`].
#[derive(Debug, Clone)]
pub struct Classification {
    atoms: Vec<Vec<Atom>>,
}

impl Classification {
    /// The normalized classification of a row (for `=` rows, of its `≤`
    /// direction).
    ///
    /// # Panics
    ///
    /// Panics if `c` does not belong to the classified problem.
    pub fn class(&self, c: ConstraintId) -> RowClass {
        self.atoms[c.index()][0].class
    }

    /// Number of classified rows.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// `true` when the problem had no rows.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// `true` when every row lies in the difference fragment — the graph
    /// backend is then *exact*, not a relaxation.
    pub fn is_pure(&self) -> bool {
        self.atoms
            .iter()
            .all(|a| a[0].class.is_difference_fragment())
    }

    /// The rows classified [`RowClass::General`], in ascending id order.
    pub fn general_rows(&self) -> Vec<ConstraintId> {
        (0..self.atoms.len())
            .filter(|&r| !self.atoms[r][0].class.is_difference_fragment())
            .map(ConstraintId)
            .collect()
    }

    /// Count of rows classified as pure differences.
    pub fn num_difference(&self) -> usize {
        self.count(|c| matches!(c, RowClass::Difference { .. }))
    }

    /// Count of single-variable rows.
    pub fn num_single_var(&self) -> usize {
        self.count(|c| matches!(c, RowClass::SingleVar { .. }))
    }

    /// Count of parameter-only rows.
    pub fn num_param_bound(&self) -> usize {
        self.count(|c| matches!(c, RowClass::ParamBound { .. }))
    }

    /// Count of rows outside the difference fragment.
    pub fn num_general(&self) -> usize {
        self.count(|c| matches!(c, RowClass::General))
    }

    fn count(&self, f: impl Fn(&RowClass) -> bool) -> usize {
        self.atoms.iter().filter(|a| f(&a[0].class)).count()
    }
}

/// Classifies every row of `p` under the image map, one [`VarImage`] per
/// variable (in [`VarId`] order).
///
/// # Errors
///
/// Returns [`LpError::Numerical`](crate::LpError) when `images` does not
/// cover every variable of `p`.
pub fn classify(p: &Problem, images: &[VarImage]) -> Result<Classification, crate::LpError> {
    if images.len() != p.num_vars() {
        return Err(crate::LpError::Numerical {
            context: format!(
                "classify: {} variable images for {} variables",
                images.len(),
                p.num_vars()
            ),
        });
    }
    let atoms = (0..p.num_constraints())
        .map(|r| {
            let (expr, sense, rhs) = p.constraint(ConstraintId(r));
            let fwd = classify_le(expr.iter(), rhs, images, false);
            match sense {
                Sense::Le => vec![Atom {
                    class: fwd,
                    sign: -1.0,
                }],
                Sense::Ge => vec![Atom {
                    class: classify_le(expr.iter(), rhs, images, true),
                    sign: 1.0,
                }],
                Sense::Eq => vec![
                    Atom {
                        class: fwd,
                        sign: -1.0,
                    },
                    Atom {
                        class: classify_le(expr.iter(), rhs, images, true),
                        sign: 1.0,
                    },
                ],
            }
        })
        .collect();
    Ok(Classification { atoms })
}

/// Classifies one `≤`-form inequality `Σ c_v·x_v ≤ rhs` (negated first
/// when `negate` is set) by substituting variable images and collecting
/// net node coefficients.
fn classify_le(
    terms: impl Iterator<Item = (VarId, f64)>,
    rhs: f64,
    images: &[VarImage],
    negate: bool,
) -> RowClass {
    let flip = if negate { -1.0 } else { 1.0 };
    // Net coefficient per node; rows touch at most a handful of nodes, so
    // a small association list beats a map.
    let mut nodes: Vec<(usize, f64)> = Vec::with_capacity(4);
    let mut add = |n: usize, c: f64| {
        if let Some(e) = nodes.iter_mut().find(|(i, _)| *i == n) {
            e.1 += c;
        } else {
            nodes.push((n, c));
        }
    };
    let mut param = 0.0;
    for (v, c) in terms {
        let c = c * flip;
        match images[v.index()] {
            VarImage::Node(i) => add(i, c),
            VarImage::Diff(a, b) => {
                add(a, c);
                add(b, -c);
            }
            VarImage::Param => param += c,
        }
    }
    nodes.retain(|(_, c)| c.abs() > TOL);
    let rhs = rhs * flip;
    let bound = AffineBound {
        base: rhs,
        slope: -param,
    };
    let unit = |c: f64| (c - 1.0).abs() <= TOL || (c + 1.0).abs() <= TOL;
    match nodes.as_slice() {
        [] => RowClass::ParamBound { coef: param, rhs },
        [(i, c)] if unit(*c) => RowClass::SingleVar {
            i: *i,
            negated: *c < 0.0,
            bound,
        },
        [(a, ca), (b, cb)] if unit(*ca) && unit(*cb) && (ca * cb) < 0.0 => {
            let (i, j) = if *ca > 0.0 { (*a, *b) } else { (*b, *a) };
            RowClass::Difference { i, j, bound }
        }
        _ => RowClass::General,
    }
}

/// Where an arc of the constraint graph came from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ArcSource {
    /// A constraint row; `sign` is the Farkas multiplier one use of the
    /// arc contributes to the row.
    Row { c: ConstraintId, sign: f64 },
    /// A finite variable bound — absent from Farkas vectors (the
    /// certificate checker's supremum over the variable box absorbs it).
    Bound,
}

/// One arc `x_to − x_from ≤ base + slope·λ`.
#[derive(Debug, Clone, Copy)]
struct GraphArc {
    from: usize,
    to: usize,
    base: f64,
    slope: f64,
    source: ArcSource,
}

/// Provenance of one side of the parameter interval `λ ∈ [lower, upper]`.
#[derive(Debug, Clone, Copy)]
enum ParamBoundSrc {
    /// The parameter variable's own bound (or no bound at all) — absorbed
    /// by the certificate checker's box supremum.
    VarBound,
    /// A [`RowClass::ParamBound`] row `coef·λ ≤ rhs` with its Farkas
    /// direction sign.
    Row {
        c: ConstraintId,
        sign: f64,
        coef: f64,
    },
}

/// The difference-constraint subset of a [`Problem`], as a weighted graph
/// with arc weights affine in the parameter `λ`.
///
/// Built by [`DifferenceSystem::build`]; solves the subset *exactly* when
/// the classification [`is_pure`](Classification::is_pure), and a
/// relaxation (useful for warm starts and early infeasibility detection —
/// an infeasible subset proves the full problem infeasible) otherwise.
#[derive(Debug, Clone)]
pub struct DifferenceSystem {
    /// Caller node space; the origin is appended at index `num_nodes`.
    num_nodes: usize,
    arcs: Vec<GraphArc>,
    lambda_lower: f64,
    lambda_lower_src: ParamBoundSrc,
    lambda_upper: f64,
    lambda_upper_src: ParamBoundSrc,
    /// A constant row that is infeasible on its own (`0 ≤ rhs < 0`).
    constant_conflict: Option<(ConstraintId, f64)>,
    num_rows: usize,
}

/// Outcome of a fixed-parameter feasibility check
/// ([`DifferenceSystem::feasible_at`]).
#[derive(Debug, Clone)]
pub enum FixedParamOutcome {
    /// A feasible potential assignment exists; `potentials[i]` is the
    /// value of node `i` relative to the origin (pinned at `0`).
    Feasible {
        /// Node potentials, caller node space.
        potentials: Vec<f64>,
    },
    /// A negative cycle at this `λ`: no potentials exist.
    NegativeCycle(NegativeCycle),
}

/// A negative cycle of the constraint graph — the graph analogue of a
/// Farkas certificate.
#[derive(Debug, Clone)]
pub struct NegativeCycle {
    /// `(row, multiplier)` support: summing `multiplier ×` each row
    /// telescopes the node potentials away.
    rows: Vec<(ConstraintId, f64)>,
    /// Σ base over the cycle's arcs.
    base: f64,
    /// Σ slope over the cycle's arcs.
    slope: f64,
}

impl NegativeCycle {
    /// The `(row, Farkas multiplier)` support of the cycle, in traversal
    /// order. Variable-bound arcs do not appear (the certificate checker's
    /// box supremum covers them).
    pub fn rows(&self) -> &[(ConstraintId, f64)] {
        &self.rows
    }

    /// The cycle's weight `Σ base + λ·Σ slope` at a given parameter;
    /// negative means infeasible at that `λ`.
    pub fn weight_at(&self, lambda: f64) -> f64 {
        self.base + self.slope * lambda
    }

    /// The smallest `λ` at which the cycle stops being negative
    /// (`−Σbase / Σslope`), or `None` when the cycle is negative for every
    /// larger `λ` (`Σ slope ≤ 0`).
    pub fn min_feasible_lambda(&self) -> Option<f64> {
        (self.slope > TOL).then(|| -self.base / self.slope)
    }
}

/// Proof that `λ*` returned by [`DifferenceSystem::minimize_param`] is
/// minimal: `(row, multiplier)` pairs whose sum implies `λ ≥ implied_lower`
/// by pure row arithmetic (empty when `λ*` sits on the parameter's own
/// lower bound).
#[derive(Debug, Clone)]
pub struct ParamLowerWitness {
    rows: Vec<(ConstraintId, f64)>,
    implied_lower: f64,
    /// Σ slope of the witness cycle — needed to combine this witness with
    /// a later slope-free negative cycle into a standalone certificate.
    slope: f64,
}

impl ParamLowerWitness {
    /// The `(row, multiplier)` support of the witness cycle.
    pub fn rows(&self) -> &[(ConstraintId, f64)] {
        &self.rows
    }

    /// The lower bound on `λ` the witness implies.
    pub fn implied_lower(&self) -> f64 {
        self.implied_lower
    }
}

/// A graph-derived Farkas certificate of infeasibility for the *problem*
/// (not just one fixed `λ`): a negative cycle whose weight stays negative
/// over the parameter's entire admissible range.
#[derive(Debug, Clone)]
pub struct GraphInfeasibility {
    y: Vec<f64>,
    rows: Vec<(ConstraintId, f64)>,
}

impl GraphInfeasibility {
    /// The full Farkas vector, one multiplier per row of the source
    /// problem (zeros off the cycle).
    pub fn farkas(&self) -> &[f64] {
        &self.y
    }

    /// The non-zero `(row, multiplier)` support.
    pub fn rows(&self) -> &[(ConstraintId, f64)] {
        &self.rows
    }

    /// Independently verifies the certificate against `p` via
    /// [`certifies_infeasibility`](crate::certifies_infeasibility) — the
    /// same machine check an LP Farkas vector gets, with no reference to
    /// the graph solver that produced it.
    pub fn check(&self, p: &Problem) -> bool {
        crate::iis::certifies_infeasibility(p, &self.y)
    }
}

/// Outcome of [`DifferenceSystem::minimize_param`].
#[derive(Debug, Clone)]
pub enum MinParamOutcome {
    /// The exact minimal feasible parameter, a witness schedule, and (when
    /// a critical cycle binds `λ*`) an arithmetic lower-bound witness.
    Optimal {
        /// The minimal feasible `λ`.
        lambda: f64,
        /// Node potentials feasible at `lambda`, caller node space,
        /// relative to the origin.
        potentials: Vec<f64>,
        /// Row-arithmetic proof of minimality; `None` when `λ*` sits on
        /// the parameter's own lower bound.
        witness: Option<ParamLowerWitness>,
    },
    /// No parameter value is feasible.
    Infeasible(GraphInfeasibility),
}

impl DifferenceSystem {
    /// Assembles the difference-fragment rows of `p` (under `cls`, from
    /// [`classify`] with the same `images`) plus every finite variable
    /// bound into a constraint graph. [`RowClass::General`] rows are
    /// skipped — check [`Classification::is_pure`] to know whether the
    /// system is exact.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::Numerical`](crate::LpError) when `images` and
    /// `cls` do not match `p`'s dimensions.
    pub fn build(
        p: &Problem,
        images: &[VarImage],
        cls: &Classification,
    ) -> Result<Self, crate::LpError> {
        if images.len() != p.num_vars() || cls.len() != p.num_constraints() {
            return Err(crate::LpError::Numerical {
                context: "difference system: image or classification dimension mismatch".into(),
            });
        }
        let num_nodes = images
            .iter()
            .map(|im| match *im {
                VarImage::Node(i) => i + 1,
                VarImage::Diff(a, b) => a.max(b) + 1,
                VarImage::Param => 0,
            })
            .max()
            .unwrap_or(0);
        let origin = num_nodes;
        let mut sys = DifferenceSystem {
            num_nodes,
            arcs: Vec::new(),
            lambda_lower: f64::NEG_INFINITY,
            lambda_lower_src: ParamBoundSrc::VarBound,
            lambda_upper: f64::INFINITY,
            lambda_upper_src: ParamBoundSrc::VarBound,
            constant_conflict: None,
            num_rows: p.num_constraints(),
        };

        // Parameter bounds from the parameter variable's own box (if any
        // variable maps to Param); tightened by ParamBound rows below.
        for (v, im) in images.iter().enumerate() {
            if matches!(im, VarImage::Param) {
                let (lo, up) = p.var_bounds(VarId(v));
                sys.lambda_lower = sys.lambda_lower.max(lo);
                sys.lambda_upper = sys.lambda_upper.min(up);
            }
        }
        if sys.lambda_lower == f64::NEG_INFINITY
            && !images.iter().any(|im| matches!(im, VarImage::Param))
        {
            // No parameter at all: weights are constant, pin λ = 0.
            sys.lambda_lower = 0.0;
            sys.lambda_upper = 0.0;
        }

        // Constraint-row arcs.
        for (r, atoms) in cls.atoms.iter().enumerate() {
            let c = ConstraintId(r);
            for atom in atoms {
                let source = ArcSource::Row { c, sign: atom.sign };
                match atom.class {
                    RowClass::Difference { i, j, bound } => sys.arcs.push(GraphArc {
                        from: j,
                        to: i,
                        base: bound.base,
                        slope: bound.slope,
                        source,
                    }),
                    RowClass::SingleVar { i, negated, bound } => {
                        // +x_i ≤ b: origin→i; −x_i ≤ b: i→origin.
                        let (from, to) = if negated { (i, origin) } else { (origin, i) };
                        sys.arcs.push(GraphArc {
                            from,
                            to,
                            base: bound.base,
                            slope: bound.slope,
                            source,
                        });
                    }
                    RowClass::ParamBound { coef, rhs } => {
                        if coef > TOL {
                            let cand = rhs / coef;
                            if cand < sys.lambda_upper {
                                sys.lambda_upper = cand;
                                sys.lambda_upper_src = ParamBoundSrc::Row {
                                    c,
                                    sign: atom.sign,
                                    coef,
                                };
                            }
                        } else if coef < -TOL {
                            let cand = rhs / coef;
                            if cand > sys.lambda_lower {
                                sys.lambda_lower = cand;
                                sys.lambda_lower_src = ParamBoundSrc::Row {
                                    c,
                                    sign: atom.sign,
                                    coef,
                                };
                            }
                        } else if rhs < -TOL && sys.constant_conflict.is_none() {
                            // 0 ≤ rhs < 0: the row is infeasible alone.
                            sys.constant_conflict = Some((c, atom.sign));
                        }
                    }
                    RowClass::General => {}
                }
            }
        }

        // Variable-bound arcs (the ambient box, structural in the SMO
        // models: non-negativity of widths, starts and departures).
        for (v, im) in images.iter().enumerate() {
            let (lo, up) = p.var_bounds(VarId(v));
            let (a, b) = match *im {
                VarImage::Node(i) => (i, origin),
                VarImage::Diff(i, j) => (i, j),
                VarImage::Param => continue,
            };
            // lo ≤ x_a − x_b ≤ up
            if lo.is_finite() {
                sys.arcs.push(GraphArc {
                    from: a,
                    to: b,
                    base: -lo,
                    slope: 0.0,
                    source: ArcSource::Bound,
                });
            }
            if up.is_finite() {
                sys.arcs.push(GraphArc {
                    from: b,
                    to: a,
                    base: up,
                    slope: 0.0,
                    source: ArcSource::Bound,
                });
            }
        }
        Ok(sys)
    }

    /// Number of nodes in the caller's node space (the internal origin is
    /// not counted).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of arcs, including variable-bound arcs.
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// The admissible parameter interval `[lower, upper]` implied by the
    /// parameter variable's box and the `ParamBound` rows.
    pub fn param_range(&self) -> (f64, f64) {
        (self.lambda_lower, self.lambda_upper)
    }

    /// The row that sets the parameter's lower bound, with the multiplier
    /// that turns it into `λ ≥ lower` (unit `λ` coefficient) — the LP dual
    /// of that row when `λ*` sits on the bound. `None` when the bound is
    /// the parameter variable's own box.
    pub fn param_lower_row(&self) -> Option<(ConstraintId, f64)> {
        match self.lambda_lower_src {
            ParamBoundSrc::Row { c, sign, coef } => Some((c, sign / coef)),
            ParamBoundSrc::VarBound => None,
        }
    }

    /// Bellman–Ford feasibility at a fixed parameter: either a feasible
    /// potential assignment (the DBM closure relative to the origin) or a
    /// negative-cycle witness.
    ///
    /// The `budget` is checked once per Bellman–Ford pass (each pass scans
    /// every arc), so an expired deadline surfaces as
    /// [`LpError::Budget`](crate::LpError) within one `O(E)` sweep rather
    /// than after the full `O(V·E)` relaxation — the graph backend honors
    /// `--time-limit` exactly like the simplex variants do.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::Budget`](crate::LpError) when the budget expires
    /// mid-search; the `iterations` field counts completed passes.
    pub fn feasible_at(
        &self,
        lambda: f64,
        budget: &SolveBudget,
    ) -> Result<FixedParamOutcome, crate::LpError> {
        let mut passes = 0usize;
        Ok(match self.bellman_ford(lambda, budget, &mut passes)? {
            Ok(potentials) => FixedParamOutcome::Feasible { potentials },
            Err(cycle) => FixedParamOutcome::NegativeCycle(self.summarize(&cycle)),
        })
    }

    /// Lawler's parametric search for the exact minimal feasible `λ`.
    ///
    /// Starting from the parameter's lower bound, each round either proves
    /// feasibility (done — the current `λ` is optimal, since every prior
    /// round's witness cycle forces `λ` at least this high) or produces a
    /// negative-cycle witness whose ratio `−Σbase/Σslope` is the next
    /// candidate. A witness with `Σslope ≤ 0` stays negative for every
    /// admissible `λ` — infeasibility, certified through the cycle's rows.
    ///
    /// The `budget` is threaded into every Bellman–Ford round and checked
    /// once per pass; the cumulative pass count across rounds plays the
    /// role simplex pivots play in [`LpError::Budget`](crate::LpError).
    ///
    /// # Errors
    ///
    /// Returns [`LpError::Numerical`](crate::LpError) if the parameter is
    /// unbounded below (no minimum exists) or the iteration stalls on
    /// floating-point noise instead of making progress, and
    /// [`LpError::Budget`](crate::LpError) when the budget expires before
    /// the search terminates.
    pub fn minimize_param(&self, budget: &SolveBudget) -> Result<MinParamOutcome, crate::LpError> {
        if let Some((c, sign)) = self.constant_conflict {
            return Ok(MinParamOutcome::Infeasible(
                self.certificate(&[(c, sign)], &[]),
            ));
        }
        if self.lambda_lower == f64::NEG_INFINITY {
            return Err(crate::LpError::Numerical {
                context: "minimize_param: parameter is unbounded below".into(),
            });
        }
        if self.lambda_lower > self.lambda_upper + TOL {
            // The parameter interval itself is empty.
            return Ok(MinParamOutcome::Infeasible(
                self.empty_interval_certificate(),
            ));
        }
        let mut lambda = self.lambda_lower;
        let mut witness: Option<ParamLowerWitness> = None;
        let mut stalls = 0usize;
        let mut passes = 0usize;
        // Lawler terminates after at most one round per distinct simple-
        // cycle ratio; the cap is a generous safety net over that.
        for _ in 0..(1000 + 10 * self.arcs.len()) {
            let cycle = match self.bellman_ford(lambda, budget, &mut passes)? {
                Ok(potentials) => {
                    return Ok(MinParamOutcome::Optimal {
                        lambda,
                        potentials,
                        witness,
                    })
                }
                Err(cycle) => self.summarize(&cycle),
            };
            match cycle.min_feasible_lambda() {
                None => {
                    // Negative at every λ' ≥ lambda. A standalone Farkas
                    // vector must also rule out λ' < lambda: combine with
                    // whatever forced λ this high — the previous witness
                    // cycle (scaled so the λ terms cancel) or, on the
                    // first round, the parameter's lower bound.
                    let extra = match &witness {
                        Some(w) if cycle.slope < -TOL => {
                            let t = -cycle.slope / w.slope;
                            w.rows.iter().map(|&(c, m)| (c, t * m)).collect()
                        }
                        _ => self.lower_bound_multiplier(cycle.slope),
                    };
                    return Ok(MinParamOutcome::Infeasible(
                        self.certificate(&cycle.rows, &extra),
                    ));
                }
                Some(next) => {
                    if next > self.lambda_upper + TOL * (1.0 + self.lambda_upper.abs()) {
                        // The cycle forces λ beyond its admissible maximum.
                        let extra = self.upper_bound_multiplier(cycle.slope);
                        return Ok(MinParamOutcome::Infeasible(
                            self.certificate(&cycle.rows, &extra),
                        ));
                    }
                    if next <= lambda + TOL * (1.0 + lambda.abs()) {
                        // No numeric progress: nudge once, then give up.
                        stalls += 1;
                        if stalls > 3 {
                            return Err(crate::LpError::Numerical {
                                context: format!(
                                    "minimize_param stalled at λ = {lambda} (cycle ratio {next})"
                                ),
                            });
                        }
                        lambda += TOL * (1.0 + lambda.abs());
                    } else {
                        stalls = 0;
                        lambda = next;
                    }
                    witness = Some(ParamLowerWitness {
                        rows: cycle.rows.clone(),
                        implied_lower: next,
                        slope: cycle.slope,
                    });
                }
            }
        }
        Err(crate::LpError::Numerical {
            context: "minimize_param failed to converge".into(),
        })
    }

    /// Bellman–Ford with super-source semantics (all distances start at
    /// zero, making every node reachable): returns origin-normalized
    /// potentials, or the arc indices of a negative cycle. The outer
    /// `Result` is the budget verdict; `passes` accumulates across calls
    /// so [`minimize_param`](Self::minimize_param) reports total work.
    fn bellman_ford(
        &self,
        lambda: f64,
        budget: &SolveBudget,
        passes: &mut usize,
    ) -> Result<Result<Vec<f64>, Vec<usize>>, crate::LpError> {
        let n = self.num_nodes + 1; // + origin
        let mut dist = vec![0.0f64; n];
        let mut pred: Vec<Option<usize>> = vec![None; n];
        for pass in 0..n {
            budget.check(*passes)?;
            *passes += 1;
            let mut relaxed = None;
            for (idx, a) in self.arcs.iter().enumerate() {
                let w = a.base + a.slope * lambda;
                let cand = dist[a.from] + w;
                if cand < dist[a.to] - TOL * (1.0 + dist[a.to].abs().max(w.abs())) {
                    dist[a.to] = cand;
                    pred[a.to] = Some(idx);
                    relaxed = Some(a.to);
                }
            }
            match relaxed {
                None => {
                    let o = dist[self.num_nodes];
                    return Ok(Ok(dist[..self.num_nodes].iter().map(|d| d - o).collect()));
                }
                Some(node) if pass == n - 1 => {
                    // A relaxation on pass n: walk predecessors n steps to
                    // land inside the cycle, then collect it.
                    let mut cur = node;
                    for _ in 0..n {
                        if let Some(p) = pred[cur] {
                            cur = self.arcs[p].from;
                        }
                    }
                    let start = cur;
                    let mut cycle = Vec::new();
                    // Every node on the walk has a predecessor, since we
                    // arrived here following predecessor arcs.
                    while let Some(p) = pred[cur] {
                        cycle.push(p);
                        cur = self.arcs[p].from;
                        if cur == start {
                            break;
                        }
                    }
                    cycle.reverse();
                    return Ok(Err(cycle));
                }
                Some(_) => {}
            }
        }
        // Unreachable: the loop either converges or detects a cycle on the
        // final pass. Report "no cycle" conservatively.
        let o = dist[self.num_nodes];
        Ok(Ok(dist[..self.num_nodes].iter().map(|d| d - o).collect()))
    }

    /// Aggregates a cycle's arcs into its row support and affine weight.
    fn summarize(&self, cycle: &[usize]) -> NegativeCycle {
        let mut rows: Vec<(ConstraintId, f64)> = Vec::new();
        let (mut base, mut slope) = (0.0, 0.0);
        for &idx in cycle {
            let a = &self.arcs[idx];
            base += a.base;
            slope += a.slope;
            if let ArcSource::Row { c, sign } = a.source {
                if let Some(e) = rows.iter_mut().find(|(rc, _)| *rc == c) {
                    e.1 += sign;
                } else {
                    rows.push((c, sign));
                }
            }
        }
        rows.retain(|(_, m)| m.abs() > TOL);
        NegativeCycle { base, slope, rows }
    }

    /// The extra `(row, multiplier)` needed when a `Σslope ≤ 0` cycle's
    /// residual `λ` term must be cancelled by the parameter's *lower*
    /// bound row (nothing when the bound is the variable's own box).
    fn lower_bound_multiplier(&self, cycle_slope: f64) -> Vec<(ConstraintId, f64)> {
        match self.lambda_lower_src {
            ParamBoundSrc::Row { c, sign, coef } if cycle_slope.abs() > TOL => {
                vec![(c, (cycle_slope / coef) * sign)]
            }
            _ => Vec::new(),
        }
    }

    /// Likewise for a `Σslope > 0` cycle clashing with the parameter's
    /// *upper* bound row.
    fn upper_bound_multiplier(&self, cycle_slope: f64) -> Vec<(ConstraintId, f64)> {
        match self.lambda_upper_src {
            ParamBoundSrc::Row { c, sign, coef } => {
                vec![(c, (cycle_slope / coef) * sign)]
            }
            ParamBoundSrc::VarBound => Vec::new(),
        }
    }

    /// Certificate for an empty parameter interval (`λ_lo > λ_hi`).
    ///
    /// With both sides row-backed, `t_lo = q_hi` copies of the lower
    /// `≤`-atom (`q_lo·λ ≤ r_lo`, `q_lo < 0`) plus `t_hi = −q_lo` copies
    /// of the upper one cancel the λ terms exactly; a side backed by the
    /// variable box instead uses one copy of the remaining row and lets
    /// the checker's box supremum absorb the residual λ coefficient.
    fn empty_interval_certificate(&self) -> GraphInfeasibility {
        let mut support: Vec<(ConstraintId, f64)> = Vec::new();
        let row_coef = |src: &ParamBoundSrc| match *src {
            ParamBoundSrc::Row { coef, .. } => coef,
            ParamBoundSrc::VarBound => 0.0,
        };
        let lo_coef = row_coef(&self.lambda_lower_src);
        let hi_coef = row_coef(&self.lambda_upper_src);
        if let ParamBoundSrc::Row { c, sign, .. } = self.lambda_lower_src {
            let t = if hi_coef.abs() > TOL { hi_coef } else { 1.0 };
            support.push((c, t * sign));
        }
        if let ParamBoundSrc::Row { c, sign, .. } = self.lambda_upper_src {
            let t = if lo_coef.abs() > TOL { -lo_coef } else { 1.0 };
            support.push((c, t * sign));
        }
        self.certificate(&support, &[])
    }

    /// Assembles a [`GraphInfeasibility`] from row-multiplier support.
    fn certificate(
        &self,
        rows: &[(ConstraintId, f64)],
        extra: &[(ConstraintId, f64)],
    ) -> GraphInfeasibility {
        let mut y = vec![0.0; self.num_rows];
        for &(c, m) in rows.iter().chain(extra) {
            y[c.index()] += m;
        }
        let support: Vec<(ConstraintId, f64)> = (0..self.num_rows)
            .filter(|&r| y[r].abs() > TOL)
            .map(|r| (ConstraintId(r), y[r]))
            .collect();
        GraphInfeasibility { y, rows: support }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::{LinExpr, Problem, Status};

    /// A 2-node ring with one λ-dependent arc: x_b − x_a ≤ −150 + λ and
    /// x_a − x_b ≤ 50 force λ ≥ 100.
    fn ring() -> (Problem, Vec<VarImage>) {
        let mut p = Problem::new();
        let tc = p.add_var("Tc"); // [0, ∞)
        let a = p.add_free_var("a");
        let b = p.add_free_var("b");
        p.constrain(b - a - LinExpr::from(tc), Sense::Le, -150.0);
        p.constrain(a - b, Sense::Le, 50.0);
        p.minimize(tc.into());
        let images = vec![VarImage::Param, VarImage::Node(0), VarImage::Node(1)];
        (p, images)
    }

    #[test]
    fn classifier_recognizes_shapes() {
        let (p, images) = ring();
        let cls = classify(&p, &images).unwrap();
        assert!(cls.is_pure());
        assert_eq!(cls.num_difference(), 2);
        match cls.class(ConstraintId(0)) {
            RowClass::Difference { i, j, bound } => {
                assert_eq!((i, j), (1, 0));
                assert_eq!(bound.base, -150.0);
                assert_eq!(bound.slope, 1.0);
            }
            other => panic!("unexpected class {other:?}"),
        }
    }

    #[test]
    fn classifier_flags_general_rows() {
        let (mut p, images) = ring();
        let a = VarId(1);
        p.constrain(2.0 * a, Sense::Le, 3.0);
        let cls = classify(&p, &images).unwrap();
        assert!(!cls.is_pure());
        assert_eq!(cls.num_general(), 1);
        assert_eq!(cls.general_rows(), vec![ConstraintId(2)]);
    }

    #[test]
    fn minimize_param_finds_exact_ratio() {
        let (p, images) = ring();
        let cls = classify(&p, &images).unwrap();
        let sys = DifferenceSystem::build(&p, &images, &cls).unwrap();
        match sys.minimize_param(&SolveBudget::UNLIMITED).unwrap() {
            MinParamOutcome::Optimal {
                lambda,
                potentials,
                witness,
            } => {
                assert!((lambda - 100.0).abs() < 1e-6, "λ* = {lambda}");
                // Potentials satisfy both difference rows at λ*.
                let (a, b) = (potentials[0], potentials[1]);
                assert!(b - a <= -150.0 + lambda + 1e-6);
                assert!(a - b <= 50.0 + 1e-6);
                let w = witness.expect("cycle-bound optimum carries a witness");
                assert!((w.implied_lower() - 100.0).abs() < 1e-6);
                assert_eq!(w.rows().len(), 2);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        // Agreement with the simplex on the same problem.
        let lp = p.solve().unwrap().into_optimal().unwrap();
        assert!((lp.objective() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn feasible_at_separates_the_threshold() {
        let (p, images) = ring();
        let cls = classify(&p, &images).unwrap();
        let sys = DifferenceSystem::build(&p, &images, &cls).unwrap();
        assert!(matches!(
            sys.feasible_at(120.0, &SolveBudget::UNLIMITED).unwrap(),
            FixedParamOutcome::Feasible { .. }
        ));
        match sys.feasible_at(90.0, &SolveBudget::UNLIMITED).unwrap() {
            FixedParamOutcome::NegativeCycle(cyc) => {
                assert!(cyc.weight_at(90.0) < 0.0);
                assert_eq!(cyc.min_feasible_lambda().map(f64::round), Some(100.0));
            }
            FixedParamOutcome::Feasible { .. } => panic!("λ = 90 must be infeasible"),
        }
    }

    #[test]
    fn upper_bound_row_conflict_yields_checkable_certificate() {
        let (mut p, images) = ring();
        let tc = VarId(0);
        p.constrain(tc.into(), Sense::Le, 80.0); // λ ≤ 80 < λ* = 100
        let cls = classify(&p, &images).unwrap();
        let sys = DifferenceSystem::build(&p, &images, &cls).unwrap();
        match sys.minimize_param(&SolveBudget::UNLIMITED).unwrap() {
            MinParamOutcome::Infeasible(cert) => {
                assert!(cert.check(&p), "certificate must verify independently");
                assert!(cert.rows().iter().any(|(c, _)| c.index() == 2));
                // The simplex agrees the model is infeasible.
                assert_eq!(p.solve().unwrap().status(), Status::Infeasible);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn slope_free_negative_cycle_is_infeasible_forever() {
        // x − y ≤ −1, y − x ≤ −1: classic 2-cycle with no parameter.
        let mut p = Problem::new();
        let tc = p.add_var("Tc");
        let x = p.add_free_var("x");
        let y = p.add_free_var("y");
        p.constrain(x - y, Sense::Le, -1.0);
        p.constrain(y - x, Sense::Le, -1.0);
        p.minimize(tc.into());
        let images = vec![VarImage::Param, VarImage::Node(0), VarImage::Node(1)];
        let cls = classify(&p, &images).unwrap();
        let sys = DifferenceSystem::build(&p, &images, &cls).unwrap();
        match sys.minimize_param(&SolveBudget::UNLIMITED).unwrap() {
            MinParamOutcome::Infeasible(cert) => {
                assert!(cert.check(&p));
                assert_eq!(cert.rows().len(), 2);
                assert_eq!(p.solve().unwrap().status(), Status::Infeasible);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn eq_rows_and_bound_arcs_compose() {
        // A Diff-imaged variable w = x_1 − x_0 pinned by an Eq row, plus a
        // SingleVar cap on s; non-negativity enters as bound arcs.
        let mut p = Problem::new();
        let _tc = p.add_var("Tc");
        let w = p.add_var("w"); // [0, ∞), image Diff(1, 0)
        let s = p.add_var("s"); // [0, ∞), image Node(0)
        p.constrain(w.into(), Sense::Eq, 5.0);
        p.constrain(s.into(), Sense::Le, 3.0);
        p.minimize(LinExpr::from(VarId(0)));
        let images = vec![VarImage::Param, VarImage::Diff(1, 0), VarImage::Node(0)];
        let cls = classify(&p, &images).unwrap();
        assert_eq!(cls.num_difference(), 1); // the Eq row, via w's image
        assert_eq!(cls.num_single_var(), 1);
        let sys = DifferenceSystem::build(&p, &images, &cls).unwrap();
        match sys.feasible_at(0.0, &SolveBudget::UNLIMITED).unwrap() {
            FixedParamOutcome::Feasible { potentials } => {
                let wv = potentials[1] - potentials[0];
                assert!((wv - 5.0).abs() < 1e-6, "w = {wv}");
                assert!(potentials[0] <= 3.0 + 1e-6);
                assert!(potentials[0] >= -1e-6, "s ≥ 0 bound arc");
            }
            FixedParamOutcome::NegativeCycle(_) => panic!("system is feasible"),
        }
    }

    #[test]
    fn param_only_interval_conflict_certifies() {
        // Tc ≥ 10 and Tc ≤ 4 as rows: empty interval.
        let mut p = Problem::new();
        let tc = p.add_var("Tc");
        p.constrain(tc.into(), Sense::Ge, 10.0);
        p.constrain(tc.into(), Sense::Le, 4.0);
        p.minimize(tc.into());
        let images = vec![VarImage::Param];
        let cls = classify(&p, &images).unwrap();
        assert_eq!(cls.num_param_bound(), 2);
        let sys = DifferenceSystem::build(&p, &images, &cls).unwrap();
        match sys.minimize_param(&SolveBudget::UNLIMITED).unwrap() {
            MinParamOutcome::Infeasible(cert) => assert!(cert.check(&p)),
            other => panic!("unexpected outcome {other:?}"),
        }
    }
}
