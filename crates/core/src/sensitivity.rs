//! Delay-sensitivity analysis at the timing level.
//!
//! §VI of the paper: "We also intend to use parametric programming
//! techniques to quantify the notion of critical path segments and to study
//! the effects on the optimal cycle time of varying the circuit delays."
//! This module packages both:
//!
//! * [`delay_sensitivities`] — `dT_c*/dΔ` for *every* edge at once, read
//!   off one optimal dual (zero for non-critical edges) — the graph's
//!   critical-cycle witness on pure models, the simplex on mixed ones;
//! * [`cycle_time_curve`] — the exact piecewise-linear `T_c*(Δ_e)` for one
//!   edge over a delay range, via the parametric-RHS simplex (this is how
//!   `fig7_sweep` recovers the breakpoints of Fig. 7 exactly).

use crate::error::TimingError;
use crate::model::{ConstraintKind, TimingModel};
use smo_circuit::{Circuit, EdgeId};
use smo_lp::{parametric_rhs, ParametricCurve};

/// `dT_c*/dΔ` per edge (indexed by edge index), from one optimal dual
/// (the same one [`critical_report`](crate::critical_report) reads).
///
/// Entries are in `[0, 1]` for circuits whose optimum is achieved (the
/// delay of an edge can be shared among at most one cycle's worth of
/// schedule per unit). Zero means the edge is not on any binding segment.
///
/// # Errors
///
/// [`TimingError::Infeasible`] when the model admits no schedule, and LP
/// failures from [`TimingModel::solve_lp`] on mixed models.
///
/// # Examples
///
/// ```
/// use smo_core::{delay_sensitivities, TimingModel};
/// # fn main() -> Result<(), smo_core::TimingError> {
/// let circuit = smo_test_circuit();
/// let model = TimingModel::build(&circuit)?;
/// let sens = delay_sensitivities(&circuit, &model)?;
/// assert_eq!(sens.len(), circuit.num_edges());
/// # Ok(())
/// # }
/// # fn smo_test_circuit() -> smo_circuit::Circuit {
/// #     let mut b = smo_circuit::CircuitBuilder::new(2);
/// #     let p = smo_circuit::PhaseId::from_number;
/// #     let a = b.add_latch("A", p(1), 1.0, 1.0);
/// #     let c = b.add_latch("B", p(2), 1.0, 1.0);
/// #     b.connect(a, c, 5.0);
/// #     b.connect(c, a, 5.0);
/// #     b.build().unwrap()
/// # }
/// ```
pub fn delay_sensitivities(
    circuit: &Circuit,
    model: &TimingModel,
) -> Result<Vec<f64>, TimingError> {
    let duals = crate::critical::optimal_duals(circuit, model)?;
    let mut out = vec![0.0; circuit.num_edges()];
    for info in model.constraints() {
        if matches!(
            info.kind,
            ConstraintKind::Propagation | ConstraintKind::FlipFlopSetup
        ) {
            if let Some(edge) = info.edge {
                // A Ge propagation row's dual is ≥ 0 in a minimize problem;
                // a FF-setup Le row's dual is ≤ 0 and its RHS carries −Δ, so
                // dTc/dΔ = −dual. |dual| covers both.
                out[edge.index()] += duals[info.row.index()].abs();
            }
        }
    }
    Ok(out)
}

/// The exact optimal cycle time `T_c*` as a piecewise-linear function of
/// one edge's delay, for delay ∈ `[0, max_delay]`.
///
/// The returned curve's parameter θ *is the edge delay itself* (not an
/// offset): internally the model is rebuilt with the edge's delay set to
/// zero and θ sweeps it upward.
///
/// # Errors
///
/// Propagates LP failures; [`TimingError::Infeasible`] if the zero-delay
/// base model cannot be solved (impossible for plain options).
///
/// # Panics
///
/// Panics if `edge` does not belong to `circuit`.
pub fn cycle_time_curve(
    circuit: &Circuit,
    model: &TimingModel,
    edge: EdgeId,
    max_delay: f64,
) -> Result<ParametricCurve, TimingError> {
    let e = circuit.edge(edge);
    let mut base = model.clone();
    let row = base
        .edge_constraint(edge)
        .ok_or_else(|| TimingError::InvalidOptions {
            reason: format!("edge {edge:?} has no propagation or FF-setup row in this model"),
        })?;
    // Remove the edge's own delay from the row's RHS so θ = Δ directly.
    let (_, sense, rhs) = base.problem().constraint(row);
    let delta_sign = match sense {
        smo_lp::Sense::Ge => 1.0,  // propagation: RHS = Δ_DQ + Δ
        smo_lp::Sense::Le => -1.0, // FF setup: RHS = −(Δ_DQ + Δ + setup)
        smo_lp::Sense::Eq => unreachable!("edge rows are inequalities"),
    };
    base.problem_mut()
        .set_rhs(row, rhs - delta_sign * e.max_delay);
    let curve = parametric_rhs(base.problem(), &[(row, delta_sign)], max_delay)?;
    Ok(curve)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smo_circuit::{CircuitBuilder, PhaseId};

    fn p(n: usize) -> PhaseId {
        PhaseId::from_number(n)
    }

    use smo_gen::paper::example1;

    #[test]
    fn sensitivities_match_figure7_slopes() {
        for (d41, expect) in [(10.0, 0.0), (60.0, 0.5), (120.0, 1.0)] {
            let c = example1(d41);
            let m = TimingModel::build(&c).unwrap();
            let sens = delay_sensitivities(&c, &m).unwrap();
            assert!(
                (sens[3] - expect).abs() < 1e-6,
                "Δ41 = {d41}: dTc/dΔ = {}, expected {expect}",
                sens[3]
            );
        }
    }

    #[test]
    fn curve_recovers_figure7_exactly() {
        let c = example1(50.0); // base value irrelevant: the curve resets it
        let m = TimingModel::build(&c).unwrap();
        let curve = cycle_time_curve(&c, &m, smo_circuit::EdgeId::new(3), 140.0).unwrap();
        let bps = curve.breakpoints();
        assert_eq!(bps.len(), 2, "{curve:?}");
        assert!((bps[0] - 20.0).abs() < 1e-6);
        assert!((bps[1] - 100.0).abs() < 1e-6);
        // probe against direct solves
        for d in [0.0, 35.0, 100.0, 139.0] {
            let direct = crate::min_cycle_time(&example1(d)).unwrap().cycle_time();
            let para = curve.objective_at(d).unwrap();
            assert!((direct - para).abs() < 1e-6, "Δ = {d}: {para} vs {direct}");
        }
    }

    #[test]
    fn curve_works_for_flip_flop_setup_edges() {
        // FF pipeline: Tc = dq + Δ + setup, so the curve is the identity
        // plus the constant dq + setup = 3.
        let mut b = CircuitBuilder::new(1);
        let f1 = b.add_flip_flop("F1", p(1), 1.0, 2.0);
        let f2 = b.add_flip_flop("F2", p(1), 1.0, 2.0);
        b.connect(f1, f2, 10.0);
        b.connect(f2, f1, 1.0);
        let c = b.build().unwrap();
        let m = TimingModel::build(&c).unwrap();
        let curve = cycle_time_curve(&c, &m, smo_circuit::EdgeId::new(0), 50.0).unwrap();
        for d in [5.0_f64, 20.0, 45.0] {
            let expect = (d + 3.0).max(1.0 + 3.0); // other edge floor
            assert!(
                (curve.objective_at(d).unwrap() - expect).abs() < 1e-6,
                "Δ = {d}"
            );
        }
    }

    #[test]
    fn all_sensitivities_lie_in_unit_interval() {
        let c = example1(75.0);
        let m = TimingModel::build(&c).unwrap();
        for s in delay_sensitivities(&c, &m).unwrap() {
            assert!((-1e-9..=1.0 + 1e-9).contains(&s), "sensitivity {s}");
        }
    }
}
