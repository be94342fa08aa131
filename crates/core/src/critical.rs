//! Critical-segment analysis.
//!
//! The paper observes (§V, Example 2 discussion) that in latch-controlled
//! circuits "the notion of a critical path is clearly inadequate … the
//! circuit has several critical combinational delay *segments* which may be
//! disjoint. The criticality of these segments … [is] directly related to
//! associated slack variables in the inequality constraints."
//!
//! This module extracts exactly that from an optimal dual of the timing
//! LP: an edge (or setup requirement) is *critical* when its constraint
//! row carries a non-zero dual (and is therefore binding, by
//! complementary slackness) — increasing the corresponding delay would
//! increase the optimal cycle time at the rate given by the dual. Maximal
//! chains of consecutive critical edges are grouped into segments.
//!
//! The dual comes from the graph whenever it can: on a pure
//! difference-constraint model (every default model) the min-cycle-ratio
//! search's critical-cycle witness *is* the support of an optimal dual,
//! so no simplex runs. Mixed models read the dual off the simplex.

use crate::error::TimingError;
use crate::fastpath;
use crate::model::{ConstraintKind, TimingModel};
use smo_circuit::{Circuit, EdgeId, LatchId};
use std::fmt;

/// Tolerance for "binding" classification.
const TOL: f64 = 1e-7;

/// One critical combinational edge with its sensitivity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalEdge {
    /// The edge.
    pub edge: EdgeId,
    /// `d T_c / d Δ` for this edge's delay (the LP dual of its propagation
    /// row); `0 < sensitivity ≤ 1`.
    pub sensitivity: f64,
}

/// A maximal chain of consecutive critical edges.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalSegment {
    /// The edges of the segment, in signal-flow order.
    pub edges: Vec<EdgeId>,
}

/// Result of [`critical_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalReport {
    /// All critical edges with sensitivities, sorted by decreasing
    /// sensitivity.
    pub edges: Vec<CriticalEdge>,
    /// Synchronizers whose setup constraint is binding with non-zero dual.
    pub setup_critical: Vec<LatchId>,
    /// Maximal chains of consecutive critical edges.
    pub segments: Vec<CriticalSegment>,
    /// The optimal LP dual the report was read from, one value per model
    /// row — the evidence behind every entry above (`Σ yᵢ·rhsᵢ = T_c*`).
    pub duals: Vec<f64>,
}

impl CriticalReport {
    /// Classifies an optimal dual of `model`'s LP (one value per row, as
    /// [`smo_lp::OptimalSolution::duals`] returns it): rows with a
    /// non-zero dual are binding by complementary slackness, so edge and
    /// setup rows above the tolerance are critical.
    ///
    /// # Panics
    ///
    /// Panics if `duals` is shorter than the model's row count.
    pub fn from_duals(circuit: &Circuit, model: &TimingModel, duals: &[f64]) -> CriticalReport {
        let mut edges = Vec::new();
        let mut setup_critical = Vec::new();
        for info in model.constraints() {
            let dual = duals[info.row.index()].abs();
            if dual <= TOL {
                continue;
            }
            match info.kind {
                ConstraintKind::Propagation | ConstraintKind::FlipFlopSetup => {
                    edges.push(CriticalEdge {
                        edge: info.edge.expect("edge rows carry an edge id"),
                        sensitivity: dual,
                    });
                }
                ConstraintKind::Setup => {
                    setup_critical.push(info.latch.expect("setup rows carry a latch id"));
                }
                _ => {}
            }
        }
        edges.sort_by(|a, b| {
            b.sensitivity
                .total_cmp(&a.sensitivity)
                .then(a.edge.cmp(&b.edge))
        });
        let segments = chain_segments(circuit, &edges);
        CriticalReport {
            edges,
            setup_critical,
            segments,
            duals: duals.to_vec(),
        }
    }

    /// `true` iff `edge` appears among the critical edges.
    pub fn is_edge_critical(&self, edge: EdgeId) -> bool {
        self.edges.iter().any(|c| c.edge == edge)
    }
}

impl fmt::Display for CriticalReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "critical edges ({}):", self.edges.len())?;
        for c in &self.edges {
            writeln!(
                f,
                "  edge #{}  dTc/dΔ = {:.4}",
                c.edge.index(),
                c.sensitivity
            )?;
        }
        writeln!(f, "setup-critical synchronizers:")?;
        for l in &self.setup_critical {
            writeln!(f, "  {l}")?;
        }
        writeln!(f, "segments ({}):", self.segments.len())?;
        for (i, s) in self.segments.iter().enumerate() {
            write!(f, "  segment {i}:")?;
            for e in &s.edges {
                write!(f, " #{}", e.index())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// One optimal dual of the model's LP, indexed by row: from the graph's
/// critical-cycle witness on pure models (no simplex), from
/// [`TimingModel::solve_lp`] on mixed ones. Shared by [`critical_report`]
/// and [`delay_sensitivities`](crate::delay_sensitivities).
pub(crate) fn optimal_duals(
    circuit: &Circuit,
    model: &TimingModel,
) -> Result<Vec<f64>, TimingError> {
    if let Some(y) = fastpath::graph_duals(circuit, model)? {
        return Ok(y);
    }
    Ok(model.solve_lp()?.duals().to_vec())
}

/// Finds an optimal dual of the model's LP (see the module docs) and
/// classifies critical edges, setup constraints and segments
/// ([`CriticalReport::from_duals`]).
///
/// # Errors
///
/// [`TimingError::Infeasible`] when the model admits no schedule, and LP
/// failures from [`TimingModel::solve_lp`] on mixed models.
pub fn critical_report(
    circuit: &Circuit,
    model: &TimingModel,
) -> Result<CriticalReport, TimingError> {
    Ok(CriticalReport::from_duals(
        circuit,
        model,
        &optimal_duals(circuit, model)?,
    ))
}

/// Groups critical edges into maximal head-to-tail chains.
fn chain_segments(circuit: &Circuit, critical: &[CriticalEdge]) -> Vec<CriticalSegment> {
    use std::collections::{HashMap, HashSet};
    let set: HashSet<EdgeId> = critical.iter().map(|c| c.edge).collect();
    // successor map: edge -> a critical edge starting where it ends
    let mut by_source: HashMap<LatchId, Vec<EdgeId>> = HashMap::new();
    for &e in &set {
        by_source.entry(circuit.edge(e).from).or_default().push(e);
    }
    // heads: critical edges whose source latch has no incoming critical edge
    let targets: HashSet<LatchId> = set.iter().map(|&e| circuit.edge(e).to).collect();
    let mut heads: Vec<EdgeId> = set
        .iter()
        .copied()
        .filter(|&e| !targets.contains(&circuit.edge(e).from))
        .collect();
    heads.sort();

    let mut segments = Vec::new();
    let mut used: HashSet<EdgeId> = HashSet::new();
    let grow = |start: EdgeId, used: &mut HashSet<EdgeId>| {
        let mut chain = vec![start];
        used.insert(start);
        let mut cursor = circuit.edge(start).to;
        while let Some(nexts) = by_source.get(&cursor) {
            // follow an unused successor; stop at branches deterministically
            let Some(&next) = nexts.iter().find(|e| !used.contains(e)) else {
                break;
            };
            chain.push(next);
            used.insert(next);
            cursor = circuit.edge(next).to;
        }
        CriticalSegment { edges: chain }
    };
    for h in heads {
        if !used.contains(&h) {
            segments.push(grow(h, &mut used));
        }
    }
    // edges on pure cycles (no head) — start anywhere deterministic
    let mut rest: Vec<EdgeId> = set.difference(&used).copied().collect();
    rest.sort();
    for e in rest {
        if !used.contains(&e) {
            segments.push(grow(e, &mut used));
        }
    }
    segments
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TimingModel;
    use smo_gen::paper::example1;

    #[test]
    fn borrowing_region_has_half_sensitivity() {
        // On Fig. 7's middle segment (20 ≤ Δ41 ≤ 100) the slope is ½: the
        // added delay is shared between the two cycles.
        let c = example1(60.0);
        let m = TimingModel::build(&c).unwrap();
        let report = critical_report(&c, &m).unwrap();
        let eid = c.fanout(c.find("L4").unwrap())[0];
        let ce = report
            .edges
            .iter()
            .find(|e| e.edge == eid)
            .expect("Δ41 edge should be critical in the borrowing region");
        assert!(
            (ce.sensitivity - 0.5).abs() < 1e-6,
            "sensitivity = {}",
            ce.sensitivity
        );
    }

    #[test]
    fn direct_region_has_unit_sensitivity() {
        // Beyond Δ41 = 100 the slope is 1 (no more sharing).
        let c = example1(120.0);
        let m = TimingModel::build(&c).unwrap();
        let report = critical_report(&c, &m).unwrap();
        let eid = c.fanout(c.find("L4").unwrap())[0];
        let ce = report.edges.iter().find(|e| e.edge == eid).unwrap();
        assert!(
            (ce.sensitivity - 1.0).abs() < 1e-6,
            "sensitivity = {}",
            ce.sensitivity
        );
    }

    #[test]
    fn flat_region_leaves_delta41_noncritical() {
        // For Δ41 < 20 the optimum is set elsewhere (Fig. 7 flat part).
        let c = example1(10.0);
        let m = TimingModel::build(&c).unwrap();
        let report = critical_report(&c, &m).unwrap();
        let eid = c.fanout(c.find("L4").unwrap())[0];
        assert!(!report.is_edge_critical(eid), "report: {report}");
    }

    #[test]
    fn segments_chain_consecutive_edges() {
        // In the borrowing region the whole loop is critical → one segment
        // containing all four edges (a cycle).
        let c = example1(60.0);
        let m = TimingModel::build(&c).unwrap();
        let report = critical_report(&c, &m).unwrap();
        let total: usize = report.segments.iter().map(|s| s.edges.len()).sum();
        assert_eq!(
            total,
            report.edges.len(),
            "every critical edge lies in exactly one segment"
        );
        assert!(!report.segments.is_empty());
    }

    #[test]
    fn pure_models_read_their_duals_off_the_graph() {
        // `optimal_duals` returns the graph's answer before it would reach
        // the simplex, so on a pure model no pivot ever runs.
        for c in [
            example1(60.0),
            smo_gen::paper::example2(),
            smo_gen::paper::gaas_mips(),
        ] {
            let m = TimingModel::build(&c).unwrap();
            assert!(fastpath::graph_duals(&c, &m).unwrap().is_some());
        }
    }

    #[test]
    fn mixed_models_read_their_duals_off_the_simplex() {
        let c = example1(60.0);
        let mut m = TimingModel::build(&c).unwrap();
        // A redundant non-difference row: the graph cannot decide alone.
        let (w1, w2, tc) = {
            let vars = m.vars();
            (
                vars.width(smo_circuit::PhaseId::new(0)),
                vars.width(smo_circuit::PhaseId::new(1)),
                vars.tc(),
            )
        };
        let expr = smo_lp::LinExpr::from(w1) + w2 - tc - tc;
        m.problem_mut().constrain(expr, smo_lp::Sense::Le, 0.0);
        assert!(fastpath::graph_duals(&c, &m).unwrap().is_none());
        let report = critical_report(&c, &m).unwrap();
        let lp = m.solve_lp().unwrap();
        assert_eq!(report, CriticalReport::from_duals(&c, &m, lp.duals()));
        let eid = c.fanout(c.find("L4").unwrap())[0];
        assert!(report.is_edge_critical(eid), "{report}");
    }

    #[test]
    fn display_is_informative() {
        let c = example1(60.0);
        let m = TimingModel::build(&c).unwrap();
        let report = critical_report(&c, &m).unwrap();
        let s = report.to_string();
        assert!(s.contains("critical edges"));
        assert!(s.contains("segments"));
    }
}
