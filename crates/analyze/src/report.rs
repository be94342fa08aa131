//! `smo analyze` — the constraint-system report.
//!
//! One pass that cross-checks the three views of a circuit's cycle time:
//!
//! 1. the **combinatorial bracket** `lower ≤ Tc* ≤ upper` from
//!    [`smo_core::cycle_time_bounds`] (no LP),
//! 2. the **graph optimum** from the min-cycle-ratio backend — the
//!    production path — on pure difference-constraint models,
//! 3. the **certified LP optimum** from one sparse-LU simplex solve whose
//!    KKT certificate is re-verified from the raw constraint data.
//!
//! The three must agree — the bracket must contain the optimum and the graph
//! and LP optima must match within [`Tol::TIGHT`] — or [`analyze`] returns a
//! hard [`AnalyzeError`] rather than a report: a disagreement means a bug in
//! the bound derivation or one of the two solvers, not in the circuit.
//!
//! The report also breaks the rows down by paper family (the C1–C3 clock
//! rows, L1 setup, L2R propagation, flip-flop rows) and says how many of
//! each lie in the difference fragment the graph backend solves.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use smo_circuit::Circuit;
use smo_core::{
    classify_model, cycle_time_bounds, min_cycle_time_with, Backend, ConstraintKind,
    CycleTimeBounds, MlpOptions, TimingError, TimingModel,
};
use smo_lp::{SimplexVariant, Tol};
use std::fmt;

/// The paper-facing constraint families used for the row breakdown.
/// Ordered as they appear in §III of the paper.
const FAMILIES: [&str; 8] = [
    "C1",
    "C2",
    "C3",
    "L1",
    "L2R",
    "FF setup",
    "FF departure",
    "extra",
];

/// Maps a row's provenance to its paper family (index into [`FAMILIES`]).
fn family_index(kind: ConstraintKind) -> usize {
    match kind {
        ConstraintKind::PeriodicityWidth | ConstraintKind::PeriodicityStart => 0,
        ConstraintKind::PhaseOrder => 1,
        ConstraintKind::PhaseNonoverlap => 2,
        ConstraintKind::Setup => 3,
        ConstraintKind::Propagation => 4,
        ConstraintKind::FlipFlopSetup => 5,
        ConstraintKind::FlipFlopDeparture => 6,
        ConstraintKind::MinWidth
        | ConstraintKind::CycleBound
        | ConstraintKind::SymmetricClock
        | ConstraintKind::PinnedDeparture => 7,
    }
}

/// Why [`analyze`] could not produce a report.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalyzeError {
    /// Building or solving the timing model failed.
    Timing(TimingError),
    /// The LP optimum fell outside the combinatorial bracket — an internal
    /// soundness failure (bug in the bounds or the model), never a property
    /// of the circuit.
    BoundsDisagree {
        /// Certified combinatorial lower bound.
        lower: f64,
        /// Certified combinatorial upper bound.
        upper: f64,
        /// The LP optimum that escaped the bracket.
        optimum: f64,
    },
    /// The difference-constraint graph backend and the simplex returned
    /// optima more than [`Tol::TIGHT`] apart on a pure-difference model —
    /// an internal soundness failure in one of the two solvers.
    BackendDisagree {
        /// Exact optimum from the min-cycle-ratio graph solver.
        graph: f64,
        /// Optimum from the certified sparse-LU simplex.
        lp: f64,
    },
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Timing(e) => write!(f, "{e}"),
            AnalyzeError::BoundsDisagree {
                lower,
                upper,
                optimum,
            } => write!(
                f,
                "soundness failure: LP optimum {optimum} escapes the certified \
                 combinatorial bracket [{lower}, {upper}]"
            ),
            AnalyzeError::BackendDisagree { graph, lp } => write!(
                f,
                "soundness failure: graph backend returned Tc* = {graph} but the \
                 simplex returned {lp} on a pure difference-constraint model"
            ),
        }
    }
}

impl std::error::Error for AnalyzeError {}

impl From<TimingError> for AnalyzeError {
    fn from(e: TimingError) -> Self {
        AnalyzeError::Timing(e)
    }
}

/// The `smo analyze` report: bracket, graph and certified LP optima, and
/// the row-classification breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeReport {
    /// Synchronizer count of the circuit.
    pub num_syncs: usize,
    /// Combinational path count of the circuit.
    pub num_edges: usize,
    /// Clock phase count of the circuit.
    pub num_phases: usize,
    /// The combinatorial bracket and its per-SCC critical cycles.
    pub bounds: CycleTimeBounds,
    /// Names of the synchronizers on each critical cycle, one string per
    /// cyclic SCC, in the same (decreasing-ratio) order as
    /// `bounds.critical`.
    pub critical_names: Vec<String>,
    /// The LP optimum `Tc*`: the objective of the certified sparse-LU
    /// solve, the value [`AnalyzeReport::certificate`] certifies.
    pub optimum: f64,
    /// `optimum == bounds.lower` up to `1e-6` relative — the bracket is
    /// tight and the critical cycle alone determines the cycle time.
    pub lower_is_tight: bool,
    /// Constraint-classifier coverage per paper family, in §III order
    /// (C1, C2, C3, L1, L2R, FF setup, FF departure, extra):
    /// `(family, rows, difference_rows)` where `difference_rows` counts the
    /// rows in the difference fragment (two-variable difference,
    /// single-variable, or parameter-only under the recombination).
    pub classified_by_family: Vec<(&'static str, usize, usize)>,
    /// Rows outside the difference fragment (zero means the graph backend
    /// solves this model exactly).
    pub num_general_rows: usize,
    /// Exact optimum from the min-cycle-ratio graph backend, when the model
    /// is pure-difference (`None` when general rows force the simplex).
    /// Always cross-checked against the LP optimum before the report is
    /// returned.
    pub graph_optimum: Option<f64>,
    /// Independent KKT certificate for the LP solve: the reported optimum is not just "what the simplex said" but has been
    /// re-verified from the raw constraint data (primal/dual feasibility,
    /// complementary slackness, duality gap).
    pub certificate: Option<smo_lp::Certificate>,
}

impl AnalyzeReport {
    /// Renders the report as a JSON object (hand-rolled, schema mirroring
    /// the `Display` output).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"synchronizers\": {},\n", self.num_syncs));
        out.push_str(&format!("  \"paths\": {},\n", self.num_edges));
        out.push_str(&format!("  \"phases\": {},\n", self.num_phases));
        out.push_str(&format!(
            "  \"bracket\": {{\"lower\": {}, \"upper\": {}, \"stage_bound\": {}, \"setup_floor\": {}}},\n",
            self.bounds.lower, self.bounds.upper, self.bounds.stage_bound, self.bounds.setup_floor
        ));
        out.push_str("  \"critical_cycles\": [\n");
        for (i, (c, names)) in self
            .bounds
            .critical
            .iter()
            .zip(&self.critical_names)
            .enumerate()
        {
            out.push_str(&format!(
                "    {{\"cycle\": \"{}\", \"delay\": {}, \"wraps\": {}, \"ratio\": {}}}{}\n",
                json_escape(names),
                c.weight,
                c.wraps,
                c.ratio,
                if i + 1 < self.bounds.critical.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"optimum\": {},\n", self.optimum));
        match &self.certificate {
            Some(cert) => {
                out.push_str("  \"certificate\": {");
                out.push_str(&format!(
                    "\"valid\": {}, \"tolerance\": {:e}, \"worst_residual\": {:e}, \"residuals\": {{",
                    cert.is_valid(),
                    cert.tol(),
                    cert.worst()
                ));
                for (j, (name, value)) in cert.residuals().iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"{}\": {:e}", json_escape(name), value));
                }
                out.push_str("}},\n");
            }
            None => out.push_str("  \"certificate\": null,\n"),
        }
        out.push_str(&format!("  \"lower_is_tight\": {},\n", self.lower_is_tight));
        let total_rows: usize = self.classified_by_family.iter().map(|(_, r, _)| r).sum();
        let diff_rows: usize = self.classified_by_family.iter().map(|(_, _, d)| d).sum();
        out.push_str(&format!(
            "  \"classification\": {{\"rows\": {total_rows}, \"difference\": {diff_rows}, \
             \"general\": {}, \"by_family\": {{",
            self.num_general_rows
        ));
        let mut first = true;
        for (family, rows, diff) in &self.classified_by_family {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!(
                "\"{}\": {{\"rows\": {rows}, \"difference\": {diff}}}",
                json_escape(family)
            ));
        }
        out.push_str("}},\n");
        match self.graph_optimum {
            Some(g) => out.push_str(&format!("  \"graph_optimum\": {g}\n}}")),
            None => out.push_str("  \"graph_optimum\": null\n}"),
        }
        out
    }
}

impl fmt::Display for AnalyzeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit: {} synchronizer(s), {} path(s), {} phase(s)",
            self.num_syncs, self.num_edges, self.num_phases
        )?;
        writeln!(
            f,
            "cycle-time bracket: {} <= Tc* <= {}  (worst flip-flop stage W = {})",
            self.bounds.lower, self.bounds.upper, self.bounds.stage_bound
        )?;
        if self.bounds.critical.is_empty() {
            writeln!(
                f,
                "  no feedback cycles; lower bound from single-row floors"
            )?;
        }
        for (c, names) in self.bounds.critical.iter().zip(&self.critical_names) {
            writeln!(
                f,
                "  critical cycle: {}  (delay {} over {} wrap(s): Tc >= {})",
                names, c.weight, c.wraps, c.ratio
            )?;
        }
        writeln!(
            f,
            "LP optimum: Tc* = {}{}",
            self.optimum,
            if self.lower_is_tight {
                "  (lower bound is tight: the critical cycle sets the clock)"
            } else {
                ""
            }
        )?;
        if let Some(cert) = &self.certificate {
            writeln!(f, "  {cert}")?;
        }
        let total_rows: usize = self.classified_by_family.iter().map(|(_, r, _)| r).sum();
        let diff_rows: usize = self.classified_by_family.iter().map(|(_, _, d)| d).sum();
        let pct = if total_rows > 0 {
            100.0 * diff_rows as f64 / total_rows as f64
        } else {
            100.0
        };
        writeln!(
            f,
            "constraint classes: {diff_rows}/{total_rows} rows ({pct:.1}%) in the \
             difference fragment, {} general",
            self.num_general_rows
        )?;
        let by_family: Vec<String> = self
            .classified_by_family
            .iter()
            .filter(|(_, rows, _)| *rows > 0)
            .map(|(family, rows, diff)| format!("{family} {diff}/{rows}"))
            .collect();
        if !by_family.is_empty() {
            writeln!(f, "  by family: {}", by_family.join(", "))?;
        }
        match self.graph_optimum {
            Some(g) => writeln!(
                f,
                "graph backend: Tc* = {g} (exact min-cycle-ratio, agrees with the LP)"
            )?,
            None => writeln!(
                f,
                "graph backend: not exact here (general rows present); simplex decides"
            )?,
        }
        Ok(())
    }
}

/// Analyzes `circuit`: computes the combinatorial bracket, solves the LP
/// once on the certified sparse-LU simplex, solves pure models on the
/// graph backend too, and insists all three agree.
///
/// # Errors
///
/// [`AnalyzeError::Timing`] when the model cannot be built or solved;
/// [`AnalyzeError::BoundsDisagree`] / [`AnalyzeError::BackendDisagree`]
/// when a soundness cross-check fails (these indicate an internal bug, and
/// `smo analyze` surfaces them with a distinct exit code).
pub fn analyze(circuit: &Circuit) -> Result<AnalyzeReport, AnalyzeError> {
    let model = TimingModel::build(circuit)?;

    // Static classification: which rows the difference-constraint graph
    // backend can represent, family by family.
    let cls = classify_model(circuit, &model)?;
    let mut class_rows = vec![0usize; FAMILIES.len()];
    let mut class_diff = vec![0usize; FAMILIES.len()];
    for info in model.constraints() {
        let fam = family_index(info.kind);
        class_rows[fam] += 1;
        if cls.class(info.row).is_difference_fragment() {
            class_diff[fam] += 1;
        }
    }

    // The LP leg: one sparse-LU solve whose verdict is re-verified from the
    // raw constraint data (walking the numerical recovery ladder if the
    // first attempt does not certify). Its cost scales with the matrix
    // nonzeros, so the cross-check finishes on large designs too.
    let (lp_sol, certificate) = model.solve_lp_certified(&smo_lp::RecoveryPolicy {
        variant: SimplexVariant::SparseLu,
        ..Default::default()
    })?;
    let optimum = lp_sol.objective();

    // On pure-difference models the graph backend — the production path —
    // solves the same problem exactly; its optimum and the simplex's must
    // coincide.
    let graph_optimum = if cls.is_pure() {
        let graph_sol = min_cycle_time_with(
            circuit,
            &MlpOptions {
                backend: Backend::Graph,
                ..Default::default()
            },
        )?;
        let graph = graph_sol.cycle_time();
        if !Tol::TIGHT.eq(graph, optimum) {
            return Err(AnalyzeError::BackendDisagree { graph, lp: optimum });
        }
        Some(graph)
    } else {
        None
    };

    // The combinatorial bracket must contain the optimum.
    let bounds = cycle_time_bounds(circuit);
    if !bounds.brackets(optimum) {
        return Err(AnalyzeError::BoundsDisagree {
            lower: bounds.lower,
            upper: bounds.upper,
            optimum,
        });
    }

    let critical_names = bounds
        .critical
        .iter()
        .map(|c| {
            let mut names: Vec<&str> = c
                .cycle
                .latches
                .iter()
                .map(|&l| circuit.sync(l).name.as_str())
                .collect();
            if let Some(&first) = names.first() {
                names.push(first);
            }
            names.join(" → ")
        })
        .collect();
    let lower_is_tight = (optimum - bounds.lower).abs() <= 1e-6 * (1.0 + bounds.lower.abs());

    Ok(AnalyzeReport {
        num_syncs: circuit.num_syncs(),
        num_edges: circuit.num_edges(),
        num_phases: circuit.num_phases(),
        bounds,
        critical_names,
        optimum,
        lower_is_tight,
        classified_by_family: FAMILIES
            .iter()
            .copied()
            .zip(class_rows.iter().copied().zip(class_diff.iter().copied()))
            .map(|(f, (r, d))| (f, r, d))
            .collect(),
        num_general_rows: cls.num_general(),
        graph_optimum,
        certificate: Some(certificate),
    })
}

/// Which paper family a given original LP row belongs to, by provenance.
/// Exposed for callers that want their own breakdowns over
/// [`TimingModel::constraints`].
pub fn constraint_family(kind: ConstraintKind) -> &'static str {
    FAMILIES[family_index(kind)]
}

/// Escapes a string for embedding in a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use smo_circuit::{CircuitBuilder, PhaseId};

    fn p(n: usize) -> PhaseId {
        PhaseId::from_number(n)
    }

    /// The paper's Example 1 (Fig. 5) at Δ41 = 80 ns; optimum Tc = 110.
    fn example1() -> Circuit {
        let mut b = CircuitBuilder::new(2);
        let l1 = b.add_latch("L1", p(1), 10.0, 10.0);
        let l2 = b.add_latch("L2", p(2), 10.0, 10.0);
        let l3 = b.add_latch("L3", p(1), 10.0, 10.0);
        let l4 = b.add_latch("L4", p(2), 10.0, 10.0);
        b.connect(l1, l2, 20.0);
        b.connect(l2, l3, 20.0);
        b.connect(l3, l4, 60.0);
        b.connect(l4, l1, 80.0);
        b.build().unwrap()
    }

    #[test]
    fn example1_report_is_tight_and_names_the_loop() {
        let r = analyze(&example1()).unwrap();
        assert_eq!(r.optimum, 110.0);
        assert_eq!(r.bounds.lower, 110.0);
        assert!(r.lower_is_tight);
        assert_eq!(r.critical_names.len(), 1);
        assert_eq!(r.critical_names[0], "L1 → L2 → L3 → L4 → L1");
        let text = r.to_string();
        assert!(text.contains("110 <= Tc* <= 180"), "{text}");
        assert!(text.contains("critical cycle: L1 → L2 → L3 → L4 → L1"));
        assert!(text.contains("lower bound is tight"));
    }

    #[test]
    fn flip_flops_are_classified_and_cross_checked() {
        // Flip-flop departures are `D = 0` single-variable rows: they lie
        // in the difference fragment, so the graph leg runs and agrees.
        let mut b = CircuitBuilder::new(2);
        let f1 = b.add_flip_flop("F1", p(1), 1.0, 2.0);
        let f2 = b.add_flip_flop("F2", p(2), 1.0, 2.0);
        b.connect(f1, f2, 10.0);
        b.connect(f2, f1, 10.0);
        let r = analyze(&b.build().unwrap()).unwrap();
        let ff = r
            .classified_by_family
            .iter()
            .find(|(f, _, _)| *f == "FF departure")
            .unwrap();
        assert_eq!((ff.1, ff.2), (2, 2));
        assert_eq!(r.graph_optimum, Some(r.optimum));
        assert!(r.to_string().contains("FF departure 2/2"));
    }

    #[test]
    fn json_mirrors_the_display_content() {
        let r = analyze(&example1()).unwrap();
        let json = r.to_json();
        assert!(json.contains("\"optimum\": 110"));
        assert!(json.contains("\"lower\": 110"));
        assert!(json.contains("\"upper\": 180"));
        assert!(json.contains("L1 → L2 → L3 → L4 → L1"));
        assert!(json.contains("\"graph_optimum\": 110"));
    }

    #[test]
    fn report_carries_a_valid_certificate() {
        let r = analyze(&example1()).unwrap();
        let cert = r.certificate.as_ref().expect("cross-check is certified");
        assert!(cert.is_valid(), "{cert}");
        assert!(r.to_string().contains("certified optimal"));
        let json = r.to_json();
        assert!(json.contains("\"certificate\": {\"valid\": true"), "{json}");
        assert!(json.contains("\"worst_residual\""), "{json}");
        assert!(json.contains("\"duality gap\""), "{json}");
    }

    #[test]
    fn families_cover_every_constraint_kind() {
        for kind in [
            ConstraintKind::PeriodicityWidth,
            ConstraintKind::PeriodicityStart,
            ConstraintKind::PhaseOrder,
            ConstraintKind::PhaseNonoverlap,
            ConstraintKind::Setup,
            ConstraintKind::FlipFlopSetup,
            ConstraintKind::Propagation,
            ConstraintKind::FlipFlopDeparture,
            ConstraintKind::MinWidth,
            ConstraintKind::CycleBound,
            ConstraintKind::SymmetricClock,
            ConstraintKind::PinnedDeparture,
        ] {
            assert!(FAMILIES.contains(&constraint_family(kind)));
        }
        assert_eq!(constraint_family(ConstraintKind::PhaseNonoverlap), "C3");
        assert_eq!(constraint_family(ConstraintKind::Propagation), "L2R");
    }

    #[test]
    fn classifier_coverage_is_total_on_default_models() {
        let r = analyze(&example1()).unwrap();
        // Every default-model row lies in the difference fragment, so the
        // graph backend is exact and must agree with the simplex.
        assert_eq!(r.num_general_rows, 0);
        let total: usize = r.classified_by_family.iter().map(|(_, n, _)| n).sum();
        let diff: usize = r.classified_by_family.iter().map(|(_, _, d)| d).sum();
        assert_eq!(total, diff);
        assert!(total > 0);
        assert_eq!(r.graph_optimum, Some(110.0));
        let text = r.to_string();
        assert!(text.contains("difference fragment"), "{text}");
        assert!(text.contains("graph backend: Tc* = 110"), "{text}");
        let json = r.to_json();
        assert!(json.contains("\"classification\""), "{json}");
        assert!(json.contains("\"graph_optimum\": 110"), "{json}");
        assert!(json.contains("\"L1\": {\"rows\": "), "{json}");
    }

    #[test]
    fn disagreement_errors_render_distinctly() {
        let b = AnalyzeError::BoundsDisagree {
            lower: 10.0,
            upper: 20.0,
            optimum: 25.0,
        };
        assert!(b.to_string().contains("escapes the certified"));
        let g = AnalyzeError::BackendDisagree {
            graph: 10.0,
            lp: 11.0,
        };
        assert!(g.to_string().contains("graph backend"));
    }
}
