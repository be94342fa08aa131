//! Oracle for the graph-derived duals behind `critical_report` and
//! `delay_sensitivities`.
//!
//! On a pure difference-constraint model both read an optimal dual off
//! the min-cycle-ratio witness instead of running the simplex. The oracle
//! is the dense tableau's own dual: on every shipped netlist, the fast
//! path's random batch and the edge-free single-latch corner, the two
//! must name the same critical edges, setup-critical synchronizers and
//! segments, with sensitivities equal to within `1e-9`.
//!
//! The exception is a degenerate optimum — several critical cycles tie —
//! where the LP dual is not unique and the simplex and the graph may
//! each return a different, equally optimal vertex. Those circuits are
//! listed in [`DEGENERATE`]; for them (and, as a cross-check, for every
//! other circuit too) the graph dual must satisfy strong duality,
//! `Σ yᵢ·rhsᵢ = T_c*` within `Tol::TIGHT`.
//!
//! A last test pins the pipeline claim: on a pure model the default
//! `optimize`, `check`, `report` and `critical_report` run no simplex
//! pivot at all.

mod common;

use smo::analyze::{check, CheckOptions};
use smo::circuit::{Circuit, CircuitBuilder, PhaseId};
use smo::lp::Tol;
use smo::timing::{
    classify_model, critical_report, delay_sensitivities, min_cycle_time, timing_report,
    CriticalReport, MlpOptions, TimingModel,
};

/// Absolute agreement bound on every sensitivity.
const SENS_TOL: f64 = 1e-9;

/// Corpus circuits whose optimum is degenerate: the dense simplex and the
/// graph witness pick different (equally optimal) duals, so their
/// critical reports legitimately differ. Batch entry #4 is the paper's
/// appendix circuit again; #8 and #60 tie two setup rows.
const DEGENERATE: &[&str] = &[
    "circuits/appendix_fig1.ckt",
    "circuits/race_demo.ckt",
    "fastpath batch #4",
    "fastpath batch #8",
    "fastpath batch #60",
];

/// Every netlist under `circuits/`, whatever ships there.
fn shipped() -> Vec<(String, Circuit)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("circuits");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("circuits/ is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckt"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 5, "expected the shipped netlists in {dir:?}");
    paths
        .iter()
        .map(|p| {
            let rel = format!("circuits/{}", p.file_name().unwrap().to_string_lossy());
            (rel.clone(), common::load_circuit(&rel))
        })
        .collect()
}

/// One latch, no combinational edges: the cycle time is set by the
/// latch's own setup requirement against its phase width.
fn single_latch() -> Circuit {
    let mut b = CircuitBuilder::new(1);
    b.add_latch("L", PhaseId::from_number(1), 2.0, 3.0);
    b.build().expect("a lone latch is a valid circuit")
}

/// Every circuit the oracle runs on.
fn corpus() -> Vec<(String, Circuit)> {
    let mut all = shipped();
    for (i, c) in common::fastpath_batch().into_iter().enumerate() {
        all.push((format!("fastpath batch #{i}"), c));
    }
    all.push(("single latch, no edges".into(), single_latch()));
    all
}

/// The dense-LP reference: report and per-edge sensitivities from the
/// dense tableau's dual.
fn dense_lp_reference(circuit: &Circuit, model: &TimingModel) -> (CriticalReport, Vec<f64>) {
    let lp = model
        .solve_lp()
        .expect("the dense LP solves every corpus model");
    let duals = lp.duals();
    let mut sens = vec![0.0; circuit.num_edges()];
    for info in model.constraints() {
        if let Some(edge) = info.edge {
            sens[edge.index()] += duals[info.row.index()].abs();
        }
    }
    (CriticalReport::from_duals(circuit, model, duals), sens)
}

/// Where the graph and dense-LP reports part ways, if anywhere.
fn report_mismatch(
    graph: &CriticalReport,
    graph_sens: &[f64],
    lp: &CriticalReport,
    lp_sens: &[f64],
) -> Option<String> {
    let sorted = |r: &CriticalReport| {
        let mut e: Vec<_> = r.edges.iter().map(|c| c.edge).collect();
        e.sort();
        e
    };
    if sorted(graph) != sorted(lp) {
        return Some(format!(
            "critical edges {:?} vs LP {:?}",
            sorted(graph),
            sorted(lp)
        ));
    }
    if graph.setup_critical != lp.setup_critical {
        return Some(format!(
            "setup-critical {:?} vs LP {:?}",
            graph.setup_critical, lp.setup_critical
        ));
    }
    if graph.segments != lp.segments {
        return Some(format!(
            "segments {:?} vs LP {:?}",
            graph.segments, lp.segments
        ));
    }
    for (e, (g, l)) in graph_sens.iter().zip(lp_sens).enumerate() {
        if (g - l).abs() > SENS_TOL {
            return Some(format!("dTc/dΔ of edge #{e}: {g} vs LP {l}"));
        }
    }
    None
}

/// `Σ yᵢ·rhsᵢ` over the model's rows: the dual objective, which equals
/// `T_c*` exactly when `y` is an optimal dual.
fn dual_objective(model: &TimingModel, duals: &[f64]) -> f64 {
    model
        .constraints()
        .iter()
        .map(|info| duals[info.row.index()] * model.problem().constraint(info.row).2)
        .sum()
}

#[test]
fn graph_duals_match_the_dense_lp_on_every_corpus_circuit() {
    let mut degenerate = Vec::new();
    for (name, circuit) in corpus() {
        let model = TimingModel::build(&circuit).expect("model builds");
        assert!(
            classify_model(&circuit, &model)
                .expect("classifies")
                .is_pure(),
            "{name}: the corpus is pure difference systems"
        );
        let graph = critical_report(&circuit, &model).expect("graph report");
        let graph_sens = delay_sensitivities(&circuit, &model).expect("graph sensitivities");
        let (lp, lp_sens) = dense_lp_reference(&circuit, &model);
        assert_eq!(graph_sens.len(), lp_sens.len());
        for (e, s) in &graph
            .edges
            .iter()
            .map(|c| (c.edge, c.sensitivity))
            .collect::<Vec<_>>()
        {
            assert!(
                (graph_sens[e.index()] - s).abs() <= SENS_TOL,
                "{name}: report and delay_sensitivities disagree on edge {e:?}"
            );
        }

        // Strong duality for the graph dual, degenerate or not.
        let tc = dual_objective(&model, &lp.duals);
        let graph_objective = dual_objective(&model, &graph.duals);
        assert!(
            Tol::TIGHT.is_zero(graph_objective - tc, tc.abs().max(1.0)),
            "{name}: graph dual objective {graph_objective} vs Tc* {tc}"
        );

        if let Some(why) = report_mismatch(&graph, &graph_sens, &lp, &lp_sens) {
            assert!(
                DEGENERATE.contains(&name.as_str()),
                "{name}: graph and dense-LP critical reports differ: {why}"
            );
            degenerate.push(name);
        }
    }
    // The exception list stays exact: every listed circuit still needs it.
    assert_eq!(degenerate, DEGENERATE, "degenerate circuits changed");
}

#[test]
fn single_latch_is_setup_critical_on_both_paths() {
    // Tc* = the latch's setup time (2.0): its setup row against the
    // phase width is the whole proof.
    let circuit = single_latch();
    let model = TimingModel::build(&circuit).expect("model builds");
    let graph = critical_report(&circuit, &model).expect("graph report");
    assert!(graph.edges.is_empty() && graph.segments.is_empty());
    assert_eq!(graph.setup_critical.len(), 1, "{graph}");
    let (lp, _) = dense_lp_reference(&circuit, &model);
    assert_eq!(graph.setup_critical, lp.setup_critical);
    let tc = min_cycle_time(&circuit).expect("solves").cycle_time();
    assert!((tc - 2.0).abs() < 1e-9, "Tc* = {tc}");
}

#[test]
fn pure_models_never_pivot_on_the_default_pipeline() {
    for (name, circuit) in shipped() {
        let model = TimingModel::build(&circuit).expect("model builds");
        if !classify_model(&circuit, &model)
            .expect("classifies")
            .is_pure()
        {
            continue;
        }
        // `smo optimize` and the solve behind `smo check`.
        let sol = min_cycle_time(&circuit).expect("solves");
        assert_eq!(sol.lp_iterations(), 0, "{name}: optimize pivoted");
        let cert = sol
            .graph_certificate()
            .unwrap_or_else(|| panic!("{name}: no graph certificate"));
        assert!(cert.is_valid(), "{name}: {cert}");
        let checked = check(&circuit, &CheckOptions::default()).expect("check runs");
        assert_eq!(checked.cycle_time(), sol.cycle_time(), "{name}: check Tc");
        // `smo report`: its header line carries the pivot count, and its
        // critical-segment section runs `critical_report` on the same
        // model.
        let report = timing_report(&circuit, &MlpOptions::default()).expect("report");
        assert!(
            report
                .lines()
                .nth(1)
                .is_some_and(|l| l.contains(" 0 simplex iterations")),
            "{name}: report header {:?}",
            report.lines().nth(1)
        );
        let critical = critical_report(&circuit, &model).expect("critical report");
        let text = report
            .split("critical combinational segments:")
            .nth(1)
            .expect("report lists critical segments");
        assert_eq!(
            text.lines().filter(|l| l.contains("segment ")).count(),
            critical.segments.len(),
            "{name}: report and critical_report disagree"
        );
    }
}
