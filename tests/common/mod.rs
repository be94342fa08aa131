//! Shared helpers for the integration-test suites.
//!
//! The solve helpers here are deliberately *differential*: whenever a
//! caller hands them a basis snapshot, the model is solved cold **and**
//! warm (every simplex variant) and the verdicts are asserted to agree
//! within [`Tol::TIGHT`]. Every suite that routes its re-solve loops
//! through this module therefore doubles as a warm-start regression test.
#![allow(dead_code)]

use smo::circuit::Circuit;
use smo::lp::{Basis, Problem, SimplexVariant, Solution, Status, Tol};
use smo::timing::TimingModel;

/// Solves `p` cold; with a snapshot, also re-solves warm from it with every
/// simplex variant and asserts status and objective agree with the cold
/// verdict. Returns the cold solution.
pub fn solve_checked(p: &Problem, warm_from: Option<&Basis>) -> Solution {
    let cold = p.solve().expect("cold solve runs");
    if let Some(basis) = warm_from {
        for variant in [SimplexVariant::Dense, SimplexVariant::SparseLu] {
            let warm = p
                .solve_from_basis_with(variant, basis)
                .expect("warm solve runs");
            assert_eq!(
                warm.status(),
                cold.status(),
                "{variant:?}: warm and cold disagree on status"
            );
            if cold.status() == Status::Optimal {
                let (w, c) = (warm.objective().unwrap(), cold.objective().unwrap());
                assert!(
                    Tol::TIGHT.is_zero(w - c, c),
                    "{variant:?}: warm objective {w} vs cold {c}"
                );
                assert!(
                    warm.certify(p).is_valid(),
                    "{variant:?}: warm optimum fails certification: {}",
                    warm.certify(p)
                );
            }
            if cold.status() == Status::Infeasible {
                // A repaired basis must never smuggle in an uncertified
                // verdict: infeasibility always arrives Farkas-backed.
                let y = warm.farkas().expect("warm infeasible carries Farkas");
                assert!(smo::lp::certifies_infeasibility(p, y));
            }
        }
    }
    cold
}

/// LP-level minimum cycle time of `circuit`, solved cold; with a snapshot,
/// also solved warm from it (every variant, objectives asserted equal).
/// Returns the cycle time and the cold solve's own basis for chaining.
pub fn min_tc_checked(circuit: &Circuit, warm_from: Option<&Basis>) -> (f64, Basis) {
    let model = TimingModel::build(circuit).expect("model builds");
    let cold = model.solve_lp().expect("plain SMO models are feasible");
    let tc = cold.objective();
    if let Some(basis) = warm_from {
        for variant in [SimplexVariant::Dense, SimplexVariant::SparseLu] {
            let warm = model
                .solve_lp_from_basis(variant, basis)
                .expect("warm solve runs");
            let w = warm.objective();
            assert!(
                Tol::TIGHT.is_zero(w - tc, tc),
                "{variant:?}: warm Tc {w} vs cold {tc}"
            );
        }
    }
    let basis = cold
        .basis()
        .cloned()
        .expect("optimal solve captures a basis");
    (tc, basis)
}

/// The graph-vs-LP differential batch: the paper's circuits plus 120
/// deterministic random ones (latch-only and flip-flop-mixed).
pub fn fastpath_batch() -> Vec<Circuit> {
    use smo::gen::paper::{appendix_fig1, example1, example2, gaas_mips};
    use smo::gen::random::{random_circuit, GenConfig};
    let mut circuits: Vec<Circuit> = vec![
        example1(80.0),
        example1(0.0),
        example2(),
        gaas_mips(),
        appendix_fig1(30.0, 2.0, 4.0),
    ];
    for seed in 0..60 {
        circuits.push(random_circuit(
            &GenConfig {
                flip_flop_prob: 0.0,
                ..Default::default()
            },
            seed,
        ));
        circuits.push(random_circuit(
            &GenConfig {
                latches: 10,
                edges: 20,
                phases: 3,
                flip_flop_prob: 0.25,
                ..Default::default()
            },
            1000 + seed,
        ));
    }
    circuits
}

/// Loads a shipped netlist (relative to the repository root),
/// auto-detecting the gate-level dialect like the `smo` binary does.
pub fn load_circuit(path: &str) -> Circuit {
    let full = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    let src = std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let gate_level = src.lines().any(|l| {
        let t = l.split('#').next().unwrap_or("").trim_start();
        t.starts_with("gate ") || t.starts_with("wire ")
    });
    if gate_level {
        smo::circuit::netlist::parse_gates(&src)
    } else {
        smo::circuit::netlist::parse(&src)
    }
    .unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

/// The netlists shipped in `circuits/`.
pub const SHIPPED_NETLISTS: [&str; 5] = [
    "circuits/example1.ckt",
    "circuits/example2.ckt",
    "circuits/gaas_mips.ckt",
    "circuits/appendix_fig1.ckt",
    "circuits/alu_bypass.ckt",
];
