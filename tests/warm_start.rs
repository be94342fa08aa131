//! Differential and determinism tests for the warm-start layer and the
//! sweep engine: warm solves must agree with cold solves on every shipped
//! netlist and on random circuits, a repaired basis must never smuggle in
//! an uncertified verdict, and `smo sweep --json` must produce the same
//! bytes at any `--jobs` value.

mod common;

use proptest::prelude::*;
use smo::circuit::EdgeId;
use smo::gen::random::{perturbed_delays, random_circuit, GenConfig};
use smo::lp::{certifies_infeasibility, RecoveryPolicy, SimplexVariant, Status, Tol};
use smo::timing::{cycle_time_curve, ConstraintOptions, TimingModel};

use common::{load_circuit, min_tc_checked, SHIPPED_NETLISTS};

/// Applies the delay vector to a clone of `model`, skipping edges that have
/// no propagation row (their delay is absorbed by another constraint kind).
fn perturb(model: &TimingModel, circuit: &smo::circuit::Circuit, delays: &[f64]) -> TimingModel {
    let mut m = model.clone();
    for (e, (edge, &d)) in circuit.edges().iter().zip(delays).enumerate() {
        let id = EdgeId::new(e);
        if d != edge.max_delay && m.edge_constraint(id).is_some() {
            m.set_edge_delay(id, edge.max_delay, d);
        }
    }
    m
}

/// Asserts that warm solves of `m` from `basis` match its cold optimum with
/// both simplex variants, and that the certified warm path also agrees.
fn assert_warm_matches_cold(m: &TimingModel, basis: &smo::lp::Basis) -> f64 {
    let cold = m.solve_lp().expect("perturbed model stays feasible");
    let tc = cold.objective();
    for variant in [SimplexVariant::Dense, SimplexVariant::SparseLu] {
        let warm = m.solve_lp_from_basis(variant, basis).expect("warm solves");
        let w = warm.objective();
        assert!(
            Tol::TIGHT.is_zero(w - tc, tc),
            "{variant:?}: warm Tc {w} vs cold {tc}"
        );
    }
    let policy = RecoveryPolicy {
        variant: SimplexVariant::SparseLu,
        ..Default::default()
    };
    let (opt, cert) = m
        .solve_lp_certified_from_basis(&policy, Some(basis))
        .expect("certified warm solve succeeds");
    assert!(cert.is_valid(), "warm certificate invalid: {cert}");
    let w = opt.objective();
    assert!(
        Tol::TIGHT.is_zero(w - tc, tc),
        "certified warm Tc {w} vs cold {tc}"
    );
    tc
}

/// On every shipped netlist: solve cold, bump every edge delay by 10 %, and
/// check that warm re-solves from the stale basis agree with a from-scratch
/// solve of the perturbed model (both variants, plus the certified path).
#[test]
fn warm_agrees_with_cold_on_every_shipped_netlist() {
    for path in SHIPPED_NETLISTS {
        let circuit = load_circuit(path);
        let (_, basis) = min_tc_checked(&circuit, None);
        let model = TimingModel::build(&circuit).expect("model builds");
        let bumped: Vec<f64> = circuit.edges().iter().map(|e| 1.1 * e.max_delay).collect();
        let m = perturb(&model, &circuit, &bumped);
        assert_warm_matches_cold(&m, &basis);
    }
}

/// An optimal basis taken under a loose cycle-time cap, replayed against
/// the same matrix with an impossible cap, must come back `Infeasible`
/// with a Farkas certificate — repair never launders an uncertified
/// `Optimal` out of a stale basis.
#[test]
fn repair_never_returns_an_uncertified_optimum() {
    for path in SHIPPED_NETLISTS {
        let circuit = load_circuit(path);
        let (tc, _) = min_tc_checked(&circuit, None);
        let loose = ConstraintOptions {
            max_cycle: Some(2.0 * tc),
            ..Default::default()
        };
        let model = TimingModel::build_with(&circuit, &loose).expect("model builds");
        let sol = model.solve_lp().expect("loose cap is feasible");
        let basis = sol.basis().cloned().expect("optimal solve has a basis");

        let tight = ConstraintOptions {
            max_cycle: Some(0.5 * tc),
            ..Default::default()
        };
        let capped = TimingModel::build_with(&circuit, &tight).expect("model builds");
        for variant in [SimplexVariant::Dense, SimplexVariant::SparseLu] {
            let warm = capped
                .problem()
                .solve_from_basis_with(variant, &basis)
                .expect("solver runs");
            assert_eq!(
                warm.status(),
                Status::Infeasible,
                "{path} / {variant:?}: impossible cap accepted"
            );
            let y = warm.farkas().expect("infeasible verdict carries Farkas");
            assert!(
                certifies_infeasibility(capped.problem(), y),
                "{path} / {variant:?}: Farkas vector does not certify"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Warm and cold solves agree on generator-produced circuits under
    /// random ±20 % delay perturbations (the sweep engine's exact workload).
    #[test]
    fn prop_warm_agrees_with_cold_on_random_circuits(
        seed in 0u64..200,
        perturb_seed in 0u64..50,
    ) {
        let cfg = GenConfig {
            phases: 2 + (seed as usize % 3),
            latches: 4 + (seed as usize % 12),
            edges: 6 + (seed as usize % 18),
            flip_flop_prob: 0.15,
            ..Default::default()
        };
        let circuit = random_circuit(&cfg, seed);
        let model = TimingModel::build(&circuit).expect("model builds");
        let cold = model.solve_lp().expect("plain SMO models are feasible");
        let basis = cold.basis().cloned().expect("optimal solve has a basis");
        let delays = perturbed_delays(&circuit, 0.2, perturb_seed);
        let m = perturb(&model, &circuit, &delays);
        assert_warm_matches_cold(&m, &basis);
    }
}

/// Runs the `smo` binary from the repository root (shipped netlists are
/// addressed by relative path).
fn smo(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_smo"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("smo binary runs")
}

/// `smo sweep --json` is byte-identical at any `--jobs` value, in both
/// sweep modes — the determinism contract the JSON output promises.
#[test]
fn sweep_json_is_byte_identical_for_any_job_count() {
    let modes: [&[&str]; 2] = [
        &["--param", "delay", "--runs", "12", "--spread", "0.1"],
        &[
            "--param",
            "tc",
            "--runs",
            "12",
            "--edge",
            "3",
            "--max-delay",
            "140",
        ],
    ];
    for mode in modes {
        let mut outputs = Vec::new();
        for jobs in ["1", "2", "8"] {
            let mut args = vec!["sweep", "circuits/example1.ckt", "--json", "--jobs", jobs];
            args.extend_from_slice(mode);
            let out = smo(&args);
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            outputs.push(out.stdout);
        }
        assert_eq!(outputs[0], outputs[1], "{mode:?}: --jobs 1 vs 2 differ");
        assert_eq!(outputs[0], outputs[2], "{mode:?}: --jobs 1 vs 8 differ");
    }
}

/// Zero-variance Monte-Carlo oracle: with `--spread 0` every perturbed
/// re-solve of example1 must reproduce the paper's Tc* = 110 exactly.
#[test]
fn zero_spread_sweep_reproduces_the_paper_optimum() {
    let out = smo(&[
        "sweep",
        "circuits/example1.ckt",
        "--runs",
        "8",
        "--spread",
        "0",
        "--json",
    ]);
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        json.matches("\"cycle_time\": 110.000000").count(),
        8,
        "not every run hit Tc* = 110: {json}"
    );
    assert!(json.contains("\"base_cycle_time\": 110.000000"));
}

/// Parametric-sweep oracle: the `--param tc` breakpoints reported by the
/// CLI equal the exact `cycle_time_curve` breakpoints (Fig. 7: the curve
/// over Δ41 breaks at 20 and 100).
#[test]
fn tc_sweep_breakpoints_match_the_parametric_curve() {
    let circuit = load_circuit("circuits/example1.ckt");
    let model = TimingModel::build(&circuit).expect("model builds");
    let curve = cycle_time_curve(&circuit, &model, EdgeId::new(3), 140.0).expect("curve solves");
    assert_eq!(curve.breakpoints(), vec![20.0, 100.0]);

    let out = smo(&[
        "sweep",
        "circuits/example1.ckt",
        "--param",
        "tc",
        "--edge",
        "3",
        "--max-delay",
        "140",
        "--runs",
        "8",
        "--json",
    ]);
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(
        json.contains("\"breakpoints\": [20.000000, 100.000000]"),
        "CLI breakpoints disagree with the parametric curve: {json}"
    );
}
