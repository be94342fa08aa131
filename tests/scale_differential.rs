//! Scale-differential suite: the sparse-LU simplex variant must agree
//! with the dense tableau on every circuit we can throw at it — the shipped netlists, the pathological
//! stress suite, proptest-random circuits, and generated pipelined
//! datapaths at 1k and 5k constraint rows.
//!
//! "Agree" is strict: identical verdicts, objectives within
//! [`Tol::TIGHT`], and every optimal verdict carrying a valid
//! independently-checked certificate (`solve_certified` refuses to return
//! an uncertified optimum, and we re-check the certificate here anyway).
//!
//! The two large generated sizes are `#[ignore]`d so `cargo test` stays
//! fast in debug builds; `ci.sh` runs them in release mode.

mod common;

use std::time::Duration;

use common::{load_circuit, SHIPPED_NETLISTS};
use proptest::prelude::*;
use smo::circuit::Circuit;
use smo::gen::datapath::{pipelined_datapath, DatapathConfig};
use smo::gen::random::{random_circuit, GenConfig};
use smo::gen::stress;
use smo::lp::{LpError, RecoveryPolicy, SimplexVariant, SolveBudget, Status, Tol};
use smo::timing::TimingModel;

const VARIANTS: [SimplexVariant; 2] = [SimplexVariant::Dense, SimplexVariant::SparseLu];

/// Solves `circuit`'s cycle-time LP certified under every variant and
/// asserts the verdicts agree; returns the shared verdict.
fn assert_variants_agree(name: &str, circuit: &Circuit, budget: SolveBudget) -> Status {
    let model = TimingModel::build(circuit).unwrap_or_else(|e| panic!("{name}: model: {e}"));
    let mut reference: Option<(SimplexVariant, Status, Option<f64>)> = None;
    for variant in VARIANTS {
        let policy = RecoveryPolicy {
            variant,
            budget,
            ..Default::default()
        };
        let certified = model
            .problem()
            .solve_certified(&policy)
            .unwrap_or_else(|e| panic!("{name}: {variant:?} certified solve: {e}"));
        if certified.status() == Status::Optimal {
            let cert = certified
                .certificate()
                .unwrap_or_else(|| panic!("{name}: {variant:?} optimal without certificate"));
            assert!(
                cert.is_valid(),
                "{name}: {variant:?} certificate invalid: {cert}"
            );
        }
        let objective = certified.solution().objective();
        match &reference {
            None => reference = Some((variant, certified.status(), objective)),
            Some((ref_variant, ref_status, ref_objective)) => {
                assert_eq!(
                    certified.status(),
                    *ref_status,
                    "{name}: {variant:?} verdict differs from {ref_variant:?}"
                );
                if let (Some(a), Some(b)) = (objective, *ref_objective) {
                    assert!(
                        Tol::TIGHT.is_zero(a - b, b.abs().max(1.0)),
                        "{name}: {variant:?} objective {a} vs {ref_variant:?} {b}"
                    );
                }
            }
        }
    }
    reference.map(|(_, s, _)| s).unwrap_or(Status::Optimal)
}

#[test]
fn shipped_netlists_agree_across_all_variants() {
    for path in SHIPPED_NETLISTS {
        let circuit = load_circuit(path);
        let status = assert_variants_agree(path, &circuit, SolveBudget::UNLIMITED);
        assert_eq!(status, Status::Optimal, "{path}: shipped circuits solve");
    }
}

#[test]
fn stress_suite_agrees_across_all_variants() {
    for seed in 0..3u64 {
        for (name, circuit) in stress::suite(seed) {
            let label = format!("{name} (seed {seed})");
            let status = assert_variants_agree(&label, &circuit, SolveBudget::UNLIMITED);
            assert_eq!(status, Status::Optimal, "{label}: stress circuits solve");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random circuits — including infeasible ones — get the same verdict
    /// from all three variants.
    #[test]
    fn prop_random_circuits_agree(seed in 0u64..10_000) {
        let cfg = GenConfig {
            phases: 2 + (seed as usize % 3),
            latches: 6 + (seed as usize % 30),
            edges: 8 + (seed as usize % 50),
            flip_flop_prob: 0.1,
            ..Default::default()
        };
        let circuit = random_circuit(&cfg, seed);
        assert_variants_agree(&format!("random seed {seed}"), &circuit, SolveBudget::UNLIMITED);
    }
}

/// ~1 000 constraint rows: all three variants must finish and agree under
/// one shared wall-clock budget. Run by `ci.sh` in release mode.
#[test]
#[ignore = "release-mode scale test; run via ci.sh or --ignored"]
fn generated_1k_rows_agree_under_time_budget() {
    let circuit = pipelined_datapath(&DatapathConfig::with_latches(330), 11);
    let model = TimingModel::build(&circuit).expect("model builds");
    assert!(
        model.num_constraints() >= 1_000,
        "generator target drifted: {} rows",
        model.num_constraints()
    );
    let budget = SolveBudget::with_time_limit(Duration::from_secs(300));
    let status = assert_variants_agree("datapath 1k rows", &circuit, budget);
    assert_eq!(status, Status::Optimal);
}

/// ~5 000 constraint rows: the sparse-LU variant must certify an optimum
/// within the budget; the dense tableau either agrees or hits the deadline
/// honestly (`LpError::Budget`) — at this size the dense tableau is
/// expected to time out, which is the point of the sparse path.
#[test]
#[ignore = "release-mode scale test; run via ci.sh or --ignored"]
fn generated_5k_rows_sparse_certifies_under_time_budget() {
    let circuit = pipelined_datapath(&DatapathConfig::with_latches(1_667), 11);
    let model = TimingModel::build(&circuit).expect("model builds");
    assert!(
        model.num_constraints() >= 5_000,
        "generator target drifted: {} rows",
        model.num_constraints()
    );
    let sparse_budget = SolveBudget::with_time_limit(Duration::from_secs(120));
    let sparse = model
        .problem()
        .solve_certified(&RecoveryPolicy {
            variant: SimplexVariant::SparseLu,
            budget: sparse_budget,
            ..Default::default()
        })
        .expect("sparse-LU certifies 5k rows inside the budget");
    assert_eq!(sparse.status(), Status::Optimal);
    let tc = sparse.solution().objective().expect("optimal objective");

    // The dense tableau gets a shorter leash: at this size it is expected
    // to hit the deadline (that is the point of the sparse path), so the
    // budget mostly bounds CI time.
    let budget = SolveBudget::with_time_limit(Duration::from_secs(45));
    match model.problem().solve_certified(&RecoveryPolicy {
        variant: SimplexVariant::Dense,
        budget,
        ..Default::default()
    }) {
        Ok(certified) => {
            assert_eq!(certified.status(), Status::Optimal);
            let other = certified.solution().objective().expect("optimal objective");
            assert!(
                Tol::TIGHT.is_zero(other - tc, tc),
                "dense Tc {other} vs sparse {tc}"
            );
        }
        Err(LpError::Budget { timed_out, .. }) => {
            assert!(timed_out, "dense exhausted iterations, not time");
        }
        Err(e) => panic!("dense: unexpected failure: {e}"),
    }
}
