//! Pricing-equivalence suite: the sparse-LU simplex must return the same
//! verdict and the same optimum under every pricing strategy.
//!
//! Devex, candidate-list (partial) devex, and Bland pricing choose
//! *different pivot sequences*, but each one terminates only at a basis
//! whose reduced costs all pass the optimality test — so the certified
//! cycle time must agree to [`Tol::TIGHT`] on every circuit we can throw
//! at it: the paper's shipped examples, the pathological stress suite,
//! and randomized circuits. This is the contract that lets the sparse
//! variant run `partial` without anyone auditing verdicts: the rule may
//! change the route, never the destination.

use proptest::prelude::*;
use smo::gen::random::{random_circuit, GenConfig};
use smo::gen::{paper, stress};
use smo::lp::{Pricing, RecoveryPolicy, SimplexVariant, Tol};
use smo::prelude::*;
use smo::timing::TimingModel;

/// Certified sparse-LU solve of the cycle-time LP under one pricing
/// strategy. The simplex is called directly: the default pipeline answers
/// these pure models on the graph, where pricing never runs.
fn priced_tc(circuit: &Circuit, pricing: Pricing) -> f64 {
    let policy = RecoveryPolicy {
        variant: SimplexVariant::SparseLu,
        pricing,
        ..Default::default()
    };
    let model = TimingModel::build(circuit).expect("model builds");
    let (solution, cert) = model
        .solve_lp_certified(&policy)
        .expect("circuit solves under every pricing");
    assert!(cert.is_valid(), "{pricing} solve did not certify: {cert}");
    solution.value(model.vars().tc())
}

/// Solves under all three pricings and asserts the optima agree.
fn assert_pricing_equivalent(name: &str, circuit: &Circuit) {
    let reference = priced_tc(circuit, Pricing::Devex);
    for pricing in Pricing::ALL {
        let tc = priced_tc(circuit, pricing);
        assert!(
            Tol::TIGHT.is_zero(tc - reference, reference.abs().max(1.0)),
            "{name}: {pricing} found Tc = {tc}, devex found {reference}"
        );
    }
}

#[test]
fn shipped_circuits_agree_under_every_pricing() {
    assert_pricing_equivalent("example1", &paper::example1(80.0));
    assert_pricing_equivalent("example2", &paper::example2());
    assert_pricing_equivalent("gaas_mips", &paper::gaas_mips());
}

#[test]
fn example1_headline_number_survives_every_pricing() {
    // Tc* = 110 ns at Δ41 = 80 ns is the paper's Fig. 6 headline; the
    // pricing rule must not perturb it even in the last decimal.
    for pricing in Pricing::ALL {
        let tc = priced_tc(&paper::example1(80.0), pricing);
        assert!(
            (tc - 110.0).abs() < 1e-6,
            "{pricing}: Tc = {tc}, expected 110"
        );
    }
}

#[test]
fn stress_suite_agrees_under_every_pricing() {
    for seed in 0..3u64 {
        for (name, circuit) in stress::suite(seed) {
            assert_pricing_equivalent(&format!("{name} (seed {seed})"), &circuit);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random circuits: all three pricings certify the same optimum.
    #[test]
    fn prop_random_circuits_agree_under_every_pricing(
        seed in 0u64..10_000,
        latches in 4usize..40,
    ) {
        let config = GenConfig {
            latches,
            edges: latches * 2,
            ..Default::default()
        };
        let circuit = random_circuit(&config, seed);
        let reference = priced_tc(&circuit, Pricing::Devex);
        for pricing in Pricing::ALL {
            let tc = priced_tc(&circuit, pricing);
            prop_assert!(
                Tol::TIGHT.is_zero(tc - reference, reference.abs().max(1.0)),
                "seed {seed}, {latches} latches: {pricing} Tc = {tc}, devex {reference}"
            );
        }
    }
}
