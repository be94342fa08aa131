//! Pathological-circuit stress harness: every circuit in the
//! [`smo::gen::stress`] suite must solve without panicking under **both**
//! simplex variants (dense tableau and sparse LU), the two variants must
//! agree on the optimal cycle time, and every verdict must carry a valid
//! independent optimality certificate.

use smo::gen::stress;
use smo::lp::SimplexVariant;
use smo::prelude::*;
use smo::timing::{min_cycle_time_with, Backend, MlpOptions};

/// Certified simplex solve. The backend is named explicitly: the default
/// answers these pure models on the graph, and the subject here is the
/// simplex and its KKT certificates.
fn certified_tc(circuit: &Circuit, variant: SimplexVariant) -> (f64, usize) {
    let options = MlpOptions {
        backend: Backend::Lp,
        simplex: variant,
        certify: true,
        ..Default::default()
    };
    let solution = min_cycle_time_with(circuit, &options).expect("pathological circuit solves");
    assert!(
        solution.certified(),
        "{variant:?} solve did not certify: {:?}",
        solution.certificates()
    );
    (solution.cycle_time(), solution.certificates().len())
}

#[test]
fn stress_suite_certifies_under_both_variants() {
    for seed in 0..4u64 {
        for (name, circuit) in stress::suite(seed) {
            let (dense, n_dense) = certified_tc(&circuit, SimplexVariant::Dense);
            let (sparse, n_sparse) = certified_tc(&circuit, SimplexVariant::SparseLu);
            assert!(
                (dense - sparse).abs() <= 1e-6 * (1.0 + dense.abs()),
                "{name} (seed {seed}): dense Tc = {dense}, sparse Tc = {sparse}"
            );
            assert!(
                n_dense >= 1 && n_sparse >= 1,
                "{name}: missing certificates"
            );
            assert!(
                dense.is_finite() && dense > 0.0,
                "{name}: nonsensical Tc = {dense}"
            );
        }
    }
}

#[test]
fn badly_scaled_certifies_across_fifteen_orders_of_magnitude() {
    for seed in 0..6u64 {
        let circuit = stress::badly_scaled(15, 3, seed);
        let (dense, _) = certified_tc(&circuit, SimplexVariant::Dense);
        let (sparse, _) = certified_tc(&circuit, SimplexVariant::SparseLu);
        assert!(
            (dense - sparse).abs() <= 1e-6 * (1.0 + dense.abs()),
            "seed {seed}: dense {dense} vs sparse {sparse}"
        );
    }
}

#[test]
fn zero_delay_loops_sit_on_the_boundary_and_still_certify() {
    for seed in 0..6u64 {
        let circuit = stress::zero_delay_loops(6, 2, seed);
        let (tc, _) = certified_tc(&circuit, SimplexVariant::Dense);
        // The latch D→Q delay (1.0) keeps every loop strictly positive,
        // so a positive cycle time must exist even with zero-delay wires.
        assert!(tc > 0.0, "seed {seed}: Tc = {tc}");
    }
}

#[test]
fn degenerate_ties_certify_despite_alternative_optima() {
    // The fully symmetric circuit admits many optimal bases; the two
    // variants may pick different ones but must agree on the optimum and
    // both must pass the independent KKT check.
    for (l, k) in [(6usize, 2usize), (9, 3), (12, 4)] {
        let circuit = stress::degenerate_ties(l, k);
        let (dense, _) = certified_tc(&circuit, SimplexVariant::Dense);
        let (sparse, _) = certified_tc(&circuit, SimplexVariant::SparseLu);
        assert!(
            (dense - sparse).abs() <= 1e-6 * (1.0 + dense.abs()),
            "ties {l}x{k}: dense {dense} vs sparse {sparse}"
        );
    }
}

#[test]
fn example1_headline_number_certifies() {
    // The paper's Fig. 6 headline: Tc* = 110 ns at Δ41 = 80 ns — and the
    // certified path must reproduce it exactly (not just "roughly"),
    // proving certification does not perturb the solve.
    let circuit = smo::gen::paper::example1(80.0);
    let options = MlpOptions {
        backend: Backend::Lp,
        ..Default::default()
    };
    let solution = min_cycle_time_with(&circuit, &options).expect("solves");
    assert!((solution.cycle_time() - 110.0).abs() < 1e-6);
    assert!(solution.certified());
    assert!(!solution.certificates().is_empty());
    for cert in solution.certificates() {
        assert!(cert.is_valid(), "invalid certificate: {cert}");
    }
}
