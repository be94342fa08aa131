//! Ablation studies for the design choices called out in DESIGN.md.
//!
//! 1. **LP solver**: dense tableau vs sparse-LU simplex (§VI's "more
//!    efficient algorithms" direction) — same optima, different scaling.
//! 2. **Canonicalization**: the cost and effect of the second LP pass that
//!    picks a deterministic compact schedule among the non-unique optima
//!    (on the LP backend, where the second pass runs).
//! 3. **Nonoverlap scope**: the paper's strict C3 vs the latch-destination
//!    relaxation on a flip-flop-rich design.
//! 4. **Update mode**: Jacobi vs Gauss-Seidel vs event-driven departure
//!    sliding (§IV's proposed enhancements).
//! 5. **Bus lumping**: the §IV "32-bit data bus" reduction.
//! 6. **Certification**: the overhead of the KKT certificate and the
//!    recovery ladder over a plain solve, for both simplex variants.

use smo_circuit::{lump_equivalent_latches, CircuitBuilder, PhaseId};
use smo_core::{
    min_cycle_time, min_cycle_time_with, solve_model_with, Backend, ConstraintOptions, MlpOptions,
    NonoverlapScope, TimingModel, UpdateMode,
};
use smo_gen::random::{random_circuit, GenConfig};
use smo_lp::SimplexVariant;
use std::time::Instant;

fn ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

fn main() {
    smo_bench::header("Ablation 1 — dense tableau vs sparse-LU simplex");
    println!(
        "{}",
        smo_bench::row(
            &["latches", "rows", "dense (ms)", "sparse (ms)", "speedup"],
            &[8, 6, 11, 13, 8]
        )
    );
    for l in [32usize, 128, 256] {
        let cfg = GenConfig {
            latches: l,
            edges: l * 3 / 2,
            phases: 3,
            ..Default::default()
        };
        let circuit = random_circuit(&cfg, 7);
        let model = TimingModel::build(&circuit).expect("model");
        let mut tc_d = 0.0;
        let mut tc_s = 0.0;
        let td = ms(|| {
            tc_d = model
                .solve_lp_with(SimplexVariant::Dense)
                .expect("optimal")
                .objective();
        });
        let ts = ms(|| {
            tc_s = model
                .solve_lp_with(SimplexVariant::SparseLu)
                .expect("optimal")
                .objective();
        });
        assert!((tc_d - tc_s).abs() < 1e-6, "variants disagree");
        println!(
            "{}",
            smo_bench::row(
                &[
                    &format!("{l}"),
                    &format!("{}", model.num_constraints()),
                    &format!("{td:.2}"),
                    &format!("{ts:.2}"),
                    &format!("{:.2}×", td / ts.max(1e-9)),
                ],
                &[8, 6, 11, 13, 8],
            )
        );
    }

    smo_bench::header("Ablation 2 — schedule canonicalization (second LP pass)");
    let circuit = smo_gen::paper::example1(80.0);
    let lp = MlpOptions {
        backend: Backend::Lp,
        ..Default::default()
    };
    let raw = min_cycle_time_with(
        &circuit,
        &MlpOptions {
            canonicalize: false,
            ..lp.clone()
        },
    )
    .expect("solves");
    let compact = min_cycle_time_with(&circuit, &lp).expect("solves");
    println!(
        "raw vertex:  Tc = {:.1}, {}",
        raw.cycle_time(),
        summary(raw.schedule())
    );
    println!(
        "canonical:   Tc = {:.1}, {}  (+1 LP solve: {} vs {} total simplex iterations)",
        compact.cycle_time(),
        summary(compact.schedule()),
        compact.lp_iterations(),
        raw.lp_iterations()
    );
    assert!((raw.cycle_time() - compact.cycle_time()).abs() < 1e-9);

    smo_bench::header("Ablation 3 — nonoverlap scope for flip-flop destinations");
    // All φ2→φ1 traffic ends at a flip-flop, so the paper's strict C3 row
    // s2 ≥ s1 + T1 only exists to protect a race the FF breaks by itself.
    // The latch A needs a wide φ1 (heavy borrowing from the slow F→A path),
    // which under strict C3 also forces φ2 late — a pure loss of cycle time.
    let mixed = {
        let mut b = CircuitBuilder::new(2);
        let f = b.add_flip_flop("F", PhaseId::from_number(1), 1.0, 1.0);
        let a = b.add_latch("A", PhaseId::from_number(1), 1.0, 1.0);
        let bl = b.add_latch("B", PhaseId::from_number(2), 1.0, 1.0);
        b.connect(f, a, 60.0); // slow path: A borrows deep into φ1
        b.connect(bl, f, 10.0); // φ2→φ1 with FF destination
        b.build().expect("builds")
    };
    let mut tcs = Vec::new();
    for (label, scope) in [
        ("paper C3 (all pairs)      ", NonoverlapScope::AllPairs),
        (
            "latch destinations only   ",
            NonoverlapScope::LatchDestinations,
        ),
    ] {
        let sol = min_cycle_time_with(
            &mixed,
            &MlpOptions {
                constraints: ConstraintOptions {
                    nonoverlap_scope: scope,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .expect("solves");
        println!("{label}: Tc = {:.2}", sol.cycle_time());
        tcs.push(sol.cycle_time());
    }
    assert!(
        tcs[1] < tcs[0] - 1e-6,
        "the relaxation should pay off on this design"
    );

    smo_bench::header("Ablation 4 — departure update modes (Jacobi / GS / event-driven)");
    let cfg = GenConfig {
        latches: 128,
        edges: 192,
        phases: 2,
        ..Default::default()
    };
    let big = random_circuit(&cfg, 5);
    let model = TimingModel::build(&big).expect("model");
    for mode in [
        UpdateMode::Jacobi,
        UpdateMode::GaussSeidel,
        UpdateMode::EventDriven,
    ] {
        let mut iters = 0;
        let t = ms(|| {
            let sol =
                solve_model_with(&big, &model, mode, SimplexVariant::SparseLu).expect("solves");
            iters = sol.update_iterations();
        });
        println!("{mode:?}: {iters} update iterations, {t:.2} ms end-to-end");
    }

    smo_bench::header("Ablation 5 — §IV bus lumping");
    for bits in [8usize, 32, 64] {
        let mut b = CircuitBuilder::new(2);
        let p1 = PhaseId::from_number(1);
        let p2 = PhaseId::from_number(2);
        let ctrl = b.add_latch("ctrl", p1, 1.0, 1.0);
        let r1: Vec<_> = (0..bits)
            .map(|i| b.add_latch(format!("r1_{i}"), p1, 1.0, 1.0))
            .collect();
        let r2: Vec<_> = (0..bits)
            .map(|i| b.add_latch(format!("r2_{i}"), p2, 1.0, 1.0))
            .collect();
        for i in 0..bits {
            b.connect(r1[i], r2[i], 14.0);
            b.connect(r2[i], r1[i], 6.0);
            b.connect(r2[i], ctrl, 4.0);
        }
        let wide = b.build().expect("builds");
        let (narrow, _) = lump_equivalent_latches(&wide);
        let mut tc_w = 0.0;
        let tw = ms(|| tc_w = min_cycle_time(&wide).expect("solves").cycle_time());
        let mut tc_n = 0.0;
        let tn = ms(|| tc_n = min_cycle_time(&narrow).expect("solves").cycle_time());
        assert!((tc_w - tc_n).abs() < 1e-6);
        println!(
            "{bits:3}-bit bus: {} → {} synchronizers, Tc {tc_w:.1} = {tc_n:.1}, \
             {tw:.2} ms → {tn:.2} ms",
            wide.num_syncs(),
            narrow.num_syncs()
        );
    }

    smo_bench::header("Ablation 6 — certification + recovery-ladder overhead (650-row scale)");
    let cfg = GenConfig {
        latches: 256,
        edges: 384,
        phases: 3,
        ..Default::default()
    };
    let big = random_circuit(&cfg, 11);
    let model = TimingModel::build(&big).expect("model");
    println!("{} constraints", model.num_constraints());
    println!(
        "{}",
        smo_bench::row(
            &[
                "variant",
                "plain (ms)",
                "certified (ms)",
                "overhead",
                "rungs"
            ],
            &[8, 11, 15, 9, 6]
        )
    );
    for variant in [SimplexVariant::Dense, SimplexVariant::SparseLu] {
        let mut tc_plain = 0.0;
        let t_plain = ms(|| {
            tc_plain = model
                .problem()
                .solve_with(variant)
                .expect("solves")
                .objective()
                .expect("optimal");
        });
        let policy = smo_lp::RecoveryPolicy {
            variant,
            ..Default::default()
        };
        let mut tc_cert = 0.0;
        let mut rungs = 0usize;
        let t_cert = ms(|| {
            let certified = model.problem().solve_certified(&policy).expect("certifies");
            tc_cert = certified
                .solution()
                .objective()
                .expect("certified optimum has an objective");
            rungs = certified.steps().len();
        });
        assert!(
            (tc_plain - tc_cert).abs() < 1e-9 * (1.0 + tc_plain.abs()),
            "certification changed the optimum: {tc_plain} vs {tc_cert}"
        );
        println!(
            "{}",
            smo_bench::row(
                &[
                    &format!("{variant:?}"),
                    &format!("{t_plain:.2}"),
                    &format!("{t_cert:.2}"),
                    &format!("{:+.1}%", (t_cert / t_plain - 1.0) * 100.0),
                    &format!("{rungs}"),
                ],
                &[8, 11, 15, 9, 6],
            )
        );
    }
}

fn summary(s: &smo_circuit::ClockSchedule) -> String {
    (0..s.num_phases())
        .map(|i| {
            let p = PhaseId::new(i);
            format!("φ{}=[{:.0},{:.0})", p.number(), s.start(p), s.end(p))
        })
        .collect::<Vec<_>>()
        .join(" ")
}
