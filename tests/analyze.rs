//! Integration tests for the static-analysis layer: `lint` and `analyze`
//! over the shipped netlists and the pathological stress suite (bracket ≤
//! graph Tc = certified LP Tc), determinism of the `analyze` report,
//! infeasibility diagnosis on over-constrained variants of the paper's
//! examples, and property tests of IIS minimality.

use proptest::prelude::*;
use smo::analyze::{analyze, diagnose, lint, Diagnosis, Rule, Severity};
use smo::circuit::{netlist, CircuitBuilder, PhaseId};
use smo::gen::paper;
use smo::gen::random::{random_circuit, GenConfig};
use smo::lp::{certifies_infeasibility, extract_iis, Status};
use smo::timing::{cycle_time_bounds, ConstraintKind, ConstraintOptions, TimingModel};
use std::path::Path;

const SHIPPED: [&str; 5] = [
    "circuits/example1.ckt",
    "circuits/example2.ckt",
    "circuits/gaas_mips.ckt",
    "circuits/appendix_fig1.ckt",
    "circuits/alu_bypass.ckt",
];

/// Loads a shipped netlist, auto-detecting the gate-level dialect (same
/// logic as the CLI).
fn load(rel: &str) -> smo::circuit::Circuit {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {rel}: {e}"));
    let gate_level = src.lines().any(|l| {
        let t = l.split('#').next().unwrap_or("").trim_start();
        t.starts_with("gate ") || t.starts_with("wire ")
    });
    if gate_level {
        netlist::parse_gates(&src).expect("shipped gate netlist parses")
    } else {
        netlist::parse(&src).expect("shipped netlist parses")
    }
}

#[test]
fn lint_is_clean_on_all_shipped_circuits() {
    for f in SHIPPED {
        let report = lint(&load(f));
        assert!(report.is_clean(), "{f} should lint clean but:\n{report}");
    }
}

#[test]
fn analyze_brackets_every_shipped_circuit() {
    for f in SHIPPED {
        let circuit = load(f);
        let r = analyze(&circuit).unwrap_or_else(|e| panic!("{f}: {e}"));
        assert!(
            r.bounds.lower <= r.optimum + 1e-9 && r.optimum <= r.bounds.upper + 1e-9,
            "{f}: optimum {} outside [{}, {}]",
            r.optimum,
            r.bounds.lower,
            r.bounds.upper
        );
        assert!(r.bounds.brackets(r.optimum), "{f}");
    }
}

#[test]
fn analyze_lower_bound_is_exact_on_example1() {
    let r = analyze(&load("circuits/example1.ckt")).unwrap();
    assert_eq!(r.bounds.lower, r.optimum, "critical loop sets the clock");
    assert_eq!(r.optimum, 110.0);
    assert!(r.lower_is_tight);
}

#[test]
fn analyze_reports_are_deterministic() {
    // The critical cycle named among ties, and the bracket's last digits,
    // must not depend on hash-map iteration order: every in-process run
    // renders the same bytes.
    for f in ["circuits/appendix_fig1.ckt", "circuits/race_demo.ckt"] {
        let circuit = load(f);
        let first = analyze(&circuit)
            .unwrap_or_else(|e| panic!("{f}: {e}"))
            .to_json();
        for _ in 1..16 {
            assert_eq!(analyze(&circuit).unwrap().to_json(), first, "{f}");
        }
    }
}

#[test]
fn analyze_agrees_on_the_stress_suite() {
    // Pathological instances (1e-6..1e9 delay spans, zero-delay loops,
    // near-duplicate rows, degenerate ties): the bracket, the graph
    // backend and the certified sparse-LU simplex must agree on every one.
    for seed in 0..4 {
        for (name, circuit) in smo::gen::stress::suite(seed) {
            let r = analyze(&circuit).unwrap_or_else(|e| panic!("{name} (seed {seed}): {e}"));
            assert!(r.graph_optimum.is_some(), "{name}: default models are pure");
            assert!(
                r.certificate.as_ref().is_some_and(|c| c.is_valid()),
                "{name}"
            );
        }
    }
}

#[test]
fn iis_matches_the_diagnosis_on_overconstrained_example1() {
    // Over-constrained Example 1 (Tc ≤ 100 < 110): the plain solve carries
    // a Farkas certificate, and the extracted IIS is exactly the row set
    // `diagnose` reports.
    let circuit = paper::example1(80.0);
    let opts = ConstraintOptions {
        max_cycle: Some(100.0),
        ..Default::default()
    };
    let model = TimingModel::build_with(&circuit, &opts).unwrap();
    let p = model.problem();

    let plain = p.solve().unwrap();
    assert_eq!(plain.status(), Status::Infeasible);
    let y = plain
        .farkas()
        .expect("infeasible solves carry a certificate");
    assert!(certifies_infeasibility(p, y));

    let iis = extract_iis(p).unwrap().expect("model is infeasible");
    let d = diagnose(&circuit, Some(100.0)).unwrap();
    let report = d.report().expect("infeasible");
    let mut from_iis = iis.rows().to_vec();
    let mut from_diagnose = report.rows();
    from_iis.sort_by_key(|c| c.index());
    from_diagnose.sort_by_key(|c| c.index());
    assert_eq!(from_iis, from_diagnose, "IIS must match the diagnosis");
}

#[test]
fn combinatorial_bounds_bracket_the_shipped_optima() {
    for f in SHIPPED {
        let circuit = load(f);
        let bounds = cycle_time_bounds(&circuit);
        let tc = TimingModel::build(&circuit)
            .unwrap()
            .solve_lp()
            .unwrap()
            .objective();
        assert!(
            bounds.brackets(tc),
            "{f}: Tc {} outside [{}, {}]",
            tc,
            bounds.lower,
            bounds.upper
        );
    }
}

#[test]
fn lint_flags_seeded_bad_netlist() {
    // One netlist seeded with four distinct mistakes: an orphan latch, a
    // dead phase (φ3), a duplicated path line, and a zero-delay loop of
    // transparent latches.
    let src = "\
clock 3
latch L1 phase=1 setup=1 dq=2
latch L2 phase=2 setup=1 dq=2
latch orphan phase=1 setup=1 dq=2
latch X phase=1 setup=0 dq=0
latch Y phase=2 setup=0 dq=0
path L1 L2 delay=5
path L1 L2 delay=7
path L2 L1 delay=5
path X Y delay=0
path Y X delay=0
";
    let report = lint(&netlist::parse(src).unwrap());
    assert!(report.has_errors());
    assert_eq!(report.worst(), Some(Severity::Error));
    let fired: Vec<Rule> = report.findings.iter().map(|f| f.rule).collect();
    for rule in [
        Rule::UnconstrainedSync,
        Rule::DeadPhase,
        Rule::DuplicateEdge,
        Rule::ZeroDelayLoop,
    ] {
        assert!(fired.contains(&rule), "{rule} did not fire:\n{report}");
    }
    let text = report.to_string();
    assert!(text.contains("orphan"));
    assert!(text.contains("φ3"));
}

#[test]
fn zero_delay_loop_inside_a_dense_scc_is_flagged() {
    // Seven latches joined all-to-all at delay 1 carry thousands of simple
    // cycles; the zero-delay pair X ↔ Y shares their SCC. A cycle
    // enumeration capped at 256 spends its budget on the dense cycles
    // before it reaches the pair; the rule must flag it regardless.
    let mut b = CircuitBuilder::new(2);
    let x = b.add_latch("X", PhaseId::from_number(1), 0.0, 0.0);
    let y = b.add_latch("Y", PhaseId::from_number(2), 0.0, 0.0);
    let dense: Vec<_> = (0..7)
        .map(|i| b.add_latch(format!("D{i}"), PhaseId::from_number(1 + i % 2), 1.0, 1.0))
        .collect();
    for &u in &dense {
        for &v in &dense {
            if u != v {
                b.connect(u, v, 1.0);
            }
        }
    }
    b.connect(x, y, 0.0);
    b.connect(y, x, 0.0);
    b.connect(y, dense[0], 1.0);
    b.connect(dense[0], x, 1.0);
    let report = lint(&b.build().unwrap());
    let loops: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::ZeroDelayLoop)
        .collect();
    assert_eq!(loops.len(), 1, "{report}");
    assert_eq!(loops[0].location, "X→Y→X");
    assert_eq!(loops[0].severity, Severity::Error);
}

#[test]
fn overconstrained_example1_names_paper_constraints() {
    // Example 1 at Δ41 = 80 has optimum Tc = 110; demanding Tc ≤ 100 is
    // impossible, and the conflict is exactly the critical loop
    // L1→L2→L3→L4→L1 (four L2R rows) against the cap.
    let circuit = paper::example1(80.0);
    let d = diagnose(&circuit, Some(100.0)).unwrap();
    let report = d.report().expect("Tc ≤ 100 < 110 must be infeasible");
    assert!(report.certified, "Farkas certificate must re-verify");
    assert!(report.involves(ConstraintKind::CycleBound));
    assert!(report.involves(ConstraintKind::Propagation));

    let text = d.to_string();
    assert!(text.contains("no feasible clock schedule at cycle time 100"));
    assert!(
        text.contains("L2R (eq. 19)"),
        "missing paper label:\n{text}"
    );
    assert!(text.contains("`L4`") && text.contains("`L1`"));
    assert!(text.contains("φ1") && text.contains("φ2"));
    assert!(text.contains("cycle time capped at 100"));

    // The reported IIS is verified minimal against a fresh model: it is
    // infeasible in isolation and every single-member removal is feasible.
    let opts = ConstraintOptions {
        max_cycle: Some(100.0),
        ..Default::default()
    };
    let model = TimingModel::build_with(&circuit, &opts).unwrap();
    let rows = report.rows();
    assert_eq!(
        model.problem().restricted(&rows).solve().unwrap().status(),
        Status::Infeasible
    );
    for i in 0..rows.len() {
        let mut rest = rows.clone();
        rest.remove(i);
        assert_ne!(
            model.problem().restricted(&rest).solve().unwrap().status(),
            Status::Infeasible,
            "IIS member {i} is redundant"
        );
    }
}

#[test]
fn overconstrained_example2_reports_certified_conflict() {
    let circuit = paper::example2();
    let free = match diagnose(&circuit, None).unwrap() {
        Diagnosis::Feasible { min_cycle } => min_cycle,
        Diagnosis::Infeasible(_) => panic!("plain SMO model must be feasible"),
    };
    let cap = 0.8 * free;
    let d = diagnose(&circuit, Some(cap)).unwrap();
    let report = d.report().expect("80% of the optimum is infeasible");
    assert!(report.certified);
    assert!(report.involves(ConstraintKind::CycleBound));
    assert!(report.constraints.len() >= 2, "a cap alone is never an IIS");
    let json = d.to_json();
    assert!(json.contains("\"feasible\": false"));
    assert!(json.contains("\"certified\": true"));
    assert!(json.contains("\"iis\": ["));
}

#[test]
fn achievable_targets_stay_feasible() {
    let circuit = paper::example1(80.0);
    match diagnose(&circuit, Some(110.0)).unwrap() {
        Diagnosis::Feasible { min_cycle } => assert!((min_cycle - 110.0).abs() < 1e-6),
        Diagnosis::Infeasible(r) => panic!("Tc ≤ 110 is exactly achievable:\n{r}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For randomly generated circuits made infeasible by an impossible
    /// cycle-time cap, the extracted IIS is (a) infeasible re-solved in
    /// isolation and (b) minimal: removing any one member makes the
    /// remaining subsystem feasible. The solver's Farkas certificate also
    /// re-verifies independently.
    #[test]
    fn prop_iis_is_minimal_and_infeasible(
        phases in 1usize..=4,
        latches in 2usize..=7,
        edges in 3usize..=12,
        seed in 0u64..1000,
    ) {
        let cfg = GenConfig { phases, latches, edges, ..Default::default() };
        let circuit = random_circuit(&cfg, seed);
        let free = TimingModel::build(&circuit)
            .expect("model builds")
            .solve_lp()
            .expect("plain SMO model is feasible")
            .objective();
        prop_assume!(free > 1e-6);

        let opts = ConstraintOptions { max_cycle: Some(0.8 * free), ..Default::default() };
        let model = TimingModel::build_with(&circuit, &opts).expect("model builds");
        let p = model.problem();

        let sol = p.solve().expect("solver runs");
        prop_assert_eq!(sol.status(), Status::Infeasible);
        let y = sol.farkas().expect("infeasible solves carry a certificate");
        prop_assert!(certifies_infeasibility(p, y), "certificate fails to verify");

        let iis = extract_iis(p).expect("solver runs").expect("model is infeasible");
        let rows = iis.rows().to_vec();
        prop_assert!(!rows.is_empty());

        // (a) infeasible in isolation.
        prop_assert_eq!(
            p.restricted(&rows).solve().expect("solver runs").status(),
            Status::Infeasible
        );
        // (b) minimal: every single-member removal is feasible.
        for i in 0..rows.len() {
            let mut rest = rows.clone();
            rest.remove(i);
            prop_assert!(
                p.restricted(&rest).solve().expect("solver runs").status() != Status::Infeasible,
                "IIS member {} of {} is redundant", i, rows.len()
            );
        }
    }
}
