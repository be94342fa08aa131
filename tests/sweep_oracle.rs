//! Oracle for pipeline sweeps: every run of `sweep_cycle_time` is a
//! default `min_cycle_time_with` solve of the perturbed circuit, so its
//! cycle time must equal the certified sparse-LU LP optimum of the same
//! perturbation applied to the base model's right-hand sides
//! ([`TimingModel::set_edge_delay`]) — an independent route to the same
//! number, with no graph solver and no netlist rebuild on the way.

mod common;

use smo::circuit::{Circuit, EdgeId};
use smo::gen::datapath::{pipelined_datapath, DatapathConfig};
use smo::gen::random::perturbed_delays;
use smo::lp::{RecoveryPolicy, SimplexVariant, Tol};
use smo::timing::{sweep_cycle_time, SweepOptions, SweepParam, TimingModel};

use common::{fastpath_batch, load_circuit};

/// Certified sparse-LU optimum of `model` with edge delays `delays`
/// written into its rows. Edges without a delay row do not reach the LP.
fn lp_tc(circuit: &Circuit, model: &TimingModel, delays: &[f64]) -> f64 {
    let mut m = model.clone();
    for (e, (edge, &d)) in circuit.edges().iter().zip(delays).enumerate() {
        let id = EdgeId::new(e);
        if d != edge.max_delay && m.edge_constraint(id).is_some() {
            m.set_edge_delay(id, edge.max_delay, d);
        }
    }
    let policy = RecoveryPolicy {
        variant: SimplexVariant::SparseLu,
        ..Default::default()
    };
    let (sol, cert) = m.solve_lp_certified(&policy).expect("perturbed LP solves");
    assert!(cert.is_valid(), "oracle LP did not certify: {cert}");
    sol.value(m.vars().tc())
}

fn assert_close(name: &str, what: &str, sweep: f64, oracle: f64) {
    assert!(
        Tol::TIGHT.is_zero(sweep - oracle, oracle.abs().max(1.0)),
        "{name} {what}: sweep Tc {sweep} vs LP oracle {oracle}"
    );
}

/// Sweeps `circuit` in both modes and checks the base and every run
/// against the LP oracle.
fn assert_sweep_matches_lp(name: &str, circuit: &Circuit, runs: usize) {
    let model = TimingModel::build(circuit).expect("model builds");
    let base: Vec<f64> = circuit.edges().iter().map(|e| e.max_delay).collect();
    // The Tc grid runs over the longest edge, up to twice its delay.
    let edge = (0..base.len())
        .max_by(|&a, &b| base[a].total_cmp(&base[b]))
        .expect("circuit has edges");
    let modes = [
        SweepParam::Delay { spread: 0.2 },
        SweepParam::Tc {
            edge: EdgeId::new(edge),
            max_delay: 2.0 * base[edge],
        },
    ];
    for param in modes {
        let options = SweepOptions {
            param: param.clone(),
            runs,
            seed: 5,
            ..Default::default()
        };
        let report = sweep_cycle_time(std::slice::from_ref(circuit), &options)
            .unwrap_or_else(|e| panic!("{name}: sweep failed: {e}"))
            .remove(0);
        assert!(report.certified, "{name}: {param:?} sweep not certified");
        assert_close(
            name,
            "base",
            report.base_cycle_time,
            lp_tc(circuit, &model, &base),
        );
        assert_eq!(report.runs.len(), runs);
        for run in &report.runs {
            let delays = match param {
                SweepParam::Delay { spread } => {
                    perturbed_delays(circuit, spread, options.seed + run.index as u64)
                }
                SweepParam::Tc { .. } => {
                    let mut d = base.clone();
                    d[edge] = run.value;
                    d
                }
            };
            let what = format!("{param:?} run {}", run.index);
            assert_close(name, &what, run.cycle_time, lp_tc(circuit, &model, &delays));
        }
    }
}

#[test]
fn sweeps_match_the_lp_on_every_shipped_netlist() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("circuits");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("circuits/ is readable")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckt"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 6, "shipped netlists missing: {paths:?}");
    for path in paths {
        let rel = format!("circuits/{}", path.file_name().unwrap().to_string_lossy());
        assert_sweep_matches_lp(&rel, &load_circuit(&rel), 6);
    }
}

#[test]
fn sweeps_match_the_lp_on_the_fastpath_batch() {
    for (i, circuit) in fastpath_batch().iter().enumerate() {
        assert_sweep_matches_lp(&format!("batch #{i}"), circuit, 3);
    }
}

/// The 655-row datapath shape `smo gen --stages 6 --width 36` emits.
#[test]
fn sweeps_match_the_lp_on_a_655_row_datapath() {
    let config = DatapathConfig {
        stages: 6,
        width: 36,
        ..Default::default()
    };
    let circuit = pipelined_datapath(&config, 2001);
    let rows = TimingModel::build(&circuit).unwrap().num_constraints();
    assert_eq!(rows, 655);
    assert_sweep_matches_lp("datapath s6w36 seed 2001", &circuit, 2);
}
