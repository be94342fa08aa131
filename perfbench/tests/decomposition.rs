//! The traced decomposition of `smo solve` against
//! `min_cycle_time_with(Auto)`, on a small generated circuit.

use perfbench::layers::Layers;
use perfbench::oracle::{agrees, certified_lp_cycle_time};
use perfbench::solve::{cli_options, render_solve_text, traced_solve, untraced_solve};
use perfbench::trace::{self_times, Tracer};
use smo_circuit::netlist;
use smo_core::min_cycle_time_with;
use smo_gen::datapath::{pipelined_datapath, DatapathConfig};
use std::path::PathBuf;

fn small_netlist(name: &str) -> (PathBuf, String) {
    let config = DatapathConfig {
        stages: 4,
        width: 8,
        ..Default::default()
    };
    let text = netlist::write(&pipelined_datapath(&config, 3));
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, &text).unwrap();
    (path, text)
}

#[test]
fn traced_solve_reproduces_min_cycle_time_with_auto() {
    let (path, text) = small_netlist("decomposition.ckt");
    let circuit = smo_api::parse_netlist(&text, &Default::default()).unwrap();
    let direct = min_cycle_time_with(&circuit, &cli_options()).unwrap();

    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let traced = traced_solve(&mut tracer, &mut layers, 1, &path).unwrap();
    // Same bytes as rendering the library answer, and as the untraced
    // in-process pipeline.
    assert_eq!(traced.text, render_solve_text(&circuit, &direct));
    assert_eq!(untraced_solve(&path).unwrap().1, traced.text);
    // The standalone Lawler search lands on the solve's cycle time.
    assert_eq!(traced.cycle_time.to_bits(), direct.cycle_time().to_bits());
    let lambda = traced.min_ratio_lambda.expect("optimal");
    assert!((lambda - direct.cycle_time()).abs() <= 1e-9 * lambda.abs());
    // The answer agrees with the certified LP oracle.
    assert!(agrees(
        traced.cycle_time,
        certified_lp_cycle_time(&text).unwrap(),
        6
    ));

    // Two span trees for request 1: the pipeline and the decomposition.
    let spans = tracer.spans();
    let children = |root: &str| -> Vec<&str> {
        let id = spans.iter().position(|s| s.name == root).unwrap();
        spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.name)
            .collect()
    };
    assert_eq!(
        children("cli.solve"),
        ["cli.read", "circuit.parse", "core.solve", "core.render"]
    );
    assert_eq!(
        children("decompose"),
        [
            "core.model",
            "core.classify",
            "lp.graph_build",
            "lp.min_ratio"
        ]
    );
    assert!(spans.iter().all(|s| s.request == 1));
    let selfs = self_times(spans);
    let root = spans.iter().position(|s| s.name == "cli.solve").unwrap();
    let kids: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(|s| s.duration_ns())
        .sum();
    assert_eq!(selfs[root], spans[root].duration_ns() - kids);

    // The layer split sums back to the pipeline: parse + solve + render,
    // with solve = model + classify + graph build + min ratio + assemble.
    let one = |name: &str| {
        let s = layers.samples(name);
        assert_eq!(s.len(), 1, "{name}");
        s[0]
    };
    let solve_ms = tracer.durations_ms("core.solve")[0];
    let split = one("core.model_ms")
        + one("core.classify_ms")
        + one("lp.graph_build_ms")
        + one("lp.min_ratio_ms")
        + one("core.assemble_ms");
    assert!((split - solve_ms).abs() < 1e-9);
    assert!(
        (one("circuit.parse_ms") + solve_ms + one("core.render_ms") - one("solve.pipeline_ms"))
            .abs()
            < 1e-9
    );
    assert_eq!(one("core.model_rows"), direct.num_constraints() as f64);
    assert_eq!(one("core.classify_general_rows"), 0.0);
    assert_eq!(
        one("core.update_iterations"),
        direct.update_iterations() as f64
    );
    assert_eq!(one("core.render_bytes"), traced.text.len() as f64);
    let gc = direct.graph_certificate().expect("graph path");
    assert_eq!(one("lp.min_ratio_witness_rows"), gc.witness_rows() as f64);
}
