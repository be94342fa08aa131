//! Seed determinism of the generated inputs and the request sequence.

use perfbench::inputs::{
    analysis_designs, probe_cycle_time, rename, serve_designs, solve_designs, Rng, ServeKind,
    ServeStream, SOLVE_POOL,
};
use smo_api::{parse_netlist, ParseLimits};
use smo_circuit::netlist;
use smo_core::{min_cycle_time_with, Backend, MlpOptions};
use smo_gen::datapath::{pipelined_datapath, DatapathConfig};
use std::collections::{BTreeMap, HashSet};

#[test]
fn rng_is_a_fixed_function_of_seed_and_stream() {
    let draw = |seed, stream| {
        let mut r = Rng::new(seed, stream);
        (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
    };
    assert_eq!(draw(1, "a"), draw(1, "a"));
    assert_ne!(draw(1, "a"), draw(2, "a"));
    assert_ne!(draw(1, "a"), draw(1, "b"));
    // Pinned: the same seed must mean the same inputs on every machine.
    assert_eq!(Rng::new(0, "").next_u64(), 1_156_539_639_830_188_822);
}

#[test]
fn design_orders_are_seeded_permutations_of_fixed_sets() {
    assert_eq!(solve_designs(5), solve_designs(5));
    assert_eq!(analysis_designs(5), analysis_designs(5));
    let mut seeds: Vec<u64> = solve_designs(5).iter().map(|d| d.gen_seed).collect();
    seeds.sort_unstable();
    assert_eq!(seeds, SOLVE_POOL.to_vec());
    let orders: HashSet<Vec<u64>> = (0..20)
        .map(|s| solve_designs(s).iter().map(|d| d.gen_seed).collect())
        .collect();
    assert!(orders.len() > 10, "the seed must change the solve order");
    assert_eq!(serve_designs(), serve_designs());
    let d = solve_designs(1)[0];
    assert_eq!(
        d.gen_args("x.ckt"),
        [
            "gen",
            "--stages",
            "15",
            "--width",
            "223",
            "--seed",
            &d.gen_seed.to_string(),
            "--out",
            "x.ckt"
        ]
    );
}

#[test]
fn request_streams_repeat_per_seed_and_client() {
    let take = |seed, client| ServeStream::new(seed, client).take(500).collect::<Vec<_>>();
    assert_eq!(take(3, 0), take(3, 0));
    assert_ne!(take(3, 0), take(4, 0));
    assert_ne!(take(3, 0), take(3, 1));
    // Ids are unique across clients, so every fresh variant is new bytes.
    let ids: HashSet<String> = (0..2).flat_map(|c| take(3, c)).map(|op| op.id).collect();
    assert_eq!(ids.len(), 1000);
}

#[test]
fn request_mix_matches_its_documented_shares() {
    let ops: Vec<_> = ServeStream::new(9, 0).take(20_000).collect();
    let mut counts: BTreeMap<ServeKind, usize> = BTreeMap::new();
    for op in &ops {
        *counts.entry(op.kind).or_default() += 1;
        match op.kind {
            ServeKind::ProbeFeasible | ServeKind::ProbeInfeasible => {
                assert!((0.002..0.05).contains(&op.margin));
            }
            _ => assert_eq!(op.margin, 0.0),
        }
    }
    let share = |k| counts[&k] as f64 / ops.len() as f64;
    for (kind, want) in [
        (ServeKind::SolveHit, 0.25),
        (ServeKind::SolveMiss, 0.25),
        (ServeKind::ProbeFeasible, 0.20),
        (ServeKind::ProbeInfeasible, 0.20),
        (ServeKind::Check, 0.10),
    ] {
        assert!(
            (share(kind) - want).abs() < 0.015,
            "{kind:?}: {}",
            share(kind)
        );
    }
    let tc_star = 50.0;
    for op in &ops {
        let tc = probe_cycle_time(op, tc_star);
        match op.kind {
            ServeKind::ProbeFeasible => assert!(tc > tc_star),
            ServeKind::ProbeInfeasible => assert!(tc < tc_star),
            _ => {}
        }
    }
}

#[test]
fn rename_changes_bytes_but_not_the_circuit() {
    let config = DatapathConfig {
        stages: 4,
        width: 6,
        ..Default::default()
    };
    let text = netlist::write(&pipelined_datapath(&config, 11));
    let renamed = rename(&text, "c0n7_");
    assert_ne!(text, renamed);
    assert_eq!(rename(&text, "c0n7_"), renamed);
    let a = parse_netlist(&text, &ParseLimits::default()).unwrap();
    let b = parse_netlist(&renamed, &ParseLimits::default()).unwrap();
    assert_eq!(a.num_syncs(), b.num_syncs());
    assert_eq!(a.num_edges(), b.num_edges());
    assert!(b.syncs().all(|(_, s)| s.name.starts_with("c0n7_")));
    let auto = MlpOptions {
        backend: Backend::Auto,
        ..Default::default()
    };
    let ta = min_cycle_time_with(&a, &auto).unwrap().cycle_time();
    let tb = min_cycle_time_with(&b, &auto).unwrap().cycle_time();
    assert_eq!(ta.to_bits(), tb.to_bits());
}
