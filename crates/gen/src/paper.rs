//! The circuits of the paper's examples (§V and appendix).
//!
//! Where the paper does not give a machine-readable netlist (Example 2's
//! block diagram, Example 3's SPICE-extracted delays) the circuits here are
//! documented reconstructions; see DESIGN.md ("Substitutions") for what is
//! preserved.

use smo_circuit::{Circuit, CircuitBuilder, LatchId, PhaseId};

fn p(n: usize) -> PhaseId {
    PhaseId::from_number(n)
}

/// Example 1 (Fig. 5): a two-stage system connected in a loop, controlled by
/// a two-phase clock. All latches have setup and propagation delays of
/// 10 ns; the combinational blocks are `La = 20`, `Lb = 20`, `Lc = 60` and
/// `Ld = delta41` (the paper sweeps Δ41 to produce Figs. 6 and 7).
///
/// Latch numbering matches the paper: L1, L3 on φ1; L2, L4 on φ2;
/// edges L1→L2 (La), L2→L3 (Lb), L3→L4 (Lc), L4→L1 (Ld).
///
/// # Panics
///
/// Panics if `delta41` is negative or non-finite.
pub fn example1(delta41: f64) -> Circuit {
    let mut b = CircuitBuilder::new(2);
    let l1 = b.add_latch("L1", p(1), 10.0, 10.0);
    let l2 = b.add_latch("L2", p(2), 10.0, 10.0);
    let l3 = b.add_latch("L3", p(1), 10.0, 10.0);
    let l4 = b.add_latch("L4", p(2), 10.0, 10.0);
    b.connect(l1, l2, 20.0);
    b.connect(l2, l3, 20.0);
    b.connect(l3, l4, 60.0);
    b.connect(l4, l1, delta41);
    b.build().expect("example 1 is structurally valid")
}

/// The edge index of `Δ41` (block `Ld`) within [`example1`], for parametric
/// studies.
pub const EXAMPLE1_DELTA41_EDGE: usize = 3;

/// A stand-in for Example 2 (Fig. 8): a "more complicated" four-phase
/// circuit with two coupled feedback loops sharing a segment, built so that
/// (like the paper's) its optimal schedule involves heavy, unevenly
/// distributed time borrowing — which is exactly what the NRIP-like
/// symmetric baseline cannot express, producing a large gap (the paper
/// reports 35 %).
///
/// Structure (all synchronizers are latches, setup = dq = 2 ns):
///
/// ```text
/// loop 1 (one cycle):  A1(φ1) --2--> A2(φ2) --17--> A3(φ3) --2--> A4(φ4) --2--> A1
/// loop 2 (two cycles): A2(φ2) --17--> A3(φ3) --19--> D(φ2) --20--> A2
/// feeder: B1(φ1) --3--> A2      tail: A4(φ4) --5--> C1(φ1)
/// ```
///
/// The two loops share the `A2 → A3` segment but want *different* spacings
/// of φ2/φ3 and rely on time borrowing through the shared latches, so both
/// zero-borrowing and evenly spaced clocks are forced well above the
/// optimum — the mechanism behind the paper's 35 % NRIP gap.
pub fn example2() -> Circuit {
    let mut b = CircuitBuilder::new(4);
    let a1 = b.add_latch("A1", p(1), 2.0, 2.0);
    let a2 = b.add_latch("A2", p(2), 2.0, 2.0);
    let a3 = b.add_latch("A3", p(3), 2.0, 2.0);
    let a4 = b.add_latch("A4", p(4), 2.0, 2.0);
    let d = b.add_latch("D", p(2), 2.0, 2.0);
    let b1 = b.add_latch("B1", p(1), 2.0, 2.0);
    let c1 = b.add_latch("C1", p(1), 2.0, 2.0);
    b.connect(a1, a2, 2.0);
    b.connect(a2, a3, 17.0);
    b.connect(a3, a4, 2.0);
    b.connect(a4, a1, 2.0);
    b.connect(a3, d, 19.0);
    b.connect(d, a2, 20.0);
    b.connect(b1, a2, 3.0);
    b.connect(a4, c1, 5.0);
    b.build().expect("example 2 is structurally valid")
}

/// A combinational block of the GaAs MIPS datapath with its transistor
/// count (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatapathBlock {
    /// Block name as printed in Table I.
    pub name: &'static str,
    /// Transistor count as printed in Table I.
    pub transistors: u32,
}

/// The rows of Table I ("Transistor count for major blocks of the GaAs MIPS
/// datapath"), including the total.
pub const GAAS_BLOCKS: &[DatapathBlock] = &[
    DatapathBlock {
        name: "Register File (RF)",
        transistors: 16_085,
    },
    DatapathBlock {
        name: "Arithmetic/Logic Unit (ALU)",
        transistors: 3_419,
    },
    DatapathBlock {
        name: "Shifter",
        transistors: 1_848,
    },
    DatapathBlock {
        name: "Integer Multiply/Divide (IMD)",
        transistors: 6_874,
    },
    DatapathBlock {
        name: "Load Aligner",
        transistors: 1_922,
    },
];

/// The total transistor count printed in Table I.
pub const GAAS_TOTAL_TRANSISTORS: u32 = 30_148;

/// Example 3 (Fig. 10): a timing model of the 250-MHz GaAs MIPS
/// microcomputer datapath with its primary caches.
///
/// The paper's model has 18 synchronizing elements — 15 level-sensitive
/// latches and 3 flip-flops, each standing for a 32-bit bus — under a
/// three-phase clock, with delays extracted from SPICE. Those delays are
/// not published, so this reconstruction (DESIGN.md, substitution 3) uses
/// GaAs-plausible values chosen to preserve the reported behaviour:
///
/// * the optimal cycle time lands near the paper's **4.4 ns**, about 10 %
///   above the 4-ns target;
/// * φ3 is the register-file **precharge** phase and is completely
///   overlapped by φ1 in the optimal schedule, which is legal because there
///   are no direct φ1↔φ3 paths (`K13 = K31 = 0`);
/// * the caches are 1K×32 SRAMs on the same multichip module.
pub fn gaas_mips() -> Circuit {
    let mut b = CircuitBuilder::new(3);
    // Latch parameters: fast GaAs latches, setup 0.15 ns, D→Q 0.20 ns.
    let lat = |b: &mut CircuitBuilder, name: &str, ph: usize| -> LatchId {
        b.add_latch(name, p(ph), 0.15, 0.20)
    };
    let ff = |b: &mut CircuitBuilder, name: &str, ph: usize| -> LatchId {
        b.add_flip_flop(name, p(ph), 0.15, 0.25)
    };

    // --- instruction side -------------------------------------------------
    let pc = ff(&mut b, "pc", 1); // program counter (F/F)
    let iaddr = lat(&mut b, "icache_addr", 2);
    let instr = lat(&mut b, "instr", 1); // instruction register
    let npc = lat(&mut b, "next_pc", 2);

    // --- register file ----------------------------------------------------
    let rf_waddr = lat(&mut b, "rf_waddr", 1);
    let rf_cell = lat(&mut b, "rf_cell", 2); // storage state (write port)
    let rf_prech = lat(&mut b, "rf_precharge", 3); // precharge enable
    let op_a = lat(&mut b, "op_a", 1);
    let op_b = lat(&mut b, "op_b", 1);

    // --- execute ------------------------------------------------------------
    let alu_out = lat(&mut b, "alu_out", 2);
    let sh_out = lat(&mut b, "shift_out", 2);
    let imd_in = lat(&mut b, "imd_in", 1);
    let imd_out = lat(&mut b, "imd_out", 2);
    let psw = ff(&mut b, "psw", 1); // processor status (F/F)

    // --- memory side --------------------------------------------------------
    let daddr = lat(&mut b, "dcache_addr", 2);
    let ldata = lat(&mut b, "load_data", 1);
    let wb = lat(&mut b, "writeback", 2);
    let brcond = ff(&mut b, "branch_cond", 1); // branch decision (F/F)

    // --- paths (delays in ns) ----------------------------------------------
    // pc & instruction fetch: pc → +4/branch mux → icache address latch
    b.connect(pc, iaddr, 0.90);
    b.connect(brcond, iaddr, 0.85);
    // icache access (1K×32 GaAs SRAM on the MCM): address → instruction reg
    b.connect(iaddr, instr, 3.15);
    // next-pc adder and pc update
    b.connect(pc, npc, 1.35);
    b.connect(npc, pc, 0.55);
    // decode: instruction → register addresses / imd input / write address
    b.connect(instr, rf_waddr, 1.05);
    b.connect(instr, imd_in, 1.15);
    // register file read: storage → operand latches (decode + read ~ 1.5)
    b.connect(rf_cell, op_a, 2.20);
    b.connect(rf_cell, op_b, 2.20);
    b.connect(instr, op_a, 1.65); // bypass/immediate path
                                  // precharge loop: write port state → precharge enable → storage
    b.connect(rf_cell, rf_prech, 0.60);
    b.connect(rf_prech, rf_cell, 0.75);
    // execute: operands → ALU / shifter / psw flags
    b.connect(op_a, alu_out, 2.70);
    b.connect(op_b, alu_out, 2.70);
    b.connect(op_a, sh_out, 2.25);
    b.connect(op_b, sh_out, 2.25);
    b.connect(op_a, psw, 2.90);
    b.connect(op_b, brcond, 2.85);
    // integer multiply/divide (one iteration per cycle)
    b.connect(imd_in, imd_out, 3.25);
    b.connect(imd_out, imd_in, 0.75);
    // memory: ALU result → dcache address → load data (1K×32 SRAM)
    b.connect(alu_out, daddr, 0.55);
    b.connect(daddr, ldata, 3.15);
    // load aligner and writeback mux
    b.connect(ldata, wb, 1.45);
    b.connect(alu_out, wb, 0.75);
    b.connect(sh_out, wb, 0.75);
    b.connect(imd_out, wb, 0.75);
    // register write: writeback bus + write address → storage
    b.connect(wb, rf_cell, 1.30);
    b.connect(rf_waddr, rf_cell, 1.20);

    b.build()
        .expect("the GaAs MIPS model is structurally valid")
}

/// The paper's cycle-time target for the GaAs MIPS (250 MHz ⇒ 4 ns).
pub const GAAS_TARGET_CYCLE_NS: f64 = 4.0;

/// The optimal cycle time the paper reports for its Example 3 model
/// (10 % above the target).
pub const GAAS_PAPER_OPTIMAL_NS: f64 = 4.4;

/// The appendix circuit (Fig. 1): 11 latches under a four-phase clock.
///
/// Phase assignment follows the appendix setup constraints
/// (φ1: L1, L2, L8; φ2: L6, L7, L11; φ3: L4, L5, L10; φ4: L3, L9) and the
/// edges follow the propagation constraints. The appendix lists nine phase
/// pairs including `S43`, but the printed propagation constraints contain
/// no φ4→φ3 term (almost certainly a typesetting drop); we restore the
/// missing edge as L3→L10, which also gives L3 the fan-out Fig. 1 shows.
///
/// `delay` is used for every combinational block, `setup`/`dq` for every
/// latch (the appendix is symbolic; any positive values are faithful).
pub fn appendix_fig1(delay: f64, setup: f64, dq: f64) -> Circuit {
    let mut b = CircuitBuilder::new(4);
    let phases = [1usize, 1, 4, 3, 3, 2, 2, 1, 4, 3, 2];
    let ids: Vec<LatchId> = phases
        .iter()
        .enumerate()
        .map(|(i, &ph)| b.add_latch(format!("L{}", i + 1), p(ph), setup, dq))
        .collect();
    let l = |n: usize| ids[n - 1];
    // (source, dest) pairs from the appendix propagation constraints
    let edges = [
        (4, 2),
        (5, 2),
        (8, 3),
        (1, 4),
        (2, 4),
        (6, 5),
        (7, 5),
        (4, 6),
        (5, 6),
        (9, 7),
        (10, 7),
        (6, 8),
        (7, 8),
        (6, 9),
        (7, 9),
        (11, 10),
        (3, 10), // restored φ4→φ3 edge (see doc comment)
        (9, 11),
        (10, 11),
    ];
    for (src, dst) in edges {
        b.connect(l(src), l(dst), delay);
    }
    b.build()
        .expect("the appendix circuit is structurally valid")
}

/// The nine input/output phase pairs of the appendix circuit, as
/// `(source phase number, destination phase number)` in the order of the
/// appendix `S` listing.
pub const APPENDIX_PHASE_PAIRS: &[(usize, usize)] = &[
    (1, 3),
    (1, 4),
    (2, 1),
    (2, 3),
    (2, 4),
    (3, 1),
    (3, 2),
    (4, 2),
    (4, 3),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example1_matches_paper_structure() {
        let c = example1(80.0);
        assert_eq!(c.num_phases(), 2);
        assert_eq!(c.num_latches(), 4);
        assert_eq!(c.num_edges(), 4);
        assert_eq!(c.edges()[EXAMPLE1_DELTA41_EDGE].max_delay, 80.0);
        assert_eq!(c.max_fanin(), 1);
    }

    #[test]
    fn example2_has_two_coupled_loops() {
        let c = example2();
        assert_eq!(c.num_phases(), 4);
        assert!(c.has_feedback());
        // The loops share A2 → A3, so they fuse into one five-latch core
        // (A1–A4 and D); the feeder B1 and the tail C1 stay singletons.
        let cores: Vec<_> = c.sccs().into_iter().filter(|s| s.len() > 1).collect();
        assert_eq!(cores.len(), 1);
        assert_eq!(cores[0].len(), 5);
    }

    #[test]
    fn gaas_has_18_synchronizers_15_latches() {
        let c = gaas_mips();
        assert_eq!(c.num_phases(), 3);
        assert_eq!(c.num_syncs(), 18);
        assert_eq!(c.num_latches(), 15);
        assert_eq!(c.num_flip_flops(), 3);
    }

    #[test]
    fn gaas_has_no_phi1_phi3_paths() {
        let k = gaas_mips().k_matrix();
        assert!(!k.get(0, 2), "K13 must be 0 (paper, Example 3)");
        assert!(!k.get(2, 0), "K31 must be 0 (paper, Example 3)");
    }

    #[test]
    fn table1_counts_sum_to_total() {
        let sum: u32 = GAAS_BLOCKS.iter().map(|b| b.transistors).sum();
        assert_eq!(sum, GAAS_TOTAL_TRANSISTORS);
    }

    #[test]
    fn appendix_k_matrix_matches_paper() {
        let c = appendix_fig1(10.0, 1.0, 2.0);
        assert_eq!(c.num_latches(), 11);
        let k = c.k_matrix();
        let expected = [[0, 0, 1, 1], [1, 0, 1, 1], [1, 1, 0, 0], [0, 1, 1, 0]];
        for (i, row) in expected.iter().enumerate() {
            for (j, &want) in row.iter().enumerate() {
                assert_eq!(k.get(i, j), want == 1, "K[{}][{}] mismatch", i + 1, j + 1);
            }
        }
        assert_eq!(k.count_ones(), APPENDIX_PHASE_PAIRS.len());
    }

    #[test]
    fn appendix_latch_phases_match_setup_constraints() {
        let c = appendix_fig1(10.0, 1.0, 2.0);
        let expect = |names: &[usize], phase: usize| {
            for &n in names {
                let id = c.find(&format!("L{n}")).unwrap();
                assert_eq!(c.sync(id).phase.number(), phase, "L{n}");
            }
        };
        expect(&[1, 2, 8], 1);
        expect(&[6, 7, 11], 2);
        expect(&[4, 5, 10], 3);
        expect(&[3, 9], 4);
    }

    #[test]
    fn appendix_latch1_has_no_fanin() {
        let c = appendix_fig1(10.0, 1.0, 2.0);
        let l1 = c.find("L1").unwrap();
        assert!(c.fanin(l1).is_empty());
    }
}
