//! The immutable, validated circuit.

use crate::clock::ClockSpec;
use crate::error::CircuitError;
use crate::graph::{self, Cycle, Edge, EdgeId};
use crate::ids::{LatchId, PhaseId};
use crate::matrix::BoolMatrix;
use crate::sync::{SyncKind, Synchronizer};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A validated latch-controlled synchronous circuit (§III, Fig. 1): a set of
/// synchronizers interconnected by combinational delay edges, under a
/// k-phase clock.
///
/// Construct through [`CircuitBuilder`](crate::CircuitBuilder) or
/// [`netlist::parse`](crate::netlist::parse). The structure is immutable
/// after construction, so derived data (fan-in/fan-out adjacency) is computed
/// once and shared.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Circuit {
    clock: ClockSpec,
    syncs: Vec<Synchronizer>,
    edges: Vec<Edge>,
    fanin: Vec<Vec<EdgeId>>,
    fanout: Vec<Vec<EdgeId>>,
}

impl Circuit {
    pub(crate) fn from_parts(clock: ClockSpec, syncs: Vec<Synchronizer>, edges: Vec<Edge>) -> Self {
        let mut fanin = vec![Vec::new(); syncs.len()];
        let mut fanout = vec![Vec::new(); syncs.len()];
        for (i, e) in edges.iter().enumerate() {
            fanout[e.from.index()].push(EdgeId(i));
            fanin[e.to.index()].push(EdgeId(i));
        }
        Circuit {
            clock,
            syncs,
            edges,
            fanin,
            fanout,
        }
    }

    /// The clock specification.
    pub fn clock(&self) -> ClockSpec {
        self.clock
    }

    /// Number of clock phases `k`.
    pub fn num_phases(&self) -> usize {
        self.clock.num_phases()
    }

    /// Total number of synchronizers `l` (latches plus flip-flops).
    pub fn num_syncs(&self) -> usize {
        self.syncs.len()
    }

    /// Number of level-sensitive latches.
    pub fn num_latches(&self) -> usize {
        self.syncs.iter().filter(|s| s.is_latch()).count()
    }

    /// Number of edge-triggered flip-flops.
    pub fn num_flip_flops(&self) -> usize {
        self.syncs.iter().filter(|s| !s.is_latch()).count()
    }

    /// Number of combinational edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The synchronizer with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn sync(&self, id: LatchId) -> &Synchronizer {
        &self.syncs[id.index()]
    }

    /// Iterates over `(id, synchronizer)` pairs in id order.
    pub fn syncs(&self) -> impl Iterator<Item = (LatchId, &Synchronizer)> {
        self.syncs
            .iter()
            .enumerate()
            .map(|(i, s)| (LatchId::new(i), s))
    }

    /// Iterates over the synchronizer ids.
    pub fn latch_ids(&self) -> impl Iterator<Item = LatchId> {
        (0..self.syncs.len()).map(LatchId::new)
    }

    /// Looks a synchronizer up by name.
    pub fn find(&self, name: &str) -> Option<LatchId> {
        self.syncs
            .iter()
            .position(|s| s.name == name)
            .map(LatchId::new)
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// All combinational edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// This circuit with every edge's long-path delay replaced by
    /// `delays[e]` (edge order). A short-path delay above its new
    /// long-path delay is lowered to it, keeping `min ≤ max`.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidEdgeDelay`] for a negative or non-finite
    /// delay.
    ///
    /// # Panics
    ///
    /// Panics if `delays.len() != self.num_edges()`.
    pub fn with_max_delays(&self, delays: &[f64]) -> Result<Circuit, CircuitError> {
        assert_eq!(delays.len(), self.edges.len(), "one delay per edge");
        let mut out = self.clone();
        for (e, &d) in out.edges.iter_mut().zip(delays) {
            if !d.is_finite() || d < 0.0 {
                return Err(CircuitError::InvalidEdgeDelay {
                    from: self.syncs[e.from.index()].name.clone(),
                    to: self.syncs[e.to.index()].name.clone(),
                    reason: format!("max delay {d} must be finite and non-negative"),
                });
            }
            e.max_delay = d;
            e.min_delay = e.min_delay.min(d);
        }
        Ok(out)
    }

    /// Ids of the edges arriving at `id`'s data input.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn fanin(&self, id: LatchId) -> &[EdgeId] {
        &self.fanin[id.index()]
    }

    /// Ids of the edges departing from `id`'s data output.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn fanout(&self, id: LatchId) -> &[EdgeId] {
        &self.fanout[id.index()]
    }

    /// The largest fan-in of any synchronizer — `F` in the paper's
    /// constraint-count bound `4k + (F+1)·l` (§IV).
    pub fn max_fanin(&self) -> usize {
        self.fanin.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The paper's `K` matrix (eq. 2): `K[i][j]` is `true` iff `φ_i/φ_j` is
    /// an input/output phase pair of some combinational block, i.e. some edge
    /// runs from a synchronizer on `φ_i` to one on `φ_j`.
    pub fn k_matrix(&self) -> BoolMatrix {
        let mut k = BoolMatrix::new(self.num_phases());
        for e in &self.edges {
            let pi = self.sync(e.from).phase.index();
            let pj = self.sync(e.to).phase.index();
            k.set(pi, pj, true);
        }
        k
    }

    /// The distinct input/output phase pairs `(φ_i, φ_j)` (source, dest).
    pub fn io_phase_pairs(&self) -> Vec<(PhaseId, PhaseId)> {
        self.k_matrix()
            .ones()
            .map(|(i, j)| (PhaseId::new(i), PhaseId::new(j)))
            .collect()
    }

    /// `true` if any directed cycle passes through the synchronizer graph.
    pub fn has_feedback(&self) -> bool {
        let adj = self.adjacency();
        graph::strongly_connected_components(&adj)
            .iter()
            .any(|c| c.len() > 1 || (c.len() == 1 && adj[c[0]].contains(&c[0])))
    }

    /// Enumerates elementary feedback cycles, at most `limit` of them.
    ///
    /// Cycle counts can be exponential; `limit` bounds the work. The result
    /// is intended for diagnostics (e.g. reporting which loop makes a
    /// schedule infeasible).
    pub fn cycles(&self, limit: usize) -> Vec<Cycle> {
        let adj = self.adjacency();
        let mut out = Vec::new();
        for comp in graph::strongly_connected_components(&adj) {
            if out.len() >= limit {
                break;
            }
            let is_loop = comp.len() > 1 || adj[comp[0]].contains(&comp[0]);
            if !is_loop {
                continue;
            }
            for cyc in graph::enumerate_cycles(&adj, &comp, limit - out.len()) {
                out.push(Cycle {
                    latches: cyc.into_iter().map(LatchId::new).collect(),
                });
            }
        }
        out
    }

    /// Strongly connected components of the synchronizer graph, in reverse
    /// topological order (each component's members are in discovery order).
    ///
    /// Singleton components without a self-loop are returned too; use
    /// [`Circuit::has_feedback`] or check for a self-edge to distinguish
    /// cyclic components.
    pub fn sccs(&self) -> Vec<Vec<LatchId>> {
        graph::strongly_connected_components(&self.adjacency())
            .into_iter()
            .map(|comp| comp.into_iter().map(LatchId::new).collect())
            .collect()
    }

    /// Adjacency list over synchronizer indices (parallel edges deduplicated).
    fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.syncs.len()];
        for e in &self.edges {
            let (f, t) = (e.from.index(), e.to.index());
            if !adj[f].contains(&t) {
                adj[f].push(t);
            }
        }
        adj
    }

    /// Sum of all long-path delays around a cycle, including latch
    /// propagation delays — the numerator of the paper's "average delay
    /// around the loop" bound (§V, Example 1 discussion).
    ///
    /// Uses, for each hop, the *maximum* delay among parallel edges.
    ///
    /// # Panics
    ///
    /// Panics if the cycle's consecutive synchronizers are not connected.
    pub fn cycle_delay(&self, cycle: &Cycle) -> f64 {
        let n = cycle.latches.len();
        let mut total = 0.0;
        for i in 0..n {
            let from = cycle.latches[i];
            let to = cycle.latches[(i + 1) % n];
            let delay = self
                .fanout(from)
                .iter()
                .map(|&e| self.edge(e))
                .filter(|e| e.to == to)
                .map(|e| e.max_delay)
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(
                delay.is_finite(),
                "cycle hop {from} → {to} has no edge in the circuit"
            );
            total += delay + self.sync(from).dq;
        }
        total
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit: {} phases, {} latches, {} flip-flops, {} edges",
            self.num_phases(),
            self.num_latches(),
            self.num_flip_flops(),
            self.num_edges()
        )?;
        for (id, s) in self.syncs() {
            writeln!(f, "  {id}: {s}")?;
        }
        for e in &self.edges {
            writeln!(f, "  {e}")?;
        }
        Ok(())
    }
}

/// Returns the number of synchronizers of each kind, used by reports.
impl Circuit {
    /// `(latches, flip_flops)` counts.
    pub fn kind_counts(&self) -> (usize, usize) {
        let l = self.num_latches();
        (l, self.num_syncs() - l)
    }

    /// Iterates over synchronizers controlled by `phase`.
    pub fn syncs_on_phase(&self, phase: PhaseId) -> impl Iterator<Item = LatchId> + '_ {
        self.syncs()
            .filter(move |(_, s)| s.phase == phase)
            .map(|(id, _)| id)
    }

    /// `true` when some synchronizer of kind `kind` exists.
    pub fn has_kind(&self, kind: SyncKind) -> bool {
        self.syncs.iter().any(|s| s.kind == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;

    fn p(n: usize) -> PhaseId {
        PhaseId::from_number(n)
    }

    /// The paper's Example 1 topology (Fig. 5): four latches alternating
    /// between two phases, in a single loop.
    fn example1_like() -> Circuit {
        let mut b = CircuitBuilder::new(2);
        let l1 = b.add_latch("L1", p(1), 10.0, 10.0);
        let l2 = b.add_latch("L2", p(2), 10.0, 10.0);
        let l3 = b.add_latch("L3", p(1), 10.0, 10.0);
        let l4 = b.add_latch("L4", p(2), 10.0, 10.0);
        b.connect(l1, l2, 20.0);
        b.connect(l2, l3, 20.0);
        b.connect(l3, l4, 60.0);
        b.connect(l4, l1, 80.0);
        b.build().unwrap()
    }

    #[test]
    fn k_matrix_captures_io_pairs() {
        let c = example1_like();
        let k = c.k_matrix();
        assert!(k.get(0, 1)); // φ1 → φ2 (L1→L2, L3→L4)
        assert!(k.get(1, 0)); // φ2 → φ1 (L2→L3, L4→L1)
        assert!(!k.get(0, 0));
        assert!(!k.get(1, 1));
        assert_eq!(c.io_phase_pairs().len(), 2);
    }

    #[test]
    fn fanin_fanout_are_consistent() {
        let c = example1_like();
        for id in c.latch_ids() {
            assert_eq!(c.fanin(id).len(), 1);
            assert_eq!(c.fanout(id).len(), 1);
        }
        assert_eq!(c.max_fanin(), 1);
        let e = c.edge(c.fanout(LatchId::new(3))[0]);
        assert_eq!(e.to, LatchId::new(0));
        assert_eq!(e.max_delay, 80.0);
    }

    #[test]
    fn feedback_and_cycles_detected() {
        let c = example1_like();
        assert!(c.has_feedback());
        let cycles = c.cycles(10);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].latches.len(), 4);
        // loop delay: 20+20+60+80 combinational + 4×10 latch = 220
        assert_eq!(c.cycle_delay(&cycles[0]), 220.0);
    }

    #[test]
    fn pipeline_has_no_feedback() {
        let mut b = CircuitBuilder::new(2);
        let a = b.add_latch("A", p(1), 1.0, 1.0);
        let c2 = b.add_latch("B", p(2), 1.0, 1.0);
        b.connect(a, c2, 5.0);
        let c = b.build().unwrap();
        assert!(!c.has_feedback());
        assert!(c.cycles(10).is_empty());
    }

    #[test]
    fn with_max_delays_replaces_long_paths_only() {
        let mut b = CircuitBuilder::new(2);
        let a = b.add_latch("A", p(1), 1.0, 1.0);
        let c2 = b.add_latch("B", p(2), 1.0, 1.0);
        b.connect_min_max(a, c2, 4.0, 5.0);
        b.connect(c2, a, 2.0);
        let c = b.build().unwrap();
        let d = c.with_max_delays(&[3.0, 7.0]).unwrap();
        assert_eq!(d.edges()[0].max_delay, 3.0);
        assert_eq!(d.edges()[0].min_delay, 3.0); // lowered to keep min ≤ max
        assert_eq!(d.edges()[1].max_delay, 7.0);
        assert_eq!(d.fanin(a), c.fanin(a));
        assert!(matches!(
            c.with_max_delays(&[-1.0, 2.0]),
            Err(CircuitError::InvalidEdgeDelay { .. })
        ));
    }

    #[test]
    fn find_by_name() {
        let c = example1_like();
        assert_eq!(c.find("L3"), Some(LatchId::new(2)));
        assert_eq!(c.find("nope"), None);
    }

    #[test]
    fn syncs_on_phase_filters() {
        let c = example1_like();
        let on1: Vec<_> = c.syncs_on_phase(p(1)).collect();
        assert_eq!(on1, vec![LatchId::new(0), LatchId::new(2)]);
    }

    #[test]
    fn parallel_edges_use_max_in_cycle_delay() {
        let mut b = CircuitBuilder::new(2);
        let a = b.add_latch("A", p(1), 1.0, 1.0);
        let c2 = b.add_latch("B", p(2), 1.0, 1.0);
        b.connect(a, c2, 5.0);
        b.connect(a, c2, 9.0);
        b.connect(c2, a, 2.0);
        let c = b.build().unwrap();
        let cycles = c.cycles(10);
        assert_eq!(cycles.len(), 1);
        // 9 (max of 5,9) + 2 + two latch dq of 1
        assert_eq!(c.cycle_delay(&cycles[0]), 13.0);
    }

    #[test]
    fn self_loop_counts_as_feedback() {
        let mut b = CircuitBuilder::new(2);
        let a = b.add_latch("A", p(1), 1.0, 1.0);
        b.connect(a, a, 5.0);
        let c = b.build().unwrap();
        assert!(c.has_feedback());
        assert_eq!(c.cycles(10).len(), 1);
    }

    #[test]
    fn display_summarizes() {
        let c = example1_like();
        let s = c.to_string();
        assert!(s.contains("2 phases"));
        assert!(s.contains("4 latches"));
    }

    #[test]
    fn serde_round_trip() {
        let c = example1_like();
        let json = serde_json_like(&c);
        assert!(json.contains("L1"));
    }

    /// Tiny smoke check that Serialize is derivable without pulling in a
    /// JSON crate: serialize into the debug formatter of the serde data
    /// model via a no-op. (Full round-trip testing happens in integration
    /// tests with the netlist format, which is our canonical file format.)
    fn serde_json_like(c: &Circuit) -> String {
        // The netlist writer is the practical serialization path.
        crate::netlist::write(c)
    }
}
