//! Shared analysis facts, computed once per circuit.
//!
//! Every lint pass used to recompute its own graph facts (SCCs,
//! reachability, connectivity) inline; [`AnalysisContext`] hoists them so
//! the pass framework computes each fact exactly once and every
//! [`Pass`](crate::passes::Pass) reads the same data.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use smo_circuit::{Circuit, LatchId, PhaseId};
use std::collections::BTreeMap;

/// Shared facts about one circuit: the graph decompositions and delay
/// summaries every pass may consult.
pub struct AnalysisContext<'c> {
    circuit: &'c Circuit,
    /// Per-synchronizer: member of a cyclic SCC (feedback core).
    in_cyclic: Vec<bool>,
    /// Per-synchronizer: reachable *from* some cyclic core.
    downstream: Vec<bool>,
    /// Per-synchronizer: reaches some cyclic core.
    upstream: Vec<bool>,
    /// Union-find root per synchronizer (weak connectivity).
    component: Vec<usize>,
    /// Deduplicated roots of components containing at least one edge.
    component_roots: Vec<usize>,
    /// Per-phase: controls at least one synchronizer.
    phase_used: Vec<bool>,
    /// Delay closure over parallel paths: for each ordered `(from, to)`
    /// pair, the edge indices plus the envelope
    /// `(min short_delay, max max_delay)` across them.
    pairs: BTreeMap<(usize, usize), PairDelays>,
}

/// The delay envelope of all parallel `from → to` edges.
#[derive(Debug, Clone, PartialEq)]
pub struct PairDelays {
    /// Indices into [`Circuit::edges`] in declaration order.
    pub edges: Vec<usize>,
    /// Smallest effective short-path delay across the parallel edges.
    pub short_delay: f64,
    /// Largest long-path delay across the parallel edges.
    pub max_delay: f64,
}

impl<'c> AnalysisContext<'c> {
    /// Computes every shared fact for `circuit`.
    pub fn new(circuit: &'c Circuit) -> Self {
        let n = circuit.num_syncs();

        // Feedback cores: SCCs of size > 1, or singletons with a self-edge.
        let mut in_cyclic = vec![false; n];
        for comp in circuit.sccs() {
            let cyclic = comp.len() > 1
                || comp.len() == 1 && {
                    let l = comp[0];
                    circuit.fanout(l).iter().any(|&e| {
                        let edge = &circuit.edges()[e.index()];
                        edge.to == l
                    })
                };
            if cyclic {
                for l in comp {
                    in_cyclic[l.index()] = true;
                }
            }
        }

        // Forward/backward reachability from the cyclic cores.
        let reach = |forward: bool| -> Vec<bool> {
            let mut seen = in_cyclic.clone();
            let mut stack: Vec<usize> = (0..n).filter(|&i| in_cyclic[i]).collect();
            while let Some(i) = stack.pop() {
                let id = LatchId::new(i);
                let edges = if forward {
                    circuit.fanout(id)
                } else {
                    circuit.fanin(id)
                };
                for &e in edges {
                    let edge = &circuit.edges()[e.index()];
                    let next = if forward { edge.to } else { edge.from };
                    if !seen[next.index()] {
                        seen[next.index()] = true;
                        stack.push(next.index());
                    }
                }
            }
            seen
        };
        let downstream = reach(true);
        let upstream = reach(false);

        // Weak connectivity by union-find with path halving.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        for e in circuit.edges() {
            let (a, b) = (
                find(&mut parent, e.from.index()),
                find(&mut parent, e.to.index()),
            );
            parent[a] = b;
        }
        let component: Vec<usize> = (0..n).map(|i| find(&mut parent, i)).collect();
        let mut component_roots: Vec<usize> = (0..n)
            .filter(|&i| {
                let id = LatchId::new(i);
                !(circuit.fanin(id).is_empty() && circuit.fanout(id).is_empty())
            })
            .map(|i| component[i])
            .collect();
        component_roots.sort_unstable();
        component_roots.dedup();

        // Phase usage.
        let phase_used = (0..circuit.num_phases())
            .map(|i| circuit.syncs_on_phase(PhaseId::new(i)).next().is_some())
            .collect();

        // Parallel-path delay closure.
        let mut pairs: BTreeMap<(usize, usize), PairDelays> = BTreeMap::new();
        for (idx, e) in circuit.edges().iter().enumerate() {
            let entry = pairs
                .entry((e.from.index(), e.to.index()))
                .or_insert(PairDelays {
                    edges: Vec::new(),
                    short_delay: f64::INFINITY,
                    max_delay: f64::NEG_INFINITY,
                });
            entry.edges.push(idx);
            entry.short_delay = entry.short_delay.min(e.short_delay());
            entry.max_delay = entry.max_delay.max(e.max_delay);
        }

        AnalysisContext {
            circuit,
            in_cyclic,
            downstream,
            upstream,
            component,
            component_roots,
            phase_used,
            pairs,
        }
    }

    /// The circuit under analysis.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// `true` when the synchronizer belongs to a cyclic SCC.
    pub fn in_cyclic_core(&self, id: LatchId) -> bool {
        self.in_cyclic[id.index()]
    }

    /// `true` when any cyclic SCC exists.
    pub fn has_cyclic_core(&self) -> bool {
        self.in_cyclic.iter().any(|&c| c)
    }

    /// `true` when the synchronizer is reachable from some cyclic core.
    pub fn downstream_of_core(&self, id: LatchId) -> bool {
        self.downstream[id.index()]
    }

    /// `true` when the synchronizer reaches some cyclic core.
    pub fn upstream_of_core(&self, id: LatchId) -> bool {
        self.upstream[id.index()]
    }

    /// `true` when the synchronizer has neither fan-in nor fan-out.
    pub fn is_isolated(&self, id: LatchId) -> bool {
        self.circuit.fanin(id).is_empty() && self.circuit.fanout(id).is_empty()
    }

    /// Union-find root of the synchronizer's weakly connected component.
    pub fn component_root(&self, id: LatchId) -> usize {
        self.component[id.index()]
    }

    /// Deduplicated, sorted roots of components containing at least one
    /// edge (isolated synchronizers are excluded — they are
    /// `unconstrained-sync` territory).
    pub fn component_roots(&self) -> &[usize] {
        &self.component_roots
    }

    /// `true` when the phase controls at least one synchronizer.
    pub fn phase_used(&self, index: usize) -> bool {
        self.phase_used[index]
    }

    /// The parallel-path delay closure, keyed by
    /// `(from.index(), to.index())` in sorted order.
    pub fn pair_delays(&self) -> &BTreeMap<(usize, usize), PairDelays> {
        &self.pairs
    }
}
