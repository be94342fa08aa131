//! Combinational delay edges and graph utilities (cycles, SCCs).

use crate::ids::LatchId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Opaque handle to a combinational edge of a [`Circuit`](crate::Circuit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub(crate) usize);

impl EdgeId {
    /// Creates an edge id from a zero-based index.
    pub fn new(index: usize) -> Self {
        EdgeId(index)
    }

    /// Zero-based index of this edge.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A combinational path from the output of one synchronizer to the input of
/// another, annotated with its propagation delay `Δ_ji` (§III-B).
///
/// `min_delay` is the *extension* short-path (contamination) delay used by
/// the optional hold analysis; it defaults to `0.0` (most conservative).
/// `min_specified` records whether that short-path delay was actually
/// measured/declared (`connect_min_max`, a netlist `min=`/`mindelay`) or is
/// just the conservative default — the race detector substitutes the max
/// delay for unspecified mins via [`Edge::short_delay`], so circuits without
/// short-path data are never flagged on the strength of the `0.0` filler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Source synchronizer `j` (the signal departs from its output).
    pub from: LatchId,
    /// Destination synchronizer `i` (the signal arrives at its input).
    pub to: LatchId,
    /// Worst-case (long-path) propagation delay `Δ_ji`.
    pub max_delay: f64,
    /// Best-case (short-path) propagation delay; `≤ max_delay`.
    pub min_delay: f64,
    /// `true` iff `min_delay` carries real short-path data.
    pub min_specified: bool,
}

impl Edge {
    /// The short-path delay the race analysis should trust: the declared
    /// `min_delay` when one was specified, otherwise the `max_delay` (a path
    /// whose spread is unknown is assumed raceless rather than instantaneous).
    pub fn short_delay(&self) -> f64 {
        if self.min_specified {
            self.min_delay
        } else {
            self.max_delay
        }
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} → {} (Δ = {})", self.from, self.to, self.max_delay)
    }
}

/// A directed cycle through synchronizers, e.g. a witness from
/// [`Circuit::zero_delay_loops`](crate::Circuit::zero_delay_loops).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cycle {
    /// The synchronizers on the cycle, in traversal order; the last feeds
    /// back to the first.
    pub latches: Vec<LatchId>,
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, l) in self.latches.iter().enumerate() {
            if i > 0 {
                write!(f, " → ")?;
            }
            write!(f, "{l}")?;
        }
        if let Some(first) = self.latches.first() {
            write!(f, " → {first}")?;
        }
        Ok(())
    }
}

/// Tarjan strongly-connected components over an adjacency list.
///
/// Returns components in reverse topological order; every synchronizer
/// appears in exactly one component. Components of size > 1, and singleton
/// components with a self-edge, contain feedback.
pub(crate) fn strongly_connected_components(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct NodeState {
        index: usize,
        lowlink: usize,
        on_stack: bool,
        visited: bool,
    }
    let n = adj.len();
    let mut state = vec![
        NodeState {
            index: 0,
            lowlink: 0,
            on_stack: false,
            visited: false,
        };
        n
    ];
    let mut stack = Vec::new();
    let mut next_index = 0usize;
    let mut components = Vec::new();

    // Iterative Tarjan to avoid recursion depth limits on long pipelines.
    enum Frame {
        Enter(usize),
        Resume(usize, usize), // (node, child already processed)
    }
    for start in 0..n {
        if state[start].visited {
            continue;
        }
        let mut call_stack = vec![Frame::Enter(start)];
        while let Some(frame) = call_stack.pop() {
            match frame {
                Frame::Enter(v) => {
                    state[v].visited = true;
                    state[v].index = next_index;
                    state[v].lowlink = next_index;
                    next_index += 1;
                    stack.push(v);
                    state[v].on_stack = true;
                    call_stack.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, child_pos) => {
                    let mut advanced = false;
                    for (pos, &w) in adj[v].iter().enumerate().skip(child_pos) {
                        if !state[w].visited {
                            call_stack.push(Frame::Resume(v, pos + 1));
                            call_stack.push(Frame::Enter(w));
                            advanced = true;
                            break;
                        } else if state[w].on_stack {
                            state[v].lowlink = state[v].lowlink.min(state[w].index);
                        }
                    }
                    if advanced {
                        continue;
                    }
                    if state[v].lowlink == state[v].index {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack invariant");
                            state[w].on_stack = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        components.push(comp);
                    }
                    // propagate lowlink to parent
                    if let Some(Frame::Resume(parent, _)) = call_stack.last() {
                        let parent = *parent;
                        state[parent].lowlink = state[parent].lowlink.min(state[v].lowlink);
                    }
                }
            }
        }
    }
    components
}

/// Enumerates every elementary cycle within one SCC by DFS from each node,
/// taking only nodes `>= root` to avoid duplicates. Exponential in general:
/// the test oracle for [`Circuit::zero_delay_loops`](crate::Circuit::zero_delay_loops).
#[cfg(test)]
pub(crate) fn enumerate_cycles(adj: &[Vec<usize>], nodes: &[usize]) -> Vec<Vec<usize>> {
    let mut in_scc = vec![false; adj.len()];
    for &n in nodes {
        in_scc[n] = true;
    }
    let mut cycles = Vec::new();
    for &root in nodes {
        let mut path = vec![root];
        let mut on_path = vec![false; adj.len()];
        on_path[root] = true;
        // stack of (node, next child position)
        let mut dfs = vec![(root, 0usize)];
        while let Some(&(v, pos)) = dfs.last() {
            if pos < adj[v].len() {
                dfs.last_mut().expect("non-empty").1 += 1;
                let w = adj[v][pos];
                if !in_scc[w] || w < root {
                    continue;
                }
                if w == root {
                    cycles.push(path.clone());
                } else if !on_path[w] {
                    on_path[w] = true;
                    path.push(w);
                    dfs.push((w, 0));
                }
            } else {
                dfs.pop();
                path.pop();
                on_path[v] = false;
            }
        }
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scc_splits_dag() {
        // 0 -> 1 -> 2 (no cycles): three singleton components.
        let adj = vec![vec![1], vec![2], vec![]];
        let comps = strongly_connected_components(&adj);
        assert_eq!(comps.len(), 3);
        assert!(comps.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn scc_finds_loop() {
        // 0 -> 1 -> 2 -> 0 plus a tail 2 -> 3.
        let adj = vec![vec![1], vec![2], vec![0, 3], vec![]];
        let comps = strongly_connected_components(&adj);
        let big: Vec<_> = comps.iter().filter(|c| c.len() > 1).collect();
        assert_eq!(big.len(), 1);
        let mut nodes = big[0].clone();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 1, 2]);
    }

    #[test]
    fn scc_handles_two_disjoint_loops() {
        let adj = vec![vec![1], vec![0], vec![3], vec![2]];
        let comps = strongly_connected_components(&adj);
        assert_eq!(comps.iter().filter(|c| c.len() == 2).count(), 2);
    }

    #[test]
    fn cycles_enumerated_without_duplicates() {
        // 0 <-> 1, and triangle 0 -> 1 -> 2 -> 0.
        let adj = vec![vec![1], vec![0, 2], vec![0]];
        let nodes = vec![0, 1, 2];
        let cycles = enumerate_cycles(&adj, &nodes);
        assert_eq!(cycles.len(), 2, "cycles: {cycles:?}");
    }

    #[test]
    fn complete_digraph_cycles_are_all_enumerated() {
        // K4 has C(4,2)·1 + C(4,3)·2 + C(4,4)·6 = 6 + 8 + 6 = 20 cycles.
        let adj: Vec<Vec<usize>> = (0..4)
            .map(|i| (0..4).filter(|&j| j != i).collect())
            .collect();
        let nodes = vec![0, 1, 2, 3];
        assert_eq!(enumerate_cycles(&adj, &nodes).len(), 20);
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let adj = vec![vec![0]];
        let cycles = enumerate_cycles(&adj, &[0]);
        assert_eq!(cycles, vec![vec![0]]);
    }

    #[test]
    fn cycle_display_closes_the_loop() {
        let c = Cycle {
            latches: vec![LatchId::new(0), LatchId::new(1)],
        };
        assert_eq!(c.to_string(), "L1 → L2 → L1");
    }

    #[test]
    fn deep_pipeline_does_not_overflow_stack() {
        // 50_000-node path: recursion-free Tarjan must cope.
        let n = 50_000;
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|i| if i + 1 < n { vec![i + 1] } else { vec![] })
            .collect();
        let comps = strongly_connected_components(&adj);
        assert_eq!(comps.len(), n);
    }
}
