//! # smo-analyze — circuit lints, infeasibility diagnosis, constraint analysis
//!
//! Static-analysis companion to the SMO timing engine:
//!
//! * **Linting** ([`lint`], [`lint_with`]) — severity-tiered structural
//!   checks over a [`Circuit`](smo_circuit::Circuit), organised as
//!   registered [`passes`](passes::Pass) sharing one [`AnalysisContext`]
//!   (SCCs, reachability, connectivity, phase usage and the min/max delay
//!   closure are each computed once): dangling synchronizers, dead
//!   phases, duplicate paths, zero-delay transparent loops (critical
//!   races; one finding per group of loops sharing latches, found by one
//!   exact, uncapped SCC pass), thin flip-flop hold margins (measured `mindelay` data when
//!   present, a heuristic otherwise) and suspicious `Δ_DQ`/setup ratios.
//!   No LP is solved; this is a pure graph pass. A [`PassConfig`]
//!   suppresses or re-grades rules, and findings sort canonically so
//!   `--json` output is byte-deterministic.
//! * **Checking** ([`check`], [`check_within`] under a solve budget) —
//!   the one-shot static gate behind `smo check`: lint passes + the
//!   cycle-time solve (graph or LP backend) + the paper's short-path
//!   constraint family. Every
//!   double-clocking race lands in the findings as an error with its
//!   [`ShortPathWitness`](smo_core::ShortPathWitness) text.
//! * **Diagnosis** ([`diagnose`]) — when a cycle-time target makes the
//!   timing LP infeasible, answer *why*: extract a Farkas-certified
//!   irreducible infeasible subsystem and map every member back to the
//!   paper's constraint names (C1–C3 clock rows, L1 setup, L2R
//!   propagation) with the latches and phases involved.
//! * **Constraint analysis** ([`analyze`]) — the oracle for the production
//!   path: the combinatorial cycle-time bracket `lower ≤ Tc* ≤ upper` must
//!   contain the optimum, and on pure difference-constraint models the
//!   graph backend's Tc must equal the certified sparse-LU simplex's within
//!   `Tol::TIGHT`; the report also breaks the rows down by paper family
//!   and classifier fragment. Any disagreement is a hard [`AnalyzeError`],
//!   not a finding.
//!
//! The passes back the `smo lint`, `smo diagnose` and `smo analyze` CLI
//! subcommands.
//!
//! ## Example
//!
//! ```
//! use smo_circuit::{CircuitBuilder, PhaseId};
//! use smo_analyze::{diagnose, lint, Diagnosis};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = CircuitBuilder::new(2);
//! let l1 = b.add_latch("L1", PhaseId::from_number(1), 1.0, 2.0);
//! let l2 = b.add_latch("L2", PhaseId::from_number(2), 1.0, 2.0);
//! b.connect(l1, l2, 10.0);
//! b.connect(l2, l1, 10.0);
//! let circuit = b.build()?;
//!
//! assert!(lint(&circuit).is_clean());
//! match diagnose(&circuit, Some(1.0))? {
//!     Diagnosis::Infeasible(report) => assert!(report.certified),
//!     Diagnosis::Feasible { .. } => unreachable!("Tc ≤ 1 is impossible here"),
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod check;
mod context;
mod diagnose;
mod lint;
pub mod passes;
mod report;

pub use check::{check, check_within, CheckOptions, CheckReport};
pub use context::{AnalysisContext, PairDelays};
pub use diagnose::{diagnose, diagnose_with, Diagnosis};
pub use lint::{lint, lint_with, Finding, LintReport, PassConfig, Rule, Severity};
pub use report::{analyze, constraint_family, AnalyzeError, AnalyzeReport};
