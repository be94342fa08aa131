//! Pricing strategies for the sparse-LU simplex.
//!
//! PR 9's devex pricing scans every nonbasic column each pivot — `O(ncols
//! × nnz-per-column)` per iteration, the second half (with the dense
//! triangular solves) of why 10k-row solves took ~48 s. This module makes
//! the strategy selectable:
//!
//! * [`Pricing::Devex`] — the full devex scan, exactly PR 9's loop.
//! * [`Pricing::Partial`] — candidate-list devex (the default for the
//!   sparse variant): keep a short list of attractive columns, re-price
//!   only the list plus a rotating slice of the column range each
//!   iteration, and *always* fall back to one full scan before declaring
//!   optimality, so verdicts are identical to full pricing by
//!   construction. Devex reference weights are maintained exactly on the
//!   candidate list and left stale elsewhere — a scoring approximation
//!   (may change the pivot sequence) that can never change the answer.
//! * [`Pricing::Bland`] — first-eligible lowest-index selection from the
//!   first iteration. Terminally slow but cycling-proof; the other two
//!   modes still switch to Bland automatically after the shared
//!   anti-cycling iteration threshold, exactly as before.
//!
//! The dense variant prices its whole tableau rows by
//! construction and ignore the setting (documented on
//! [`Pricing`]).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::EPS;

/// Simplex pricing strategy (honored by the sparse-LU variant; the dense
/// variant always prices the full column set and ignores it).
/// All strategies produce the same verdict and optimum — they differ only
/// in which eligible column enters first, i.e. in the path taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pricing {
    /// Full devex scan of every nonbasic column per pivot.
    Devex,
    /// Candidate-list devex with a rotating pricing slice and a full-scan
    /// optimality check (default).
    #[default]
    Partial,
    /// Bland's first-eligible rule from the first iteration.
    Bland,
}

impl Pricing {
    /// All strategies, for equivalence sweeps.
    pub const ALL: [Pricing; 3] = [Pricing::Devex, Pricing::Partial, Pricing::Bland];

    /// The CLI/serve spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Pricing::Devex => "devex",
            Pricing::Partial => "partial",
            Pricing::Bland => "bland",
        }
    }
}

impl std::fmt::Display for Pricing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Pricing {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "devex" => Ok(Pricing::Devex),
            "partial" => Ok(Pricing::Partial),
            "bland" => Ok(Pricing::Bland),
            other => Err(format!(
                "unknown pricing '{other}' (expected devex, partial, or bland)"
            )),
        }
    }
}

/// Candidate-list partial pricer.
///
/// Per [`PartialPricer::select`] call: re-score the candidate list exactly
/// (dropping columns that went basic or unattractive), top it up from a
/// rotating slice of the column range, and return the best devex-scored
/// column seen. Only when both come up empty does a full scan run — so an
/// `None` return is a *certified* "no eligible column anywhere", the same
/// optimality proof full pricing gives.
pub(crate) struct PartialPricer {
    candidates: Vec<usize>,
    member: Vec<bool>,
    cursor: usize,
    slice: usize,
    cap: usize,
}

impl PartialPricer {
    pub(crate) fn new(ncols: usize) -> Self {
        // Slice ~1/4 of the range: every column is re-priced at least once
        // every 4 iterations; small problems degenerate to a full scan per
        // pivot (i.e. plain devex). A wide slice keeps the devex scores
        // current enough to nearly match full devex's pivot count while
        // scanning a quarter of the columns — at the 10k-row bench anchor,
        // 1/16 took 26k pivots and 1/4 takes 20k (full devex: 18k), and
        // total time bottoms out here (1/2 pays more in scan time than it
        // saves in pivots).
        let slice = (ncols / 4).clamp(256, 16384);
        let cap = (ncols / 64).clamp(64, 2048);
        PartialPricer {
            candidates: Vec::with_capacity(cap),
            member: vec![false; ncols],
            cursor: 0,
            slice,
            cap,
        }
    }

    /// The current candidate list (the scope of partial devex weight
    /// maintenance).
    pub(crate) fn candidates(&self) -> &[usize] {
        &self.candidates
    }

    /// Picks the entering column. `eligible(j)` must exclude basic and
    /// disallowed columns; `zj(j)` is the exact reduced cost; `weight(j)`
    /// the devex reference weight. Returns `None` only after a full scan
    /// found no eligible column with `zj < -EPS` — a certified optimality
    /// condition, not a "list was empty" shortcut.
    pub(crate) fn select(
        &mut self,
        ncols: usize,
        eligible: impl Fn(usize) -> bool,
        zj: impl Fn(usize) -> f64,
        weight: impl Fn(usize) -> f64,
    ) -> Option<usize> {
        let mut best: Option<(f64, usize)> = None;
        let consider = |j: usize, best: &mut Option<(f64, usize)>| -> bool {
            if !eligible(j) {
                return false;
            }
            let z = zj(j);
            if z >= -EPS {
                return false;
            }
            let score = z * z / weight(j);
            if best.is_none_or(|(bs, _)| score > bs) {
                *best = Some((score, j));
            }
            true
        };

        // 1. Exact re-score of the standing candidates.
        let member = &mut self.member;
        self.candidates.retain(|&j| {
            let keep = consider(j, &mut best);
            if !keep {
                member[j] = false;
            }
            keep
        });

        // 2. Rotating slice: fresh blood for the list, and a guarantee
        // that every column is looked at every `ncols/slice` iterations.
        for _ in 0..self.slice.min(ncols) {
            let j = self.cursor;
            self.cursor += 1;
            if self.cursor >= ncols {
                self.cursor = 0;
            }
            if self.member[j] {
                continue;
            }
            if consider(j, &mut best) && self.candidates.len() < self.cap {
                self.candidates.push(j);
                self.member[j] = true;
            }
        }
        if best.is_some() {
            return best.map(|(_, j)| j);
        }

        // 3. Exhausted: full scan before declaring optimality (refills the
        // list as a side effect, so a near-optimal tail doesn't full-scan
        // every iteration).
        for j in 0..ncols {
            if self.member[j] {
                continue; // already re-scored (and rejected) above
            }
            if consider(j, &mut best) && self.candidates.len() < self.cap {
                self.candidates.push(j);
                self.member[j] = true;
            }
        }
        best.map(|(_, j)| j)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn pricing_round_trips_through_strings() {
        for p in Pricing::ALL {
            assert_eq!(p.as_str().parse::<Pricing>().unwrap(), p);
        }
        assert!("quantum".parse::<Pricing>().is_err());
        assert_eq!(Pricing::default(), Pricing::Partial);
    }

    #[test]
    fn select_finds_best_column_and_certifies_optimality() {
        let ncols = 10_000;
        let mut pricer = PartialPricer::new(ncols);
        // Only column 9_999 is attractive — outside the first slice, so
        // the full-scan fallback must find it rather than claim optimal.
        let q = pricer.select(
            ncols,
            |_| true,
            |j| if j == 9_999 { -1.0 } else { 0.0 },
            |_| 1.0,
        );
        assert_eq!(q, Some(9_999));
        // Now nothing is attractive: None, certified by a full scan.
        let q = pricer.select(ncols, |_| true, |_| 0.0, |_| 1.0);
        assert_eq!(q, None);
    }

    #[test]
    fn select_prefers_higher_devex_score() {
        let ncols = 100;
        let mut pricer = PartialPricer::new(ncols);
        // z = -1 everywhere, but column 42 has a tiny weight -> top score.
        let q = pricer.select(
            ncols,
            |_| true,
            |_| -1.0,
            |j| if j == 42 { 0.01 } else { 1.0 },
        );
        assert_eq!(q, Some(42));
    }

    #[test]
    fn candidate_list_drops_ineligible_columns() {
        let ncols = 100;
        let mut pricer = PartialPricer::new(ncols);
        pricer.select(ncols, |_| true, |_| -1.0, |_| 1.0);
        assert!(!pricer.candidates().is_empty());
        // Everything went basic: list must drain and the scan must still
        // terminate with None.
        let q = pricer.select(ncols, |_| false, |_| -1.0, |_| 1.0);
        assert_eq!(q, None);
        assert!(pricer.candidates().is_empty());
    }
}
