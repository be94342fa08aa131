//! Serializable basis snapshots for warm-started solves.
//!
//! A [`Basis`] records *which* standard-form columns were basic at an
//! optimal solve, in problem-structure terms (user variable / slack /
//! surplus / artificial of a standard row) rather than raw column indices,
//! so a snapshot survives being applied to a *rebuilt* tableau of the same
//! model — the situation every sweep-style workload is in after perturbing
//! a right-hand side.
//!
//! Snapshots are captured automatically on every optimal
//! [`Solution`](crate::Solution) (see [`Solution::basis`](crate::Solution::basis))
//! and re-entered through [`Problem::solve_from_basis`](crate::Problem::solve_from_basis).
//! Re-entry is *best effort by construction*: a snapshot that no longer
//! matches the problem's standard form (dimensions changed, a row's RHS
//! normalization flipped, a column disappeared) silently falls back to a
//! cold two-phase solve, so warm starts can never change a verdict — only
//! the work needed to reach it.
//!
//! One piece of derived data rides along: `matrix_hash`, an FNV-1a hash
//! over the standard-form constraint *matrix* (coefficients only; the RHS
//! is deliberately excluded). Two problems with equal hashes have the same
//! columns, so a factorization of this basis is valid for both — exactly
//! the RHS-only perturbation case of delay sweeps.

use serde::{Deserialize, Serialize};

/// What one basic column was, in problem-structure terms. Mirrors the
/// solver-internal `ColKind`, minus raw column indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum BasisEntry {
    /// A column of user variable `var` (`negative` = the `x⁻` half of a
    /// split free variable).
    Structural { var: usize, negative: bool },
    /// Slack of standard-form row `row`.
    Slack { row: usize },
    /// Surplus of standard-form row `row`.
    Surplus { row: usize },
    /// Artificial of standard-form row `row` (kept basic at zero on
    /// redundant rows).
    Artificial { row: usize },
}

/// A basis snapshot extracted from an optimal [`Solution`](crate::Solution),
/// usable to warm-start later solves of the same (or a perturbed) model.
///
/// See the [module docs](crate::basis) for the compatibility and fallback
/// rules. The snapshot is plain data, `O(rows)` in size, and is cheap to
/// clone and to keep in per-topology caches.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Basis {
    /// One entry per standard-form row, in basis-position order.
    pub(crate) entries: Vec<BasisEntry>,
    /// Fingerprint: number of user variables.
    pub(crate) num_vars: usize,
    /// Fingerprint: number of user constraint rows.
    pub(crate) user_rows: usize,
    /// Fingerprint: number of standard-form columns.
    pub(crate) ncols: usize,
    /// FNV-1a hash of the standard-form constraint matrix (no RHS).
    pub(crate) matrix_hash: u64,
}

impl Basis {
    /// Number of basic columns (= standard-form rows) in the snapshot.
    pub fn size(&self) -> usize {
        self.entries.len()
    }

    /// Hash of the standard-form constraint matrix the snapshot was taken
    /// from. Problems sharing this hash differ at most in their RHS, so a
    /// factorization of the basis applies to them directly.
    pub fn matrix_hash(&self) -> u64 {
        self.matrix_hash
    }

    /// Approximate memory footprint of the snapshot in bytes: `O(size)`,
    /// one entry per basic column plus the fixed header. What a cache
    /// budgeting its entries should charge.
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Basis>() + self.entries.len() * std::mem::size_of::<BasisEntry>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_report_snapshot_shape() {
        let b = Basis {
            entries: vec![
                BasisEntry::Structural {
                    var: 0,
                    negative: false,
                },
                BasisEntry::Artificial { row: 1 },
            ],
            num_vars: 3,
            user_rows: 2,
            ncols: 7,
            matrix_hash: 7,
        };
        assert_eq!(b.size(), 2);
        assert_eq!(b.matrix_hash(), 7);
        assert!(b.footprint_bytes() >= 2 * std::mem::size_of::<BasisEntry>());
    }
}
