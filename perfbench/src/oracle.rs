//! The answer oracle: the certified sparse-LU simplex objective — what
//! `smo solve --backend lp --variant sparse` computes — for every design a
//! workload uses.
//!
//! The oracle never shares the graph path the default commands take, and
//! its verdict carries a KKT certificate checked against the raw rows.
//! At 10k rows it costs ~16 s per design, so answers are cached on disk
//! per netlist fingerprint and computed outside every timed section, at
//! most two at a time.

use smo_api::{fingerprint, parse_netlist, ParseLimits};
use smo_core::TimingModel;
use smo_lp::{Pricing, RecoveryPolicy, SimplexVariant, SolveBudget};
use std::path::PathBuf;

/// On-disk oracle cache.
#[derive(Debug, Clone)]
pub struct Oracle {
    dir: PathBuf,
}

impl Oracle {
    /// An oracle caching its answers under `dir`.
    pub fn new(dir: PathBuf) -> Oracle {
        Oracle { dir }
    }

    /// Optimal cycle times of `netlists`, in order: cached answers first,
    /// the rest solved two at a time.
    ///
    /// # Errors
    ///
    /// A netlist that does not parse, or an LP that does not certify.
    pub fn cycle_times(&self, netlists: &[&str]) -> Result<Vec<f64>, String> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cannot create {}: {e}", self.dir.display()))?;
        let paths: Vec<PathBuf> = netlists
            .iter()
            .map(|n| {
                self.dir
                    .join(format!("{:016x}.tc", fingerprint(n.as_bytes())))
            })
            .collect();
        let mut out: Vec<Option<f64>> = paths
            .iter()
            .map(|p| {
                std::fs::read_to_string(p)
                    .ok()
                    .and_then(|s| s.trim().parse().ok())
            })
            .collect();
        let missing: Vec<usize> = (0..netlists.len()).filter(|&i| out[i].is_none()).collect();
        let solved: Vec<(usize, Result<f64, String>)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|w| {
                    let mine: Vec<usize> = missing.iter().copied().skip(w).step_by(2).collect();
                    scope.spawn(move || {
                        mine.into_iter()
                            .map(|i| (i, certified_lp_cycle_time(netlists[i])))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_default())
                .collect()
        });
        for (i, tc) in solved {
            let tc = tc?;
            // `{:?}` round-trips every f64 exactly.
            std::fs::write(&paths[i], format!("{tc:?}\n"))
                .map_err(|e| format!("cannot write {}: {e}", paths[i].display()))?;
            out[i] = Some(tc);
        }
        out.into_iter()
            .map(|tc| tc.ok_or_else(|| "oracle worker failed".to_string()))
            .collect()
    }
}

/// The certified sparse-LU LP optimum of one netlist.
///
/// # Errors
///
/// Parse failures, solver failures, or an invalid certificate.
pub fn certified_lp_cycle_time(netlist: &str) -> Result<f64, String> {
    let circuit = parse_netlist(netlist, &ParseLimits::default()).map_err(|e| e.to_string())?;
    let model = TimingModel::build(&circuit).map_err(|e| e.to_string())?;
    let policy = RecoveryPolicy {
        variant: SimplexVariant::SparseLu,
        budget: SolveBudget::UNLIMITED,
        pricing: Pricing::default(),
    };
    let (sol, cert) = model
        .solve_lp_certified(&policy)
        .map_err(|e| e.to_string())?;
    if !cert.is_valid() {
        return Err(format!("oracle LP did not certify: {cert}"));
    }
    Ok(sol.objective())
}

/// Whether a printed cycle time agrees with the oracle to the printed
/// precision: `printed` must be the oracle rounded to `decimals` places,
/// allowing a last-digit tie when the oracle sits within 1e-9 of a
/// rounding boundary.
pub fn agrees(printed: f64, oracle: f64, decimals: i32) -> bool {
    let half_ulp = 0.5 * 10f64.powi(-decimals);
    (printed - oracle).abs() <= half_ulp + 1e-9 * (1.0 + oracle.abs())
}
