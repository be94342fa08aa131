//! Summary statistics for latency samples.

/// Median of `samples` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    })
}

/// A tail latency: the value at a nearest-rank percentile, with the
/// percentile and the sample count it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at rank `rank` (1-based) of the sorted samples.
    pub value: f64,
    /// `100 · rank / samples`.
    pub percentile: f64,
    /// Number of samples the tail was read from.
    pub samples: usize,
    /// How many samples lie beyond the tail rank.
    pub beyond: usize,
}

/// Samples that must lie beyond a tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest nearest-rank percentile with at least [`TAIL_BEYOND`]
/// samples beyond it: rank `n − 10` of `n` sorted samples. The rank never
/// drops below the upper median rank `⌊n/2⌋ + 1`, so with fewer than 21
/// samples the tail is the upper median and fewer than ten samples lie
/// beyond it — [`Tail::beyond`] says how many. `None` when empty.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let n = s.len();
    let rank = n.saturating_sub(TAIL_BEYOND).max(n / 2 + 1);
    Some(Tail {
        value: s[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
        beyond: n - rank,
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
