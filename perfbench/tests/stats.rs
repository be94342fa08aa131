//! The tail-percentile rule and the median.

use perfbench::stats::{median, tail, TAIL_BEYOND};

fn ramp(n: usize) -> Vec<f64> {
    // Deliberately unsorted: n, n-1, ..., 1.
    (1..=n).rev().map(|i| i as f64).collect()
}

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0]), Some(3.0));
    assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn tail_of_empty_is_none() {
    assert_eq!(tail(&[]), None);
}

#[test]
fn tail_leaves_exactly_ten_samples_beyond_once_there_are_enough() {
    for n in [21, 22, 30, 100, 1000, 2743] {
        let t = tail(&ramp(n)).unwrap();
        assert_eq!(t.beyond, TAIL_BEYOND, "n = {n}");
        assert_eq!(t.samples, n);
        // Nearest rank n − 10 of the sorted ramp 1..=n is the value n − 10.
        assert_eq!(t.value, (n - TAIL_BEYOND) as f64, "n = {n}");
        let expected = 100.0 * (n - TAIL_BEYOND) as f64 / n as f64;
        assert!((t.percentile - expected).abs() < 1e-12, "n = {n}");
    }
    // 1000 samples: the p99 sample, ten beyond it.
    let t = tail(&ramp(1000)).unwrap();
    assert!((t.percentile - 99.0).abs() < 1e-12);
}

#[test]
fn tail_never_drops_below_the_upper_median() {
    // Below 21 samples, n − 10 would fall under the median: the rule
    // clamps to rank ⌊n/2⌋ + 1 and reports how few lie beyond.
    for (n, rank) in [(1, 1), (2, 2), (3, 2), (6, 4), (10, 6), (11, 6), (20, 11)] {
        let t = tail(&ramp(n)).unwrap();
        assert_eq!(t.value, rank as f64, "n = {n}");
        assert_eq!(t.beyond, n - rank, "n = {n}");
        assert!(t.beyond < TAIL_BEYOND, "n = {n}");
        assert!(t.value >= median(&ramp(n)).unwrap(), "n = {n}");
    }
}

#[test]
fn tail_counts_ties_by_rank() {
    let mut samples = vec![5.0; 25];
    samples.extend([9.0; 5]);
    let t = tail(&samples).unwrap();
    // Rank 20 of 30 is still inside the run of 5.0s.
    assert_eq!(t.value, 5.0);
    assert_eq!(t.beyond, 10);
}
