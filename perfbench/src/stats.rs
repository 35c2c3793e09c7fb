//! Summary statistics and the naming rule every emitted name obeys.

/// Median of `values` (mean of the middle two for an even count); `None`
/// when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Nearest-rank index of percentile `p` (in percent) among `len` sorted
/// samples, and how many samples lie strictly beyond it.
fn rank(len: usize, p: f64) -> (usize, usize) {
    // The epsilon keeps an exact product such as 99.9% of 10,000 from
    // rounding up past its integer rank.
    let r = ((p / 100.0) * len as f64 - 1e-6).ceil().max(1.0) as usize;
    let r = r.min(len);
    (r - 1, len - r)
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples `job_ms_p99` needs before it is reported at all.
pub const P99_MIN_SAMPLES: usize = 1_000;

/// Percentile `p` (nearest rank) of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it — too few to call it a tail.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (idx, beyond) = rank(sorted.len(), p);
    (beyond >= MIN_BEYOND).then(|| sorted[idx])
}

/// The ladder of percentiles a tail is reported at, highest first.
const TAIL_LADDER: &[f64] = &[99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of the ladder with at least [`MIN_BEYOND`]
/// samples beyond it, and its value; `None` below 11 samples.
#[must_use]
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER
        .iter()
        .find_map(|&p| percentile(samples, p).map(|v| (p, v)))
}

/// The p99 of `samples`, refused (`None`) below [`P99_MIN_SAMPLES`].
#[must_use]
pub fn p99(samples: &[f64]) -> Option<f64> {
    if samples.len() < P99_MIN_SAMPLES {
        return None;
    }
    percentile(samples, 99.0)
}

/// True when `name` is a legal metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[cfg(test)]
#[must_use]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// SplitMix64: derives job seeds and pool offsets from the workload seed.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 20 samples: p50 is rank 10 with 10 beyond; p90 has only 2.
        let s = ramp(20);
        assert_eq!(percentile(&s, 50.0), Some(10.0));
        assert_eq!(percentile(&s, 90.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_reports_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail(&ramp(10)), None, "10 samples leave < 10 beyond p50");
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&ramp(1_000)), Some((99.0, 990.0)));
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9_990.0)));
    }

    #[test]
    fn p99_is_refused_below_one_thousand_samples() {
        assert_eq!(p99(&ramp(999)), None);
        assert_eq!(p99(&ramp(1_000)), Some(990.0));
        assert_eq!(p99(&ramp(1_010)), Some(1_000.0));
    }

    #[test]
    fn name_rule() {
        for ok in ["wave", "out-of-core", "engine.loop_ms", "setup_s", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".hidden", "-x", "a b", "ms/s", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
