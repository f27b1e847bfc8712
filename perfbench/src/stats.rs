//! Latency summaries: the median and the tail percentile rule.

/// Fewest samples for which a tail percentile is reported; below this the
/// tail would have fewer than ten samples beyond it at any useful rank, so
/// the median stands in for it.
pub const MIN_TAIL_SAMPLES: usize = 40;

/// Samples that must lie strictly beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in percent) of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (u64::from(p) * sorted.len() as u64).div_ceil(100).max(1) as usize;
    sorted[rank - 1]
}

/// The median (nearest-rank 50th percentile) of ascending `sorted` samples.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50)
}

/// The highest whole percentile that leaves at least [`TAIL_BEYOND`]
/// samples beyond it, or 50 (the median) below [`MIN_TAIL_SAMPLES`]
/// samples.
pub fn tail_percentile(n: usize) -> u32 {
    if n < MIN_TAIL_SAMPLES {
        return 50;
    }
    (50..=99)
        .rev()
        .find(|&p| {
            let rank = (u64::from(p) * n as u64).div_ceil(100) as usize;
            n - rank >= TAIL_BEYOND
        })
        .unwrap_or(50)
}

/// Latency summary of one run.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Median latency.
    pub p50: f64,
    /// The percentile [`tail_percentile`] chose.
    pub tail_p: u32,
    /// Latency at that percentile.
    pub tail: f64,
    /// Samples strictly beyond the tail rank.
    pub beyond: usize,
}

/// Summarises `samples` (any order); all zero for no samples.
pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary {
            n: 0,
            p50: 0.0,
            tail_p: 50,
            tail: 0.0,
            beyond: 0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_p = tail_percentile(sorted.len());
    let rank = (u64::from(tail_p) * sorted.len() as u64)
        .div_ceil(100)
        .max(1) as usize;
    Summary {
        n: sorted.len(),
        p50: median(&sorted),
        tail_p,
        tail: percentile(&sorted, tail_p),
        beyond: sorted.len() - rank,
    }
}

/// The tail of a run split in time order into blocks ending at `ends`
/// (exclusive indices into `samples`). When there are at least two blocks
/// and each holds [`MIN_TAIL_SAMPLES`] samples or more, the tail is the
/// median over blocks of each block's tail, so a burst of host contention
/// that covers a minority of the blocks does not move it; otherwise it is
/// the pooled tail of [`summarize`]. Returns the pooled summary with its
/// tail replaced, and the blocks' own summaries (none when pooled).
pub fn summarize_blocks(samples: &[f64], ends: &[usize]) -> (Summary, Vec<Summary>) {
    let mut pooled = summarize(samples);
    let mut start = 0;
    let blocks: Vec<Summary> = ends
        .iter()
        .map(|&end| {
            let block = summarize(&samples[start..end]);
            start = end;
            block
        })
        .collect();
    if blocks.len() < 2 || blocks.iter().any(|b| b.n < MIN_TAIL_SAMPLES) {
        return (pooled, Vec::new());
    }
    let mut tails: Vec<f64> = blocks.iter().map(|b| b.tail).collect();
    tails.sort_by(f64::total_cmp);
    pooled.tail = median(&tails);
    (pooled, blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_alone_below_forty_samples() {
        for n in 1..MIN_TAIL_SAMPLES {
            assert_eq!(tail_percentile(n), 50, "n = {n}");
        }
        let samples: Vec<f64> = (1..=39).map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.tail_p, 50);
        assert_eq!(s.tail, s.p50);
        assert_eq!(s.p50, 20.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        for n in MIN_TAIL_SAMPLES..5000 {
            let p = tail_percentile(n);
            let beyond = |p: u32| n - (u64::from(p) * n as u64).div_ceil(100) as usize;
            assert!(beyond(p) >= TAIL_BEYOND, "n = {n}, p = {p}");
            if p < 99 {
                assert!(
                    beyond(p + 1) < TAIL_BEYOND,
                    "n = {n}: p{} also qualifies",
                    p + 1
                );
            }
        }
        assert_eq!(tail_percentile(40), 75);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(100_000), 99);
    }

    #[test]
    fn block_tail_is_the_median_of_block_tails() {
        // Five blocks of 100; the third block is ten times slower, a burst
        // of contention that the median over blocks leaves out.
        let mut samples = Vec::new();
        for b in 0..5u32 {
            let scale = if b == 2 {
                10.0
            } else {
                1.0 + f64::from(b) * 0.01
            };
            samples.extend((1..=100).map(|v| scale * f64::from(v)));
        }
        let ends = [100, 200, 300, 400, 500];
        let (s, blocks) = summarize_blocks(&samples, &ends);
        assert_eq!(blocks.len(), 5);
        assert!(blocks
            .iter()
            .all(|b| (b.n, b.tail_p, b.beyond) == (100, 90, 10)));
        // Block tails 90, 90.9, 900, 92.7, 93.6: the median is 92.7.
        assert!((s.tail - 92.7).abs() < 1e-9, "{}", s.tail);
        assert_eq!(s.n, 500);
        // A block below MIN_TAIL_SAMPLES, or a single block, falls back to
        // the pooled tail.
        let pooled = summarize(&samples).tail;
        assert_eq!(summarize_blocks(&samples, &[39, 500]).0.tail, pooled);
        assert_eq!(summarize_blocks(&samples, &[500]).0.tail, pooled);
        assert!(summarize_blocks(&samples, &[500]).1.is_empty());
    }

    #[test]
    fn summary_reports_rank_and_count() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!((s.n, s.tail_p, s.beyond), (100, 90, 10));
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.tail, 90.0);
    }
}
