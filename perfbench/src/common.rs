//! Pieces every workload shares: the seeded generator, output checks,
//! the per-run scratch directory, the closed loop, and the per-layer
//! accumulator.

use crate::Ctx;
use masc_adjoint::StoreMetrics;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// SplitMix64: a small, seedable generator, so inputs depend on the seed
/// alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A factor in `[1 − spread, 1 + spread]`.
    pub fn jitter(&mut self, spread: f64) -> f64 {
        1.0 + spread * (2.0 * self.unit() - 1.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Whether two sensitivity matrices are equal bit for bit.
pub fn bit_equal(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len() && ra.iter().zip(rb).all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

/// Largest difference between `got` and `want`, each row scaled by the
/// largest magnitude in that row of `want`. Entries near zero carry only
/// cancellation noise, so a per-entry relative error would measure noise.
pub fn row_scaled_error(got: &[Vec<f64>], want: &[Vec<f64>]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    let mut worst = 0.0f64;
    for (rg, rw) in got.iter().zip(want) {
        if rg.len() != rw.len() {
            return f64::INFINITY;
        }
        let scale = rw.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-30);
        for (g, w) in rg.iter().zip(rw) {
            let e = (g - w).abs() / scale;
            worst = if e.is_nan() {
                f64::INFINITY
            } else {
                worst.max(e)
            };
        }
    }
    worst
}

/// Peak resident set of this process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Steal and total ticks of the host's `cpu` line in `/proc/stat`: how
/// much CPU time the hypervisor took from this machine, a cause of
/// run-to-run spread worth printing beside the figures.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The checkout's git revision, read from `.git` without running git, or
/// `unknown` outside a repository.
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// A per-run scratch directory for spill and cache files, removed on drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `.perfbench-tmp/<workload>-<pid>` under the working
    /// directory.
    pub fn create(workload: &str) -> std::io::Result<Self> {
        let dir =
            PathBuf::from(".perfbench-tmp").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Files left under the directory (recursively) whose names end in
    /// `.tmp` or `.bin`: a stranded cache temporary or spill file.
    pub fn stranded(&self) -> Vec<PathBuf> {
        let mut out = Vec::new();
        let mut stack = vec![self.0.clone()];
        while let Some(dir) = stack.pop() {
            let Ok(entries) = std::fs::read_dir(&dir) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == "tmp" || e == "bin") {
                    out.push(path);
                }
            }
        }
        out
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too when no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Per-layer sums over the traced operations of a run.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    /// Traced operations the sums cover.
    pub ops: u64,
}

impl Layers {
    /// Adds `v` to layer quantity `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    /// Sum of `name` over all traced operations.
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Mean of `name` per traced operation.
    pub fn per_op(&self, name: &str) -> f64 {
        self.sum(name) / self.ops.max(1) as f64
    }

    /// Adds one traced operation's Jacobian-store telemetry: `put_s` and
    /// `fetch_s` are the capture and replay times, `raw_bytes` the
    /// uncompressed size of what was stored.
    pub fn add_store(&mut self, m: &StoreMetrics, put_s: f64, fetch_s: f64, raw_bytes: f64) {
        self.add("adjoint.store_put_s", put_s);
        self.add("compress.encode_s", m.compress_time.as_secs_f64());
        self.add("adjoint.backpressure_s", m.backpressure_wait.as_secs_f64());
        self.add("adjoint.store_fetch_s", fetch_s);
        self.add("compress.decode_s", m.decompress_time.as_secs_f64());
        self.add("adjoint.prefetch_wait_s", m.prefetch_wait.as_secs_f64());
        self.add("prefetch_hits", m.prefetch_hits as f64);
        self.add("prefetch_misses", m.prefetch_misses as f64);
        self.add("adjoint.spill_io_s", m.io_time.as_secs_f64());
        self.add("raw_bytes", raw_bytes);
        self.add("bytes_written", m.bytes_written as f64);
    }

    /// The store and codec metrics [`add_store`](Self::add_store) feeds,
    /// plus `unclaimed_s`.
    pub fn store_metrics(&self) -> Vec<(&'static str, f64)> {
        let mb = |bytes: f64, s: f64| ratio(bytes * 1e-6, s);
        let (hits, misses) = (self.sum("prefetch_hits"), self.sum("prefetch_misses"));
        let raw = self.sum("raw_bytes");
        vec![
            ("adjoint.store_put_s", self.per_op("adjoint.store_put_s")),
            ("compress.encode_s", self.per_op("compress.encode_s")),
            (
                "compress.encode_mb_s",
                mb(raw, self.sum("compress.encode_s")),
            ),
            (
                "adjoint.backpressure_s",
                self.per_op("adjoint.backpressure_s"),
            ),
            (
                "adjoint.store_fetch_s",
                self.per_op("adjoint.store_fetch_s"),
            ),
            ("compress.decode_s", self.per_op("compress.decode_s")),
            (
                "compress.decode_mb_s",
                mb(raw, self.sum("compress.decode_s")),
            ),
            (
                "adjoint.prefetch_wait_s",
                self.per_op("adjoint.prefetch_wait_s"),
            ),
            ("adjoint.prefetch_hit_ratio", ratio(hits, hits + misses)),
            ("adjoint.spill_io_s", self.per_op("adjoint.spill_io_s")),
            ("compress.ratio", ratio(raw, self.sum("bytes_written"))),
            ("unclaimed_s", self.per_op("unclaimed_s")),
        ]
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What a workload hands back to the report.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Duration of each of the run's [`SETUPS`] set-ups, in seconds.
    pub setups: Vec<f64>,
    /// Latency of every untraced timed operation, in seconds.
    pub latencies: Vec<f64>,
    /// Latency of every traced timed operation (trace mode only).
    pub traced_latencies: Vec<f64>,
    /// The timed loop in time order, split where a repeated set-up ran
    /// (see [`SETUPS`]).
    pub blocks: Vec<Block>,
    /// Operations attempted in the timed loop.
    pub attempted: u64,
    /// Operations whose output failed a check or that returned an error.
    pub failed: u64,
    /// Compressed Jacobian bytes one operation commits, averaged over the
    /// distinct inputs.
    pub jacobian_bytes: f64,
    /// `VmHWM` sampled right after the timed loop.
    pub peak_rss_bytes: u64,
    /// Per-layer metrics (trace mode only), by name.
    pub layers: Vec<(&'static str, f64)>,
    /// One line per failure, for the log.
    pub errors: Vec<String>,
    /// Human-readable lines describing the inputs.
    pub notes: Vec<String>,
}

/// A stretch of the timed loop between two set-ups.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// End (exclusive) of the block's samples in [`Outcome::latencies`].
    pub end: usize,
    /// Operations the block completed, traced ones included.
    pub ops: u64,
    /// The block's wall time, in seconds.
    pub wall_s: f64,
}

impl Outcome {
    /// Records a failed check.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        self.errors.push(msg.into());
    }

    /// Ends a block of the timed loop that took `wall_s`, holding the
    /// operations attempted since the previous block; an empty block is
    /// not recorded.
    pub fn close_block(&mut self, wall_s: f64) {
        let done: u64 = self.blocks.iter().map(|b| b.ops).sum();
        if self.attempted > done {
            self.blocks.push(Block {
                end: self.latencies.len(),
                ops: self.attempted - done,
                wall_s,
            });
        }
    }

    /// Operations per second of timed wall time: the median over blocks of
    /// each block's rate, so a burst of host contention that covers a
    /// minority of the blocks does not move it.
    pub fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .blocks
            .iter()
            .map(|b| ratio(b.ops as f64, b.wall_s))
            .collect();
        if rates.is_empty() {
            0.0
        } else {
            median_of(&rates)
        }
    }
}

/// Median of `values` (any order).
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    crate::stats::median(&v)
}

/// Set-ups per run; `setup_s` is the median of their durations. The first
/// runs before the timed loop and is counted from process start; the others
/// run between rounds after each fifth of the loop, so that `setup_s`
/// samples the host's speed over the whole run, as the latencies do, rather
/// than over its first seconds alone.
pub const SETUPS: usize = 5;

/// Longest a timed loop may run, set-ups between rounds not counted, as a
/// multiple of `--seconds`: a guard for a host far slower than the
/// reference machine, not reached on it.
pub const GUARD_FACTOR: f64 = 3.0;

/// Operations a run of `seconds` issues when one operation takes
/// `nominal_op_s` on the reference machine, in whole rounds of `round`.
/// The count depends on the arguments alone, so runs of the same length
/// time the same operations and the tail percentile falls on the same
/// sample rank in every run.
pub fn planned_ops(seconds: f64, nominal_op_s: f64, round: usize) -> usize {
    let rounds = (seconds / (nominal_op_s * round as f64)).round().max(1.0);
    rounds as usize * round
}

/// A single-client closed loop: builds its inputs with `setup`, then
/// issues [`planned_ops`] operations in whole rounds of `round`, stopping
/// early only at the guard of [`GUARD_FACTOR`] × `--seconds`. Between
/// rounds it repeats `setup` as [`SETUPS`] describes, each time dropping
/// the old inputs first, so memory holds one copy; set-up time counts in
/// no latency and in no block's wall time, and each set-up ends a block of
/// [`Outcome::blocks`]. In trace mode every other
/// operation is traced, so traced and untraced latencies come from the same
/// run. `op(inputs, i, traced, out)` returns the operation's latency in
/// seconds and records its own check failures in `out`. Returns the last
/// inputs, for the reference checks.
pub fn closed_loop<T>(
    ctx: &Ctx,
    nominal_op_s: f64,
    round: usize,
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<T, String>,
    mut op: impl FnMut(&T, usize, bool, &mut Outcome) -> f64,
) -> Result<T, String> {
    let mut inputs = setup()?;
    out.setups.push(ctx.start.elapsed().as_secs_f64());
    // A traced round holds every operation both traced and untraced.
    let round = if ctx.trace && round % 2 == 1 {
        2 * round
    } else {
        round
    };
    let planned = planned_ops(ctx.seconds, nominal_op_s, round);
    let guard = GUARD_FACTOR * ctx.seconds;
    let start = Instant::now();
    let mut block_start = start;
    let mut paused = 0.0;
    let mut i = 0usize;
    loop {
        for _ in 0..round {
            let traced = ctx.trace && i % 2 == 1;
            let latency = op(&inputs, i, traced, out);
            if traced {
                out.traced_latencies.push(latency);
            } else {
                out.latencies.push(latency);
            }
            out.attempted += 1;
            i += 1;
        }
        let stop = i >= planned || start.elapsed().as_secs_f64() - paused >= guard;
        if stop && i < planned {
            out.notes.push(format!(
                "guard: timed loop stopped after {i} of {planned} operations"
            ));
        }
        // Set-up k runs once the loop is k/SETUPS of the way through (or
        // at the end, after a guard stop); each ends a block.
        if stop || i * SETUPS >= planned * out.setups.len() {
            out.close_block(block_start.elapsed().as_secs_f64());
            while out.setups.len() < SETUPS && (stop || i * SETUPS >= planned * out.setups.len()) {
                drop(inputs);
                let t = Instant::now();
                inputs = setup()?;
                let d = t.elapsed().as_secs_f64();
                out.setups.push(d);
                paused += d;
            }
            block_start = Instant::now();
        }
        if stop {
            break;
        }
    }
    out.peak_rss_bytes = peak_rss_bytes();
    Ok(inputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planned_ops_are_whole_rounds_set_by_the_arguments() {
        assert_eq!(planned_ops(20.0, 0.19, 3), 105);
        assert_eq!(planned_ops(20.0, 0.27, 1), 74);
        // A traced round of 6 keeps about the same operation count.
        assert_eq!(planned_ops(20.0, 0.19, 6), 108);
        // At least one whole round, however short the run.
        assert_eq!(planned_ops(0.01, 0.19, 3), 3);
        for round in 1..8 {
            assert_eq!(planned_ops(17.0, 0.05, round) % round, 0);
        }
    }
}
