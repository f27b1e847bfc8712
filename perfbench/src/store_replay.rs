//! `store-replay`: one Table-2-scale tensor through the pipelined hybrid
//! store, written forward and read back in reverse; no simulator involved.

use crate::common::{closed_loop, Layers, Outcome};
use crate::Ctx;
use masc_adjoint::{StepMatrices, StoreConfig, StoreMetrics, TensorLayout};
use masc_compress::MascConfig;
use masc_datasets::{table2_datasets, Dataset};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Median pass time on the reference machine (2-core VM), which sizes the
/// run's fixed operation count.
const NOMINAL_OP_S: f64 = 0.19;

fn config(dir: &Path) -> StoreConfig {
    StoreConfig::pipelined(StoreConfig::Hybrid {
        dir: dir.to_path_buf(),
        bandwidth: None,
        resident_blocks: 8,
        masc: MascConfig::default(),
    })
}

/// The stores only read the `G`/`C` sub-patterns; the union pattern and
/// slot maps serve the simulator's gather, which this workload skips.
fn layout(ds: &Dataset) -> TensorLayout {
    TensorLayout {
        union: ds.g_pattern.clone(),
        g_pattern: ds.g_pattern.clone(),
        c_pattern: ds.c_pattern.clone(),
        g_slots: Arc::new(Vec::new()),
        c_slots: Arc::new(Vec::new()),
    }
}

/// Timings of one put-then-replay pass.
struct Pass {
    /// Wall time of the pass minus the bitwise checks.
    latency: f64,
    /// Time inside the store calls.
    store_s: f64,
    put_s: f64,
    fetch_s: f64,
    metrics: StoreMetrics,
    mismatches: usize,
    stranded: usize,
}

/// One operation: every step's G/C into a fresh store, then every step back
/// in reverse, each decoded matrix compared bit for bit with its input
/// (the comparison is not timed).
fn pass(ds: &Dataset, layout: &TensorLayout, dir: &Path) -> Result<Pass, String> {
    let n = ds.steps();
    let start = Instant::now();
    let t = Instant::now();
    let mut store = config(dir).build(layout).map_err(|e| e.to_string())?;
    for step in 0..n {
        store
            .put(step, &ds.g_series[step], &ds.c_series[step])
            .map_err(|e| format!("put {step}: {e}"))?;
    }
    store.sync().map_err(|e| e.to_string())?;
    let mut reader = store.finish().map_err(|e| e.to_string())?;
    let put_s = t.elapsed().as_secs_f64();
    let mut fetch_s = 0.0;
    let mut check_s = 0.0;
    let mut mismatches = 0;
    for step in (0..n).rev() {
        let t = Instant::now();
        let m = reader
            .fetch(step)
            .map_err(|e| format!("fetch {step}: {e}"))?;
        let fetched = Instant::now();
        fetch_s += (fetched - t).as_secs_f64();
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        match m {
            StepMatrices::Stored { g, c }
                if same(&g, &ds.g_series[step]) && same(&c, &ds.c_series[step]) => {}
            _ => mismatches += 1,
        }
        check_s += fetched.elapsed().as_secs_f64();
    }
    let metrics = reader.metrics().clone();
    let t = Instant::now();
    reader.cleanup();
    drop(reader);
    let close_s = t.elapsed().as_secs_f64();
    let latency = start.elapsed().as_secs_f64() - check_s;
    let stranded = std::fs::read_dir(dir).map_or(0, |d| d.count());
    Ok(Pass {
        latency,
        store_s: put_s + fetch_s + close_s,
        put_s,
        fetch_s,
        metrics,
        mismatches,
        stranded,
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = ctx.scratch.path().join("spill");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let spec = table2_datasets()
        .into_iter()
        .find(|s| s.name == "MOS_T7")
        .ok_or("MOS_T7 spec missing")?;
    let mut layers = Layers::default();
    let mut bytes = None;
    // Set-up: capture the tensor (a full transient of the spec's circuit),
    // then one warm-up pass.
    let setup = || {
        let ds = spec.generate(1.0).map_err(|e| e.to_string())?;
        let layout = layout(&ds);
        pass(&ds, &layout, &dir)?;
        Ok((ds, layout))
    };
    let (ds, _) = closed_loop(
        ctx,
        NOMINAL_OP_S,
        1,
        &mut out,
        setup,
        |(ds, layout), i, traced, out| {
            let t0 = Instant::now();
            let result = pass(ds, layout, &dir);
            let total = t0.elapsed().as_secs_f64();
            match result {
                Err(e) => {
                    out.fail(format!("op {i}: {e}"));
                    total
                }
                Ok(p) => {
                    if p.mismatches > 0 {
                        out.fail(format!(
                            "op {i}: {} steps decoded differently",
                            p.mismatches
                        ));
                    }
                    if p.stranded > 0 {
                        out.fail(format!("op {i}: {} spill files left behind", p.stranded));
                    }
                    match bytes {
                        None => bytes = Some(p.metrics.bytes_written),
                        Some(b) if b == p.metrics.bytes_written => {}
                        Some(b) => out.fail(format!(
                            "op {i}: committed {} bytes, first pass {b}",
                            p.metrics.bytes_written
                        )),
                    }
                    if traced {
                        layers.add_store(&p.metrics, p.put_s, p.fetch_s, ds.s_nz_bytes() as f64);
                        layers.ops += 1;
                        layers.add("unclaimed_s", (p.latency - p.store_s).max(0.0));
                    }
                    // The bitwise checks between fetches do not count.
                    p.latency
                }
            }
        },
    )?;
    out.notes.push(format!(
        "input MOS_T7 (mos-chain, size {}, {} initial steps, adaptive): {} steps, nnz {} per step (G {} + C {}), {} raw bytes",
        spec.size,
        spec.steps,
        ds.steps(),
        ds.nnz_per_step(),
        ds.g_pattern.nnz(),
        ds.c_pattern.nnz(),
        ds.s_nz_bytes()
    ));

    out.jacobian_bytes = bytes.unwrap_or(0) as f64;
    if let Some(b) = bytes {
        out.notes.push(format!(
            "committed {b} compressed bytes per pass (CR {:.2})",
            ds.s_nz_bytes() as f64 / b as f64
        ));
    }
    if ctx.trace {
        out.layers = layers.store_metrics();
    }
    Ok(out)
}
