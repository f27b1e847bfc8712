//! `adjoint-paper`: paper Algorithm 2 on one thread, deck text to dO/dp.

use crate::common::{bit_equal, closed_loop, median_of, Layers, Outcome, Rng};
use crate::decks::{paper_deck, PaperDeck, PAPER_FAMILIES};
use crate::Ctx;
use masc_adjoint::{
    adjoint_sensitivities, finite_difference, run_adjoint, ForwardRecord, Objective, StoreConfig,
    TensorLayout,
};
use masc_circuit::parser::parse_netlist;
use masc_circuit::transient::transient;
use masc_circuit::ParamRef;
use masc_compress::MascConfig;
use std::hint::black_box;
use std::time::Instant;

/// Median job time on the reference machine (2-core VM), which sizes the
/// run's fixed operation count.
const NOMINAL_OP_S: f64 = 0.21;

/// One job's output.
struct Job {
    values: Vec<Vec<f64>>,
    bytes_written: u64,
    newton_iterations: usize,
}

/// Parses the deck and resolves its eight objectives and every parameter.
fn parse(
    deck: &PaperDeck,
) -> Result<
    (
        masc_circuit::parser::ParsedNetlist,
        Vec<Objective>,
        Vec<ParamRef>,
    ),
    String,
> {
    let parsed = parse_netlist(&deck.text).map_err(|e| format!("parse: {e}"))?;
    let mut objectives = Vec::with_capacity(deck.observe.len());
    for (k, name) in deck.observe.iter().enumerate() {
        let unknown = parsed
            .circuit
            .find_node(name)
            .and_then(|n| n.unknown())
            .ok_or_else(|| format!("node {name} missing"))?;
        objectives.push(if k % 2 == 0 {
            Objective::FinalValue { unknown }
        } else {
            Objective::Integral { unknown }
        });
    }
    let params = parsed.circuit.params();
    Ok((parsed, objectives, params))
}

fn store() -> StoreConfig {
    StoreConfig::Compressed(MascConfig::default())
}

/// The untraced operation: `parse_netlist` then `run_adjoint`.
fn job(deck: &PaperDeck) -> Result<Job, String> {
    let (mut parsed, objectives, params) = parse(deck)?;
    let tran = parsed.tran.clone().ok_or("deck has no .tran")?;
    let run = run_adjoint(&mut parsed.circuit, &tran, &store(), &objectives, &params)
        .map_err(|e| e.to_string())?;
    Ok(Job {
        values: run.sensitivities.values,
        bytes_written: run.store_metrics.bytes_written,
        newton_iterations: run.tran_stats.newton_iterations,
    })
}

/// The traced operation: `run_adjoint` rebuilt from its public steps, each
/// timed from here.
fn traced_job(deck: &PaperDeck, layers: &mut Layers) -> Result<(Job, f64), String> {
    let t = Instant::now();
    let (mut parsed, objectives, params) = parse(deck)?;
    let parse_s = t.elapsed().as_secs_f64();
    let tran = parsed.tran.clone().ok_or("deck has no .tran")?;
    let circuit = &mut parsed.circuit;

    let t = Instant::now();
    let mut system = circuit.elaborate().map_err(|e| e.to_string())?;
    let elaborate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let layout = TensorLayout::of(&system);
    let raw_step_bytes = 8 * (layout.g_pattern.nnz() + layout.c_pattern.nnz());
    let mut record = ForwardRecord::new(layout, &store()).map_err(|e| e.to_string())?;
    let tran_result =
        transient(circuit, &mut system, &tran, &mut record).map_err(|e| e.to_string())?;
    let transient_s = t.elapsed().as_secs_f64();
    let stored_steps = record.len();

    let t = Instant::now();
    let (meta, reader) = record.into_parts().map_err(|e| e.to_string())?;
    let sens = adjoint_sensitivities(circuit, &mut system, &meta, reader, &objectives, &params)
        .map_err(|e| e.to_string())?;
    let reverse_s = t.elapsed().as_secs_f64();

    let ts = &tran_result.stats;
    let st = &sens.stats.store;
    let raw = (stored_steps * raw_step_bytes) as f64;
    layers.add("circuit.parse_s", parse_s);
    layers.add("circuit.elaborate_s", elaborate_s);
    layers.add("circuit.transient_s", transient_s);
    layers.add("circuit.device_eval_s", ts.device_eval_time.as_secs_f64());
    layers.add("sparse.lu_forward_s", ts.lu_time.as_secs_f64());
    layers.add("circuit.newton_iters", ts.newton_iterations as f64);
    layers.add("circuit.steps", ts.steps as f64);
    layers.add("adjoint.reverse_s", reverse_s);
    layers.add("sparse.lu_transpose_s", sens.stats.lu_time.as_secs_f64());
    layers.add("adjoint.param_deriv_s", sens.stats.param_time.as_secs_f64());
    layers.add_store(
        st,
        st.store_time.as_secs_f64(),
        st.fetch_time.as_secs_f64(),
        raw,
    );
    layers.ops += 1;
    let claimed = parse_s + elaborate_s + transient_s + reverse_s;
    Ok((
        Job {
            values: sens.values,
            bytes_written: st.bytes_written,
            newton_iterations: ts.newton_iterations,
        },
        claimed,
    ))
}

/// Central finite differences for a seeded sample of significant entries
/// of `values`: returns the number of entries checked, or the first
/// disagreement.
fn fd_check(deck: &PaperDeck, values: &[Vec<f64>], rng: &mut Rng) -> Result<usize, String> {
    let (parsed, objectives, params) = parse(deck)?;
    let tran = parsed.tran.clone().ok_or("deck has no .tran")?;
    let circuit = &parsed.circuit;
    // Central differences resolve dO/dp only when a relative perturbation
    // moves O well above the Newton noise; the library's own FD tests skip
    // the rest the same way. Take the most significant entries and let the
    // seed pick among them.
    let mut significant: Vec<(f64, usize, usize)> = Vec::new();
    for (i, row) in values.iter().enumerate() {
        for (j, &a) in row.iter().enumerate() {
            let weight = (a * circuit.param_value(&params[j])).abs();
            if weight >= 1e-6 {
                significant.push((weight, i, j));
            }
        }
    }
    significant.sort_by(|a, b| b.0.total_cmp(&a.0));
    significant.truncate(12);
    if significant.is_empty() {
        return Err("no significant sensitivity to check".into());
    }
    // Linear RC decks are held to the tighter tolerance the library tests
    // use for linear circuits.
    let tolerance = if deck.family == "rc-mesh" { 2e-3 } else { 1e-2 };
    let mut checked = 0;
    for _ in 0..2 {
        let (_, i, j) = significant.swap_remove(rng.below(significant.len()));
        let fd = finite_difference(circuit, &tran, &objectives[i], &params[j], 1e-5)
            .map_err(|e| format!("fd run: {e}"))?;
        let a = values[i][j];
        let err = (a - fd).abs() / a.abs().max(fd.abs());
        if err >= tolerance {
            return Err(format!(
                "{}: dO{i}/d{} adjoint {a:e} vs central FD {fd:e} (rel {err:.2e})",
                deck.family, params[j].path
            ));
        }
        checked += 1;
        if significant.is_empty() {
            break;
        }
    }
    Ok(checked)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let families = PAPER_FAMILIES.len();
    let mut first: Vec<Option<Job>> = (0..families).map(|_| None).collect();
    let mut layers = Layers::default();
    let mut per_deck: Vec<Vec<f64>> = vec![Vec::new(); families];
    let decks = closed_loop(
        ctx,
        NOMINAL_OP_S,
        families,
        &mut out,
        // Set-up: generate the three decks, then one warm-up job each.
        || {
            let decks: Vec<PaperDeck> = (0..families).map(|i| paper_deck(i, ctx.seed)).collect();
            for d in &decks {
                black_box(job(d)?);
            }
            Ok(decks)
        },
        |decks, i, traced, out| {
            let d = i % families;
            let t0 = Instant::now();
            let result = if traced {
                traced_job(&decks[d], &mut layers).map(|(job, claimed)| {
                    let total = t0.elapsed().as_secs_f64();
                    layers.add("unclaimed_s", (total - claimed).max(0.0));
                    job
                })
            } else {
                job(&decks[d])
            };
            let latency = t0.elapsed().as_secs_f64();
            per_deck[d].push(latency);
            match result {
                Err(e) => out.fail(format!("op {i} ({}): {e}", decks[d].family)),
                Ok(job) => match &first[d] {
                    None => first[d] = Some(job),
                    Some(f) if bit_equal(&f.values, &job.values) => {}
                    Some(_) => out.fail(format!(
                        "op {i} ({}): sensitivities differ from the deck's first run",
                        decks[d].family
                    )),
                },
            }
            latency
        },
    )?;
    for d in &decks {
        out.notes.push(format!(
            "input {}: size {}, {} fixed steps, {} deck bytes, objectives 8 (final/integral at {:?})",
            d.family,
            d.size,
            d.steps,
            d.text.len(),
            d.observe
        ));
    }

    for ((deck, lat), f) in decks.iter().zip(&per_deck).zip(&first) {
        out.notes.push(format!(
            "{}: median op {:.4} s over {} ops, {} Newton iterations, {} committed bytes",
            deck.family,
            median_of(lat),
            lat.len(),
            f.as_ref().map_or(0, |j| j.newton_iterations),
            f.as_ref().map_or(0, |j| j.bytes_written),
        ));
    }

    // References, outside the timed loop: lossless storage must reproduce
    // the raw-memory run bit for bit, and sampled entries must agree with
    // central finite differences.
    let mut bytes = 0.0;
    let mut rng = Rng::new(ctx.seed, 7);
    for (d, deck) in decks.iter().enumerate() {
        let Some(got) = &first[d] else { continue };
        bytes += got.bytes_written as f64 / decks.len() as f64;
        let (mut parsed, objectives, params) = parse(deck)?;
        let tran = parsed.tran.clone().ok_or("deck has no .tran")?;
        match run_adjoint(
            &mut parsed.circuit,
            &tran,
            &StoreConfig::RawMemory,
            &objectives,
            &params,
        ) {
            Ok(raw) if bit_equal(&raw.sensitivities.values, &got.values) => {}
            Ok(_) => out.fail(format!(
                "{}: compressed-store sensitivities differ from the raw-memory run",
                deck.family
            )),
            Err(e) => out.fail(format!("{}: raw-memory reference failed: {e}", deck.family)),
        }
        match fd_check(deck, &got.values, &mut rng) {
            Ok(n) => out.notes.push(format!(
                "check {}: {n} entries agree with central FD",
                deck.family
            )),
            Err(e) => out.fail(e),
        }
    }
    out.jacobian_bytes = bytes;
    if ctx.trace {
        let l = &layers;
        let mut m = vec![
            ("circuit.parse_s", l.per_op("circuit.parse_s")),
            ("circuit.elaborate_s", l.per_op("circuit.elaborate_s")),
            ("circuit.transient_s", l.per_op("circuit.transient_s")),
            ("circuit.device_eval_s", l.per_op("circuit.device_eval_s")),
            ("sparse.lu_forward_s", l.per_op("sparse.lu_forward_s")),
            ("circuit.newton_iters", l.per_op("circuit.newton_iters")),
            ("circuit.steps", l.per_op("circuit.steps")),
            ("adjoint.reverse_s", l.per_op("adjoint.reverse_s")),
            ("sparse.lu_transpose_s", l.per_op("sparse.lu_transpose_s")),
            ("adjoint.param_deriv_s", l.per_op("adjoint.param_deriv_s")),
        ];
        m.extend(l.store_metrics());
        out.layers = m;
    }
    Ok(out)
}
