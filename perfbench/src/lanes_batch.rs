//! `lanes-batch`: a 4-variant sweep, then a 2-window parallel-in-time
//! adjoint: the sweep, window and lane machinery. The timed operation runs
//! both on one lane; the traced run also times them on the machine's two
//! cores (see `README.md` for why the 2-lane runs are not the timed ones).

use crate::common::{
    bit_equal, closed_loop, median_of, ratio, row_scaled_error, Layers, Outcome, Rng,
};
use crate::decks::diode_ladder;
use crate::Ctx;
use masc_adjoint::{run_adjoint, Objective, StoreConfig};
use masc_circuit::transient::TranOptions;
use masc_circuit::{Circuit, ParamRef};
use masc_sweep::{run_sweep, SweepPlan, SweepResult};
use masc_window::{run_windowed, WindowOptions, WindowResult};
use std::time::Instant;

/// Sweep half: diode-ladder stages, steps and batch size.
const SWEEP_STAGES: usize = 24;
const SWEEP_STEPS: usize = 120;
const SWEEP_N: usize = 4;
/// Window half: stiff-ladder stages, steps and windows.
const WINDOW_STAGES: usize = 12;
const WINDOW_STEPS: usize = 1400;
const WINDOWS: usize = 2;
/// Lanes of the timed operation's sweep workers and windows.
const TIMED_LANES: usize = 1;
/// Lanes of the traced references: the machine's two cores.
const LANES: usize = 2;
const DT: f64 = 5e-5;
/// Warm-up operations per set-up.
const WARM_OPS: usize = 8;
/// Traced operations per timing of the 2-lane and monolithic references:
/// enough timings for their medians without doubling a traced run.
const REF_EVERY: usize = 16;
/// Median operation time on the reference machine (2-core VM), which
/// sizes the run's fixed operation count.
const NOMINAL_OP_S: f64 = 0.058;

/// Inputs of both halves.
struct Inputs {
    sweep_base: Circuit,
    sweep_values: Vec<f64>,
    window_base: Circuit,
    window_objectives: Vec<Objective>,
    window_params: Vec<ParamRef>,
}

fn tran(steps: usize) -> TranOptions {
    TranOptions::new(DT * steps as f64, DT)
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 300);
    let sweep_base = diode_ladder(SWEEP_STAGES, false, &mut rng);
    // Variant k scales the swept resistor by 1 + 0.05·k, jittered ±1 %.
    let sweep_values = (0..SWEEP_N)
        .map(|k| 1000.0 * (1.0 + 0.05 * k as f64) * rng.jitter(0.01))
        .collect();
    let window_base = diode_ladder(WINDOW_STAGES, true, &mut rng);
    let node = |name: &str| {
        window_base
            .find_node(name)
            .and_then(|n| n.unknown())
            .expect("ladder node")
    };
    let window_objectives = vec![
        Objective::FinalValue {
            unknown: node(&format!("d{}", WINDOW_STAGES - 1)),
        },
        Objective::Integral {
            unknown: node("d0"),
        },
    ];
    // Every ladder parameter except the diodes' grading/potential: a wide
    // parameter vector gives the reverse pass real φ work.
    let window_params = window_base
        .params()
        .into_iter()
        .filter(|p| {
            [".r", ".c", ".is", ".n", ".cj0"]
                .iter()
                .any(|s| p.path.ends_with(s))
                && !p.path.starts_with("IL")
        })
        .collect();
    Inputs {
        sweep_base,
        sweep_values,
        window_base,
        window_objectives,
        window_params,
    }
}

fn sweep_plan(inp: &Inputs, workers: usize) -> SweepPlan {
    let base = &inp.sweep_base;
    let probe = base
        .find_node("p0")
        .and_then(|n| n.unknown())
        .expect("ladder probe node");
    let r0 = base.find_param("R0.r").expect("R0.r");
    let c0 = base.find_param("C0.c").expect("C0.c");
    let mut plan = SweepPlan::new(
        tran(SWEEP_STEPS),
        vec![
            Objective::FinalValue { unknown: probe },
            Objective::Integral { unknown: probe },
        ],
        vec![r0.clone(), c0],
    )
    .with_workers(workers);
    for &v in &inp.sweep_values {
        plan.push_variant(vec![(r0.clone(), v)]);
    }
    plan
}

/// The window bench's settings: tolerances in coupling-residual units that
/// this quasi-static ladder meets on the first correction sweep.
fn window_options(lanes: usize) -> WindowOptions {
    WindowOptions {
        tol: 1e-8,
        adjoint_tol: Some(1e-7),
        coarse_substeps: 4,
        ..WindowOptions::new(WINDOWS)
    }
    .with_lanes(lanes)
}

fn sweep(inp: &Inputs, workers: usize) -> Result<SweepResult, String> {
    run_sweep(&inp.sweep_base, &sweep_plan(inp, workers)).map_err(|e| format!("sweep: {e}"))
}

fn window(inp: &Inputs, lanes: usize) -> Result<WindowResult, String> {
    let mut ckt = inp.window_base.clone();
    run_windowed(
        &mut ckt,
        &tran(WINDOW_STEPS),
        &window_options(lanes),
        &inp.window_objectives,
        &inp.window_params,
    )
    .map_err(|e| format!("window: {e}"))
}

/// One operation's outputs.
struct Op {
    sweep: SweepResult,
    window: WindowResult,
    sweep_s: f64,
    window_s: f64,
}

fn op(inp: &Inputs, lanes: usize) -> Result<Op, String> {
    let t = Instant::now();
    let sweep = sweep(inp, lanes)?;
    let sweep_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let window = window(inp, lanes)?;
    let window_s = t.elapsed().as_secs_f64();
    Ok(Op {
        sweep,
        window,
        sweep_s,
        window_s,
    })
}

fn sens_of(sweep: &SweepResult) -> Vec<Vec<Vec<f64>>> {
    sweep
        .sensitivities
        .iter()
        .map(|s| s.values.clone())
        .collect()
}

fn same_sens(a: &[Vec<Vec<f64>>], b: &[Vec<Vec<f64>>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bit_equal(x, y))
}

fn committed_bytes(op: &Op) -> f64 {
    (op.sweep.stats.super_tensor_bytes + op.window.stats.window_bytes.iter().sum::<usize>()) as f64
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Sweep sensitivities per variant, windowed sensitivities, bytes.
    type Outputs = (Vec<Vec<Vec<f64>>>, Vec<Vec<f64>>, f64);
    let mut first: Option<Outputs> = None;
    let mut layers = Layers::default();
    // 2-lane and monolithic reference runs of traced operations.
    let mut two_lane: Vec<(Op, f64)> = Vec::new();
    let setup = || {
        let inp = inputs(ctx.seed);
        for _ in 0..WARM_OPS {
            op(&inp, TIMED_LANES)?;
        }
        Ok(inp)
    };
    let inp = closed_loop(
        ctx,
        NOMINAL_OP_S,
        1,
        &mut out,
        setup,
        |inp, i, traced, out| {
            let t0 = Instant::now();
            let result = op(inp, TIMED_LANES);
            let latency = t0.elapsed().as_secs_f64();
            match result {
                Err(e) => out.fail(format!("op {i}: {e}")),
                Ok(o) => {
                    let sens = sens_of(&o.sweep);
                    let bytes = committed_bytes(&o);
                    match &first {
                        None => first = Some((sens, o.window.sensitivities.clone(), bytes)),
                        Some((s, w, b))
                            if same_sens(s, &sens)
                                && bit_equal(w, &o.window.sensitivities)
                                && *b == bytes => {}
                        Some(_) => {
                            out.fail(format!("op {i}: outputs differ from the first operation"))
                        }
                    }
                    if traced {
                        layers.add("sweep.one_lane_s", o.sweep_s);
                        layers.add("window.one_lane_s", o.window_s);
                        layers.add("raw_bytes", o.sweep.stats.raw_bytes as f64);
                        layers.add("bytes_written", o.sweep.stats.super_tensor_bytes as f64);
                        layers.add("unclaimed_s", (latency - o.sweep_s - o.window_s).max(0.0));
                        layers.ops += 1;
                    }
                    // 2-lane and monolithic references after every
                    // REF_EVERY-th traced operation, outside its latency.
                    if traced && i % (2 * REF_EVERY) == 1 {
                        let refs = || -> Result<(Op, f64), String> {
                            let two = op(inp, LANES)?;
                            let t = Instant::now();
                            monolithic(inp)?;
                            Ok((two, t.elapsed().as_secs_f64()))
                        };
                        match refs() {
                            Ok(r) => two_lane.push(r),
                            Err(e) => out.fail(format!("op {i} reference: {e}")),
                        }
                    }
                }
            }
            latency
        },
    )?;
    out.notes.push(format!(
        "input sweep: {SWEEP_STAGES}-stage diode ladder + swept RC stage, {SWEEP_STEPS} steps, N={SWEEP_N} (R0 = {:?}), {TIMED_LANES} worker timed",
        inp.sweep_values
    ));
    out.notes.push(format!(
        "input window: {WINDOW_STAGES}-stage stiff diode ladder, {WINDOW_STEPS} steps, W={WINDOWS} on {TIMED_LANES} lane timed, {} params",
        inp.window_params.len()
    ));

    // References, outside the timed loop.
    let (sweep_sens, window_sens, bytes) = first.ok_or("no operation succeeded")?;
    out.jacobian_bytes = bytes;
    match op(&inp, LANES) {
        Ok(two) => {
            if !same_sens(&sens_of(&two.sweep), &sweep_sens) {
                out.fail("sweep: 1-worker and 2-worker sensitivities differ");
            }
            if !bit_equal(&two.window.sensitivities, &window_sens) {
                out.fail("window: 1-lane and 2-lane sensitivities differ");
            }
        }
        Err(e) => out.fail(e),
    }
    let plan = sweep_plan(&inp, 1);
    let mut worst: f64 = 0.0;
    for (k, variant) in plan.variants.iter().enumerate() {
        let mut ckt = inp.sweep_base.clone();
        for (p, v) in variant {
            ckt.set_param_value(p, *v);
        }
        match run_adjoint(
            &mut ckt,
            &plan.tran,
            &StoreConfig::RawMemory,
            &plan.objectives,
            &plan.params,
        ) {
            Ok(r) => worst = worst.max(row_scaled_error(&sweep_sens[k], &r.sensitivities.values)),
            Err(e) => out.fail(format!("sweep reference {k}: {e}")),
        }
    }
    if worst > 1e-6 {
        out.fail(format!(
            "sweep vs independent runs: row-scaled error {worst:e}"
        ));
    }
    out.notes.push(format!(
        "check sweep vs independent run_adjoint: row-scaled error {worst:e}"
    ));
    match monolithic(&inp) {
        Ok(mono) => {
            let err = row_scaled_error(&window_sens, &mono);
            out.notes.push(format!(
                "check window vs monolithic: row-scaled error {err:e}"
            ));
            if err > 1e-6 {
                out.fail(format!("window vs monolithic: row-scaled error {err:e}"));
            }
        }
        Err(e) => out.fail(e),
    }

    if ctx.trace {
        let l = &layers;
        let med = |f: &dyn Fn(&(Op, f64)) -> f64| -> f64 {
            let v: Vec<f64> = two_lane.iter().map(f).collect();
            if v.is_empty() {
                0.0
            } else {
                median_of(&v)
            }
        };
        let (s2, w2, mono) = (med(&|r| r.0.sweep_s), med(&|r| r.0.window_s), med(&|r| r.1));
        let (s1, w1) = (l.per_op("sweep.one_lane_s"), l.per_op("window.one_lane_s"));
        out.layers = vec![
            ("sweep.run_s", s2),
            (
                "sweep.serial_s",
                med(&|r| r.0.sweep.stats.serial_time.as_secs_f64()),
            ),
            ("sweep.one_lane_s", s1),
            ("sweep.lane_speedup", ratio(s1, s2)),
            ("window.run_s", w2),
            (
                "window.coarse_s",
                med(&|r| r.0.window.stats.coarse_time.as_secs_f64()),
            ),
            (
                "window.serial_s",
                med(&|r| r.0.window.stats.serial_time.as_secs_f64()),
            ),
            (
                "window.fine_runs",
                med(&|r| r.0.window.stats.fine_runs as f64),
            ),
            ("window.one_lane_s", w1),
            ("window.lane_speedup", ratio(w1, w2)),
            ("window.monolithic_s", mono),
            ("window.vs_monolithic", ratio(mono, w2)),
            (
                "compress.ratio",
                ratio(l.sum("raw_bytes"), l.sum("bytes_written")),
            ),
            ("unclaimed_s", l.per_op("unclaimed_s")),
        ];
    }
    Ok(out)
}

/// The monolithic run the windowed one must reproduce: the same
/// compressed store the window lanes use.
fn monolithic(inp: &Inputs) -> Result<Vec<Vec<f64>>, String> {
    let mut ckt = inp.window_base.clone();
    run_adjoint(
        &mut ckt,
        &tran(WINDOW_STEPS),
        &StoreConfig::Compressed(window_options(1).masc),
        &inp.window_objectives,
        &inp.window_params,
    )
    .map(|r| r.sensitivities.values)
    .map_err(|e| format!("monolithic: {e}"))
}
