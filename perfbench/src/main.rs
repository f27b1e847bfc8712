//! Wall-clock benchmark of the MASC deck→dO/dp path.
//!
//! ```text
//! masc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! masc-perfbench --list-metrics | --list-workloads
//! ```
//!
//! Each invocation runs one workload in this process as a closed loop for
//! `--seconds`, checks every output, and prints one JSON object as its
//! last line: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones, timed around the calls into each layer from
//! this benchmark's own code. See `README.md`.

mod adjoint_paper;
mod common;
mod decks;
mod lanes_batch;
mod serve_mix;
mod stats;
mod store_replay;

use std::time::Instant;

/// A metric's name, unit and better direction.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// End-to-end metrics, reported with `--trace 0` by every workload.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s", "lower"),
    ("op_s_p50", "s", "lower"),
    ("op_s_tail", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("jacobian_bytes", "B", "lower"),
    ("peak_rss_bytes", "B", "lower"),
];

/// Per-layer metrics, reported with `--trace 1`. A workload that does not
/// reach a layer reports it as 0.
pub const PER_LAYER: &[MetricDef] = &[
    ("circuit.parse_s", "s", "lower"),
    ("circuit.elaborate_s", "s", "lower"),
    ("circuit.transient_s", "s", "lower"),
    ("circuit.device_eval_s", "s", "lower"),
    ("sparse.lu_forward_s", "s", "lower"),
    ("circuit.newton_iters", "1/op", "lower"),
    ("circuit.steps", "1/op", "lower"),
    ("adjoint.reverse_s", "s", "lower"),
    ("sparse.lu_transpose_s", "s", "lower"),
    ("adjoint.param_deriv_s", "s", "lower"),
    ("adjoint.store_put_s", "s", "lower"),
    ("compress.encode_s", "s", "lower"),
    ("compress.encode_mb_s", "MB/s", "higher"),
    ("adjoint.backpressure_s", "s", "lower"),
    ("adjoint.store_fetch_s", "s", "lower"),
    ("compress.decode_s", "s", "lower"),
    ("compress.decode_mb_s", "MB/s", "higher"),
    ("adjoint.prefetch_wait_s", "s", "lower"),
    ("adjoint.prefetch_hit_ratio", "ratio", "higher"),
    ("adjoint.spill_io_s", "s", "lower"),
    ("compress.ratio", "ratio", "higher"),
    ("sweep.run_s", "s", "lower"),
    ("sweep.serial_s", "s", "lower"),
    ("sweep.one_lane_s", "s", "lower"),
    ("sweep.lane_speedup", "ratio", "higher"),
    ("window.run_s", "s", "lower"),
    ("window.coarse_s", "s", "lower"),
    ("window.serial_s", "s", "lower"),
    ("window.fine_runs", "1/op", "lower"),
    ("window.one_lane_s", "s", "lower"),
    ("window.lane_speedup", "ratio", "higher"),
    ("window.monolithic_s", "s", "lower"),
    ("window.vs_monolithic", "ratio", "higher"),
    ("serve.hit_s", "s", "lower"),
    ("serve.disk_hit_s", "s", "lower"),
    ("serve.miss_s", "s", "lower"),
    ("serve.hit_ratio", "ratio", "higher"),
    ("serve.cold_runs", "1/op", "lower"),
    ("serve.coalesced", "1/op", "higher"),
    ("serve.evictions", "1/op", "lower"),
    ("unclaimed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
];

/// The gated workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["adjoint-paper", "lanes-batch", "serve-mix"];

/// Workloads that run and check like the gated ones but are left out of
/// `BENCHMARK.json` because their figures do not repeat from run to run on
/// the reference machine (see `README.md`).
pub const DIAGNOSTIC: &[&str] = &["store-replay"];

/// Run settings every workload reads.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Traced mode.
    pub trace: bool,
    /// Process start.
    pub start: Instant,
    /// Per-run scratch directory.
    pub scratch: common::ScratchDir,
}

fn usage() -> ! {
    eprintln!(
        "usage: masc-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       masc-perfbench --list-metrics | --list-workloads",
        WORKLOADS.iter().chain(DIAGNOSTIC).copied().collect::<Vec<_>>().join("|")
    );
    std::process::exit(2);
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit `{:?}` prints; non-finite values (not
/// expressible in JSON) become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

fn main() {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list-metrics") {
        for (kind, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            for (name, unit, better) in defs {
                println!("{kind} {name} {unit} {better}");
            }
        }
        return;
    }
    if args.iter().any(|a| a == "--list-workloads") {
        for w in WORKLOADS {
            println!("{w}");
        }
        return;
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    if !WORKLOADS.iter().chain(DIAGNOSTIC).any(|w| *w == workload) {
        usage();
    }
    let scratch = match common::ScratchDir::create(&workload) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot create the run's scratch directory: {e}");
            std::process::exit(1);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# masc-perfbench workload={workload} seed={seed} seconds={seconds} trace={}",
        u8::from(trace)
    );
    println!(
        "# host cores={cores} git_rev={} profile={profile}",
        common::git_revision()
    );
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        start,
        scratch,
    };
    let ticks = common::cpu_ticks();
    let result = match workload.as_str() {
        "adjoint-paper" => adjoint_paper::run(&ctx),
        "store-replay" => store_replay::run(&ctx),
        "lanes-batch" => lanes_batch::run(&ctx),
        "serve-mix" => serve_mix::run(&ctx),
        _ => usage(),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{workload}: run aborted: {e}");
            // `exit` skips destructors: remove the scratch directory first.
            drop(ctx);
            std::process::exit(1);
        }
    };
    let (steal, total) = common::cpu_ticks();
    println!(
        "# host steal during the run: {:.1} % of CPU time",
        100.0 * common::ratio((steal - ticks.0) as f64, (total - ticks.1) as f64)
    );
    for path in ctx.scratch.stranded() {
        out.fail(format!("stranded file {}", path.display()));
    }
    drop(ctx);
    if out.attempted == 0 {
        eprintln!("{workload}: no operation attempted");
        std::process::exit(1);
    }
    println!("# set-up durations (s): {:?}", out.setups);
    for note in &out.notes {
        println!("# {note}");
    }
    for e in &out.errors {
        println!("# FAILED: {e}");
    }
    println!("# attempted={} failed={}", out.attempted, out.failed);

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if trace {
        let untraced = stats::summarize(&out.latencies);
        let traced = stats::summarize(&out.traced_latencies);
        println!(
            "# trace op_s_p50 traced={:?} untraced={:?} (n={} / {})",
            traced.p50, untraced.p50, traced.n, untraced.n
        );
        for &(name, unit, _) in PER_LAYER {
            let value = if name == "trace.overhead_s" {
                traced.p50 - untraced.p50
            } else {
                out.layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v)
            };
            metrics.push((name, unit, value));
        }
    } else {
        let ends: Vec<usize> = out.blocks.iter().map(|b| b.end).collect();
        let (s, blocks) = stats::summarize_blocks(&out.latencies, &ends);
        if blocks.is_empty() {
            println!(
                "# op_s_tail is p{} over {} samples, {} beyond it",
                s.tail_p, s.n, s.beyond
            );
        } else {
            let each: Vec<String> = blocks
                .iter()
                .map(|b| {
                    format!(
                        "p{} of {} ({} beyond) = {:?}",
                        b.tail_p, b.n, b.beyond, b.tail
                    )
                })
                .collect();
            println!(
                "# op_s_tail is the median over {} blocks of: {}",
                blocks.len(),
                each.join(", ")
            );
        }
        let rates: Vec<String> = out
            .blocks
            .iter()
            .map(|b| format!("{:.4}", common::ratio(b.ops as f64, b.wall_s)))
            .collect();
        println!(
            "# ops_per_s is the median over {} blocks of: {}",
            out.blocks.len(),
            rates.join(", ")
        );
        let values = [
            common::median_of(&out.setups),
            s.p50,
            s.tail,
            out.ops_per_s(),
            out.jacobian_bytes,
            out.peak_rss_bytes as f64,
        ];
        for (&(name, unit, _), value) in END_TO_END.iter().zip(values) {
            metrics.push((name, unit, value));
        }
    }
    for (name, unit, value) in &metrics {
        println!("# metric {name} = {value:?} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        body.join(", ")
    );
    if out.failed > 0 {
        std::process::exit(1);
    }
}
