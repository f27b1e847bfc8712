//! `serve-mix`: two closed-loop clients, driven from one thread, share one
//! `masc-serve` line-protocol connection answered by two server workers,
//! over a skewed working set that the memory tier cannot hold and the disk
//! tier can.

use crate::common::{
    median_of, peak_rss_bytes, planned_ops, ratio, row_scaled_error, Outcome, Rng, GUARD_FACTOR,
    SETUPS,
};
use crate::Ctx;
use masc_adjoint::{run_adjoint, StoreConfig};
use masc_circuit::parser::parse_netlist;
use masc_compress::MascConfig;
use masc_serve::protocol::{escape_deck, parse_request};
use masc_serve::server::run_lines;
use masc_serve::{engine, CacheMetrics, JobRequest, Request, ServeConfig, Server, TensorCache};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, PipeReader, PipeWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Diode-ladder stages and transient steps of every deck.
const STAGES: usize = 16;
const STEPS: usize = 400;
/// Decks in the hot working set, requested with Zipf(1) popularity.
const HOT: usize = 32;
/// Share of requests that name a deck outside the hot set: the catalogue's
/// long tail, cold for the first client to reach it. Both clients reach
/// each tail deck, so about half of these are cold misses: 3 % of
/// requests, which puts `op_s_tail` (p99 on thousands of requests) well
/// inside the miss latencies rather than on their boundary.
const TAIL_SHARE: f64 = 0.06;
/// Memory tier budget: room for about 9 of the hot set's entries.
const MEM_BUDGET: usize = 1_500_000;
/// Disk tier budget: every deck a run can touch.
const DISK_BUDGET: usize = 1 << 30;
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const OBJECTIVES: &str = "final:n16,integral:n8";
/// Hot decks timed through the disk-tier probe in trace mode.
const DISK_PROBES: usize = 8;
/// Median time between one client's requests on the reference machine
/// (2-core VM), which sizes each client's fixed request count.
const NOMINAL_REQUEST_S: f64 = 0.0075;

/// The serve bench's deck: a sine-driven diode RC ladder, R/C values
/// jittered ±10 % per deck.
fn deck(seed: u64, id: u64) -> String {
    let mut rng = Rng::new(seed, 1000 + id);
    let mut d = format!("* serve-mix deck {id}\nV1 n0 0 SIN(0 1.5 2e7)\n");
    for s in 0..STAGES {
        let n = s + 1;
        d.push_str(&format!("RS{s} n{s} n{n} {:?}\n", 220.0 * rng.jitter(0.1)));
        d.push_str(&format!("CL{s} n{n} 0 {:?}\n", 3e-12 * rng.jitter(0.1)));
        d.push_str(&format!("DL{s} n{n} 0 IS=1e-14 CJ0=2p\n"));
        d.push_str(&format!("RG{s} n{n} 0 {:?}\n", 1e5 * rng.jitter(0.1)));
    }
    let dt = 5e-9;
    d.push_str(&format!(".tran {dt:?} {:?}\n.end\n", dt * STEPS as f64));
    d
}

fn request_line(id: &str, deck: &str) -> String {
    format!("SOLVE {id} {OBJECTIVES} * {}\n", escape_deck(deck))
}

/// The parsed job a request line carries, for the library-side checks.
fn job_request(seed: u64, id: u64) -> Result<JobRequest, String> {
    match parse_request(request_line("ref", &deck(seed, id)).trim_end()) {
        Ok(Request::Solve(req)) => Ok(req),
        other => Err(format!("request line did not parse as SOLVE: {other:?}")),
    }
}

/// Zipf(1) cumulative popularity over the hot set, ranks assigned by a
/// seeded shuffle.
fn popularity(seed: u64) -> Vec<f64> {
    let mut rank: Vec<usize> = (0..HOT).collect();
    let mut rng = Rng::new(seed, 400);
    for i in (1..HOT).rev() {
        rank.swap(i, rng.below(i + 1));
    }
    let weight: Vec<f64> = rank.iter().map(|&r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weight.iter().sum();
    let mut acc = 0.0;
    weight
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Where a client's deck ids come from. Ids `0..HOT` are the hot set; tail
/// decks count up from `HOT`.
enum Source {
    /// A fixed list (the warm-up).
    List(std::vec::IntoIter<u64>),
    /// The seeded request stream: `left` more requests in this session,
    /// unless the guard deadline passes first.
    Stream {
        rng: Rng,
        cdf: Vec<f64>,
        next_tail: u64,
        left: usize,
        guard: Instant,
    },
}

impl Source {
    fn stream(seed: u64, client: usize, cdf: &[f64], guard: Instant) -> Self {
        Source::Stream {
            rng: Rng::new(seed, 500 + client as u64),
            cdf: cdf.to_vec(),
            next_tail: HOT as u64,
            left: 0,
            guard,
        }
    }

    /// Lets a stream issue `requests` more; the stream carries on where it
    /// stopped.
    fn allow(&mut self, requests: usize) {
        if let Source::Stream { left, .. } = self {
            *left = requests;
        }
    }

    /// The next deck id, or `None` when the client is done. Both clients
    /// walk the same tail sequence, so a tail deck is usually cold for the
    /// first client to reach it and a hit (or a coalesced wait) for the
    /// other.
    fn next(&mut self) -> Option<u64> {
        match self {
            Source::List(it) => it.next(),
            Source::Stream {
                rng,
                cdf,
                next_tail,
                left,
                guard,
            } => {
                if *left == 0 || Instant::now() >= *guard {
                    return None;
                }
                *left -= 1;
                if rng.unit() < TAIL_SHARE {
                    *next_tail += 1;
                    return Some(*next_tail - 1);
                }
                let u = rng.unit();
                Some(cdf.iter().position(|&c| u < c).unwrap_or(HOT - 1) as u64)
            }
        }
    }
}

/// One parsed `OK` answer.
#[derive(Debug, Clone)]
struct Answer {
    values: Vec<f64>,
    sens: Vec<Vec<f64>>,
}

fn parse_floats(s: &str) -> Result<Vec<f64>, String> {
    s.split(',')
        .map(|v| {
            v.parse::<f64>()
                .map_err(|e| format!("bad number {v:?}: {e}"))
        })
        .collect()
}

/// Parses `OK <id> <hit|miss> steps=<n> values=<…> sens=<…>`.
fn parse_ok(line: &str) -> Result<(bool, Answer), String> {
    let mut f = line.split(' ');
    let (Some("OK"), Some(_id), Some(kind), Some(_steps), Some(values), Some(sens), None) = (
        f.next(),
        f.next(),
        f.next(),
        f.next(),
        f.next(),
        f.next(),
        f.next(),
    ) else {
        return Err(format!("unexpected response {line:?}"));
    };
    let values = parse_floats(values.strip_prefix("values=").ok_or("no values")?)?;
    let sens = sens
        .strip_prefix("sens=")
        .ok_or("no sens")?
        .split(';')
        .map(parse_floats)
        .collect::<Result<_, _>>()?;
    Ok((kind == "hit", Answer { values, sens }))
}

fn bits_equal(a: &Answer, b: &Answer) -> bool {
    let eq = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    eq(&a.values, &b.values)
        && a.sens.len() == b.sens.len()
        && a.sens.iter().zip(&b.sens).all(|(x, y)| eq(x, y))
}

/// The first answer the server gave for each deck, shared by the clients
/// of one server.
type FirstAnswers = Mutex<BTreeMap<u64, Answer>>;

/// One request as a client saw it. Answers are checked as they arrive and
/// not kept, so the benchmark's own memory stays out of `peak_rss_bytes`.
#[derive(Debug)]
struct Sample {
    traced: bool,
    latency: f64,
    /// Time from the request line's write to the response line's read.
    wire: f64,
    hit: bool,
    /// Why the answer was wrong, if it was.
    error: Option<String>,
}

/// Parses an `OK` line and checks it bit for bit against the first answer
/// for `deck`, recording it when it is the first.
fn check(line: &str, deck: u64, first: &FirstAnswers) -> Result<bool, String> {
    let (hit, answer) = parse_ok(line)?;
    let mut first = first.lock().map_err(|_| "answer table poisoned")?;
    match first.get(&deck) {
        None => {
            first.insert(deck, answer);
        }
        Some(f) if bits_equal(f, &answer) => {}
        Some(_) => return Err(format!("deck {deck}: answer differs from the first")),
    }
    Ok(hit)
}

/// A request in flight.
struct Pending {
    deck: u64,
    seq: usize,
    /// Before the request line was rendered.
    t0: Instant,
    /// When the request line was written.
    sent: Instant,
}

/// Renders and writes client `c`'s next request, if its source has one.
fn issue(
    c: usize,
    seq: usize,
    seed: u64,
    source: &mut Source,
    input: &mut PipeWriter,
) -> Result<Option<Pending>, String> {
    let Some(deck_id) = source.next() else {
        return Ok(None);
    };
    let t0 = Instant::now();
    let line = request_line(&format!("c{c}-{seq}"), &deck(seed, deck_id));
    let sent = Instant::now();
    input
        .write_all(line.as_bytes())
        .map_err(|e| e.to_string())?;
    Ok(Some(Pending {
        deck: deck_id,
        seq,
        t0,
        sent,
    }))
}

/// Drives one closed-loop client per source from this one thread: each
/// client has one request in flight, and its next request goes out as
/// soon as its answer has been read and checked. Responses are routed by
/// the `c<client>-` prefix of their job id.
fn drive(
    seed: u64,
    sources: &mut [Source],
    trace: bool,
    input: &mut PipeWriter,
    output: PipeReader,
    first: &FirstAnswers,
) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    let mut seqs = vec![0usize; sources.len()];
    let mut pending = Vec::with_capacity(sources.len());
    for (c, source) in sources.iter_mut().enumerate() {
        pending.push(issue(c, 0, seed, source, input)?);
    }
    let mut lines = BufReader::new(output);
    let mut line = String::new();
    while pending.iter().any(Option::is_some) {
        line.clear();
        match lines.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            _ => return Err("connection closed early".into()),
        }
        let answered = Instant::now();
        let c = line
            .split(' ')
            .nth(1)
            .and_then(|id| id.strip_prefix('c'))
            .and_then(|id| id.split('-').next())
            .and_then(|c| c.parse::<usize>().ok())
            .filter(|&c| c < pending.len())
            .ok_or_else(|| format!("unroutable response {:?}", line.trim_end()))?;
        let p = pending[c]
            .take()
            .ok_or_else(|| format!("response for client {c}, which has no request"))?;
        let checked = check(line.trim_end(), p.deck, first);
        samples.push(Sample {
            traced: trace && p.seq % 2 == 1,
            latency: (answered - p.t0).as_secs_f64(),
            wire: (answered - p.sent).as_secs_f64(),
            hit: checked.as_ref().is_ok_and(|hit| *hit),
            error: checked.err(),
        });
        seqs[c] += 1;
        pending[c] = issue(c, seqs[c], seed, &mut sources[c], input)?;
    }
    Ok(samples)
}

/// Serves one connection: one closed-loop client per source, all driven
/// from this thread, until every source is exhausted; then `SHUTDOWN`.
/// Returns every sample, in the order the answers arrived, and the
/// session's wall time.
fn session(
    server: &Server,
    seed: u64,
    sources: &mut [Source],
    trace: bool,
    first: &FirstAnswers,
) -> Result<(Vec<Sample>, f64), String> {
    let (in_rx, mut in_tx) = std::io::pipe().map_err(|e| e.to_string())?;
    let (out_rx, out_tx) = std::io::pipe().map_err(|e| e.to_string())?;
    let start = Instant::now();
    std::thread::scope(|scope| {
        let serving = scope.spawn(move || run_lines(server, BufReader::new(in_rx), out_tx));
        let driven = drive(seed, sources, trace, &mut in_tx, out_rx, first);
        let wall = start.elapsed().as_secs_f64();
        // Shut the server down on every path, so that the scope can join it.
        let _ = in_tx.write_all(b"SHUTDOWN\n");
        drop(in_tx);
        let served = match serving.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        };
        let samples = driven?;
        served?;
        Ok((samples, wall))
    })
}

fn server(dir: &Path) -> Result<Server, String> {
    Server::new(ServeConfig {
        workers: WORKERS,
        mem_budget: MEM_BUDGET,
        disk_budget: DISK_BUDGET,
        cache_dir: Some(dir.to_path_buf()),
        masc: MascConfig::default(),
        fault_panic_job: None,
    })
    .map_err(|e| e.to_string())
}

/// Set-up: a fresh server on the empty cache directory `dir`, warmed by one
/// request for every hot deck, split across the two clients. Returns the
/// server and the warm-up samples, checked against `first`.
fn setup(dir: &Path, seed: u64, first: &FirstAnswers) -> Result<(Server, Vec<Sample>), String> {
    let server = server(dir)?;
    let mut sources: Vec<Source> = (0..CLIENTS)
        .map(|c| {
            let ids: Vec<u64> = (c as u64..HOT as u64).step_by(CLIENTS).collect();
            Source::List(ids.into_iter())
        })
        .collect();
    let (warm, _) = session(&server, seed, &mut sources, false, first)?;
    Ok((server, warm))
}

fn snapshot(server: &Server) -> (CacheMetrics, u64) {
    (server.cache_metrics(), server.cold_runs())
}

/// Library-side reference for one deck: `run_adjoint` through the
/// compressed store.
fn reference(seed: u64, id: u64) -> Result<Vec<Vec<f64>>, String> {
    let req = job_request(seed, id)?;
    let job = engine::resolve(&req, &MascConfig::default()).map_err(|e| e.to_string())?;
    let mut parsed = parse_netlist(&req.deck).map_err(|e| e.to_string())?;
    let run = run_adjoint(
        &mut parsed.circuit,
        &job.tran,
        &StoreConfig::Compressed(MascConfig::default()),
        &job.objectives,
        &job.params,
    )
    .map_err(|e| e.to_string())?;
    Ok(run.sensitivities.values)
}

/// Compressed Jacobian bytes the server committed per hot deck: the sealed
/// `G` and `C` tensors of the hot set's entries in its disk tier. The hot
/// set is fixed by the seed and the disk tier never evicts, so the figure
/// does not depend on the run's length or timing.
fn server_jacobian_bytes(dir: &Path, seed: u64) -> Result<f64, String> {
    let mut cache =
        TensorCache::open(Some(dir.to_path_buf()), 0, DISK_BUDGET).map_err(|e| e.to_string())?;
    let mut bytes = 0;
    for id in 0..HOT as u64 {
        let job = engine::resolve(&job_request(seed, id)?, &MascConfig::default())
            .map_err(|e| e.to_string())?;
        let entry = cache
            .get(job.key)
            .ok_or("hot deck missing from the disk tier")?;
        bytes += entry.g.compressed_bytes() + entry.c.compressed_bytes();
    }
    Ok(bytes as f64 / HOT as f64)
}

/// Times the disk-tier hit path from the library: resolve, a disk-tier
/// lookup (read, decode) and the reverse replay, per hot deck.
fn disk_hit_probe(dir: &Path, seed: u64) -> Result<f64, String> {
    let mut cache =
        TensorCache::open(Some(dir.to_path_buf()), 0, DISK_BUDGET).map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for id in 0..DISK_PROBES as u64 {
        let req = job_request(seed, id)?;
        let t = Instant::now();
        let job = engine::resolve(&req, &MascConfig::default()).map_err(|e| e.to_string())?;
        let entry = cache
            .get(job.key)
            .ok_or("hot deck missing from the disk tier")?;
        engine::run_hit(&job, &entry).map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(median_of(&times))
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let root = ctx.scratch.path().join("serve");
    let dir = root.join("cache");
    let first = FirstAnswers::default();
    let (server, mut warm) = setup(&dir, ctx.seed, &first)?;
    out.setups.push(ctx.start.elapsed().as_secs_f64());
    out.notes.push(format!(
        "input: {HOT} hot {STAGES}-stage diode-ladder decks ({STEPS} steps, objectives {OBJECTIVES}, all params), Zipf(1) popularity; {:.1} % of requests name a new tail deck; memory tier {MEM_BUDGET} B, disk tier {DISK_BUDGET} B; {CLIENTS} closed-loop clients, {WORKERS} workers",
        100.0 * TAIL_SHARE
    ));

    let cdf = popularity(ctx.seed);
    let before = snapshot(&server);
    // Each client's request count, in one session per set-up: the other
    // set-ups run between sessions, as `SETUPS` describes, each on a fresh
    // server of its own that is dropped once warm; its directory stays for
    // the stranded-file scan at exit. Answers of every server are checked
    // against the same first answers.
    let requests = planned_ops(ctx.seconds, NOMINAL_REQUEST_S, SETUPS);
    let guard = Instant::now() + std::time::Duration::from_secs_f64(GUARD_FACTOR * ctx.seconds);
    let mut sources: Vec<Source> = (0..CLIENTS)
        .map(|c| Source::stream(ctx.seed, c, &cdf, guard))
        .collect();
    let mut samples = Vec::new();
    for k in 0..SETUPS {
        if k > 0 {
            let extra = root.join(format!("cache-{k}"));
            let t = Instant::now();
            let (extra_server, extra_warm) = setup(&extra, ctx.seed, &first)?;
            out.setups.push(t.elapsed().as_secs_f64());
            drop(extra_server);
            warm.extend(extra_warm);
        }
        for s in &mut sources {
            s.allow(requests / SETUPS);
        }
        // One block per session.
        let (s, w) = session(&server, ctx.seed, &mut sources, ctx.trace, &first)?;
        for sample in &s {
            if sample.traced {
                out.traced_latencies.push(sample.latency);
            } else {
                out.latencies.push(sample.latency);
            }
        }
        out.attempted += s.len() as u64;
        out.close_block(w);
        samples.extend(s);
    }
    if samples.len() < CLIENTS * requests {
        out.notes.push(format!(
            "guard: session stopped after {} of {} requests",
            samples.len(),
            CLIENTS * requests
        ));
    }
    out.peak_rss_bytes = peak_rss_bytes();
    let after = snapshot(&server);
    drop(server);
    out.jacobian_bytes = server_jacobian_bytes(&dir, ctx.seed)?;

    // Every answer must have equalled the first answer the server gave for
    // its deck (warm-up included), bit for bit.
    for s in warm.iter().chain(&samples) {
        if let Some(e) = &s.error {
            out.fail(e.clone());
        }
    }
    let first = first.into_inner().map_err(|_| "answer table poisoned")?;

    // Library references, outside the timed loop, on two threads.
    let decks: Vec<u64> = first.keys().copied().collect();
    let refs: Vec<Result<Vec<Vec<f64>>, String>> = std::thread::scope(|scope| {
        let half = decks.len().div_ceil(2);
        let lanes: Vec<_> = decks
            .chunks(half.max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&d| reference(ctx.seed, d))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        lanes
            .into_iter()
            .flat_map(|l| {
                l.join()
                    .unwrap_or_else(|_| vec![Err("reference lane panicked".into())])
            })
            .collect()
    });
    let mut worst: f64 = 0.0;
    for (d, r) in decks.iter().zip(refs) {
        match r {
            Err(e) => out.fail(format!("deck {d} reference: {e}")),
            Ok(sens) => {
                let err = row_scaled_error(&first[d].sens, &sens);
                worst = worst.max(err);
                if err > 1e-6 {
                    out.fail(format!(
                        "deck {d}: row-scaled error {err:e} against run_adjoint"
                    ));
                }
            }
        }
    }
    let tail = decks.iter().filter(|&&d| d >= HOT as u64).count();
    out.notes.push(format!(
        "check {} decks ({tail} tail) against library run_adjoint: worst row-scaled error {worst:e}",
        decks.len()
    ));

    let (m0, c0) = before;
    let (m1, c1) = after;
    let ops = out.attempted.max(1) as f64;
    let (hits, misses) = ((m1.hits - m0.hits) as f64, (m1.misses - m0.misses) as f64);
    out.notes.push(format!(
        "server counters: mem_hits {} disk_hits {} misses {} cold_runs {} coalesced {} evictions {}",
        m1.mem_hits - m0.mem_hits,
        m1.disk_hits - m0.disk_hits,
        m1.misses - m0.misses,
        c1 - c0,
        m1.coalesced - m0.coalesced,
        m1.evictions - m0.evictions
    ));
    if ctx.trace {
        let traced: Vec<&Sample> = samples.iter().filter(|s| s.traced).collect();
        let mean = |f: &dyn Fn(&Sample) -> bool| {
            let v: Vec<f64> = traced.iter().filter(|s| f(s)).map(|s| s.latency).collect();
            ratio(v.iter().sum(), v.len() as f64)
        };
        let unclaimed: f64 = traced.iter().map(|s| (s.latency - s.wire).max(0.0)).sum();
        out.layers = vec![
            ("serve.hit_s", mean(&|s| s.hit)),
            ("serve.disk_hit_s", disk_hit_probe(&dir, ctx.seed)?),
            ("serve.miss_s", mean(&|s| !s.hit)),
            ("serve.hit_ratio", ratio(hits, hits + misses)),
            ("serve.cold_runs", (c1 - c0) as f64 / ops),
            (
                "serve.coalesced",
                (m1.coalesced - m0.coalesced) as f64 / ops,
            ),
            (
                "serve.evictions",
                (m1.evictions - m0.evictions) as f64 / ops,
            ),
            ("unclaimed_s", ratio(unclaimed, traced.len() as f64)),
        ];
    }
    Ok(out)
}
