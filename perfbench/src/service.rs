//! The `service-open` workload: the family campaign matrix
//! (`pv_bench::matrix`, the batch the `family_campaign` binary and
//! `pv batch` run) sent through the service's front door.
//!
//! A run is a fixed number of rounds. Each round starts an in-process
//! `pv_server::server::serve` on a Unix socket with two workers and an empty
//! artifact cache. Over one connection it receives, at once, two
//! submissions of the campaign (every cell twice, in a seeded order: two
//! users verifying the same designs), and at a seeded moment a third
//! submission, a re-run that the cache can answer. The client sends each
//! submission when it is due, whether or not the server has answered the
//! earlier ones. Every response is checked
//! against the cell's known answer, and every β counterexample is replayed
//! on netlists the benchmark elaborated itself.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pipeverify_core::cache::ArtifactCache;
use pipeverify_core::json::Json;
use pv_bench::matrix;
use pv_netlist::{export, Netlist};
use pv_proc::family::{self, FamilyBug, FamilyConfig};
use pv_server::protocol::{self, JobResponse};
use pv_server::server::{serve, BindAddr};
use pv_server::JobRunner;

use crate::rng::SplitMix64;
use crate::spans::{self, Tracer};
use crate::stats::{median, percentile, Latency};
use crate::{peak_rss_mb, reset_peak_rss, Outcome};

/// Server worker threads.
const WORKERS: usize = 2;
/// Submissions of the campaign per round that arrive at once: each cell
/// is asked for twice.
const COPIES: usize = 2;
/// The re-run is due at a seeded moment in this window from the start of
/// the round. The window is about as long as the first wave takes on a
/// 2-core Xeon, so the re-run queues behind it.
const RERUN_WINDOW_S: f64 = 1.0;
/// Seconds of `--seconds` per round; a run makes a fixed number of rounds.
const SECONDS_PER_ROUND: f64 = 1.5;
/// At least this many rounds, so the per-round medians have a middle.
const MIN_ROUNDS: usize = 5;
/// `job.slo_met_share` counts the jobs answered correctly within this
/// multiple of the slowest cell's cold cost: the median engine time of both
/// flows over the cell's uncached runs. Queueing makes jobs miss it.
const SLO_COLD_MULTIPLE: f64 = 2.0;
/// A run whose generator sent its p90 job later than this (a fiftieth of
/// the re-run window) is flagged.
const LAG_LIMIT_S: f64 = 0.02;

/// The campaign cells left out of the menu: their cold runs take 9.1 s
/// (`k4w4r4d1s+lost-annul`) and 16.6 s (`k8w3r2d1s+lost-annul`) on a 2-core
/// Xeon, as long as 5 to 15 whole rounds of the other 55 cells.
const EXCLUDED: [&str; 2] = ["k4w4r4d1s+lost-annul", "k8w3r2d1s+lost-annul"];

/// The menu: every cell of the family campaign matrix
/// (`pv_bench::matrix`, correct and with each bug that applies) minus
/// [`EXCLUDED`].
pub fn menu() -> Vec<FamilyConfig> {
    let mut cells = Vec::new();
    for config in matrix::matrix_configs() {
        cells.push(config);
        cells.extend(
            matrix::cell_bugs(&config)
                .into_iter()
                .map(|b| config.with_bug(b)),
        );
    }
    cells.retain(|c| !EXCLUDED.contains(&c.tag().as_str()));
    cells
}

/// The wire tag of a seeded bug (docs/PROTOCOL.md).
fn bug_wire_tag(bug: FamilyBug) -> &'static str {
    match bug {
        FamilyBug::DropForwardPath => "drop-fwd",
        FamilyBug::WrongStallCondition => "inv-stall",
        FamilyBug::BranchTargetOffByOne => "off-by-one",
        FamilyBug::LostAnnul => "lost-annul",
    }
}

/// One job line asking for both flows on `cell`.
pub fn job_line(id: u64, cell: &FamilyConfig) -> String {
    let bug = cell
        .bug
        .map(|b| format!(",\"bug\":\"{}\"", bug_wire_tag(b)))
        .unwrap_or_default();
    format!(
        "{{\"id\":{id},\"design\":{{\"family\":{{\"depth\":{},\"word_width\":{},\"num_regs\":{},\"delay_slots\":{},\"stall\":{}{bug}}}}},\"flows\":[\"beta\",\"flushing\"]}}",
        cell.depth, cell.word_width, cell.num_regs, cell.delay_slots, cell.with_stall
    )
}

/// One scheduled job of a round.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamJob {
    /// Wire id (1-based position in the round).
    pub id: u64,
    /// Index of the job's cell in the menu.
    pub cell: usize,
    /// When the job is due, in seconds from the start of the round.
    pub due_s: f64,
}

/// Rounds of a run of `seconds`.
pub fn round_count(seconds: u64) -> usize {
    ((seconds as f64 / SECONDS_PER_ROUND) as usize).max(MIN_ROUNDS)
}

/// The seeded job stream: `rounds` rounds of `menu_len` cells. A round
/// holds [`COPIES`] submissions of every cell, due at its start, then one
/// more, the re-run, due later; each submission in a seeded order.
///
/// The re-run's due time is stratified over the rounds: the window is cut
/// into `rounds` equal slices, and each round takes a seeded point of a
/// different slice, in a seeded order. Every moment stays equally likely
/// in every round, but no seed can make most re-runs early or late.
pub fn job_stream(menu_len: usize, seed: u64, rounds: usize) -> Vec<Vec<StreamJob>> {
    assert!(menu_len > 0, "an empty menu");
    let mut rng = SplitMix64::new(seed);
    let mut slices: Vec<usize> = (0..rounds).collect();
    rng.shuffle(&mut slices);
    slices
        .into_iter()
        .map(|slice| {
            let mut at_once: Vec<usize> = (0..COPIES).flat_map(|_| 0..menu_len).collect();
            rng.shuffle(&mut at_once);
            let mut rerun: Vec<usize> = (0..menu_len).collect();
            rng.shuffle(&mut rerun);
            let rerun_due = RERUN_WINDOW_S * (slice as f64 + rng.next_f64()) / rounds as f64;
            let due = at_once.into_iter().map(|c| (c, 0.0));
            due.chain(rerun.into_iter().map(|c| (c, rerun_due)))
                .enumerate()
                .map(|(j, (cell, due_s))| StreamJob {
                    id: j as u64 + 1,
                    cell,
                    due_s,
                })
                .collect()
        })
        .collect()
}

/// An elaborated menu cell: the (possibly bug-seeded) pipelined netlist and
/// its correct serial specification.
struct CellPair {
    pipelined: Netlist,
    unpipelined: Netlist,
}

fn elaborate(cell: &FamilyConfig) -> CellPair {
    let base = FamilyConfig { bug: None, ..*cell };
    CellPair {
        pipelined: family::pipelined(*cell).expect("menu cells elaborate"),
        unpipelined: family::unpipelined(base).expect("menu cells elaborate"),
    }
}

/// What the client saw of one stream.
struct StreamRun {
    /// Spawning the server until the client connected.
    server_start_s: f64,
    /// Origin of the schedule.
    epoch: Instant,
    /// Raw response lines with their arrival times.
    lines: Vec<(Instant, String)>,
    /// How late the generator sent each job, in seconds.
    lags: Vec<f64>,
    /// The runner's flow-run cache hits and misses.
    hits: usize,
    misses: usize,
    /// Counters and histogram sums the program recorded during the stream.
    obs: BTreeMap<String, u64>,
    /// The program's BDD peak-live gauge after the stream.
    peak_live: u64,
    /// Peak RSS of the process while the stream ran, in MiB.
    peak_rss_mb: f64,
}

fn obs_snapshot() -> BTreeMap<String, u64> {
    pv_obs::snapshot().into_iter().collect()
}

/// Serves one stream: starts the server with an empty cache under
/// `run_dir`, sends `jobs` on schedule over one connection, collects every
/// response line until the server closes the connection, and stops the
/// server.
fn run_stream(
    jobs: &[StreamJob],
    cells: &[FamilyConfig],
    run_dir: &Path,
    tag: &str,
) -> io::Result<StreamRun> {
    let cache_dir = run_dir.join(format!("cache-{tag}"));
    if cache_dir.exists() {
        std::fs::remove_dir_all(&cache_dir)?;
    }
    let sock: PathBuf = run_dir.join(format!("{tag}.sock"));
    let runner = JobRunner::new(Some(ArtifactCache::at(&cache_dir)));
    let shutdown = AtomicBool::new(false);
    let addr = BindAddr::Unix(sock.clone());
    let lines: Vec<String> = jobs
        .iter()
        .map(|j| job_line(j.id, &cells[j.cell]) + "\n")
        .collect();
    let before = obs_snapshot();
    reset_peak_rss();

    let result = std::thread::scope(|scope| {
        let started = Instant::now();
        let server = scope.spawn(|| serve(&addr, &runner, WORKERS, &shutdown));
        let client = (|| -> io::Result<_> {
            let stream = loop {
                match UnixStream::connect(&sock) {
                    Ok(stream) => break stream,
                    Err(e)
                        if server.is_finished() || started.elapsed() > Duration::from_secs(10) =>
                    {
                        return Err(e)
                    }
                    Err(_) => std::thread::sleep(Duration::from_micros(200)),
                }
            };
            let server_start_s = started.elapsed().as_secs_f64();
            let mut writer = stream.try_clone()?;
            let epoch = Instant::now() + Duration::from_millis(20);
            std::thread::scope(|inner| {
                // Jobs due at the same moment go out in one write, as a
                // batch client sends its file.
                let sender = inner.spawn(move || -> io::Result<Vec<f64>> {
                    let mut lags = Vec::with_capacity(lines.len());
                    let mut next = 0;
                    while next < jobs.len() {
                        let due_s = jobs[next].due_s;
                        let end =
                            next + jobs[next..].iter().take_while(|j| j.due_s == due_s).count();
                        let due = epoch + Duration::from_secs_f64(due_s);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let lag = Instant::now().saturating_duration_since(due).as_secs_f64();
                        lags.extend(std::iter::repeat_n(lag, end - next));
                        writer.write_all(lines[next..end].concat().as_bytes())?;
                        next = end;
                    }
                    writer.shutdown(std::net::Shutdown::Write)?;
                    Ok(lags)
                });
                let mut received = Vec::with_capacity(jobs.len());
                for line in BufReader::new(&stream).lines() {
                    received.push((Instant::now(), line?));
                }
                let lags = sender.join().expect("the sender thread panicked")?;
                Ok((server_start_s, epoch, received, lags))
            })
        })();
        shutdown.store(true, Ordering::SeqCst);
        let served = server.join().expect("the server thread panicked");
        let client = client?;
        served?;
        Ok::<_, io::Error>(client)
    });
    let (server_start_s, epoch, lines, lags) = result?;
    let peak_rss_mb = peak_rss_mb();
    let after = obs_snapshot();
    let obs = after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .collect();
    std::fs::remove_dir_all(&cache_dir).ok();
    Ok(StreamRun {
        server_start_s,
        epoch,
        lines,
        lags,
        hits: runner.cache_hits(),
        misses: runner.cache_misses(),
        obs,
        peak_live: after.get("bdd.unique.peak_live").copied().unwrap_or(0),
        peak_rss_mb,
    })
}

/// The verdict-checked view of one stream.
struct Judged {
    /// Per job: seconds from due to response, when answered.
    latency: Vec<Option<f64>>,
    /// Per job: answered `ok` with the known answer and replaying
    /// counterexamples.
    correct: Vec<bool>,
    /// Per job: every flow answered from the cache.
    all_cached: Vec<bool>,
    /// Menu cell and engine time of both flows of each job that no cache
    /// answered.
    cold_job_s: Vec<(usize, f64)>,
    /// Wall times of the engine (uncached) flow runs.
    beta_walls: Vec<f64>,
    flush_walls: Vec<f64>,
    /// β node counts per cell that was answered.
    beta_nodes: BTreeMap<usize, usize>,
    /// First due → last response.
    wall_s: f64,
    /// Failure messages.
    problems: Vec<String>,
}

/// Decodes and checks every response of `run`, then replays each β
/// counterexample on the benchmark's own netlists. With a tracer, each
/// decode is a `protocol.decode` span and each replay a `replay.concrete`
/// span.
fn judge(
    run: &StreamRun,
    jobs: &[StreamJob],
    cells: &[FamilyConfig],
    pairs: &[CellPair],
    mut tracer: Option<&mut Tracer>,
) -> Judged {
    let n = jobs.len();
    let mut judged = Judged {
        latency: vec![None; n],
        correct: vec![false; n],
        all_cached: vec![false; n],
        cold_job_s: Vec::new(),
        beta_walls: Vec::new(),
        flush_walls: Vec::new(),
        beta_nodes: BTreeMap::new(),
        wall_s: 0.0,
        problems: Vec::new(),
    };
    let mut responses: Vec<Option<JobResponse>> = (0..n).map(|_| None).collect();
    let mut last = run.epoch;
    for (at, line) in &run.lines {
        last = last.max(*at);
        // The decode span covers what a client pays per response: parsing
        // the line and decoding the reports.
        let decode = || {
            let value = Json::parse(line).map_err(|e| e.to_string())?;
            let index = value
                .get("id")
                .and_then(Json::as_u64)
                .and_then(|id| usize::try_from(id).ok()?.checked_sub(1))
                .filter(|&i| i < n)
                .ok_or_else(|| format!("a response without a known id: {line}"))?;
            let response = if value.get("ok").and_then(Json::as_bool) == Some(true) {
                protocol::response_from_json(&value).map_err(|e| e.to_string())
            } else {
                Err(format!("job {} failed: {line}", index + 1))
            };
            Ok::<_, String>((index, response))
        };
        let decoded = match tracer.as_deref_mut() {
            Some(t) => t.time("protocol.decode", decode),
            None => decode(),
        };
        // A failed job still has a latency, but not a correct answer.
        match decoded {
            Ok((index, response)) => {
                let due = run.epoch + Duration::from_secs_f64(jobs[index].due_s);
                judged.latency[index] = Some(at.saturating_duration_since(due).as_secs_f64());
                match response {
                    Ok(response) => responses[index] = Some(response),
                    Err(e) => judged.problems.push(e),
                }
            }
            Err(e) => judged.problems.push(e),
        }
    }
    let first_due = jobs.first().map_or(0.0, |j| j.due_s);
    judged.wall_s = last.saturating_duration_since(run.epoch).as_secs_f64() - first_due;

    for (index, response) in responses.iter().enumerate() {
        let Some(response) = response else {
            if judged.latency[index].is_none() {
                judged
                    .problems
                    .push(format!("job {} unanswered", index + 1));
            }
            continue;
        };
        let cell_index = jobs[index].cell;
        let cell = &cells[cell_index];
        let expected = cell.bug.is_none();
        let flows: Vec<&str> = response.results.iter().map(|r| r.flow).collect();
        if flows != ["beta-relation", "flushing"] {
            judged
                .problems
                .push(format!("job {}: flows {flows:?}", index + 1));
            continue;
        }
        let mut ok = true;
        for result in &response.results {
            if result.report.equivalent != expected || !result.report.complete() {
                judged.problems.push(format!(
                    "job {} ({}): {} answered equivalent={} complete={}",
                    index + 1,
                    cell.tag(),
                    result.flow,
                    result.report.equivalent,
                    result.report.complete()
                ));
                ok = false;
            }
            if !result.cached {
                let wall = result.report.wall_time.as_secs_f64();
                match result.flow {
                    "beta-relation" => judged.beta_walls.push(wall),
                    _ => judged.flush_walls.push(wall),
                }
            }
        }
        let beta = &response.results[0].report;
        judged.beta_nodes.entry(cell_index).or_insert(beta.space);
        if ok && !expected {
            let pair = &pairs[cell_index];
            let replay = || beta.replay(&pair.pipelined, &pair.unpipelined);
            let outcome = match tracer.as_deref_mut() {
                Some(t) => t.time("replay.concrete", replay),
                None => replay(),
            };
            if !outcome.is_some_and(|o| o.diverged && o.matches_report) {
                judged.problems.push(format!(
                    "job {} ({}): the β counterexample does not replay",
                    index + 1,
                    cell.tag()
                ));
                ok = false;
            }
        }
        judged.correct[index] = ok;
        judged.all_cached[index] = response.results.iter().all(|r| r.cached);
        if response.results.iter().all(|r| !r.cached) {
            let engine = response.results.iter().map(|r| r.report.wall_time);
            let engine_s = engine.sum::<Duration>().as_secs_f64();
            judged.cold_job_s.push((cell_index, engine_s));
        }
    }
    judged
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One served round.
struct Round {
    /// Elaborating the menu and starting the server.
    setup_s: f64,
    run: StreamRun,
    judged: Judged,
}

/// Serves every round: elaborates the menu afresh, which the checks
/// replay against, then starts a fresh server, sends the round and judges
/// it. With a tracer, the set-up's calls are `proc.elaborate` and
/// `netlist.export` spans, and the checks' calls are spans too (see
/// [`judge`]).
fn serve_rounds(
    rounds: &[Vec<StreamJob>],
    cells: &[FamilyConfig],
    run_dir: &Path,
    tag: &str,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Round> {
    let mut pairs = Vec::new();
    rounds
        .iter()
        .enumerate()
        .map(|(r, jobs)| {
            drop(std::mem::take(&mut pairs));
            let started = Instant::now();
            pairs = match tracer.as_deref_mut() {
                Some(t) => cells
                    .iter()
                    .map(|c| t.time("proc.elaborate", || elaborate(c)))
                    .collect(),
                None => cells.iter().map(elaborate).collect(),
            };
            let elaborate_s = started.elapsed().as_secs_f64();
            if let Some(t) = tracer.as_deref_mut() {
                for pair in &pairs {
                    t.time("netlist.export", || {
                        std::hint::black_box(export::export(&pair.pipelined));
                        std::hint::black_box(export::export(&pair.unpipelined));
                    });
                }
            }
            let run = run_stream(jobs, cells, run_dir, &format!("{tag}-{r}"))
                .expect("the service stream runs");
            let judged = judge(&run, jobs, cells, &pairs, tracer.as_deref_mut());
            Round {
                setup_s: elaborate_s + run.server_start_s,
                run,
                judged,
            }
        })
        .collect()
}

/// A counter or histogram sum the program recorded, summed over rounds.
fn obs_total(served: &[Round], name: &str) -> f64 {
    served
        .iter()
        .map(|Round { run, .. }| run.obs.get(name).copied().unwrap_or(0) as f64)
        .sum()
}

/// The `service-open` workload: [`round_count`] rounds of the campaign.
pub fn service_open(seed: u64, seconds: u64, traced: bool, run_dir: &Path) -> Outcome {
    let mut out = Outcome::new();
    let cells = menu();
    let rounds = job_stream(cells.len(), seed, round_count(seconds));
    let mut tracer = Tracer::new(Instant::now());
    let served = serve_rounds(
        &rounds,
        &cells,
        run_dir,
        "untraced",
        traced.then_some(&mut tracer),
    );
    let jobs: Vec<&StreamJob> = rounds.iter().flatten().collect();
    let judged: Vec<&Judged> = served.iter().map(|r| &r.judged).collect();
    let mut problems: Vec<&String> = judged.iter().flat_map(|j| &j.problems).collect();

    // The program's own tracing, on for a second pass over the same
    // stream: its cost is the engine time of the traced pass over the
    // untraced one's.
    let trace_overhead = traced.then(|| {
        pv_obs::set_trace_enabled(true);
        let with_trace = serve_rounds(&rounds, &cells, run_dir, "traced", None);
        pv_obs::set_trace_enabled(false);
        let events = pv_obs::take_events().len();
        eprintln!("service-open: the program recorded {events} trace events in the traced pass");
        for judged in with_trace.iter().map(|r| &r.judged) {
            out.attempted += judged.correct.len() as u64;
            for problem in &judged.problems {
                eprintln!("service-open: traced pass: {problem}");
            }
            for _ in judged.correct.iter().filter(|&&c| !c) {
                out.fail("a job of the traced pass");
            }
            if !judged.problems.is_empty() {
                out.correct = false;
            }
        }
        obs_total(&with_trace, "server.job.run_us.sum")
            / obs_total(&served, "server.job.run_us.sum")
    });

    out.attempted += jobs.len() as u64;
    let failed = judged
        .iter()
        .flat_map(|j| &j.correct)
        .filter(|&&c| !c)
        .count();
    out.failed += failed as u64;
    let incomplete = judged
        .iter()
        .filter(|j| j.beta_nodes.len() != cells.len())
        .count();
    let incomplete_note = format!(
        "{incomplete} rounds did not answer every one of the {} menu cells",
        cells.len()
    );
    if incomplete > 0 {
        problems.push(&incomplete_note);
    }
    for problem in &problems {
        eprintln!("service-open: {problem}");
    }
    if !problems.is_empty() || failed > 0 {
        out.correct = false;
    }

    let latencies: Vec<f64> = judged
        .iter()
        .flat_map(|j| j.latency.iter().flatten())
        .copied()
        .collect();
    // The latency figures are medians over the rounds of each round's
    // percentile, taken from when each job was due.
    let per_round = |q: f64| -> Vec<f64> {
        judged
            .iter()
            .map(|j| {
                let mut v: Vec<f64> = j.latency.iter().flatten().copied().collect();
                v.sort_by(f64::total_cmp);
                if v.is_empty() {
                    0.0
                } else {
                    percentile(&v, q)
                }
            })
            .collect()
    };
    let (p50s, p90s) = (per_round(0.5), per_round(0.9));
    let wall: f64 = judged.iter().map(|j| j.wall_s).sum();
    let hits: usize = served.iter().map(|r| r.run.hits).sum();
    let misses: usize = served.iter().map(|r| r.run.misses).sum();
    let mut lags: Vec<f64> = served
        .iter()
        .flat_map(|r| r.run.lags.iter().copied())
        .collect();
    lags.sort_by(f64::total_cmp);
    let lag_p90 = percentile(&lags, 0.9);
    let per_round_n = rounds.first().map_or(0, Vec::len);
    eprintln!(
        "service-open: {} rounds of {per_round_n} jobs ({COPIES} + 1 submissions of {} campaign cells), {WORKERS} workers; \
         cache {hits} hits / {misses} misses; per-round latency medians p50 {:.6}s p90 {:.6}s \
         (each over {per_round_n} samples, {} beyond p90); all jobs {}; generator lag p90 {lag_p90:.6}s",
        rounds.len(),
        cells.len(),
        median(&p50s),
        median(&p90s),
        crate::stats::samples_beyond(per_round_n, 0.9),
        Latency::of(&latencies).describe(),
    );
    if lag_p90 > LAG_LIMIT_S {
        eprintln!(
            "service-open: WARNING: the generator fell behind its schedule (lag p90 {lag_p90:.6}s > {LAG_LIMIT_S}s); the latency figures understate queueing"
        );
    }

    if traced {
        let layers = spans::fold(std::slice::from_ref(&tracer));
        let per = |name: &str| layers.get(name).map_or(0.0, |l| l.total_s / l.count as f64);
        out.layer("proc.elaborate_s", per("proc.elaborate"));
        out.layer("netlist.export_s", per("netlist.export"));
        out.layer("protocol.decode_s", per("protocol.decode"));
        out.layer(
            "cache.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        out.layer(
            "cache.engine_runs_per_key",
            misses as f64 / (2 * cells.len() * rounds.len()) as f64,
        );
        let walls = |f: fn(&Judged) -> &Vec<f64>| -> Vec<f64> {
            judged.iter().flat_map(|j| f(j)).copied().collect()
        };
        out.layer("beta.wall_s", mean(&walls(|j| &j.beta_walls)));
        out.layer("flush.wall_s", mean(&walls(|j| &j.flush_walls)));
        let obs = |name: &str| obs_total(&served, name);
        let per_job =
            |name: &str| obs(&format!("{name}.sum")) / 1e6 / obs(&format!("{name}.count")).max(1.0);
        out.layer(
            "server.queue_wait_mean_s",
            per_job("server.job.queue_wait_us"),
        );
        out.layer("server.run_mean_s", per_job("server.job.run_us"));
        out.layer("server.retries", obs("server.job.retry"));
        let busy = obs("server.job.run_us.sum") / 1e6;
        out.layer("pool.concurrency", busy / wall);
        out.layer("pool.idle_s", WORKERS as f64 * wall - busy);
        let split = |cached: bool| {
            let v: Vec<f64> = judged
                .iter()
                .flat_map(|j| j.latency.iter().zip(&j.all_cached))
                .filter_map(|(l, &c)| l.filter(|_| c == cached))
                .collect();
            median(&v)
        };
        out.layer("job.hit_p50_s", split(true));
        out.layer("job.miss_p50_s", split(false));
        let mut cold: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for &(cell, engine_s) in judged.iter().flat_map(|j| &j.cold_job_s) {
            cold.entry(cell).or_default().push(engine_s);
        }
        let slowest_cold = cold.values().map(|v| median(v)).fold(0.0, f64::max);
        let slo = SLO_COLD_MULTIPLE * slowest_cold;
        let met = judged
            .iter()
            .flat_map(|j| j.latency.iter().zip(&j.correct))
            .filter(|(l, &ok)| ok && l.is_some_and(|l| l <= slo))
            .count();
        eprintln!(
            "service-open: SLO {slo:.6}s ({SLO_COLD_MULTIPLE} × the slowest cell's median cold engine time)"
        );
        out.layer("job.slo_met_share", met as f64 / jobs.len() as f64);
        out.layer("gen.lag_p90_s", lag_p90);
        out.layer("trace.overhead", trace_overhead.unwrap_or(0.0));
        out.write_spans(run_dir, "service-open", std::slice::from_ref(&tracer));
    } else {
        let ok_answers = judged
            .iter()
            .flat_map(|j| &j.correct)
            .filter(|&&c| c)
            .count();
        let nodes: Vec<f64> = judged[0].beta_nodes.values().map(|&n| n as f64).collect();
        let setups: Vec<f64> = served.iter().map(|r| r.setup_s).collect();
        let peak_live = served.iter().map(|r| r.run.peak_live).max().unwrap_or(0);
        out.metric("setup_s", median(&setups));
        out.metric("wall_s", wall);
        out.metric("verdict_p50_s", median(&p50s));
        out.metric("verdict_p90_s", median(&p90s));
        out.metric("verdicts_per_s", ok_answers as f64 / wall);
        let peak_rss: Vec<f64> = served.iter().map(|r| r.run.peak_rss_mb).collect();
        out.metric("peak_rss_mb", median(&peak_rss));
        out.metric("bdd_allocated", mean(&nodes));
        out.metric("bdd_peak_live", peak_live as f64);
    }
    out
}

/// Runs every menu cell once, cold and uncached, through `JobRunner::run`
/// and prints its cost and verdicts — the data behind the menu's choice.
pub fn probe_menu() {
    let runner = JobRunner::new(None);
    let cells = menu();
    let mut total = 0.0;
    for (i, cell) in cells.iter().enumerate() {
        let line = job_line(i as u64 + 1, cell);
        let request = protocol::request_from_json(&Json::parse(&line).expect("job lines are JSON"))
            .expect("job lines decode");
        let started = Instant::now();
        let response = runner.run(&request);
        let wall = started.elapsed().as_secs_f64();
        total += wall;
        let verdicts = match &response {
            Ok(r) => r
                .results
                .iter()
                .map(|f| format!("{}={}", f.flow, f.report.equivalent))
                .collect::<Vec<_>>()
                .join(" "),
            Err(e) => format!("error: {e}"),
        };
        println!("{:<24} {:>9.4}s  {verdicts}", cell.tag(), wall);
    }
    println!("{} cells, {total:.3}s cold in total", cells.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(seed: u64) -> Vec<u8> {
        let cells = menu();
        job_stream(cells.len(), seed, 3)
            .iter()
            .flatten()
            .flat_map(|j| {
                format!("{:.9} {}\n", j.due_s, job_line(j.id, &cells[j.cell])).into_bytes()
            })
            .collect()
    }

    #[test]
    fn the_same_seed_gives_a_byte_identical_stream() {
        assert_eq!(stream_bytes(42), stream_bytes(42));
        assert_ne!(stream_bytes(42), stream_bytes(43));
    }

    #[test]
    fn every_round_asks_for_every_cell_at_once_twice_then_once_more() {
        let cells = menu();
        let rounds = job_stream(cells.len(), 7, round_count(30));
        assert_eq!(rounds.len(), 20);
        assert_eq!(round_count(1), MIN_ROUNDS);
        let mut rerun_slices = Vec::new();
        for jobs in &rounds {
            assert_eq!(jobs.len(), (COPIES + 1) * cells.len());
            let (at_once, rerun) = jobs.split_at(COPIES * cells.len());
            let mut counts = vec![0; cells.len()];
            for job in at_once {
                counts[job.cell] += 1;
                assert_eq!(job.due_s, 0.0);
            }
            assert!(counts.iter().all(|&c| c == COPIES));
            let rerun_due = rerun[0].due_s;
            assert!(rerun.iter().all(|j| j.due_s == rerun_due));
            assert!(rerun_due > 0.0 && rerun_due < RERUN_WINDOW_S);
            let mut rerun_cells: Vec<usize> = rerun.iter().map(|j| j.cell).collect();
            rerun_cells.sort_unstable();
            assert_eq!(rerun_cells, (0..cells.len()).collect::<Vec<_>>());
            rerun_slices.push((rerun_due / RERUN_WINDOW_S * rounds.len() as f64) as usize);
            let ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
            assert_eq!(ids, (1..=jobs.len() as u64).collect::<Vec<_>>());
        }
        rerun_slices.sort_unstable();
        assert_eq!(rerun_slices, (0..rounds.len()).collect::<Vec<_>>());
        assert_ne!(rounds[0], rounds[1], "each round draws its own order");
    }

    #[test]
    fn job_lines_decode_to_the_cells_they_encode() {
        for (i, cell) in menu().iter().enumerate() {
            let line = job_line(i as u64 + 1, cell);
            let request = protocol::request_from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(request.id, i as u64 + 1);
            assert_eq!(request.design, pv_server::DesignSpec::Family(*cell));
        }
    }

    #[test]
    fn the_menu_is_the_campaign_matrix_without_its_multi_second_cells() {
        let cells = menu();
        let tags: Vec<String> = cells.iter().map(FamilyConfig::tag).collect();
        let campaign: usize = matrix::matrix_configs()
            .iter()
            .map(|c| 1 + matrix::cell_bugs(c).len())
            .sum();
        assert_eq!(tags.len(), campaign - EXCLUDED.len());
        assert_eq!(tags.len(), 55);
        for excluded in EXCLUDED {
            assert!(!tags.contains(&excluded.to_owned()), "{excluded}");
        }
        assert!(tags.contains(&"k6w3r2d1s+lost-annul".to_owned()));
    }
}
