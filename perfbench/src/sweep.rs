//! The two verifier workloads: the condensed Alpha0 control-transfer sweep
//! (paper Table 2) on two workers, and the reduced-VSM quickstart (paper
//! Table 1) on one worker, each repeated a fixed number of times in a closed
//! loop.
//!
//! The untraced pass gives the end-to-end metrics. A traced run repeats the
//! untraced pass, replays the same plans through [`crate::replay`] with
//! spans around every layer call and checks that each replay did exactly
//! the verifier's work, then runs verdicts with the program's own pv-obs
//! tracing off and on in turn (`trace.overhead`).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pipeverify_core::{MachineSpec, PlanReport, SimulationPlan, VerificationReport, Verifier};
use pv_isa::alpha0::Alpha0Config;
use pv_netlist::Netlist;
use pv_proc::alpha0::{self, PipelineConfig};
use pv_proc::vsm::{self, VsmConfig};

use crate::replay::{replay_plan, PlanReplay};
use crate::spans::{self, Tracer};
use crate::stats::{median, Latency};
use crate::{peak_rss_mb, reset_peak_rss, Outcome};

/// Worker threads of the Alpha0 sweep.
const ALPHA0_WORKERS: usize = 2;
/// Seconds of `--seconds` per Alpha0 sweep (one takes 17–25 s on a 2-core
/// Xeon); a run makes a fixed number of sweeps, at least one.
const ALPHA0_SECONDS_PER_SWEEP: u64 = 15;
/// Set-ups of the Alpha0 workload before the first sweep and after each
/// (the median is reported).
const ALPHA0_SETUPS: usize = 17;

/// Plans with their own `plan.<i>.*` metrics (both sweeps have five).
const PLAN_METRICS: usize = 5;

/// Reduced-VSM registers (the quickstart pair).
const VSM_REGS: usize = 2;
/// VSM verdicts per second of `--seconds` (one takes about 0.2 s on a
/// 2-core Xeon); a run makes a fixed number, so every work count is exact.
const VSM_VERDICTS_PER_S: usize = 5;
/// At least this many VSM verdicts, so the p90 has ten samples beyond it.
const VSM_MIN_VERDICTS: usize = 100;
/// Verdicts replayed with spans, and pairs of verdicts run with the
/// program's own tracing off and on, in a traced VSM run.
const VSM_REPLAYS: usize = 20;
/// Set-ups of the VSM workload before the first verdict and after each.
const VSM_SETUPS: usize = 1;

/// An elaborated design pair and its machine properties.
struct Pair {
    pipelined: Netlist,
    unpipelined: Netlist,
    spec: MachineSpec,
}

fn alpha0_pair() -> Pair {
    let isa = Alpha0Config::condensed();
    Pair {
        pipelined: alpha0::pipelined(PipelineConfig::condensed(isa)).expect("Alpha0 elaborates"),
        unpipelined: alpha0::unpipelined(PipelineConfig::condensed(isa))
            .expect("Alpha0 elaborates"),
        spec: MachineSpec::alpha0_condensed(isa),
    }
}

fn vsm_pair() -> Pair {
    Pair {
        pipelined: vsm::pipelined(VsmConfig::reduced(VSM_REGS)).expect("VSM elaborates"),
        unpipelined: vsm::unpipelined(VsmConfig::reduced(VSM_REGS)).expect("VSM elaborates"),
        spec: MachineSpec::vsm_reduced(VSM_REGS),
    }
}

/// Elaborates the pair and builds its verifier; returns both and the time
/// taken. With a tracer, the elaboration is a `proc.elaborate` span.
fn set_up(
    threads: usize,
    elaborate: fn() -> Pair,
    tracer: Option<&mut Tracer>,
) -> (Pair, Verifier, f64) {
    let started = Instant::now();
    let pair = match tracer {
        Some(t) => t.time("proc.elaborate", elaborate),
        None => elaborate(),
    };
    let verifier = Verifier::new(pair.spec.clone()).with_threads(threads);
    (pair, verifier, started.elapsed().as_secs_f64())
}

/// Times `reps` more set-ups of `w`, each dropped before the next, into
/// `times`.
fn time_set_ups(w: &Workload, reps: usize, mut tracer: Option<&mut Tracer>, times: &mut Vec<f64>) {
    for _ in 0..reps {
        let (_, _, t) = set_up(w.workers, w.elaborate, tracer.as_deref_mut());
        times.push(t);
    }
}

/// Why a verifier report is not the expected complete, equivalent verdict.
fn verdict_problem(report: &VerificationReport, plans: usize) -> Option<String> {
    if !report.equivalent() {
        Some("counterexample on a correct design pair".to_owned())
    } else if !report.complete() || report.plans_checked != plans {
        Some(format!(
            "incomplete: {} of {plans} plans checked",
            report.plans_checked
        ))
    } else {
        None
    }
}

/// Fails `out` when `report` is not a complete, equivalent verdict with the
/// work counts of `first`.
fn check_verdict(
    out: &mut Outcome,
    name: &str,
    report: &VerificationReport,
    plans: usize,
    first: Option<&VerificationReport>,
) {
    if let Some(problem) = verdict_problem(report, plans) {
        out.fail(&format!("{name}: {problem}"));
    } else if first.is_some_and(|f| work_counts(f) != work_counts(report)) {
        out.fail(&format!(
            "{name}: work counts differ from the first verdict's"
        ));
    }
}

/// The deterministic work figures of a report, compared across verdicts.
fn work_counts(report: &VerificationReport) -> (usize, usize, BTreeMap<String, u64>) {
    (
        report.bdd_nodes,
        report.bdd_peak_live,
        report.metrics.clone(),
    )
}

/// Replays `plans` with spans on `threads` workers that claim plans in index
/// order, as the verifier's pool does. Returns one tracer per worker and the
/// replays in plan order.
fn replay_plans(
    pair: &Pair,
    plans: &[SimulationPlan],
    threads: usize,
    epoch: Instant,
    request_base: u64,
) -> (Vec<Tracer>, Vec<PlanReplay>) {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<PlanReplay>>> = Mutex::new(vec![None; plans.len()]);
    let tracers = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let (next, results) = (&next, &results);
                scope.spawn(move || {
                    let mut tracer = Tracer::new(epoch);
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let Some(plan) = plans.get(index) else { break };
                        tracer.set_request(request_base + index as u64);
                        let replay = replay_plan(
                            &pair.spec,
                            &pair.pipelined,
                            &pair.unpipelined,
                            plan,
                            &mut tracer,
                        );
                        results.lock().expect("replay results lock")[index] = Some(replay);
                    }
                    tracer
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay worker panicked"))
            .collect::<Vec<_>>()
    });
    let replays = results
        .into_inner()
        .expect("replay results lock")
        .into_iter()
        .map(|r| r.expect("every plan replayed"))
        .collect();
    (tracers, replays)
}

/// Per-layer metrics shared by both verifier workloads: span times from the
/// replays and BDD statistics from their managers, each divided by the
/// number of verdicts replayed, plus each plan's wall time (`plan_walls`,
/// untraced) and allocation.
fn layer_metrics(
    out: &mut Outcome,
    tracers: &[Tracer],
    replays: &[PlanReplay],
    verdicts: usize,
    reports: &[PlanReport],
    plan_walls: &[f64],
) {
    let layers = spans::fold(tracers);
    let per = verdicts as f64;
    let total = |name: &str| layers.get(name).map_or(0.0, |l| l.total_s) / per;
    out.layer(
        "proc.elaborate_s",
        layers
            .get("proc.elaborate")
            .map_or(0.0, |l| l.total_s / l.count as f64),
    );
    out.layer("netlist.step_s", total("netlist.step"));
    out.layer("netlist.force_order_s", total("netlist.force_order"));
    out.layer("bdd.constrain_s", total("bdd.constrain"));
    out.layer("bdd.sample_constrain_s", total("bdd.sample_constrain"));
    out.layer("bdd.gc_s", total("bdd.gc"));
    let sum = |f: fn(&PlanReplay) -> usize| replays.iter().map(f).sum::<usize>() as f64 / per;
    out.layer("bdd.gc_runs", sum(|r| r.gc_runs));
    out.layer("bdd.gc_collected", sum(|r| r.gc_collected));
    out.layer("bdd.ite_misses", sum(|r| r.ite_misses));
    out.layer("bdd.unique_grows", sum(|r| r.unique_grows));
    let (hits, misses) = (sum(|r| r.ite_hits), sum(|r| r.ite_misses));
    out.layer("bdd.ite_hit_rate", hits / (hits + misses).max(1.0));
    for (i, (report, wall)) in reports
        .iter()
        .zip(plan_walls)
        .enumerate()
        .take(PLAN_METRICS)
    {
        out.layer(&format!("plan.{i}.wall_s"), *wall);
        out.layer(&format!("plan.{i}.allocated"), report.bdd_nodes as f64);
    }
    let phases: f64 = [
        "netlist.step",
        "bdd.constrain",
        "bdd.sample_constrain",
        "bdd.gc",
    ]
    .iter()
    .map(|n| layers.get(n).map_or(0.0, |l| l.total_s))
    .sum();
    let plan_time = layers.get("plan").map_or(0.0, |l| l.total_s);
    eprintln!(
        "replay: {} plans, phases step/constrain/sample/gc cover {:.1}% of replayed plan time",
        replays.len(),
        100.0 * phases / plan_time.max(1e-12)
    );
}

/// Checks every replay against the verifier's report of the same plan.
/// `replays` holds whole verdicts (one replay per report, in plan order);
/// a verdict with any differing plan counts as one failure.
fn check_identity(out: &mut Outcome, replays: &[PlanReplay], reports: &[PlanReport]) {
    if reports.is_empty() || !replays.len().is_multiple_of(reports.len()) {
        out.fail("replay identity: the replays do not cover whole verdicts");
        return;
    }
    for verdict in replays.chunks(reports.len()) {
        let errors: Vec<String> = verdict
            .iter()
            .zip(reports)
            .filter_map(|(replay, report)| replay.identity(report).err())
            .collect();
        if !errors.is_empty() {
            out.fail(&format!("replay identity: {}", errors.join("; ")));
        }
    }
    out.layer("replay.identity_checked", replays.len() as f64);
}

/// One verifier workload: a design pair, its plans, and how a run uses
/// them.
struct Workload {
    name: &'static str,
    elaborate: fn() -> Pair,
    plans: fn(&Verifier) -> Vec<SimulationPlan>,
    workers: usize,
    /// Set-ups timed before the first verdict and after each, so that the
    /// set-up samples spread over the run.
    setups: usize,
    verdicts: usize,
    replays: usize,
}

/// The `alpha0-sweep` workload: the k = 5 control-transfer sweep,
/// `max(1, seconds / 15)` times.
pub fn alpha0_sweep(seconds: u64, traced: bool, run_dir: &Path) -> Outcome {
    run(
        &Workload {
            name: "alpha0-sweep",
            elaborate: alpha0_pair,
            plans: |v| {
                let k = v.spec().k;
                (0..k)
                    .map(|x| SimulationPlan::with_control_at(k, x))
                    .collect()
            },
            workers: ALPHA0_WORKERS,
            setups: ALPHA0_SETUPS,
            verdicts: (seconds / ALPHA0_SECONDS_PER_SWEEP).max(1) as usize,
            replays: 1,
        },
        traced,
        run_dir,
    )
}

/// The `vsm-quickstart` workload: the default plans, `max(100, 5 ·
/// seconds)` times in a closed loop.
pub fn vsm_quickstart(seconds: u64, traced: bool, run_dir: &Path) -> Outcome {
    run(
        &Workload {
            name: "vsm-quickstart",
            elaborate: vsm_pair,
            plans: Verifier::default_plans,
            workers: 1,
            setups: VSM_SETUPS,
            verdicts: (VSM_VERDICTS_PER_S * seconds as usize).max(VSM_MIN_VERDICTS),
            replays: VSM_REPLAYS,
        },
        traced,
        run_dir,
    )
}

/// Runs `w.verdicts` verdicts back to back, each checked for an equivalent,
/// complete answer with the first verdict's exact work counts. A traced run
/// then replays `w.replays` verdicts with spans.
fn run(w: &Workload, traced: bool, run_dir: &Path) -> Outcome {
    let mut out = Outcome::new();
    let epoch = Instant::now();
    let mut setup_tracer = Tracer::new(epoch);
    let mut tracer = traced.then_some(&mut setup_tracer);
    let (pair, verifier, first_setup) = set_up(w.workers, w.elaborate, tracer.as_deref_mut());
    let mut setups = vec![first_setup];
    time_set_ups(w, w.setups - 1, tracer.as_deref_mut(), &mut setups);
    let plans = (w.plans)(&verifier);

    let mut latencies = Vec::with_capacity(w.verdicts);
    let mut plan_walls: Vec<Vec<f64>> = vec![Vec::new(); plans.len()];
    let mut concurrency = Vec::with_capacity(w.verdicts);
    let mut idle = Vec::with_capacity(w.verdicts);
    let mut first: Option<VerificationReport> = None;
    reset_peak_rss();
    let started = Instant::now();
    let mut paused = Duration::ZERO;
    for _ in 0..w.verdicts {
        let t = Instant::now();
        let report = verifier
            .verify_plans(&pair.pipelined, &pair.unpipelined, &plans)
            .expect("the design pair is well-formed");
        let latency = t.elapsed().as_secs_f64();
        latencies.push(latency);
        for (walls, plan) in plan_walls.iter_mut().zip(&report.plan_reports) {
            walls.push(plan.wall_time.as_secs_f64());
        }
        let plan_sum = report.plan_wall_total().as_secs_f64();
        concurrency.push(plan_sum / latency);
        idle.push(w.workers as f64 * latency - plan_sum);
        out.attempted += 1;
        check_verdict(&mut out, w.name, &report, plans.len(), first.as_ref());
        first.get_or_insert(report);
        let pause = Instant::now();
        time_set_ups(w, w.setups, tracer.as_deref_mut(), &mut setups);
        paused += pause.elapsed();
    }
    let wall = (started.elapsed() - paused).as_secs_f64();
    let peak_rss = peak_rss_mb();
    let first = first.expect("at least one verdict");
    let latency = Latency::of(&latencies);
    eprintln!(
        "{}: {} verdicts of {} plans on {} worker(s) in {wall:.3}s; {} nodes allocated and peak live {} per verdict; latency {}",
        w.name,
        w.verdicts,
        plans.len(),
        w.workers,
        first.bdd_nodes,
        first.bdd_peak_live,
        latency.describe()
    );

    if traced {
        let mut tracers = vec![setup_tracer];
        let mut replays = Vec::new();
        for verdict in 0..w.replays {
            let request_base = (verdict * plans.len()) as u64;
            let (t, r) = replay_plans(&pair, &plans, w.workers, epoch, request_base);
            tracers.extend(t);
            replays.extend(r);
        }
        check_identity(&mut out, &replays, &first.plan_reports);
        let plan_walls: Vec<f64> = plan_walls.iter().map(|v| median(v)).collect();
        layer_metrics(
            &mut out,
            &tracers,
            &replays,
            w.replays,
            &first.plan_reports,
            &plan_walls,
        );
        out.layer("pool.concurrency", median(&concurrency));
        out.layer("pool.idle_s", median(&idle));
        // The program's own tracing: verdicts with pv-obs spans on, each
        // right after an untraced twin, so that both see the same machine.
        let mut twins = [Vec::new(), Vec::new()];
        for _ in 0..w.replays {
            for (trace, times) in [false, true].into_iter().zip(&mut twins) {
                pv_obs::set_trace_enabled(trace);
                let t = Instant::now();
                let report = verifier
                    .verify_plans(&pair.pipelined, &pair.unpipelined, &plans)
                    .expect("the design pair is well-formed");
                times.push(t.elapsed().as_secs_f64());
                out.attempted += 1;
                check_verdict(&mut out, w.name, &report, plans.len(), Some(&first));
            }
        }
        pv_obs::set_trace_enabled(false);
        let events = pv_obs::take_events().len();
        eprintln!(
            "{}: the program recorded {events} trace events in {} traced verdicts",
            w.name, w.replays
        );
        out.layer("trace.overhead", median(&twins[1]) / median(&twins[0]));
        out.write_spans(run_dir, w.name, &tracers);
    } else {
        out.metric("setup_s", median(&setups));
        out.metric("wall_s", wall);
        out.metric("verdict_p50_s", latency.p50);
        out.metric("verdict_p90_s", latency.p90);
        out.metric("verdicts_per_s", w.verdicts as f64 / wall);
        out.metric("peak_rss_mb", peak_rss);
        out.metric("bdd_allocated", first.bdd_nodes as f64);
        out.metric("bdd_peak_live", first.bdd_peak_live as f64);
    }
    out
}
