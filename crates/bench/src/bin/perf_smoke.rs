//! Perf-smoke gate for the engines: a table of small fixed cases, each
//! writing work counters, records and same-run checks into one
//! [`Sheet`] (see `pv_bench::gate`). The sheet is written to
//! `BENCH_bdd.json` in the current directory.
//!
//! * **Counters** (allocated nodes, peak live, ITE and `constrain` calls and
//!   misses, case splits) are deterministic, so they must equal the committed
//!   `crates/bench/baselines/BENCH_bdd.json` exactly, on any machine.
//! * **Records** (walls, hit-rates, the runner's core count) are written but
//!   never compared with the baseline.
//! * **Same-run checks** compare a case with a twin measured in the same
//!   run, or with an absolute hard limit.
//!
//! The cases:
//!
//! 1. `reach12` — 12-bit counter reachability, 10 samples: partitioned
//!    transition relation, early quantification, between-iteration GC. Hard
//!    limit 60 s.
//! 2. `adder16` — 16-bit interleaved adder, median of 100 builds. Hard limit
//!    5 ms.
//! 3. `vsm` — the quickstart VSM verification (Section 6.2).
//! 4. `alpha0_sweep` — a three-position condensed-Alpha0 control-transfer
//!    sweep, run sequentially, on a four-worker pool and traced. The three
//!    reports must be identical, the traced spans must nest, tracing may
//!    cost at most 10% (plus 0.5 s of timer grace), and on a runner with at
//!    least two cores the pool must beat the sequential twin (skipped with a
//!    notice on one core).
//! 5. `flush3` — Burch–Dill flushing of the stallable VSM (flush bound 3);
//!    sequential and four-worker reports must agree.
//! 6. `flush_par` — the EUF case split of a depth-12 term pipeline,
//!    sequential vs four workers: reports must agree, and on two or more
//!    cores the pool must win.
//! 7. `cache_warm` — the family-matrix smoke sweep through the service's job
//!    runner, cold then warm against one scratch cache: the warm sweep must
//!    miss nothing, reproduce the cold reports and take at most 0.2× the
//!    cold wall (or under 5 ms).
//! 8. `budget_abort` — reach12 under a 20k-node budget: the abort must fire
//!    within 2048 nodes of the limit and within 1 s.
//!
//! Exit status is non-zero when any check fails or a counter differs from
//! the baseline, so this runs as a CI gate.

use std::time::{Duration, Instant};

use pipeverify_core::cache::ArtifactCache;
use pipeverify_core::json::Json;
use pipeverify_core::{MachineSpec, SimulationPlan, VerificationReport, Verifier};
use pv_bdd::{BddManager, BddVec, Budget, BudgetExceeded};
use pv_bench::counter_system;
use pv_bench::gate::Sheet;
use pv_bench::matrix::{cell_bugs, smoke_configs};
use pv_flush::{FlushReport, FlushVerifier, PipelineDesc};
use pv_isa::alpha0::Alpha0Config;
use pv_proc::alpha0::{self, PipelineConfig};
use pv_proc::family::FamilyBug;
use pv_proc::vsm::{self, VsmConfig};
use pv_server::job::JobRunner;
use pv_server::protocol::{self, DesignSpec, FlowKind, JobRequest, PlanSet};
use pv_server::sched;

/// Hard wall-time limit on the 10-sample 12-bit reachability sweep (s).
const REACH12_WALL_LIMIT_S: f64 = 60.0;
/// Hard limit on the median 16-bit interleaved adder build (s).
const ADDER16_MEDIAN_LIMIT_S: f64 = 0.005;
/// Worker count of every parallel twin (the pool clamps to the batch size).
const TWIN_THREADS: usize = 4;
/// The condensed-Alpha0 sweep: a 3-position control-transfer sweep over
/// 4-slot plans keeps the per-plan costs balanced, so the pool has real
/// parallelism to exploit. The k = 5 paper sweep, whose slot-4 plan
/// dominates, lives in the `alpha0_verify` example.
const SWEEP_SLOTS: usize = 4;
const SWEEP_POSITIONS: usize = 3;
/// Ceiling on the traced sweep's wall as a factor of its untraced twin, and
/// an absolute grace for timer noise on short runs.
const TRACE_OVERHEAD_FACTOR: f64 = 1.10;
const TRACE_OVERHEAD_GRACE_S: f64 = 0.5;
/// Repetitions of the (fast) stallable-VSM flushing check, so its wall
/// record sums to something above timer resolution.
const FLUSH3_REPEATS: usize = 20;
/// Depth of the term pipeline whose case split is the parallel-EUF twin:
/// a few hundred milliseconds sequentially, in balanced blocks.
const FLUSH_PAR_DEPTH: usize = 12;
/// Ceiling on the warm artifact-cache sweep as a fraction of its cold twin,
/// and the absolute wall below which the warm sweep passes outright (a
/// few-millisecond warm sweep *is* the file-read path).
const CACHE_WARM_FACTOR: f64 = 0.2;
const CACHE_WARM_GRACE_S: f64 = 0.005;
/// Node budget of `budget_abort`, a small fraction of what reach12
/// allocates.
const BUDGET_ABORT_LIMIT: usize = 20_000;
/// Bound on nodes allocated past the tripped limit: twice the manager's
/// amortized check interval (1024 ITE misses), the contract the `pv-bdd`
/// budget tests pin down.
const BUDGET_ABORT_OVERSHOOT_LIMIT: usize = 2 * 1024;
/// Hard wall ceiling for the budget abort.
const BUDGET_ABORT_WALL_LIMIT_S: f64 = 1.0;

/// The cases, in run order.
const CASES: &[fn(&mut Sheet)] = &[
    reach12,
    adder16,
    vsm,
    alpha0_sweep,
    flush3,
    flush_par,
    cache_warm,
    budget_abort,
];

fn main() {
    let mut sheet = Sheet::default();
    sheet.record("cores", cores() as f64);
    sheet.record(
        "pv_threads_effective",
        pipeverify_core::pool::default_threads() as f64,
    );
    for case in CASES {
        case(&mut sheet);
    }

    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/BENCH_bdd.json");
    let baseline = std::fs::read_to_string(baseline_path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()));
    match baseline {
        Ok(baseline) => {
            let regressions = sheet.counter_regressions(&baseline);
            sheet.failures.extend(regressions);
        }
        Err(e) => sheet
            .failures
            .push(format!("cannot read baseline {baseline_path}: {e}")),
    }

    std::fs::write("BENCH_bdd.json", sheet.to_json().render() + "\n")
        .expect("write BENCH_bdd.json");
    println!("wrote BENCH_bdd.json");
    if sheet.failures.is_empty() {
        println!("perf-smoke: OK");
    } else {
        for f in &sheet.failures {
            eprintln!("perf-smoke FAILURE: {f}");
        }
        std::process::exit(1);
    }
}

/// Hit-rate `hits / (hits + misses)`; 0 when nothing was looked up.
fn hit_rate(hits: usize, misses: usize) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Writes one operator's computed-table work: calls and misses as
/// counters, the hit-rate as a record. Calls catch a table that stops
/// answering even when the misses and the node counts do not move: each
/// lost hit becomes a recomputation whose own lookups hit. Returns the
/// hit-rate.
fn op_work(sheet: &mut Sheet, case: &str, op: &str, hits: usize, misses: usize) -> f64 {
    let rate = hit_rate(hits, misses);
    sheet.counter(format!("{case}_{op}_calls"), hits + misses);
    sheet.counter(format!("{case}_{op}_misses"), misses);
    sheet.record(format!("{case}_{op}_hit_rate"), rate);
    rate
}

/// Writes a β-relation report's work: allocated, peak live, and the ITE and
/// `constrain` work from the report's deterministic `metrics`. Returns the
/// ITE hit-rate.
fn report_work(sheet: &mut Sheet, case: &str, report: &VerificationReport) -> f64 {
    let metric = |key| report.metrics.get(key).map_or(0, |&v| v as usize);
    sheet.counter(format!("{case}_allocated"), report.bdd_nodes);
    sheet.counter(format!("{case}_peak_live"), report.bdd_peak_live);
    op_work(
        sheet,
        case,
        "constrain",
        metric("bdd.constrain.cache_hit"),
        metric("bdd.constrain.cache_miss"),
    );
    op_work(
        sheet,
        case,
        "ite",
        metric("bdd.ite.cache_hit"),
        metric("bdd.ite.cache_miss"),
    )
}

/// The runner's core count as the OS reports it (affinity masks included).
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Whether the runner has a second core for a parallel twin to win with;
/// prints the skip notice for `case` when it has not.
fn parallel_gate_applies(case: &str) -> bool {
    let cores = cores();
    if cores < 2 {
        println!(
            "{case:14}: NOTICE — single-core runner ({cores} core(s), effective PV_THREADS {}), skipping the parallel-beats-sequential gate",
            pipeverify_core::pool::default_threads()
        );
    }
    cores >= 2
}

/// Whether two β-relation reports agree on everything but walls.
fn same_report(a: &VerificationReport, b: &VerificationReport) -> bool {
    a.bdd_nodes == b.bdd_nodes
        && a.bdd_peak_live == b.bdd_peak_live
        && a.samples_compared == b.samples_compared
        && a.bdd_vars == b.bdd_vars
        && a.plans_checked == b.plans_checked
        && a.filters == b.filters
        && a.metrics == b.metrics
}

/// Whether two flushing reports agree on everything but walls.
fn same_flush_report(a: &FlushReport, b: &FlushReport) -> bool {
    a.splits == b.splits
        && a.closure_checks == b.closure_checks
        && a.terms == b.terms
        && a.cubes_checked == b.cubes_checked
        && a.counterexample == b.counterexample
}

fn reach12(sheet: &mut Sheet) {
    let samples = 10usize;
    let (mut peak_live, mut allocated, mut hits, mut misses) = (0, 0, 0, 0);
    let start = Instant::now();
    for _ in 0..samples {
        let mut m = BddManager::new();
        let ts = counter_system(&mut m, 12);
        let reach = ts.reachable(&mut m);
        assert!(
            reach.iterations >= 1 << 12,
            "fixpoint after 2^12 increments"
        );
        let stats = m.stats();
        peak_live = stats.peak_live.max(peak_live);
        allocated = stats.allocated.max(allocated);
        hits += stats.ite_hits;
        misses += stats.ite_misses;
    }
    let wall = start.elapsed().as_secs_f64();
    sheet.counter("reach12_allocated", allocated);
    sheet.counter("reach12_peak_live", peak_live);
    let rate = op_work(sheet, "reach12", "ite", hits, misses);
    println!(
        "reach12       : {samples} samples in {wall:.3} s, peak live {peak_live}, allocated {allocated}, ITE hit-rate {rate:.3}"
    );
    sheet.record("reach12_wall_s", wall);
    sheet.check(wall <= REACH12_WALL_LIMIT_S, || {
        format!("reach12 wall {wall:.3} s exceeds the {REACH12_WALL_LIMIT_S} s hard limit")
    });
}

fn adder16(sheet: &mut Sheet) {
    let mut stats = None;
    let mut times: Vec<Duration> = (0..100)
        .map(|_| {
            let start = Instant::now();
            let mut m = BddManager::new();
            let words = BddVec::new_interleaved(&mut m, 2, 16);
            let sum = words[0].1.add(&mut m, &words[1].1);
            assert_eq!(sum.width(), 16);
            let elapsed = start.elapsed();
            stats = Some(m.stats());
            elapsed
        })
        .collect();
    times.sort_unstable();
    let median = times[times.len() / 2].as_secs_f64();
    let stats = stats.expect("at least one build");
    println!(
        "adder16       : median {:.1} µs, allocated {}",
        median * 1e6,
        stats.allocated
    );
    sheet.counter("adder16_allocated", stats.allocated);
    op_work(sheet, "adder16", "ite", stats.ite_hits, stats.ite_misses);
    sheet.record("adder16_median_s", median);
    sheet.check(median <= ADDER16_MEDIAN_LIMIT_S, || {
        format!("adder16 median {median:.6} s exceeds the {ADDER16_MEDIAN_LIMIT_S} s hard limit")
    });
}

fn vsm(sheet: &mut Sheet) {
    let start = Instant::now();
    let config = VsmConfig::reduced(2);
    let pipelined = vsm::pipelined(config).expect("build pipelined VSM");
    let unpipelined = vsm::unpipelined(config).expect("build unpipelined VSM");
    let report = Verifier::new(MachineSpec::vsm_reduced(2))
        .verify(&pipelined, &unpipelined)
        .expect("verify VSM");
    assert!(report.equivalent(), "quickstart VSM must verify");
    let wall = start.elapsed().as_secs_f64();
    let rate = report_work(sheet, "vsm", &report);
    println!(
        "vsm quickstart: {wall:.3} s, allocated {} nodes, peak live {}, ITE hit-rate {rate:.3}",
        report.bdd_nodes, report.bdd_peak_live
    );
    sheet.record("vsm_wall_s", wall);
}

fn alpha0_sweep(sheet: &mut Sheet) {
    let isa = Alpha0Config::condensed();
    let pipelined = alpha0::pipelined(PipelineConfig::condensed(isa)).expect("build pipelined");
    let unpipelined =
        alpha0::unpipelined(PipelineConfig::condensed(isa)).expect("build unpipelined");
    let sweep: Vec<SimulationPlan> = (0..SWEEP_POSITIONS)
        .map(|x| SimulationPlan::with_control_at(SWEEP_SLOTS, x))
        .collect();
    let verifier = Verifier::new(MachineSpec::alpha0_condensed(isa));
    let timed = |threads: usize| {
        let start = Instant::now();
        let report = verifier
            .clone()
            .with_threads(threads)
            .verify_plans(&pipelined, &unpipelined, &sweep)
            .expect("sweep");
        assert!(report.equivalent(), "sweep must verify");
        (report, start.elapsed().as_secs_f64())
    };
    let (seq, seq_wall) = timed(1);
    let (par, par_wall) = timed(TWIN_THREADS);
    pv_obs::take_events(); // drop anything earlier cases buffered
    pv_obs::set_trace_enabled(true);
    let (traced, traced_wall) = timed(1);
    pv_obs::set_trace_enabled(false);
    let events = pv_obs::take_events();
    println!(
        "alpha0_sweep  : sequential {seq_wall:.3} s; {} workers {par_wall:.3} s ({:.2}x); traced {traced_wall:.3} s ({} events); {} allocated, peak live {}",
        par.threads_used,
        seq_wall / par_wall.max(1e-9),
        events.len(),
        seq.bdd_nodes,
        seq.bdd_peak_live,
    );
    report_work(sheet, "alpha0_sweep", &seq);
    sheet.record("alpha0_sweep_seq_wall_s", seq_wall);
    sheet.record("alpha0_sweep_par_wall_s", par_wall);
    sheet.record("alpha0_sweep_traced_wall_s", traced_wall);

    sheet.check(same_report(&seq, &par), || {
        format!(
            "alpha0_sweep parallel report diverges from sequential: {} vs {} nodes, {} vs {} peak live",
            par.bdd_nodes, seq.bdd_nodes, par.bdd_peak_live, seq.bdd_peak_live
        )
    });
    if parallel_gate_applies("alpha0_sweep") {
        sheet.check(par_wall < seq_wall, || {
            format!("alpha0_sweep_par {par_wall:.3} s did not beat the sequential twin {seq_wall:.3} s — the worker pool must win")
        });
    }
    sheet.check(same_report(&seq, &traced), || {
        format!(
            "alpha0_sweep traced report diverges from untraced: {} vs {} nodes — tracing perturbed verification",
            traced.bdd_nodes, seq.bdd_nodes
        )
    });
    sheet.check(!events.is_empty(), || {
        "alpha0_sweep traced run emitted no span events".to_owned()
    });
    if let Err(e) = pv_obs::fold::check_nesting(&events) {
        sheet.failures.push(format!(
            "alpha0_sweep traced events violate span nesting: {e}"
        ));
    }
    let ceiling = (seq_wall * TRACE_OVERHEAD_FACTOR).max(seq_wall + TRACE_OVERHEAD_GRACE_S);
    sheet.check(traced_wall <= ceiling, || {
        format!("alpha0_sweep traced wall {traced_wall:.3} s exceeds the {TRACE_OVERHEAD_FACTOR}x overhead budget over the untraced {seq_wall:.3} s")
    });
}

fn flush3(sheet: &mut Sheet) {
    let stallable = vsm::pipelined(VsmConfig::reduced(2).stallable()).expect("build stallable VSM");
    let flush3 = FlushVerifier::from_netlist(&stallable).expect("derive flushing verifier");
    assert_eq!(
        flush3.desc().flush_bound(),
        3,
        "the stallable VSM drains in three bubble cycles"
    );
    let start = Instant::now();
    let mut seq = flush3.clone().with_threads(1).verify();
    for _ in 1..FLUSH3_REPEATS {
        seq = flush3.clone().with_threads(1).verify();
    }
    let wall = start.elapsed().as_secs_f64();
    assert!(seq.valid(), "the stallable VSM must verify: {seq}");
    let par = flush3.with_threads(TWIN_THREADS).verify();
    println!(
        "flush3        : {FLUSH3_REPEATS} runs in {wall:.3} s ({} terms, {} splits over {} blocks)",
        seq.terms, seq.splits, seq.cubes,
    );
    sheet.counter("flush3_splits", seq.splits);
    sheet.record("flush3_wall_s", wall);
    sheet.check(same_flush_report(&seq, &par), || {
        format!(
            "flush3 parallel report diverges from sequential: {}/{} splits, {}/{} blocks",
            par.splits, seq.splits, par.cubes_checked, seq.cubes_checked
        )
    });
}

fn flush_par(sheet: &mut Sheet) {
    let deep = PipelineDesc::with_depth(FLUSH_PAR_DEPTH);
    let timed = |threads: usize| {
        let start = Instant::now();
        let report = FlushVerifier::new(deep.clone())
            .with_threads(threads)
            .verify();
        (report, start.elapsed().as_secs_f64())
    };
    let (seq, seq_wall) = timed(1);
    let (par, par_wall) = timed(TWIN_THREADS);
    assert!(seq.valid(), "the deep pipeline must verify");
    println!(
        "flush_par     : depth {FLUSH_PAR_DEPTH} sequential {seq_wall:.3} s; {} workers {par_wall:.3} s ({:.2}x), {} splits",
        par.threads_used,
        seq_wall / par_wall.max(1e-9),
        seq.splits,
    );
    sheet.counter("flush_par_splits", seq.splits);
    sheet.record("flush_par_seq_wall_s", seq_wall);
    sheet.record("flush_par_par_wall_s", par_wall);
    sheet.check(same_flush_report(&seq, &par), || {
        format!(
            "flush_par parallel report diverges from sequential: {}/{} splits, {}/{} closure checks",
            par.splits, seq.splits, par.closure_checks, seq.closure_checks
        )
    });
    if parallel_gate_applies("flush_par") {
        sheet.check(par_wall < seq_wall, || {
            format!("flush_par {par_wall:.3} s did not beat the sequential twin {seq_wall:.3} s — the parallel case split must win")
        });
    }
}

fn cache_warm(sheet: &mut Sheet) {
    let scratch = std::env::temp_dir().join(format!("pv-perf-smoke-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    let mut jobs: Vec<JobRequest> = Vec::new();
    for config in smoke_configs() {
        let mut cells: Vec<Option<FamilyBug>> = vec![None];
        cells.extend(cell_bugs(&config).into_iter().map(Some));
        for bug in cells {
            jobs.push(JobRequest {
                id: jobs.len() as u64,
                design: DesignSpec::Family(bug.map_or(config, |bug| config.with_bug(bug))),
                flows: vec![FlowKind::Beta, FlowKind::Flushing],
                plans: PlanSet::Default,
                deadline_ms: None,
                node_budget: None,
            });
        }
    }
    let render_sweep = |runner: &JobRunner| -> (f64, Vec<String>) {
        let start = Instant::now();
        let outcomes = sched::run_jobs(runner, &jobs, TWIN_THREADS, |_, _| {});
        let wall = start.elapsed().as_secs_f64();
        let lines = outcomes
            .into_iter()
            .map(|o| {
                let response = o.expect("every smoke cell is verifiable");
                // The cached flag is the one field allowed to differ between
                // the cold and warm renderings.
                protocol::response_to_json(&response)
                    .render()
                    .replace("\"cached\":true", "\"cached\":false")
            })
            .collect();
        (wall, lines)
    };
    let cold_runner = JobRunner::new(Some(ArtifactCache::at(scratch.join("cache"))));
    let (cold_wall, cold_lines) = render_sweep(&cold_runner);
    let warm_runner = JobRunner::new(Some(ArtifactCache::at(scratch.join("cache"))));
    let (warm_wall, warm_lines) = render_sweep(&warm_runner);
    std::fs::remove_dir_all(&scratch).ok();
    let (hits, misses) = (warm_runner.cache_hits(), warm_runner.cache_misses());
    println!(
        "cache_warm    : {} jobs cold {cold_wall:.3} s ({} engine runs); warm {warm_wall:.3} s ({hits} hits, {misses} misses)",
        jobs.len(),
        cold_runner.cache_misses(),
    );
    sheet.record("cache_cold_wall_s", cold_wall);
    sheet.record("cache_warm_wall_s", warm_wall);
    sheet.record("cache_warm_hit_rate", hit_rate(hits, misses));
    sheet.check(misses == 0, || {
        format!("cache_warm re-ran {misses} flow(s) the cache should have answered")
    });
    sheet.check(warm_lines == cold_lines, || {
        "cache_warm reports differ from the cold reports".to_owned()
    });
    sheet.check(
        warm_wall <= (cold_wall * CACHE_WARM_FACTOR).max(CACHE_WARM_GRACE_S),
        || format!("cache_warm {warm_wall:.3} s exceeds {CACHE_WARM_FACTOR} x the cold sweep's {cold_wall:.3} s — the warm path must be a file read, not a re-verification"),
    );
}

fn budget_abort(sheet: &mut Sheet) {
    let start = Instant::now();
    let mut m = BddManager::new();
    m.set_budget(Budget::unlimited().with_node_limit(BUDGET_ABORT_LIMIT));
    // The abort unwinds via panic_any; silence the default hook for the
    // expected panic so the smoke log stays readable.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let aborted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let ts = counter_system(&mut m, 12);
        let _ = ts.reachable(&mut m);
    }));
    std::panic::set_hook(default_hook);
    let wall = start.elapsed().as_secs_f64();
    let exceeded = match &aborted {
        Err(payload) => payload.downcast_ref::<BudgetExceeded>().copied(),
        Ok(()) => None,
    };
    let allocated = m.stats().allocated;
    let overshoot = allocated.saturating_sub(BUDGET_ABORT_LIMIT);
    println!(
        "budget_abort  : aborted in {wall:.4} s, allocated {allocated} of {BUDGET_ABORT_LIMIT} + {overshoot} overshoot"
    );
    sheet.record("budget_abort_wall_s", wall);
    sheet.record("budget_abort_overshoot_nodes", overshoot as f64);
    sheet.check(exceeded == Some(BudgetExceeded::Nodes), || match aborted {
        Ok(()) => format!("budget_abort: reachability finished under a {BUDGET_ABORT_LIMIT}-node budget — the limit never tripped"),
        Err(_) => format!("budget_abort unwound with {exceeded:?}, not the node-limit abort"),
    });
    sheet.check(overshoot <= BUDGET_ABORT_OVERSHOOT_LIMIT, || {
        format!("budget_abort overshot the node limit by {overshoot} nodes (max {BUDGET_ABORT_OVERSHOOT_LIMIT}) — a budget check site is missing")
    });
    sheet.check(wall <= BUDGET_ABORT_WALL_LIMIT_S, || {
        format!("budget_abort took {wall:.3} s to trip (max {BUDGET_ABORT_WALL_LIMIT_S} s) — the abort must be early, not after the workload")
    });
}
