//! `pvbench` — the repository's benchmark. One run measures one workload
//! and prints, as the last line of standard output, a JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//!
//! ```text
//! pvbench --workload <alpha0-sweep|vsm-quickstart|service-open> --seed <n> --seconds <s> --trace <0|1>
//! pvbench menu    # cold cost and verdicts of every service-open menu cell
//! ```
//!
//! Scratch files (sockets, artifact caches, span dumps) go under
//! `.bench_run/` in the working directory.

mod replay;
mod rng;
mod service;
mod spans;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// Every end-to-end metric and its unit; each untraced run reports all.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("verdict_p50_s", "s"),
    ("verdict_p90_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("bdd_allocated", "nodes"),
    ("bdd_peak_live", "nodes"),
];

/// Every per-layer metric and its unit; each traced run reports all, with 0
/// for a layer the workload does not exercise.
const PER_LAYER: [(&str, &str); 38] = [
    ("proc.elaborate_s", "s"),
    ("netlist.step_s", "s"),
    ("netlist.force_order_s", "s"),
    ("netlist.export_s", "s"),
    ("bdd.constrain_s", "s"),
    ("bdd.sample_constrain_s", "s"),
    ("bdd.gc_s", "s"),
    ("bdd.gc_runs", "count"),
    ("bdd.gc_collected", "nodes"),
    ("bdd.ite_misses", "count"),
    ("bdd.ite_hit_rate", "ratio"),
    ("bdd.unique_grows", "count"),
    ("plan.0.wall_s", "s"),
    ("plan.1.wall_s", "s"),
    ("plan.2.wall_s", "s"),
    ("plan.3.wall_s", "s"),
    ("plan.4.wall_s", "s"),
    ("plan.0.allocated", "nodes"),
    ("plan.1.allocated", "nodes"),
    ("plan.2.allocated", "nodes"),
    ("plan.3.allocated", "nodes"),
    ("plan.4.allocated", "nodes"),
    ("pool.concurrency", "ratio"),
    ("pool.idle_s", "s"),
    ("cache.hit_rate", "ratio"),
    ("cache.engine_runs_per_key", "ratio"),
    ("beta.wall_s", "s"),
    ("flush.wall_s", "s"),
    ("protocol.decode_s", "s"),
    ("server.queue_wait_mean_s", "s"),
    ("server.run_mean_s", "s"),
    ("server.retries", "count"),
    ("job.hit_p50_s", "s"),
    ("job.miss_p50_s", "s"),
    ("job.slo_met_share", "ratio"),
    ("gen.lag_p90_s", "s"),
    ("trace.overhead", "ratio"),
    ("replay.identity_checked", "count"),
];

/// What one run found: the counts the result line carries and the metrics
/// the workload measured.
pub struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
        }
    }

    /// Records a failed verdict or check.
    fn fail(&mut self, message: &str) {
        eprintln!("FAILED: {message}");
        self.correct = false;
        self.failed += 1;
    }

    /// Records an end-to-end metric.
    fn metric(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END.iter().any(|&(n, _)| n == name),
            "`{name}` is not an end-to-end metric"
        );
        self.metrics.insert(name.to_owned(), value);
    }

    /// Records a per-layer metric.
    fn layer(&mut self, name: &str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "`{name}` is not a per-layer metric"
        );
        self.metrics.insert(name.to_owned(), value);
    }

    /// Prints each layer's span count, total and self time, and writes the
    /// spans of a traced run to `<run_dir>/spans-<workload>.jsonl`.
    fn write_spans(&self, run_dir: &Path, workload: &str, tracers: &[spans::Tracer]) {
        for (name, layer) in spans::fold(tracers) {
            eprintln!(
                "span {name:<22} n={:<6} total {:>10.6}s self {:>10.6}s",
                layer.count, layer.total_s, layer.self_s
            );
        }
        let path = run_dir.join(format!("spans-{workload}.jsonl"));
        match spans::write_jsonl(&path, tracers) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }

    /// The result line. `names` lists the metrics this run must report;
    /// a per-layer metric the workload left unset reads 0, a missing
    /// end-to-end metric is a bug in the benchmark.
    fn render(&self, names: &[(&str, &str)], fill_zero: bool) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(v) => *v,
                    None if fill_zero => 0.0,
                    None => panic!("the workload did not measure `{name}`"),
                };
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Peak resident-set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    pv_server::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// Starts a fresh peak-RSS window: hands freed heap memory back to the
/// system (glibc's `malloc_trim`) and resets `VmHWM` to the current RSS
/// through `/proc/self/clear_refs`, so a later [`peak_rss_mb`] covers only
/// what ran in between.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointers; it only releases free
        // pages of the allocator's own heaps.
        unsafe {
            malloc_trim(0);
        }
    }
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("pvbench: cannot reset the peak RSS ({e}); it covers the whole process");
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("`{flag} {value}`: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace {value}`: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("missing or zero --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("menu") {
        service::probe_menu();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pvbench: {e}");
            eprintln!("usage: pvbench --workload <alpha0-sweep|vsm-quickstart|service-open> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let run_dir = Path::new(".bench_run");
    if let Err(e) = std::fs::create_dir_all(run_dir) {
        eprintln!("pvbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::FAILURE;
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    eprintln!(
        "pvbench: workload {} seed {} seconds {} trace {} on {nproc} available cores",
        args.workload, args.seed, args.seconds, args.trace
    );
    let outcome = match args.workload.as_str() {
        "alpha0-sweep" => sweep::alpha0_sweep(args.seconds, args.trace, run_dir),
        "vsm-quickstart" => sweep::vsm_quickstart(args.seconds, args.trace, run_dir),
        "service-open" => service::service_open(args.seed, args.seconds, args.trace, run_dir),
        other => {
            eprintln!("pvbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    let line = if args.trace {
        outcome.render(&PER_LAYER, true)
    } else {
        outcome.render(&END_TO_END, false)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeverify_core::json::Json;

    /// The metric lists here and in BENCHMARK.json must name the same
    /// metrics, in the same order, with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let manifest = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            manifest
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn result_lines_carry_exactly_the_contract_keys() {
        let mut out = Outcome::new();
        out.attempted = 3;
        for (name, _) in END_TO_END {
            out.metric(name, 1.5);
        }
        let line = Json::parse(&out.render(&END_TO_END, false)).unwrap();
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(3));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
        let wall = line.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
        out.fail("a wrong verdict");
        let line = Json::parse(&out.render(&PER_LAYER, true)).unwrap();
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(1));
    }
}
