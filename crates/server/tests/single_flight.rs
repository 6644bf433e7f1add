//! **Single-flight and admission-time answers** under concurrency: many
//! workers and several connections flooding the same few designs must run
//! the engine exactly once per distinct flow key and answer every job
//! exactly once, and a warm cache hit must never wait behind a slow cold
//! job.

use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use pipeverify_core::cache::ArtifactCache;
use pipeverify_core::json::Json;
use pv_proc::family::{FamilyBug, FamilyConfig};
use pv_server::job::{cache_keys, JobRunner};
use pv_server::protocol::{self, DesignSpec, FlowKind, JobRequest, PlanSet};
use pv_server::server::{self, BindAddr};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pv-server-single-flight-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn job(id: u64, design: DesignSpec, flows: Vec<FlowKind>) -> JobRequest {
    JobRequest {
        id,
        design,
        flows,
        plans: PlanSet::Default,
        deadline_ms: None,
        node_budget: None,
    }
}

/// Serves `addr` on `threads` workers while `client` runs, then shuts the
/// server down.
fn with_server<T>(
    addr: &BindAddr,
    runner: &JobRunner,
    threads: usize,
    client: impl FnOnce(&Path) -> T,
) -> T {
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| server::serve(addr, runner, threads, &shutdown));
        let BindAddr::Unix(path) = addr else {
            unreachable!("the tests listen on Unix sockets")
        };
        while !path.exists() {
            assert!(!server.is_finished(), "the server died before binding");
            std::thread::sleep(Duration::from_millis(5));
        }
        let result = client(path);
        shutdown.store(true, Ordering::Relaxed);
        server
            .join()
            .expect("no panic")
            .expect("serve returns cleanly");
        result
    })
}

/// Sends `jobs` on one connection, half-closes it, and returns the response
/// lines in arrival order.
fn send_all(path: &Path, jobs: &[JobRequest]) -> Vec<Json> {
    let stream = loop {
        match UnixStream::connect(path) {
            Ok(stream) => break stream,
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let mut writer = stream.try_clone().expect("clone stream");
    for job in jobs {
        writeln!(writer, "{}", protocol::request_to_json(job).render()).expect("send job");
    }
    writer
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    BufReader::new(stream)
        .lines()
        .map(|line| Json::parse(&line.expect("read response")).expect("response is JSON"))
        .collect()
}

#[test]
fn concurrent_floods_run_each_distinct_key_once_and_answer_every_id_once() {
    const COPIES: u64 = 24;
    let base = FamilyConfig::new(2, 4, 2, 0).stallable();
    let menu = [
        (
            DesignSpec::Family(base),
            vec![FlowKind::Beta, FlowKind::Flushing],
        ),
        (
            DesignSpec::Family(base.with_bug(FamilyBug::WrongStallCondition)),
            vec![FlowKind::Beta],
        ),
        (
            DesignSpec::Family(base.with_bug(FamilyBug::BranchTargetOffByOne)),
            vec![FlowKind::Flushing],
        ),
        (
            DesignSpec::Vsm {
                num_regs: 2,
                stallable: false,
            },
            vec![FlowKind::Beta],
        ),
    ];
    // Two connections, each flooding every design COPIES times, interleaved;
    // ids are unique across both connections.
    let connections: Vec<Vec<JobRequest>> = (0..2u64)
        .map(|c| {
            (0..COPIES * menu.len() as u64)
                .map(|i| {
                    let (design, flows) = menu[i as usize % menu.len()].clone();
                    job(c * 1000 + i, design, flows)
                })
                .collect()
        })
        .collect();
    let mut distinct = HashSet::new();
    for job in connections.iter().flatten() {
        distinct.extend(cache_keys(job).expect("menu designs are valid"));
    }
    assert_eq!(distinct.len(), 5, "the menu names five flow keys");

    let dir = scratch("flood");
    let addr = BindAddr::Unix(dir.join("pv.sock"));
    let runner = JobRunner::new(Some(ArtifactCache::at(dir.join("cache"))));
    let answers = with_server(&addr, &runner, 8, |path| {
        std::thread::scope(|scope| {
            let clients: Vec<_> = connections
                .iter()
                .map(|jobs| scope.spawn(move || send_all(path, jobs)))
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread"))
                .collect::<Vec<_>>()
        })
    });

    for (jobs, lines) in connections.iter().zip(&answers) {
        let mut answered: BTreeMap<u64, usize> = BTreeMap::new();
        for line in lines {
            assert_eq!(
                line.get("ok").and_then(Json::as_bool),
                Some(true),
                "every flood job verifies: {}",
                line.render()
            );
            let id = line.get("id").and_then(Json::as_u64).expect("id");
            *answered.entry(id).or_default() += 1;
        }
        let expected: BTreeMap<u64, usize> = jobs.iter().map(|j| (j.id, 1)).collect();
        assert_eq!(answered, expected, "every id answered exactly once");
    }
    assert_eq!(
        runner.cache_misses(),
        distinct.len(),
        "exactly one engine run per distinct flow key"
    );
    let flows: usize = connections.iter().flatten().map(|j| j.flows.len()).sum();
    assert_eq!(runner.cache_hits(), flows - distinct.len());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_warm_hit_is_written_before_a_slow_cold_job_queued_ahead_of_it() {
    let dir = scratch("overtake");
    let runner = JobRunner::new(Some(ArtifactCache::at(dir.join("cache"))));
    let warm = DesignSpec::Family(FamilyConfig::new(2, 4, 2, 0));
    // Warm the cache with the cheap design first.
    let warmed =
        pv_server::sched::run_jobs(&runner, &[job(0, warm, vec![FlowKind::Beta])], 1, |_, _| {});
    assert!(warmed[0].is_ok());

    // A depth-8 cold β check takes a few hundred times as long as answering
    // the warm design from the cache; on one worker, the hit sent right
    // behind it must still come back first.
    let slow = DesignSpec::Family(FamilyConfig::new(8, 4, 2, 0).stallable());
    let jobs = [
        job(1, slow, vec![FlowKind::Beta]),
        job(2, warm, vec![FlowKind::Beta]),
    ];
    let addr = BindAddr::Unix(dir.join("pv.sock"));
    let lines = with_server(&addr, &runner, 1, |path| send_all(path, &jobs));

    let ids: Vec<u64> = lines
        .iter()
        .map(|line| line.get("id").and_then(Json::as_u64).expect("id"))
        .collect();
    assert_eq!(ids, vec![2, 1], "the hit overtakes the slow cold job");
    let hit = lines[0].render();
    assert!(hit.contains("\"cached\":true"), "{hit}");
    assert!(lines[1].render().contains("\"cached\":false"));

    std::fs::remove_dir_all(&dir).ok();
}
