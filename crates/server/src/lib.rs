//! **Verification as a service**: a batch front-end over the repository's two
//! verification flows.
//!
//! The paper's experiments (Section 6) are sweeps — one design pair after
//! another, correct and bug-seeded, through the β-relation check. This crate
//! packages that workload shape as a service:
//!
//! * a **wire protocol** ([`protocol`]): line-delimited JSON jobs naming a
//!   design (a generated-family configuration or a reduced VSM), the flows to
//!   run and the plan set, answered by [`FlowReport`]s in the JSON shape of
//!   [`pipeverify_core::report_io`];
//! * a **job runner** ([`job`]): elaborates the design pair once, runs the
//!   requested flows, and consults the content-addressed
//!   [`ArtifactCache`](pipeverify_core::cache) first — a warm re-run of an
//!   unchanged job is a file read, so re-verifying a family sweep with one
//!   seeded bug changed only pays for the changed cells;
//! * an **LPT scheduler** ([`sched`]): jobs sorted by a monotonic cost
//!   estimate, longest first, fanned out on [`pipeverify_core::pool`] —
//!   job-level parallelism (each flow runs its inner pool at one thread), so
//!   a sweep saturates the workers without oversubscribing them;
//! * a **server** ([`server`]): jobs over a Unix or TCP socket, answered in
//!   arrival waves, draining and shutting down gracefully when the peer
//!   closes its end.
//!
//! The `pv` binary fronts all of it: `pv serve` listens on a socket,
//! `pv batch` drives a JSONL job file in-process, `pv soak` floods an
//! in-process server and checks that nothing is dropped and memory stays
//! bounded. See `docs/PROTOCOL.md` for the complete wire and cache
//! formats, and `README.md` § "The verification service" for a quickstart.
//!
//! [`FlowReport`]: pipeverify_core::FlowReport

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod job;
pub mod protocol;
pub mod sched;
pub mod server;

pub use job::{cost_estimate, JobRunner};
pub use protocol::{
    DesignSpec, FlowKind, FlowResult, JobRequest, JobResponse, PlanSet, ProtocolError,
};
pub use server::BindAddr;

/// The `server.rss_peak` gauge: peak resident-set size in bytes, published to
/// the `pv-obs` registry by [`record_rss_peak`].
static M_RSS_PEAK: pv_obs::Gauge = pv_obs::Gauge::new("server.rss_peak");

/// Probes [`peak_rss_bytes`] and surfaces it as the `server.rss_peak` gauge
/// (monotone: the gauge keeps the largest value ever recorded). Returns the
/// probed value. The soak harness calls this after each wave, so a metrics
/// snapshot shows the memory high-water mark next to the cache and scheduler
/// counters.
pub fn record_rss_peak() -> Option<u64> {
    let rss = peak_rss_bytes()?;
    M_RSS_PEAK.set_max(rss);
    Some(rss)
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where the proc filesystem is unavailable.
/// The soak harness uses this to assert that a long job stream runs in
/// bounded memory.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb * 1024)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}
