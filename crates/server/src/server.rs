//! The **socket server**: line-delimited JSON jobs over a Unix or TCP
//! stream, each answered as soon as it is done.
//!
//! # Admission
//!
//! A connection is served by two threads: a reader that decodes each job
//! line and admits it to the server's one queue ([`crate::sched`]) the
//! moment it arrives, and a writer that writes every response line as it
//! comes back. A cache hit is answered at admission, a duplicate of a job
//! already in flight waits for that job's result instead of re-running it,
//! and everything else is claimed longest-first by the server's persistent
//! workers, which every connection shares. A lone interactive job therefore
//! starts immediately, a client that floods 200 jobs gets them scheduled
//! longest-first, and no response waits for a slower job — responses come
//! back in completion order, correlated by `id`.
//!
//! # Shutdown
//!
//! End-of-stream on the socket (the peer closed or half-closed its end) ends
//! the reader; the connection then waits for every job already accepted,
//! writes the remaining responses, and returns. Nothing queued is ever
//! dropped — the soak harness (`pv soak`) asserts exactly this.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use pipeverify_core::json::Json;
use pipeverify_core::FlowErrorKind;

use crate::job::JobRunner;
use crate::protocol::{self, JobRequest};
use crate::sched::{JobOutcome, Queue, Reply};

/// Where the server listens (and clients connect): `unix:<path>` or
/// `tcp:<host>:<port>`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BindAddr {
    /// A Unix-domain socket at the given path.
    Unix(PathBuf),
    /// A TCP socket at the given `host:port`.
    Tcp(String),
}

impl FromStr for BindAddr {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("empty unix socket path".to_owned());
            }
            Ok(BindAddr::Unix(PathBuf::from(path)))
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            if !addr.contains(':') {
                return Err(format!("`{addr}` is not host:port"));
            }
            Ok(BindAddr::Tcp(addr.to_owned()))
        } else {
            Err(format!(
                "`{s}` must start with `unix:` or `tcp:` (e.g. unix:/tmp/pv.sock, tcp:127.0.0.1:7171)"
            ))
        }
    }
}

impl std::fmt::Display for BindAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindAddr::Unix(path) => write!(f, "unix:{}", path.display()),
            BindAddr::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

impl BindAddr {
    /// Connects a client and returns the stream's read and write halves.
    ///
    /// # Errors
    /// Propagates the connect error.
    pub fn connect(&self) -> io::Result<(Box<dyn io::Read + Send>, Box<dyn io::Write + Send>)> {
        match self {
            BindAddr::Unix(path) => {
                let stream = UnixStream::connect(path)?;
                let reader = stream.try_clone()?;
                Ok((Box::new(reader), Box::new(stream)))
            }
            BindAddr::Tcp(addr) => {
                let stream = TcpStream::connect(addr.as_str())?;
                let reader = stream.try_clone()?;
                Ok((Box::new(reader), Box::new(stream)))
            }
        }
    }
}

/// What one connection processed, for logging.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConnectionStats {
    /// Jobs answered with `ok: true`.
    pub jobs: usize,
    /// Lines answered with an error response (malformed or failing jobs).
    pub errors: usize,
}

/// One decoded line from the peer.
enum Incoming {
    Job(JobRequest),
    Bad { id: Option<u64>, error: String },
}

fn decode_line(line: &str) -> Incoming {
    let value = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            return Incoming::Bad {
                id: None,
                error: e.to_string(),
            }
        }
    };
    let id = value.get("id").and_then(Json::as_u64);
    match protocol::request_from_json(&value) {
        Ok(job) => Incoming::Job(job),
        Err(e) => Incoming::Bad {
            id,
            error: e.to_string(),
        },
    }
}

/// Serves one connection on its own queue: reads job lines until
/// end-of-stream, runs them on `threads` workers, and writes one response
/// line per job as soon as it is answered (responses carry the request id).
/// Returns once every accepted job has been answered — the
/// graceful-shutdown contract.
///
/// # Errors
/// Propagates write errors (a peer that vanished mid-response); read errors
/// end the stream like EOF does.
pub fn handle_connection<R, W>(
    runner: &JobRunner,
    threads: usize,
    reader: R,
    writer: W,
) -> io::Result<ConnectionStats>
where
    R: io::Read + Send,
    W: io::Write,
{
    let queue = Queue::default();
    queue.run(runner, threads, || {
        connection(&queue, runner, reader, writer)
    })
}

/// One connection over a shared `queue`: a reader thread decodes each line
/// and admits it (malformed lines are answered on the spot), and this thread
/// writes every response line as it arrives. The response channel closes
/// when the reader has reached end-of-stream and every admitted job has
/// been answered.
fn connection<R, W>(
    queue: &Queue,
    runner: &JobRunner,
    reader: R,
    writer: W,
) -> io::Result<ConnectionStats>
where
    R: io::Read + Send,
    W: io::Write,
{
    let (tx, rx) = mpsc::channel::<(bool, String)>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for line in BufReader::new(reader).lines() {
                let Ok(line) = line else { break };
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                match decode_line(line) {
                    Incoming::Job(job) => {
                        let (id, tx) = (job.id, tx.clone());
                        let reply: Reply = Box::new(move |outcome| {
                            let _ = tx.send(render(id, outcome));
                        });
                        queue.admit(runner, job, reply);
                    }
                    Incoming::Bad { id, error } => {
                        let line = protocol::error_to_json(id, FlowErrorKind::Invalid, &error);
                        let _ = tx.send((false, line.render()));
                    }
                }
            }
            // Dropping `tx` here leaves the answered jobs' senders as the
            // last ones: the channel closes when the final job is answered.
        });

        let mut out = BufWriter::new(writer);
        let mut stats = ConnectionStats { jobs: 0, errors: 0 };
        while let Ok(first) = rx.recv() {
            for (ok, line) in std::iter::once(first).chain(rx.try_iter()) {
                if ok {
                    stats.jobs += 1;
                } else {
                    stats.errors += 1;
                }
                writeln!(out, "{line}")?;
            }
            out.flush()?;
        }
        Ok(stats)
    })
}

/// A job's response line, and whether it answers `ok`.
fn render(id: u64, outcome: JobOutcome) -> (bool, String) {
    match outcome {
        Ok(response) => (true, protocol::response_to_json(&response).render()),
        Err(error) => (
            false,
            protocol::error_to_json(Some(id), error.kind, &error.message).render(),
        ),
    }
}

/// Accept-loop poll interval while checking the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Serves connections at `addr` until `shutdown` turns true, handling each
/// connection on its own thread over one shared queue of `threads` workers
/// (connections in flight are drained before returning). A Unix socket path
/// left over from an earlier run is removed before binding.
///
/// # Errors
/// Propagates bind/accept errors. Per-connection I/O errors are logged to
/// stderr and do not stop the server.
pub fn serve(
    addr: &BindAddr,
    runner: &JobRunner,
    threads: usize,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    let queue = Queue::default();
    let serve_on = |accept: &dyn Fn() -> io::Result<Option<BoxedHalves>>| {
        queue.run(runner, threads, || {
            accept_loop(&queue, runner, shutdown, accept)
        })
    };
    match addr {
        BindAddr::Unix(path) => {
            if path.exists() {
                std::fs::remove_file(path)?;
            }
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            let result = serve_on(&|| match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    let reader = stream.try_clone()?;
                    Ok(Some((
                        Box::new(reader) as Box<dyn io::Read + Send>,
                        Box::new(stream) as Box<dyn io::Write + Send>,
                    )))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            });
            std::fs::remove_file(path).ok();
            result
        }
        BindAddr::Tcp(tcp) => {
            let listener = TcpListener::bind(tcp.as_str())?;
            listener.set_nonblocking(true)?;
            serve_on(&|| match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    let reader = stream.try_clone()?;
                    Ok(Some((
                        Box::new(reader) as Box<dyn io::Read + Send>,
                        Box::new(stream) as Box<dyn io::Write + Send>,
                    )))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            })
        }
    }
}

type BoxedHalves = (Box<dyn io::Read + Send>, Box<dyn io::Write + Send>);

fn accept_loop(
    queue: &Queue,
    runner: &JobRunner,
    shutdown: &AtomicBool,
    accept: &dyn Fn() -> io::Result<Option<BoxedHalves>>,
) -> io::Result<()> {
    std::thread::scope(|scope| {
        while !shutdown.load(Ordering::Relaxed) {
            match accept() {
                Ok(Some((reader, writer))) => {
                    scope.spawn(move || match connection(queue, runner, reader, writer) {
                        Ok(stats) => eprintln!(
                            "pv: connection closed ({} jobs, {} errors, {} cache hits so far)",
                            stats.jobs,
                            stats.errors,
                            runner.cache_hits(),
                        ),
                        Err(e) => eprintln!("pv: connection failed: {e}"),
                    });
                }
                Ok(None) => std::thread::sleep(ACCEPT_POLL),
                Err(e) => return Err(e),
            }
        }
        Ok(())
        // The scope joins in-flight connection handlers here: shutdown waits
        // for every accepted connection to drain.
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_addresses_parse_and_render() {
        let unix: BindAddr = "unix:/tmp/pv.sock".parse().unwrap();
        assert_eq!(unix, BindAddr::Unix(PathBuf::from("/tmp/pv.sock")));
        assert_eq!(unix.to_string(), "unix:/tmp/pv.sock");
        let tcp: BindAddr = "tcp:127.0.0.1:7171".parse().unwrap();
        assert_eq!(tcp, BindAddr::Tcp("127.0.0.1:7171".to_owned()));
        for bad in ["", "unix:", "tcp:7171", "/tmp/pv.sock"] {
            assert!(bad.parse::<BindAddr>().is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn a_connection_answers_jobs_and_bad_lines_then_drains_on_eof() {
        let runner = JobRunner::new(None);
        let input = concat!(
            r#"{"id":1,"design":{"family":{"depth":2,"word_width":4,"num_regs":2,"delay_slots":0}},"plans":["r 0"]}"#,
            "\n",
            "this is not json\n",
            r#"{"id":2,"design":{"vsm":{"num_regs":9}}}"#,
            "\n",
        );
        let mut output = Vec::new();
        let stats =
            handle_connection(&runner, 2, input.as_bytes(), &mut output).expect("no write errors");
        assert_eq!(stats.jobs, 1);
        assert_eq!(stats.errors, 2, "one unparsable line, one invalid design");

        let lines: Vec<Json> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).expect("every response line is JSON"))
            .collect();
        assert_eq!(lines.len(), 3, "every input line is answered");
        for line in &lines {
            assert!(line.get("ok").and_then(Json::as_bool).is_some());
        }
        let ok_line = lines
            .iter()
            .find(|l| l.get("ok").and_then(Json::as_bool) == Some(true))
            .expect("the valid job succeeds");
        assert_eq!(ok_line.get("id").and_then(Json::as_u64), Some(1));
    }
}
