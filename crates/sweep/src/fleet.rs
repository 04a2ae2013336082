//! The fleet coordinator: `st serve --fleet`.
//!
//! A front daemon that federates many remote `st serve` workers behind
//! one `/submit` endpoint. Where [`crate::service`] answers a submission
//! from its own engine, the coordinator owns **no simulator at all** —
//! it expands the submitted spec through the same axis registry,
//! partitions the grid by the deterministic fingerprint-range
//! [`ShardPlan`], dispatches each range to a worker's
//! `GET /points?range=lo-hi` endpoint over the wire protocol in
//! [`crate::client`], and reassembles the returned shard `point` records
//! through [`crate::shard::merge`] — coverage, placement (fingerprint)
//! and tamper (content hash) checks included — before streaming the
//! canonical JSONL back. Piping `st submit` through a fleet is therefore
//! **byte-identical** to a local `st run`, the same contract every other
//! distribution layer in this crate honours.
//!
//! Robustness model:
//!
//! * **Failover.** Workers stream a range in `(fingerprint, seq)` order,
//!   so whatever arrives before a worker dies is a *prefix* of its
//!   range; the unfinished remainder `[first-missing-fp, hi]` is a
//!   well-formed range that gets requeued for a surviving worker.
//!   Workers serve cache-first, so a range that failed over near its
//!   end costs almost nothing to finish — completed points are never
//!   re-simulated. A worker that fails is marked dead and never
//!   dispatched to again; when the last worker dies, in-flight
//!   submissions fail fast (clients see a truncated stream, a hard
//!   error) instead of hanging.
//! * **Admission control.** At most `max_inflight` submissions stream
//!   concurrently; excess submissions get a structured `429` reply the
//!   client surfaces verbatim, so backpressure is visible instead of
//!   silent queueing collapse.
//! * **Priorities.** `POST /submit?priority=N` (higher = sooner) orders
//!   the dispatch queue; the spec body stays byte-for-byte what
//!   `st run` reads, so priority never perturbs the output.
//!
//! The coordinator speaks the same `GET /status` / `POST /shutdown`
//! surface as a plain server, with fleet-shaped counters (per-worker
//! liveness, queue depth, failovers, rejections).

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::client;
use crate::emit;
use crate::service::{read_request, respond_error, respond_json, serve_connections, stream_head};
use crate::shard::{self, ShardPlan};
use crate::spec::{SweepPoint, SweepSpec};

/// How a [`FleetServer`] coordinates: which workers it federates and how
/// much concurrency it admits.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker addresses (`host:port`), each a running `st serve`.
    pub workers: Vec<String>,
    /// Maximum concurrently streaming submissions; submission number
    /// `max_inflight + 1` gets a structured `429` reply.
    pub max_inflight: usize,
    /// Longest gap tolerated between two records of one range stream
    /// (and for the response head) before the worker is declared dead
    /// and its unfinished range failed over. Gaps are bounded by one
    /// point's simulation time on a loaded worker, not the whole range.
    pub worker_timeout: Duration,
}

impl Default for FleetConfig {
    /// Defaults chosen for interactive fleets: 8 concurrent
    /// submissions, 120 s of per-record patience.
    fn default() -> FleetConfig {
        FleetConfig {
            workers: Vec::new(),
            max_inflight: 8,
            worker_timeout: Duration::from_secs(120),
        }
    }
}

/// One federated worker, as the coordinator tracks it. Death is
/// permanent for the coordinator's lifetime: a worker that failed once
/// (connection refused, timeout, bad record) is never dispatched to
/// again — restarting workers means restarting the coordinator.
#[derive(Debug)]
struct Worker {
    addr: String,
    alive: AtomicBool,
    ranges_served: AtomicU64,
}

/// One submission mid-flight through the fleet: the verbatim spec text
/// (forwarded to workers byte-for-byte), the expanded grid, and the
/// record lines received so far.
#[derive(Debug)]
struct Submission {
    spec_text: String,
    points: Vec<SweepPoint>,
    fingerprints: Vec<u64>,
    state: Mutex<SubmissionState>,
    done: Condvar,
}

#[derive(Debug)]
struct SubmissionState {
    /// Per grid seq: the verified raw `point` record line (no trailing
    /// newline) once some worker has streamed it.
    received: Vec<Option<String>>,
    /// Dispatched-but-unfinished range count; `0` with no failure means
    /// the grid is fully covered.
    outstanding: usize,
    /// First fatal error; set once, ends the submission.
    failed: Option<String>,
}

impl Submission {
    fn finish_one(&self) {
        let mut state = self.state.lock().expect("submission state poisoned");
        state.outstanding -= 1;
        if state.outstanding == 0 {
            self.done.notify_all();
        }
    }

    fn fail(&self, message: String) {
        let mut state = self.state.lock().expect("submission state poisoned");
        if state.failed.is_none() {
            state.failed = Some(message);
        }
        self.done.notify_all();
    }
}

/// One queued unit of work: dispatch the `[lo, hi]` fingerprint range
/// of `submission` to some worker.
#[derive(Debug)]
struct Assignment {
    submission: Arc<Submission>,
    lo: u64,
    hi: u64,
    priority: u32,
    /// Admission order, for FIFO within a priority class.
    seq: u64,
}

/// Picks the next assignment to dispatch: highest `priority` first,
/// FIFO (`seq`) within a class. Separated out so the policy is unit
/// testable without sockets.
fn pop_best(queue: &mut Vec<Assignment>) -> Option<Assignment> {
    let best = queue
        .iter()
        .enumerate()
        .max_by_key(|(_, a)| (a.priority, std::cmp::Reverse(a.seq)))
        .map(|(i, _)| i)?;
    Some(queue.swap_remove(best))
}

/// The sharable coordinator core: workers, the priority dispatch queue,
/// admission accounting and counters. [`FleetServer`] adds the socket.
#[derive(Debug)]
pub struct Fleet {
    workers: Vec<Worker>,
    max_inflight: usize,
    worker_timeout: Duration,
    queue: Mutex<Vec<Assignment>>,
    queue_ready: Condvar,
    stop: AtomicBool,
    active: Mutex<usize>,
    next_assignment: AtomicU64,
    submissions: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    failovers: AtomicU64,
}

impl Fleet {
    /// A coordinator over `config`'s workers. Purely in-memory; nothing
    /// connects until the first dispatch.
    #[must_use]
    pub fn new(config: &FleetConfig) -> Fleet {
        Fleet {
            workers: config
                .workers
                .iter()
                .map(|addr| Worker {
                    addr: addr.clone(),
                    alive: AtomicBool::new(true),
                    ranges_served: AtomicU64::new(0),
                })
                .collect(),
            max_inflight: config.max_inflight,
            worker_timeout: config.worker_timeout,
            queue: Mutex::new(Vec::new()),
            queue_ready: Condvar::new(),
            stop: AtomicBool::new(false),
            active: Mutex::new(0),
            next_assignment: AtomicU64::new(0),
            submissions: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
        }
    }

    fn alive_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.alive.load(Ordering::SeqCst)).count()
    }

    /// Ends every dispatcher loop (called once the accept loop has
    /// drained, so no submission can still be waiting on them).
    fn stop_dispatchers(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.queue_ready.notify_all();
    }

    /// The dispatcher loop for worker `w`: pop the best-priority
    /// assignment, stream its range from the worker, repeat. Exits when
    /// the fleet stops or the worker dies.
    fn dispatch_loop(&self, w: usize) {
        while !self.stop.load(Ordering::SeqCst) && self.workers[w].alive.load(Ordering::SeqCst) {
            let assignment = {
                let mut queue = self.queue.lock().expect("dispatch queue poisoned");
                match pop_best(&mut queue) {
                    Some(a) => a,
                    None => {
                        // Condvar wait with a timeout: `stop` and worker
                        // death must be observable even with no traffic.
                        let _unused = self
                            .queue_ready
                            .wait_timeout(queue, Duration::from_millis(50))
                            .expect("dispatch queue poisoned");
                        continue;
                    }
                }
            };
            self.run_assignment(w, assignment);
        }
    }

    /// Streams one range from worker `w` into its submission, verifying
    /// every record at ingest ([`shard::parse_record`]: position,
    /// fingerprint, content hash). Any failure — connect, timeout,
    /// truncation, a record that fails verification — kills the worker
    /// and fails the unfinished remainder over to the survivors.
    fn run_assignment(&self, w: usize, assignment: Assignment) {
        let submission = Arc::clone(&assignment.submission);
        {
            let state = submission.state.lock().expect("submission state poisoned");
            if state.failed.is_some() {
                drop(state);
                submission.finish_one();
                return;
            }
        }
        let worker = &self.workers[w];
        let result = client::fetch_points(
            &worker.addr,
            &submission.spec_text,
            (assignment.lo, assignment.hi),
            Some(self.worker_timeout),
            &mut |line| {
                let record = shard::parse_record(line, &submission.points).map_err(|e| e.0)?;
                let mut state = submission.state.lock().expect("submission state poisoned");
                match &state.received[record.seq] {
                    None => state.received[record.seq] = Some(line.to_string()),
                    // Fingerprint-tied boundary points may arrive from
                    // two workers; determinism says the bytes must
                    // agree.
                    Some(existing) if existing != line => {
                        return Err(format!(
                            "point {} bit-differs across workers (non-deterministic worker?)",
                            record.seq
                        ));
                    }
                    Some(_) => {}
                }
                Ok(())
            },
        );
        match result {
            Ok(_) => {
                worker.ranges_served.fetch_add(1, Ordering::Relaxed);
                submission.finish_one();
            }
            Err(e) => {
                worker.alive.store(false, Ordering::SeqCst);
                eprintln!(
                    "st serve --fleet: worker {} failed on range {}: {e}",
                    worker.addr,
                    shard::format_fp_range(assignment.lo, assignment.hi),
                );
                self.fail_over(assignment);
            }
        }
    }

    /// Requeues the unfinished remainder of a dead worker's range. The
    /// worker streamed in `(fingerprint, seq)` order, so the received
    /// part is a prefix: the remainder starts at the first missing
    /// member's fingerprint. With no survivors left the submission (and
    /// everything else queued) fails instead of hanging.
    fn fail_over(&self, assignment: Assignment) {
        let submission = &assignment.submission;
        let members =
            ShardPlan::members_in_range(&submission.fingerprints, assignment.lo, assignment.hi);
        let first_missing = {
            let state = submission.state.lock().expect("submission state poisoned");
            members.iter().copied().find(|&seq| state.received[seq].is_none())
        };
        let Some(first_missing) = first_missing else {
            // Every member arrived before the connection died (the
            // failure hit after the last record): the range is done.
            submission.finish_one();
            return;
        };
        if self.alive_workers() == 0 {
            let message = "every fleet worker is dead".to_string();
            submission.fail(message.clone());
            // Nobody will ever pop the queue again; fail the rest too.
            let queued = {
                let mut queue = self.queue.lock().expect("dispatch queue poisoned");
                std::mem::take(&mut *queue)
            };
            for orphan in queued {
                orphan.submission.fail(message.clone());
            }
            return;
        }
        self.failovers.fetch_add(1, Ordering::Relaxed);
        let remainder = Assignment {
            lo: submission.fingerprints[first_missing],
            hi: assignment.hi,
            seq: self.next_assignment.fetch_add(1, Ordering::Relaxed),
            ..assignment
        };
        self.queue.lock().expect("dispatch queue poisoned").push(remainder);
        self.queue_ready.notify_all();
    }

    /// Runs one submission end-to-end: partition the grid over the
    /// currently-alive workers, enqueue every non-empty range at
    /// `priority`, block until the grid is covered (failovers included)
    /// or the submission fails, then merge and return the canonical
    /// JSONL.
    ///
    /// # Errors
    ///
    /// A fleet-wide failure (every worker dead) or a merge rejection —
    /// both mean the client must not receive a full-looking stream.
    fn run_submission(
        &self,
        spec: &SweepSpec,
        spec_text: &str,
        points: Vec<SweepPoint>,
        priority: u32,
    ) -> Result<String, String> {
        self.submissions.fetch_add(1, Ordering::Relaxed);
        let fingerprints: Vec<u64> = points.iter().map(|p| p.job.fingerprint()).collect();
        let alive = self.alive_workers().max(1);
        let plan = ShardPlan::new(&fingerprints, alive).map_err(|e| e.0)?;
        let ranges: Vec<(u64, u64)> = (0..plan.of()).filter_map(|s| plan.range(s)).collect();
        let submission = Arc::new(Submission {
            spec_text: spec_text.to_string(),
            fingerprints,
            state: Mutex::new(SubmissionState {
                received: vec![None; points.len()],
                outstanding: ranges.len(),
                failed: None,
            }),
            done: Condvar::new(),
            points,
        });
        {
            let mut queue = self.queue.lock().expect("dispatch queue poisoned");
            for &(lo, hi) in &ranges {
                queue.push(Assignment {
                    submission: Arc::clone(&submission),
                    lo,
                    hi,
                    priority,
                    seq: self.next_assignment.fetch_add(1, Ordering::Relaxed),
                });
            }
        }
        self.queue_ready.notify_all();

        let mut state = submission.state.lock().expect("submission state poisoned");
        while state.failed.is_none() && state.outstanding > 0 {
            state = submission.done.wait(state).expect("submission state poisoned");
        }
        if let Some(failure) = &state.failed {
            return Err(failure.clone());
        }

        // Reassemble as one synthetic 1-way shard document and push it
        // through the same merge the CLI uses: coverage, placement and
        // tamper verification, then the canonical emitters — the merge
        // output is byte-identical to a local `st run` by construction.
        let merge_plan = ShardPlan::for_points(&submission.points, 1).map_err(|e| e.0)?;
        let mut document = shard::shard_header(spec, &merge_plan, 0);
        for line in state.received.iter().flatten() {
            document.push_str(line);
            document.push('\n');
        }
        drop(state);
        let merged = shard::merge(&[document]).map_err(|e| e.0)?;
        self.completed.fetch_add(1, Ordering::Relaxed);
        Ok(merged.jsonl)
    }

    /// The coordinator's `GET /status` payload: fleet-shaped counters
    /// plus one entry per worker.
    #[must_use]
    pub fn status_json(&self) -> String {
        let workers: Vec<String> = self
            .workers
            .iter()
            .map(|w| {
                format!(
                    "{{\"addr\":\"{}\",\"alive\":{},\"ranges_served\":{}}}",
                    emit::json_escape(&w.addr),
                    w.alive.load(Ordering::SeqCst),
                    w.ranges_served.load(Ordering::Relaxed),
                )
            })
            .collect();
        format!(
            "{{\"kind\":\"fleet-status\",\"workers\":[{}],\"alive_workers\":{},\"queue_depth\":{},\"active_submissions\":{},\"max_inflight\":{},\"submissions\":{},\"completed\":{},\"rejected\":{},\"failovers\":{}}}",
            workers.join(","),
            self.alive_workers(),
            self.queue.lock().expect("dispatch queue poisoned").len(),
            *self.active.lock().expect("admission counter poisoned"),
            self.max_inflight,
            self.submissions.load(Ordering::Relaxed),
            self.completed.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
            self.failovers.load(Ordering::Relaxed),
        )
    }
}

/// Releases one admission slot when a submission's connection handler
/// finishes, however it finishes.
struct AdmissionSlot<'a> {
    fleet: &'a Fleet,
}

impl Drop for AdmissionSlot<'_> {
    fn drop(&mut self) {
        *self.fleet.active.lock().expect("admission counter poisoned") -= 1;
    }
}

/// The coordinator daemon: a bound listener, the shared [`Fleet`], and
/// one dispatcher thread per worker.
#[derive(Debug)]
pub struct FleetServer {
    listener: TcpListener,
    addr: SocketAddr,
    fleet: Arc<Fleet>,
    shutdown: Arc<AtomicBool>,
}

impl FleetServer {
    /// Binds `addr` (port `0` picks an ephemeral port) as a fleet
    /// coordinator over `config`'s workers.
    ///
    /// # Errors
    ///
    /// The bind error (address in use, permission, bad address).
    pub fn bind(addr: &str, config: &FleetConfig) -> std::io::Result<FleetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        Ok(FleetServer {
            listener,
            addr,
            fleet: Arc::new(Fleet::new(config)),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actually bound address (resolves port `0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared coordinator core, for in-process inspection in tests.
    #[must_use]
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Accepts and coordinates until `POST /shutdown` or SIGINT, then
    /// drains active submissions before returning. Workers are separate
    /// processes and are *not* shut down — only the coordinator exits.
    ///
    /// # Errors
    ///
    /// Reserved for fatal listener failures, exactly like
    /// [`crate::service::Server::run`].
    pub fn run(&self) -> std::io::Result<()> {
        std::thread::scope(|scope| {
            for w in 0..self.fleet.workers.len() {
                let fleet = Arc::clone(&self.fleet);
                scope.spawn(move || fleet.dispatch_loop(w));
            }
            let result = serve_connections(&self.listener, &self.shutdown, &|stream| {
                self.handle_connection(stream);
            });
            // The accept loop has drained: every submission finished, so
            // the dispatchers are idle and can stop.
            self.fleet.stop_dispatchers();
            result
        })
    }

    fn handle_connection(&self, mut stream: TcpStream) {
        let request = match read_request(&stream) {
            Ok(r) => r,
            Err((status, message)) => {
                let _ = respond_error(&mut stream, status, &message);
                return;
            }
        };
        let outcome = match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/submit") => self.handle_submit(&mut stream, &request.query, &request.body),
            ("GET", "/status") => respond_json(&mut stream, 200, &self.fleet.status_json()),
            ("POST", "/shutdown") => {
                self.shutdown.store(true, Ordering::SeqCst);
                respond_json(&mut stream, 200, "{\"kind\":\"ok\",\"shutting_down\":true}")
            }
            (method, path @ ("/submit" | "/status" | "/shutdown")) => {
                respond_error(&mut stream, 405, &format!("method {method} not allowed for {path}"))
            }
            (_, path) => respond_error(
                &mut stream,
                404,
                &format!(
                    "no fleet endpoint {path} (try POST /submit, GET /status, POST /shutdown)"
                ),
            ),
        };
        let _ = outcome;
    }

    /// `POST /submit[?priority=N]` on the coordinator: admit (or 429),
    /// expand, announce the head, fan the ranges out, merge, stream.
    fn handle_submit(
        &self,
        stream: &mut TcpStream,
        query: &str,
        body: &str,
    ) -> std::io::Result<()> {
        let fleet = &*self.fleet;
        let priority = match query.split('&').find_map(|kv| kv.strip_prefix("priority=")) {
            None => 0u32,
            Some(raw) => match raw.parse() {
                Ok(p) => p,
                Err(_) => {
                    return respond_error(
                        stream,
                        400,
                        &format!("unparseable priority `{raw}` (expected an unsigned integer)"),
                    );
                }
            },
        };
        // Admission first: a saturated coordinator must shed load
        // before doing any per-submission work at all.
        let _slot = {
            let mut active = fleet.active.lock().expect("admission counter poisoned");
            if *active >= fleet.max_inflight {
                let in_flight = *active;
                drop(active);
                fleet.rejected.fetch_add(1, Ordering::Relaxed);
                return respond_error(
                    stream,
                    429,
                    &format!(
                        "fleet at capacity: {in_flight} submissions in flight (limit {}); \
                         retry later",
                        fleet.max_inflight
                    ),
                );
            }
            *active += 1;
            AdmissionSlot { fleet }
        };
        if fleet.alive_workers() == 0 {
            return respond_error(stream, 503, "every fleet worker is dead; restart the fleet");
        }
        let spec = match SweepSpec::parse(body) {
            Ok(spec) => spec,
            Err(e) => return respond_error(stream, 400, &e.to_string()),
        };
        let points = match spec.points() {
            Ok(points) => points,
            Err(e) => return respond_error(stream, 400, &e.to_string()),
        };
        // Same head contract as a plain server: the exact record count
        // travels in X-Sweep-Records before any worker is contacted, so
        // the client's truncation check guards fleet failures too.
        let comparisons = emit::baseline_pairing(&points).iter().flatten().count();
        let head = stream_head(&spec.name, points.len(), points.len() + comparisons);
        stream.write_all(head.as_bytes())?;
        match fleet.run_submission(&spec, body, points, priority) {
            Ok(jsonl) => stream.write_all(jsonl.as_bytes()),
            Err(e) => {
                // The head is already on the wire; closing short makes
                // the client's record-count check fire as a hard error.
                eprintln!("st serve --fleet: submission failed: {e}");
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SweepEngine;
    use crate::service::{wait_readable, Server, ServiceConfig, ACCEPT_POLL};

    /// 2 window sizes x 1 workload x (baseline + C2) = 4 points,
    /// 6 records (4 reports + 2 comparisons).
    const TINY_SPEC: &str = "name = \"fleet-test\"\nworkloads = [\"go\"]\n\
                             [axis]\nruu_size = [16, 32]\ninstructions = 400\n";

    fn canonical_jsonl(spec_text: &str) -> String {
        let spec = SweepSpec::parse(spec_text).expect("spec");
        let points = spec.points().expect("points");
        let jobs: Vec<_> = points.iter().map(|p| p.job.clone()).collect();
        let reports = SweepEngine::new(1).run(&jobs);
        emit::sweep_jsonl(&points, &reports)
    }

    fn start_worker() -> (String, Arc<Server>, std::thread::JoinHandle<std::io::Result<()>>) {
        let config = ServiceConfig { no_cache: true, threads: 2, ..ServiceConfig::default() };
        let server = Arc::new(Server::bind("127.0.0.1:0", &config).expect("bind worker"));
        let addr = server.local_addr().to_string();
        let handle = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.run())
        };
        (addr, server, handle)
    }

    fn start_fleet(
        config: &FleetConfig,
    ) -> (Arc<FleetServer>, String, std::thread::JoinHandle<std::io::Result<()>>) {
        let server = Arc::new(FleetServer::bind("127.0.0.1:0", config).expect("bind fleet"));
        let addr = server.local_addr().to_string();
        let handle = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.run())
        };
        (server, addr, handle)
    }

    #[test]
    fn fleet_submission_is_byte_identical_to_a_local_run() {
        let (w1, s1, h1) = start_worker();
        let (w2, s2, h2) = start_worker();
        let config = FleetConfig { workers: vec![w1.clone(), w2.clone()], ..Default::default() };
        let (fleet, addr, handle) = start_fleet(&config);

        let mut out = Vec::new();
        client::submit(&addr, TINY_SPEC, &mut out).expect("fleet submit");
        assert_eq!(
            String::from_utf8(out).expect("utf8"),
            canonical_jsonl(TINY_SPEC),
            "fleet bytes == local st run bytes"
        );
        // Both workers actually contributed (2 shards over 2 workers).
        let simulated: u64 =
            [&s1, &s2].iter().map(|s| s.service().engine().stats().simulated).sum();
        assert_eq!(simulated, 4, "the grid was split across the fleet, no duplication");
        let status = client::status(&addr).expect("status");
        assert!(status.contains("\"kind\":\"fleet-status\""), "{status}");
        assert!(status.contains("\"alive_workers\":2"), "{status}");
        assert!(status.contains("\"completed\":1"), "{status}");
        assert!(status.contains("\"failovers\":0"), "{status}");

        client::shutdown(&addr).expect("stop fleet");
        handle.join().expect("fleet thread").expect("clean fleet shutdown");
        assert_eq!(fleet.fleet().alive_workers(), 2);
        for (w, h) in [(w1, h1), (w2, h2)] {
            client::shutdown(&w).expect("stop worker");
            h.join().expect("worker thread").expect("clean worker shutdown");
        }
    }

    /// A worker that answers `/points` with the *correct* head (true
    /// record count) but streams only the first record before dropping
    /// the connection — a deterministic stand-in for a worker dying
    /// mid-range. Records are genuine, so whatever it serves before
    /// "dying" must survive into the merged output bit-identically.
    fn start_dying_worker() -> (String, Arc<AtomicBool>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind dying worker");
        let addr = listener.local_addr().expect("addr").to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        listener.set_nonblocking(true).expect("nonblocking");
        std::thread::spawn(move || {
            let engine = SweepEngine::new(1);
            while !thread_stop.load(Ordering::SeqCst) {
                let Ok((mut stream, _)) = listener.accept() else {
                    wait_readable(&listener, ACCEPT_POLL);
                    continue;
                };
                stream.set_nonblocking(false).expect("blocking stream");
                let request = read_request(&stream).expect("request");
                assert_eq!(request.path, "/points", "coordinator only dispatches ranges");
                let range = request
                    .query
                    .split('&')
                    .find_map(|kv| kv.strip_prefix("range="))
                    .expect("range param");
                let (lo, hi) = shard::parse_fp_range(range).expect("range");
                let spec = SweepSpec::parse(&request.body).expect("spec");
                let points = spec.points().expect("points");
                let fps: Vec<u64> = points.iter().map(|p| p.job.fingerprint()).collect();
                let members = ShardPlan::members_in_range(&fps, lo, hi);
                write!(
                    stream,
                    "HTTP/1.1 200 OK\r\nX-Sweep-Records: {}\r\nConnection: close\r\n\r\n",
                    members.len(),
                )
                .expect("head");
                if let Some(&seq) = members.first() {
                    let report = engine.run_one(&points[seq].job);
                    let record = shard::point_record(seq, &points[seq], &report);
                    stream.write_all(record.as_bytes()).expect("first record");
                }
                // Drop the stream with members.len() - 1 records unsent:
                // the coordinator sees a truncated range.
            }
        });
        (addr, stop)
    }

    #[test]
    fn worker_death_mid_range_fails_over_byte_identically() {
        let (dying, dying_stop) = start_dying_worker();
        let (survivor, _s, sh) = start_worker();
        let config = FleetConfig {
            workers: vec![dying.clone(), survivor.clone()],
            worker_timeout: Duration::from_secs(10),
            ..Default::default()
        };
        let (fleet, addr, handle) = start_fleet(&config);

        let mut out = Vec::new();
        client::submit(&addr, TINY_SPEC, &mut out).expect("fleet submit survives the death");
        assert_eq!(
            String::from_utf8(out).expect("utf8"),
            canonical_jsonl(TINY_SPEC),
            "failover kept the output byte-identical"
        );
        assert!(
            fleet.fleet().failovers.load(Ordering::Relaxed) >= 1,
            "the dying worker's range actually failed over"
        );
        assert_eq!(fleet.fleet().alive_workers(), 1, "the dying worker was declared dead");
        let status = client::status(&addr).expect("status");
        assert!(status.contains("\"alive\":false"), "{status}");
        assert!(status.contains("\"completed\":1"), "{status}");

        client::shutdown(&addr).expect("stop fleet");
        handle.join().expect("fleet thread").expect("clean fleet shutdown");
        dying_stop.store(true, Ordering::SeqCst);
        client::shutdown(&survivor).expect("stop worker");
        sh.join().expect("worker thread").expect("clean worker shutdown");
    }

    #[test]
    fn admission_control_rejects_over_limit_submissions_with_429() {
        let (worker, _s, wh) = start_worker();
        let config =
            FleetConfig { workers: vec![worker.clone()], max_inflight: 0, ..Default::default() };
        let (_fleet, addr, handle) = start_fleet(&config);

        let e = client::submit(&addr, TINY_SPEC, &mut Vec::new()).expect_err("backpressure");
        assert!(e.0.contains("replied 429"), "{e}");
        assert!(e.0.contains("fleet at capacity"), "{e}");
        let status = client::status(&addr).expect("status");
        assert!(status.contains("\"rejected\":1"), "{status}");

        client::shutdown(&addr).expect("stop fleet");
        handle.join().expect("fleet thread").expect("clean fleet shutdown");
        client::shutdown(&worker).expect("stop worker");
        wh.join().expect("worker thread").expect("clean worker shutdown");
    }

    #[test]
    fn dispatch_queue_orders_by_priority_then_fifo() {
        let submission = Arc::new(Submission {
            spec_text: String::new(),
            points: Vec::new(),
            fingerprints: Vec::new(),
            state: Mutex::new(SubmissionState {
                received: Vec::new(),
                outstanding: 0,
                failed: None,
            }),
            done: Condvar::new(),
        });
        let assignment = |priority: u32, seq: u64| Assignment {
            submission: Arc::clone(&submission),
            lo: 0,
            hi: u64::MAX,
            priority,
            seq,
        };
        let mut queue =
            vec![assignment(0, 0), assignment(5, 1), assignment(5, 2), assignment(1, 3)];
        let order: Vec<(u32, u64)> =
            std::iter::from_fn(|| pop_best(&mut queue)).map(|a| (a.priority, a.seq)).collect();
        assert_eq!(
            order,
            vec![(5, 1), (5, 2), (1, 3), (0, 0)],
            "highest priority first, FIFO within a class"
        );
    }
}
