//! The serving workload `degrade_cold`: a real `relia serve --threads 2`
//! process, with the default surface artifact mounted, driven over loopback
//! TCP by this process with 2 threads on 2 keep-alive connections.
//!
//! A run measures on several fresh servers in short segments, each an
//! open-loop phase (requests due on a fixed schedule at the offered rate,
//! latency timed from when each was due) then a closed-loop phase (each
//! connection keeps [`WINDOW`] requests in flight; capacity counts correct
//! answers within the latency limit). Server phase costs are the deltas of
//! the program's own `/metrics` histograms over the traced segments.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use relia_core::{CancelToken, Deadline, DelayDegradation, Kelvin, NbtiModel, NbtiParams};
use relia_flow::{DeltaVthCache, NoCache};
use relia_serve::{degrade_body, DegradeQuery};
use relia_surface::{rel_error, SurfaceQuery, DOCUMENTED_ERROR_BOUND};

use crate::util::{median, percentile, vm_hwm_mb, Report, Rng, Spans};
use crate::Args;

/// A request slower than this misses the latency limit.
const LIMIT_NS: u64 = 1_000_000;

/// Open/closed segment pairs per second of run budget.
const SEGMENTS_PER_S: f64 = 4.0;

/// Fresh server processes a run measures on.
const SERVERS: usize = 8;

/// Requests each connection keeps in flight in the closed loop (HTTP/1.1
/// pipelining). With one in flight, capacity measured mostly how fast the
/// two vCPUs woke each other and varied ±20% between runs; eight keep
/// the server busy, so capacity measures the server.
const WINDOW: usize = 8;

/// Client threads, one keep-alive connection each.
const CONNS: usize = 2;

/// Every key whose index is ≡ 0 mod this is checked against the oracle
/// after the timed phases (≈1 in 97).
const SAMPLE_EVERY: usize = 97;

/// The open-loop rate: about a sixth of capacity, where latency is flat.
const OFFERED_RPS: f64 = 5_000.0;

/// Set-ups timed for `setup_s` (each builds the surface artifact).
const SETUPS: usize = 3;

/// Requests each set-up server answers before its memory is read.
const RSS_BATCH: usize = 5_000;

/// How a key should be answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// On the surface's stress pair and inside its grid: interpolated.
    SurfaceHit,
    /// Off the surface (another active-mode stress probability): exact
    /// evaluation.
    Exact,
    /// On the surface's pair but outside its T_standby axis: exact.
    Clamp,
}

/// The requests of a run: key `n` is drawn from its own stream of the
/// workload seed, so any number of distinct keys can be sent without a
/// pool.
struct Keys {
    seed: u64,
}

impl Keys {
    /// Key `n`: ≈50% surface hits (pair (0.5, 1.0), inside the
    /// grid), ≈45% exact fallbacks (another p_active in (0.1, 0.9)), ≈5%
    /// clamps (pair (0.5, 1.0), T_standby outside 310–410 K).
    fn query(&self, n: usize) -> (Class, DegradeQuery) {
        let mut rng = Rng::new(self.seed, 1_000 + n as u64);
        let u = rng.unit();
        let class = if u < 0.50 {
            Class::SurfaceHit
        } else if u < 0.95 {
            Class::Exact
        } else {
            Class::Clamp
        };
        let f = rng.range(0.06, 0.94);
        let t_standby = match class {
            Class::Clamp if rng.unit() < 0.5 => rng.range(290.0, 309.0),
            Class::Clamp => rng.range(411.0, 430.0),
            _ => rng.range(311.0, 409.0),
        };
        let p_active = match class {
            Class::Exact => {
                let p = rng.range(0.1, 0.88);
                if p >= 0.49 {
                    p + 0.02
                } else {
                    p
                }
            }
            _ => 0.5,
        };
        let lifetime_s = 10f64.powf(rng.range(6.3, 9.7));
        let query = DegradeQuery {
            ras: (f, 1.0 - f),
            t_standby_k: Kelvin(t_standby),
            lifetime_s,
            p_active,
            p_standby: 1.0,
        };
        (class, query)
    }

    /// The `n`-th request of the run: `(key id, class, bytes)`.
    fn request<'a>(&self, n: usize, buf: &'a mut Vec<u8>) -> (usize, Class, &'a [u8]) {
        let (class, query) = self.query(n);
        *buf = request_bytes(&query);
        (n, class, buf)
    }
}

fn request_bytes(query: &DegradeQuery) -> Vec<u8> {
    let body = query.to_body();
    format!(
        "POST /v1/degrade HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The exact answer with no server and no cache in the loop.
fn exact_body(
    query: &DegradeQuery,
    model: &NbtiModel,
    params: &NbtiParams,
) -> Result<(f64, String), String> {
    let dvth = NoCache
        .delta_vth(query.stress_key()?, model)
        .map_err(|e| e.to_string())?;
    let frac = DelayDegradation::new(params)
        .linear(dvth)
        .map_err(|e| e.to_string())?;
    Ok((dvth, degrade_body(dvth, frac)))
}

/// One keep-alive client connection with a reusable receive buffer.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    len: usize,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: vec![0; 64 * 1024],
            len: 0,
        })
    }

    fn send(&mut self, request: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(request)
            .map_err(|e| format!("write: {e}"))
    }

    /// Reads one response; returns its status and the body's range in
    /// `self.buf` (valid until the next call).
    fn recv(&mut self) -> Result<(u16, std::ops::Range<usize>), String> {
        loop {
            if let Some(head_end) = find(&self.buf[..self.len], b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.buf[..head_end])
                    .map_err(|_| "non-UTF-8 response head")?;
                let status: u16 = head
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("bad status line in {head:?}"))?;
                let length: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("content-length: "))
                    .and_then(|v| v.trim().parse().ok())
                    .ok_or_else(|| format!("no content-length in {head:?}"))?;
                let body_start = head_end + 4;
                let total = body_start + length;
                if total > self.buf.len() {
                    return Err(format!("response of {total} bytes exceeds the buffer"));
                }
                if self.len >= total {
                    return Ok((status, body_start..total));
                }
            }
            if self.len == self.buf.len() {
                return Err("response head exceeds the buffer".to_owned());
            }
            let n = self
                .stream
                .read(&mut self.buf[self.len..])
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".to_owned());
            }
            self.len += n;
        }
    }

    /// Drops the response just returned by [`Conn::recv`] from the buffer.
    fn consume(&mut self, end: usize) {
        self.buf.copy_within(end..self.len, 0);
        self.len -= end;
    }

    fn call(&mut self, request: &[u8]) -> Result<(u16, Vec<u8>), String> {
        self.send(request)?;
        let (status, body) = self.recv()?;
        let out = self.buf[body.clone()].to_vec();
        self.consume(body.end);
        Ok((status, out))
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\ncontent-length: 0\r\n\r\n").into_bytes()
}

/// A spawned `relia serve` process; killed on drop if still running.
struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    fn spawn(relia: &Path, surface: &Path, log: &Path) -> Result<Server, String> {
        let mut cmd = Command::new(relia);
        cmd.args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--surface",
        ])
        .arg(surface);
        let log = std::fs::File::create(log).map_err(|e| format!("server log: {e}"))?;
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", relia.display()))?;
        let stdout = child.stdout.take().ok_or("no server stdout")?;
        let mut server = Server {
            child,
            _stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        server
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading server banner: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("relia-serve listening on ")
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?
            .to_owned();
        Ok(server)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn metrics(&self) -> Result<HashMap<String, f64>, String> {
        let (status, body) = Conn::open(&self.addr)?.call(&get("/metrics"))?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        Ok(String::from_utf8_lossy(&body)
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_owned(), value.parse().ok()?))
            })
            .collect())
    }

    /// Graceful drain, then waits for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let (status, _) = Conn::open(&self.addr)?
            .call(b"POST /admin/shutdown HTTP/1.1\r\ncontent-length: 0\r\n\r\n")?;
        if status != 200 {
            return Err(format!("/admin/shutdown answered {status}"));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(code) if code.success() => return Ok(()),
                Some(code) => return Err(format!("server exited with {code}")),
                None if Instant::now() > deadline => {
                    return Err("server did not drain within 20 s".to_owned())
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What one phase observed on one connection.
#[derive(Default)]
struct ConnLog {
    /// Open loop: completion − due. Closed loop: completion − send.
    latency_ns: Vec<u64>,
    /// Open loop: send − due.
    late_ns: Vec<u64>,
    ok_in_limit: u64,
    sent: u64,
    failed: u64,
    /// Sampled cold answers, checked against the oracle after the phase.
    kept: Vec<(usize, Vec<u8>)>,
    wrong: Vec<String>,
    spans: Option<Spans>,
    /// Degrade answers with status 200, by [`Class`].
    ok_by_class: [u64; 3],
}

struct Phase {
    elapsed_s: f64,
    logs: Vec<ConnLog>,
}

impl Phase {
    fn sum(&self, f: impl Fn(&ConnLog) -> u64) -> u64 {
        self.logs.iter().map(f).sum()
    }

    fn sorted(&self, f: impl Fn(&ConnLog) -> &Vec<u64>) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .logs
            .iter()
            .flat_map(|l| f(l).iter().map(|&ns| ns as f64))
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Checks one answer on the client thread: sampled answers are kept for
/// the oracle, the rest checked for shape.
fn check(key: usize, class: Class, status: u16, body: &[u8], log: &mut ConnLog) -> bool {
    if status != 200 {
        log.wrong.push(format!(
            "key {key}: status {status}: {}",
            String::from_utf8_lossy(body)
        ));
        return false;
    }
    log.ok_by_class[class as usize] += 1;
    if key.is_multiple_of(SAMPLE_EVERY) {
        log.kept.push((key, body.to_vec()));
    } else if !body.starts_with(b"{\"delta_vth_v\":") {
        log.wrong.push(format!(
            "key {key}: malformed body {}",
            String::from_utf8_lossy(body)
        ));
        return false;
    }
    true
}

/// Checks the kept answers: exact fallbacks and clamps byte for byte
/// against the direct library call, surface hits within the documented
/// error bound of exact evaluation.
fn check_kept(keys: &Keys, phase: &Phase, report: &mut Report) -> Result<u64, String> {
    let model = NbtiModel::ptm90().map_err(|e| e.to_string())?;
    let params = NbtiParams::ptm90().map_err(|e| e.to_string())?;
    let mut checked = 0;
    for log in &phase.logs {
        for (key, body) in &log.kept {
            checked += 1;
            let (class, query) = keys.query(*key);
            let (exact, want) = exact_body(&query, &model, &params)?;
            let text = String::from_utf8_lossy(body);
            if class != Class::SurfaceHit {
                if body.as_slice() != want.as_bytes() {
                    report.wrong(format!(
                        "cold key {key} ({class:?}): {text} != exact {want}"
                    ));
                }
                continue;
            }
            let got = text
                .split_once("\"delta_vth_v\":")
                .and_then(|(_, r)| r.split([',', '}']).next())
                .and_then(|v| v.parse::<f64>().ok());
            match got {
                Some(v) if rel_error(v, exact) <= DOCUMENTED_ERROR_BOUND => {}
                _ => report.wrong(format!(
                    "cold key {key}: surface answer {text} not within \
                     {DOCUMENTED_ERROR_BOUND:e} of exact {exact:e}"
                )),
            }
        }
    }
    Ok(checked)
}

/// Runs one phase on [`CONNS`] connections. `rate` is `Some(offered
/// requests/s)` for the open loop and `None` for the closed loop.
/// Requests are numbered from `next`, shared by both connections.
fn phase(
    addr: &str,
    keys: &Keys,
    next: &AtomicUsize,
    rate: Option<f64>,
    seconds: f64,
    traced: Option<Instant>,
) -> Result<Phase, String> {
    let mut conns = Vec::new();
    for _ in 0..CONNS {
        conns.push(Conn::open(addr)?);
    }
    // Room for every sample up front: growing a vector mid-phase would
    // stall the generator.
    let expect = (rate.unwrap_or(150_000.0) * seconds / CONNS as f64) as usize + 64;
    let started = Instant::now();
    let end = started + Duration::from_secs_f64(seconds);
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(t, mut conn)| {
                scope.spawn(move || -> Result<ConnLog, String> {
                    let mut log = ConnLog {
                        latency_ns: Vec::with_capacity(expect),
                        late_ns: Vec::with_capacity(if rate.is_some() { expect } else { 0 }),
                        spans: traced.map(Spans::new),
                        ..ConnLog::default()
                    };
                    let run = Run {
                        keys,
                        next,
                        started,
                        end,
                        traced,
                    };
                    match rate {
                        Some(r) => run.open_loop(&mut conn, &mut log, t, r)?,
                        None => run.closed_loop(&mut conn, &mut log)?,
                    }
                    Ok(log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_owned())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(Phase {
        elapsed_s: started.elapsed().as_secs_f64(),
        logs,
    })
}

/// What one connection's loop shares with the phase.
struct Run<'a> {
    keys: &'a Keys,
    next: &'a AtomicUsize,
    started: Instant,
    end: Instant,
    traced: Option<Instant>,
}

impl Run<'_> {
    /// Records one answered request.
    #[allow(clippy::too_many_arguments)]
    fn settle(
        &self,
        conn: &mut Conn,
        log: &mut ConnLog,
        n: usize,
        (key, class): (usize, Class),
        timed_from: Instant,
        sent: Instant,
        written: Instant,
    ) -> Result<(), String> {
        let (status, body) = conn.recv()?;
        let done = Instant::now();
        let good = check(key, class, status, &conn.buf[body.clone()], log);
        conn.consume(body.end);
        let latency = (done - timed_from).as_nanos() as u64;
        log.latency_ns.push(latency);
        if good && latency <= LIMIT_NS {
            log.ok_in_limit += 1;
        }
        if !good {
            log.failed += 1;
        }
        if let (Some(spans), Some(origin)) = (log.spans.as_mut(), self.traced) {
            let ns = |at: Instant| (at - origin).as_nanos() as u64;
            let id = n as u64 + 1;
            let root = spans.open();
            spans.record("client.send", id, root, ns(sent), ns(written));
            spans.record("client.wait", id, root, ns(written), ns(done));
            spans.close(root, "client.request", id, 0, ns(sent), ns(done));
        }
        Ok(())
    }

    /// Sends request number `n`; returns its key, class, and the instants
    /// before and after the write.
    fn send(
        &self,
        conn: &mut Conn,
        buf: &mut Vec<u8>,
        n: usize,
    ) -> Result<((usize, Class), Instant, Instant), String> {
        let (key, class, request) = self.keys.request(n, buf);
        let sent = Instant::now();
        conn.send(request)?;
        Ok(((key, class), sent, Instant::now()))
    }

    /// Requests due every `CONNS / rate` seconds (the two connections'
    /// schedules interleaved), one in flight; latency counts from when
    /// each was due.
    fn open_loop(
        &self,
        conn: &mut Conn,
        log: &mut ConnLog,
        t: usize,
        rate: f64,
    ) -> Result<(), String> {
        let interval = Duration::from_secs_f64(CONNS as f64 / rate);
        let mut buf = Vec::new();
        for i in 0u32.. {
            let due = self.started + interval * t as u32 / CONNS as u32 + interval * i;
            if due >= self.end {
                break;
            }
            let n = self.next.fetch_add(1, Ordering::Relaxed);
            // Render before sleeping, so the send itself is on time.
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let (key, sent, written) = self.send(conn, &mut buf, n)?;
            log.sent += 1;
            log.late_ns.push((sent - due).as_nanos() as u64);
            self.settle(conn, log, n, key, due, sent, written)?;
        }
        Ok(())
    }

    /// [`WINDOW`] requests in flight: a new one is sent as each answer
    /// arrives, until the phase ends; latency counts from the send.
    fn closed_loop(&self, conn: &mut Conn, log: &mut ConnLog) -> Result<(), String> {
        let mut buf = Vec::new();
        let mut in_flight = std::collections::VecDeque::with_capacity(WINDOW);
        for _ in 0..WINDOW {
            let n = self.next.fetch_add(1, Ordering::Relaxed);
            let (key, sent, written) = self.send(conn, &mut buf, n)?;
            log.sent += 1;
            in_flight.push_back((n, key, sent, written));
        }
        while let Some((n, key, sent, written)) = in_flight.pop_front() {
            self.settle(conn, log, n, key, sent, sent, written)?;
            if Instant::now() < self.end {
                let n = self.next.fetch_add(1, Ordering::Relaxed);
                let (key, sent, written) = self.send(conn, &mut buf, n)?;
                log.sent += 1;
                in_flight.push_back((n, key, sent, written));
            }
        }
        Ok(())
    }
}

/// Open-loop figures: latency from due time, generator lateness, achieved
/// vs offered rate, and whether the backlog grew (the last tenth of a
/// connection's requests ran, at the median, more than the latency limit
/// behind schedule).
struct OpenLoop {
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    samples: f64,
    late_p50_us: f64,
    late_max_ms: f64,
    achieved_rps: f64,
    backlog_grew: bool,
}

fn open_loop_summary(p: &Phase) -> OpenLoop {
    // A failed request counts as missing every latency limit.
    let mut lat = p.sorted(|l| &l.latency_ns);
    lat.extend(std::iter::repeat_n(
        f64::INFINITY,
        p.sum(|l| l.failed) as usize,
    ));
    lat.sort_by(f64::total_cmp);
    let late = p.sorted(|l| &l.late_ns);
    let backlog_grew = p.logs.iter().any(|l| {
        let mut tail = l.late_ns[l.late_ns.len() - l.late_ns.len() / 10..].to_vec();
        tail.sort_unstable();
        !tail.is_empty() && tail[tail.len() / 2] > LIMIT_NS
    });
    let s = OpenLoop {
        p50_us: percentile(&lat, 0.5) / 1e3,
        p90_us: percentile(&lat, 0.9) / 1e3,
        p99_us: percentile(&lat, 0.99) / 1e3,
        samples: lat.len() as f64,
        late_p50_us: percentile(&late, 0.5) / 1e3,
        late_max_ms: late.last().copied().unwrap_or(0.0) / 1e6,
        achieved_rps: p.sum(|l| l.sent) as f64 / p.elapsed_s,
        backlog_grew,
    };
    eprintln!(
        "perfbench: degrade_cold open loop: offered {OFFERED_RPS:.0} req/s, achieved {:.0} req/s \
         over {} requests, generator late p50 {:.1} us / max {:.3} ms, backlog {}",
        s.achieved_rps,
        s.samples,
        s.late_p50_us,
        s.late_max_ms,
        if s.backlog_grew { "GREW" } else { "steady" }
    );
    s
}

/// The server-side ledger over the traced segments, as per-request means of
/// the program's own phase histograms. `evaluate` nests in `coalesce`;
/// what no named phase covers is `unattributed`, so the named phases plus
/// it sum to `request`.
fn server_layers(deltas: &HashMap<String, f64>, report: &mut Report) {
    let d = |name: &str| deltas.get(name).copied().unwrap_or(0.0);
    let requests = d("relia_serve_request_seconds_count").max(1.0);
    let per_req_us = |phase: &str| d(&format!("relia_serve_{phase}_seconds_sum")) * 1e6 / requests;
    let request = per_req_us("request");
    let read = per_req_us("read");
    let coalesce = per_req_us("coalesce");
    let eval = per_req_us("eval");
    let surface = per_req_us("surface");
    let serialize = per_req_us("serialize");
    let write = per_req_us("write");
    report.set("serve.request_us", request);
    report.set("serve.read_us", read);
    report.set("serve.coalesce_self_us", coalesce - eval);
    report.set("serve.eval_us", eval);
    report.set("serve.surface_us", surface);
    report.set("serve.serialize_us", serialize);
    report.set("serve.write_us", write);
    report.set(
        "serve.unattributed_us",
        request - read - coalesce - surface - serialize - write,
    );
    report.set("serve.queue_us", per_req_us("queue"));
    report.set("serve.requests", d("relia_serve_requests"));
    report.set(
        "serve.errors",
        d("relia_serve_responses_client_error") + d("relia_serve_responses_server_error"),
    );
    report.set(
        "serve.shed",
        d("relia_serve_shed") + d("relia_serve_brownout_sheds"),
    );
    let leads = d("relia_serve_coalesce_leads");
    report.set("serve.coalesce_leads", leads);
    report.set("serve.coalesce_joins", d("relia_serve_coalesce_joins"));
    report.set("serve.lead_ratio", leads / requests);
    let hits = d("relia_cache_hits");
    let misses = d("relia_cache_misses");
    report.set("jobs.cache_hits", hits);
    report.set("jobs.cache_misses", misses);
    report.set("jobs.cache_evictions", d("relia_cache_evictions"));
    report.set(
        "jobs.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    let s_hits = d("relia_surface_hits");
    let s_fallbacks = d("relia_surface_fallbacks");
    report.set("surface.hits", s_hits);
    report.set("surface.misses", d("relia_surface_misses"));
    report.set("surface.fallbacks", s_fallbacks);
    report.set("surface.clamps", d("relia_surface_clamps"));
    report.set(
        "surface.hit_ratio",
        if s_hits + s_fallbacks > 0.0 {
            s_hits / (s_hits + s_fallbacks)
        } else {
            0.0
        },
    );
}

/// The surface ledger over the server's whole life: every degrade answer
/// is a hit or an exact fallback, clamps ≤ misses ≤ fallbacks, and hits
/// and clamps match the keys sent of those classes.
fn check_ledger(m: &HashMap<String, f64>, ok_by_class: [u64; 3], report: &mut Report) {
    let v = |name: &str| m.get(name).copied().unwrap_or(-1.0);
    let (hits, misses, fallbacks, clamps) = (
        v("relia_surface_hits"),
        v("relia_surface_misses"),
        v("relia_surface_fallbacks"),
        v("relia_surface_clamps"),
    );
    let ok: u64 = ok_by_class.iter().sum();
    if hits + fallbacks != ok as f64 {
        report.wrong(format!(
            "surface ledger: {hits} hits + {fallbacks} fallbacks != {ok} degrade answers"
        ));
    }
    if !(clamps <= misses && misses <= fallbacks) {
        report.wrong(format!(
            "surface ledger: clamps {clamps} <= misses {misses} <= fallbacks {fallbacks} violated"
        ));
    }
    let (want_hits, want_clamps) = (
        ok_by_class[Class::SurfaceHit as usize],
        ok_by_class[Class::Clamp as usize],
    );
    if hits != want_hits as f64 || clamps != want_clamps as f64 {
        report.wrong(format!(
            "surface ledger: {hits} hits / {clamps} clamps, but {want_hits} in-grid and \
             {want_clamps} out-of-grid keys were answered"
        ));
    }
}

/// Every cold key sent must be distinct after StressKey quantization.
fn check_distinct(keys: &Keys, sent: usize, report: &mut Report) -> Result<(), String> {
    let mut seen = HashSet::with_capacity(sent);
    for n in 0..sent {
        if !seen.insert(keys.query(n).1.stress_key()?) {
            report.wrong(format!(
                "cold key {n} repeats an earlier key after quantization"
            ));
            break;
        }
    }
    Ok(())
}

/// One set-up: build the surface artifact with the CLI (unless `build` is
/// false and the last one is reused), spawn the server on it, and wait
/// until it answers `/healthz`.
fn set_up(args: &Args, build: bool, n: usize) -> Result<(Server, PathBuf), String> {
    let surface = args.out.join("surface.rls");
    if build {
        let out = Command::new(&args.relia)
            .args(["surface", "build", "--workers", "2", "--out"])
            .arg(&surface)
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("spawning surface build: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "relia surface build failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
    }
    let server = Server::spawn(
        &args.relia,
        &surface,
        &args.out.join(format!("server-{n}.log")),
    )?;
    let (status, body) = Conn::open(&server.addr)?.call(&get("/healthz"))?;
    if status != 200 {
        return Err(format!(
            "/healthz answered {status}: {}",
            String::from_utf8_lossy(&body)
        ));
    }
    Ok((server, surface))
}

/// Sends [`RSS_BATCH`] keys one at a time on one connection, then returns
/// the server's peak resident set in MiB. The timed servers' memory grows
/// with the keys they happen to serve (each exact fallback enters the
/// cache), so memory is read after this fixed amount of work instead.
fn fixed_batch(
    server: &Server,
    keys: &Keys,
    next: &AtomicUsize,
    report: &mut Report,
) -> Result<f64, String> {
    let mut conn = Conn::open(&server.addr)?;
    let mut log = ConnLog::default();
    let mut buf = Vec::new();
    for _ in 0..RSS_BATCH {
        let n = next.fetch_add(1, Ordering::Relaxed);
        let (key, class, request) = keys.request(n, &mut buf);
        let (status, body) = conn.call(request)?;
        log.sent += 1;
        if !check(key, class, status, &body, &mut log) {
            log.failed += 1;
        }
    }
    let phase = Phase {
        elapsed_s: 0.0,
        logs: vec![log],
    };
    absorb(keys, &phase, &mut [0; 3], report)?;
    vm_hwm_mb(&server.pid())
}

/// Folds a phase's counts and failures into the report and the class
/// ledger, and checks its kept answers.
fn absorb(
    keys: &Keys,
    p: &Phase,
    ok_by_class: &mut [u64; 3],
    report: &mut Report,
) -> Result<u64, String> {
    report.attempted += p.sum(|l| l.sent);
    report.failed += p.sum(|l| l.failed);
    for log in &p.logs {
        for w in log.wrong.iter().take(5) {
            report.wrong(w.clone());
        }
        for (c, n) in log.ok_by_class.iter().enumerate() {
            ok_by_class[c] += n;
        }
    }
    check_kept(keys, p, report)
}

/// One served segment's figures: open-loop p50, and the closed-loop half's
/// correct answers within the limit and its length.
struct Segment {
    p50_us: f64,
    ok: u64,
    closed_s: f64,
}

/// Capacity over a set of segments: every correct answer within the
/// latency limit over all their closed-loop time.
fn capacity(segments: &[Segment]) -> f64 {
    let ok: u64 = segments.iter().map(|s| s.ok).sum();
    ok as f64 / segments.iter().map(|s| s.closed_s).sum::<f64>()
}

/// What the segments of a run add up to.
#[derive(Default)]
struct Tally {
    plain: Vec<Segment>,
    traced: Vec<Segment>,
    traced_open: Vec<Phase>,
    traced_closed: Vec<Phase>,
    deltas: HashMap<String, f64>,
    checked: u64,
    backlog: bool,
}

/// Runs `segments` segments on one server, each an open-loop half then a
/// closed-loop half of `half` seconds. A traced run traces every other
/// segment.
#[allow(clippy::too_many_arguments)]
fn measure(
    server: &Server,
    keys: &Keys,
    next: &AtomicUsize,
    segments: usize,
    half: f64,
    trace: Option<Instant>,
    tally: &mut Tally,
    report: &mut Report,
) -> Result<[u64; 3], String> {
    let mut ok_by_class = [0u64; 3];
    let first = tally.plain.len();
    for i in 0..segments {
        let at = trace.filter(|_| i % 2 == 1);
        let before = if at.is_some() {
            Some(server.metrics()?)
        } else {
            None
        };
        let open = phase(&server.addr, keys, next, Some(OFFERED_RPS), half, at)?;
        let closed = phase(&server.addr, keys, next, None, half, at)?;
        if let Some(before) = before {
            for (name, value) in server.metrics()? {
                let was = before.get(&name).copied().unwrap_or(0.0);
                *tally.deltas.entry(name).or_default() += value - was;
            }
        }
        tally.checked += absorb(keys, &open, &mut ok_by_class, report)?;
        tally.checked += absorb(keys, &closed, &mut ok_by_class, report)?;
        let summary = open_loop_summary(&open);
        // A segment whose backlog grew is reported, not averaged in.
        if summary.backlog_grew {
            tally.backlog = true;
            continue;
        }
        let segment = Segment {
            p50_us: summary.p50_us,
            ok: closed.sum(|l| l.ok_in_limit),
            closed_s: closed.elapsed_s,
        };
        if at.is_some() {
            tally.traced.push(segment);
            tally.traced_open.push(open);
            tally.traced_closed.push(closed);
        } else {
            tally.plain.push(segment);
        }
    }
    let mine = &tally.plain[first..];
    eprintln!(
        "perfbench: degrade_cold: server capacity {:.0}/s over {} untraced segments",
        capacity(mine),
        mine.len()
    );
    Ok(ok_by_class)
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let keys = Keys { seed: args.seed };
    let mut setups = Vec::new();
    let next = AtomicUsize::new(0);
    let mut rss_mb = Vec::new();
    for n in 0..SETUPS {
        let t = Instant::now();
        let (server, _) = set_up(args, true, n)?;
        setups.push(t.elapsed().as_secs_f64());
        rss_mb.push(fixed_batch(&server, &keys, &next, report)?);
        server.shutdown()?;
    }
    // A server process keeps its speed for its life but the next one may
    // differ by ±15% (thread placement, memory layout), so the budget is
    // spread over several fresh servers. The run reports the median of the
    // segments' open-loop p50s and the capacity of all their closed-loop
    // halves together.
    let next = AtomicUsize::new(0);
    let segments = ((args.seconds * SEGMENTS_PER_S).round() as usize).max(SERVERS * 2);
    let half = args.seconds / segments as f64 / 2.0;
    let origin = Instant::now();
    let trace = args.trace.then_some(origin);
    let mut tally = Tally::default();
    let mut artifact = None;
    for n in 0..SERVERS {
        let share = segments / SERVERS + usize::from(n < segments % SERVERS);
        let (server, surface) = set_up(args, false, 100 + n)?;
        let ok_by_class = measure(
            &server, &keys, &next, share, half, trace, &mut tally, report,
        )?;
        check_ledger(&server.metrics()?, ok_by_class, report);
        server.shutdown()?;
        artifact = Some(surface);
    }
    if tally.backlog {
        eprintln!("perfbench: degrade_cold: segments whose open-loop backlog grew are left out");
    }
    let med = |v: &[Segment], f: fn(&Segment) -> f64| median(&v.iter().map(f).collect::<Vec<_>>());
    if tally.plain.is_empty() || (args.trace && tally.traced.is_empty()) {
        report.wrong(format!(
            "every open-loop segment's backlog grew at {OFFERED_RPS:.0} req/s"
        ));
    } else if !args.trace {
        report.set("p50_us", med(&tally.plain, |s| s.p50_us));
        report.set("work_per_s", capacity(&tally.plain));
        report.set("setup_s", median(&setups));
        report.set("peak_rss_mb", median(&rss_mb));
    } else {
        server_layers(&tally.deltas, report);
        let merged = Phase {
            elapsed_s: tally.traced_open.iter().map(|p| p.elapsed_s).sum(),
            logs: tally.traced_open.into_iter().flat_map(|p| p.logs).collect(),
        };
        let t = open_loop_summary(&merged);
        report.set("client.p90_us", t.p90_us);
        report.set("client.p99_us", t.p99_us);
        report.set("client.samples", t.samples);
        report.set("client.late_p50_us", t.late_p50_us);
        report.set("client.late_max_ms", t.late_max_ms);
        report.set("client.offered_rps", OFFERED_RPS);
        report.set("client.achieved_rps", t.achieved_rps);
        report.set("client.backlog_grew", if tally.backlog { 1.0 } else { 0.0 });
        let untraced = capacity(&tally.plain);
        report.set(
            "bench.trace_overhead_pct",
            (untraced - capacity(&tally.traced)) / untraced * 100.0,
        );
        // Send and wait are per-request means over the open-loop halves,
        // where one request is in flight; closed-loop spans include the
        // pipeline's queueing and only go to the span file.
        let mut spans = Spans::new(origin);
        for log in merged.logs {
            if let Some(s) = log.spans {
                spans.absorb(s);
            }
        }
        let requests = spans.count("client.request").max(1) as f64;
        report.set(
            "client.send_us",
            spans.self_ns("client.send") as f64 / 1e3 / requests,
        );
        report.set(
            "client.wait_us",
            spans.self_ns("client.wait") as f64 / 1e3 / requests,
        );
        for log in tally.traced_closed.into_iter().flat_map(|p| p.logs) {
            if let Some(s) = log.spans {
                spans.absorb(s);
            }
        }
        replay(&keys, artifact.as_deref(), &mut spans, report)?;
        spans.write(&args.out.join("spans-degrade_cold.tsv"))?;
    }
    check_distinct(&keys, next.load(Ordering::Relaxed), report)?;
    if tally.checked == 0 {
        report.wrong("no sampled answer was checked against the oracle".to_owned());
    }
    Ok(())
}

/// Replays 2,000 requests of the run in process through the serving
/// layers' public calls, one span per call.
fn replay(
    keys: &Keys,
    surface: Option<&Path>,
    spans: &mut Spans,
    report: &mut Report,
) -> Result<(), String> {
    let timeout = Duration::from_secs(5);
    let path = surface.ok_or("no surface artifact to replay against")?;
    let state = relia_serve::ServeState::new(timeout)?
        .with_surface(relia_surface::Surface::load(path).map_err(|e| e.to_string())?);
    let model = NbtiModel::ptm90().map_err(|e| e.to_string())?;
    let limits = relia_serve::Limits::default();
    let parse = |bytes: &[u8]| {
        relia_serve::read_request(&mut &bytes[..], &limits).map_err(|e| format!("{e:?}"))
    };
    let mut buf = Vec::new();
    for n in 0..2_000 {
        let id = n as u64 + 1;
        let (key, _, bytes) = keys.request(n, &mut buf);
        let request = spans.time("serve.read_request", id, 0, || parse(bytes))?;
        let query = spans
            .time("serve.parse_degrade", id, 0, || {
                relia_serve::parse_degrade(&request.body)
            })
            .map_err(|r| format!("replayed parse answered {}", r.status))?;
        let deadline = Deadline::new(CancelToken::new(), Instant::now() + timeout);
        let (response, _) = spans.time("serve.handle", id, 0, || {
            relia_serve::handle(&state, &request, &deadline)
        });
        if response.status != 200 {
            report.wrong(format!(
                "replayed request {key} answered {}",
                response.status
            ));
        }
        let mut sink = Vec::with_capacity(256);
        spans
            .time("serve.write_response", id, 0, || {
                relia_serve::write_response(&mut sink, &response)
            })
            .map_err(|e| e.to_string())?;
        if let Some(tier) = state.surface() {
            let q = SurfaceQuery {
                t_active_k: Kelvin(relia_jobs::SWEEP_TEMP_ACTIVE_K),
                t_standby_k: query.t_standby_k,
                ras_fraction: query.ras.0 / (query.ras.0 + query.ras.1),
                lifetime_s: query.lifetime_s,
                p_active: query.p_active,
                p_standby: query.p_standby,
            };
            spans.time("surface.lookup", id, 0, || tier.surface().lookup(&q));
        }
        let stress_key = query.stress_key()?;
        spans.time("jobs.cache_peek", id, 0, || state.cache.peek(&stress_key));
        spans.time("core.stress_key_eval", id, 0, || {
            query
                .stress_key()
                .and_then(|k| NoCache.delta_vth(k, &model).map_err(|e| e.to_string()))
        })?;
    }
    for (metric, span) in [
        ("serve.read_request_ns", "serve.read_request"),
        ("serve.parse_degrade_ns", "serve.parse_degrade"),
        ("serve.handle_ns", "serve.handle"),
        ("serve.write_response_ns", "serve.write_response"),
        ("surface.lookup_ns", "surface.lookup"),
        ("jobs.cache_peek_ns", "jobs.cache_peek"),
        ("core.stress_key_eval_ns", "core.stress_key_eval"),
    ] {
        let count = spans.count(span);
        let mean = if count == 0 {
            0.0
        } else {
            spans.self_ns(span) as f64 / count as f64
        };
        report.set(metric, mean);
    }
    Ok(())
}
