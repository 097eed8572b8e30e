//! The `serve_mixed` workload: `repro serve` in this process, a closed
//! loop of two clients over loopback, and a timed warm restart.
//!
//! Each client sends its next request only after the previous reply. A
//! client alternates a cold request (a fig5 quick cell with a fresh seed,
//! a cache miss) with a warm one (the key it just computed, a cache hit),
//! so every round sends [`COLD_PER_ROUND`] misses and as many hits. Round 0
//! fills the cache; the server then restarts over that directory, timed
//! from `Server::bind_with_io` until `/healthz` answers (`setup_s`), and the
//! measured rounds run against the restarted server.

use crate::campaign::{core_replay, figure_csv, fresh_dir, traced_figure, Inputs, UnsyncedIo};
use crate::layers::LayerClock;
use crate::report::{digest, median, percentile, Report};
use crate::{layer_metrics, RunOpts, TraceSums};
use dls_chaos::RetryPolicy;
use dls_core::Technique;
use dls_repro::hagerup_exp::HagerupConfig;
use dls_repro::runner::{cell_seed, CancelFlag, ExecContext};
use dls_repro::server::cache::ResultCache;
use dls_repro::server::{ServeConfig, Server};
use dls_telemetry::{Logger, Telemetry};
use serde::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent clients (and connections) of the closed loop.
pub const CLIENTS: usize = 2;
/// Cold requests per round, split evenly over the clients; each is
/// followed by one warm request for the same key.
pub const COLD_PER_ROUND: usize = 100;
/// Timed restarts over the filled cache before the measured rounds; every
/// round then starts with one more.
pub const RESTARTS: usize = 5;
/// Measured rounds a run makes at least (a traced run needs one of each
/// kind).
const MIN_ROUNDS: usize = 2;
/// Index of this workload in the benchmark's seed derivation.
const SEED_INDEX: u64 = 3;

/// FNV-1a digest of the body `repro serve` returns for the canary request
/// (the fig5 quick cell at the paper's default seed).
pub const CANARY_DIGEST: &str = "ed779470ba1f0703";

/// The `POST /run` body of a fig5 quick cell; `None` keeps the paper seed.
pub fn request_body(seed: Option<u64>) -> String {
    let seed = seed.map(|s| format!(",\"seed\":{s}")).unwrap_or_default();
    format!(
        "{{\"fig\":\"fig5\",\"runs\":4,\"pes\":[2,8,64],\"techniques\":[\"SS\",\"FAC2\",\"GSS\"]{seed}}}"
    )
}

/// The campaign the server runs for [`request_body`]`(seed)`.
pub fn request_config(seed: Option<u64>) -> HagerupConfig {
    let mut cfg = HagerupConfig::paper(1024, 4);
    cfg.threads = 1;
    cfg.pes = vec![2, 8, 64];
    cfg.techniques = ["SS", "FAC2", "GSS"]
        .iter()
        .map(|t| t.parse::<Technique>().expect("known technique names"))
        .collect();
    if let Some(s) = seed {
        cfg.seed = s;
    }
    cfg
}

/// One HTTP exchange as the client saw it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// The `X-Cache` header, if any.
    pub cache: Option<String>,
    /// Response body.
    pub body: Vec<u8>,
    /// Connect to last byte, seconds.
    pub latency_s: f64,
}

/// Sends one request on a fresh connection and reads the reply to EOF.
pub fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let mut reply = exchange(&mut stream, addr, method, path, body)?;
    reply.latency_s = start.elapsed().as_secs_f64();
    Ok(reply)
}

/// Sends one request on a connected `stream` and reads the reply to EOF.
fn exchange(
    stream: &mut TcpStream,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<Reply> {
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let split =
        raw.windows(4).position(|w| w == b"\r\n\r\n").ok_or_else(|| bad("no header end"))?;
    let head = String::from_utf8_lossy(&raw[..split]).into_owned();
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status line"))?;
    let cache = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("x-cache"))
        .map(|(_, v)| v.trim().to_string());
    Ok(Reply { status, cache, body: raw[split + 4..].to_vec(), latency_s: 0.0 })
}

/// A server serving on its own thread.
struct Running {
    addr: SocketAddr,
    cancel: CancelFlag,
    handle: std::thread::JoinHandle<Result<(), dls_repro::error::ReproError>>,
}

impl Running {
    /// Binds over `cache_dir` and serves until [`Running::stop`]; returns
    /// the set-up time, from `Server::bind_with_io` (which warm-loads and
    /// checksums every cache entry) until a `/healthz` probe is answered.
    /// Cache writes go through [`UnsyncedIo`], for the reason given there:
    /// every miss writes one entry, so the device's latency would enter
    /// every miss.
    /// The probe connects before the accept loop starts, so it waits in the
    /// listen backlog and the first `accept` takes it: the time never
    /// includes a share of the accept loop's 5 ms idle poll, which would
    /// make it bimodal (the poll shows in every request's latency instead).
    fn start(cache_dir: &Path) -> Result<(Running, f64), String> {
        let start = Instant::now();
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            cache_dir: cache_dir.to_path_buf(),
            ..ServeConfig::default()
        };
        let cancel = CancelFlag::new();
        let server = Server::bind_with_io(
            &cfg,
            Telemetry::enabled(),
            Logger::disabled(),
            cancel.clone(),
            Arc::new(UnsyncedIo),
            RetryPolicy::standard(),
        )
        .map_err(|e| e.to_string())?;
        let addr = server.local_addr();
        let mut probe = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let handle = std::thread::spawn(move || server.run());
        let reply = exchange(&mut probe, addr, "GET", "/healthz", "").map_err(|e| e.to_string())?;
        let setup_s = start.elapsed().as_secs_f64();
        let running = Running { addr, cancel, handle };
        if reply.status != 200 {
            running.stop();
            return Err(format!("/healthz answered {}", reply.status));
        }
        Ok((running, setup_s))
    }

    /// Cancels the accept loop and joins the server thread.
    fn stop(self) {
        self.cancel.cancel();
        let _ = self.handle.join();
    }
}

/// One client's requests in a round, in send order.
#[derive(Debug, Default)]
struct ClientLog {
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    seeds: Vec<u64>,
    bodies: Vec<Vec<u8>>,
    failures: Vec<String>,
    checks: u64,
}

/// What one round measured.
#[derive(Debug, Default)]
struct Round {
    wall_s: f64,
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    hits: u64,
    requests: u64,
    /// `(seed, body)` of every cold request.
    cold: Vec<(u64, Vec<u8>)>,
    failures: Vec<String>,
    checks: u64,
}

/// Runs one closed-loop round: each client alternates cold and warm.
fn round(addr: SocketAddr, base_seed: u64, index: u64) -> Round {
    let per_client = COLD_PER_ROUND / CLIENTS;
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    for j in 0..per_client {
                        let k = (index * CLIENTS as u64 + c as u64) * per_client as u64 + j as u64;
                        let seed = cell_seed(base_seed, k);
                        let body = request_body(Some(seed));
                        let cold = send(addr, "POST", "/run", &body);
                        let cold = match cold {
                            Ok(r) if r.status == 200 && r.cache.as_deref() == Some("miss") => r,
                            Ok(r) => {
                                log.failures.push(format!(
                                    "cold request seed {seed}: status {} x-cache {:?}",
                                    r.status, r.cache
                                ));
                                continue;
                            }
                            Err(e) => {
                                log.failures.push(format!("cold request seed {seed}: {e}"));
                                continue;
                            }
                        };
                        log.cold_ms.push(cold.latency_s * 1e3);
                        match send(addr, "POST", "/run", &body) {
                            Ok(r) if r.status == 200 && r.cache.as_deref() == Some("hit") => {
                                log.warm_ms.push(r.latency_s * 1e3);
                                if r.body == cold.body {
                                    log.checks += 1;
                                } else {
                                    log.failures.push(format!(
                                        "warm body for seed {seed} differs from its miss body"
                                    ));
                                }
                            }
                            Ok(r) => log.failures.push(format!(
                                "warm request seed {seed}: status {} x-cache {:?}",
                                r.status, r.cache
                            )),
                            Err(e) => log.failures.push(format!("warm request seed {seed}: {e}")),
                        }
                        log.seeds.push(seed);
                        log.bodies.push(cold.body);
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut out = Round { wall_s: start.elapsed().as_secs_f64(), ..Round::default() };
    for log in logs {
        out.requests += (log.cold_ms.len() + log.warm_ms.len()) as u64;
        out.hits += log.warm_ms.len() as u64;
        out.cold_ms.extend(log.cold_ms);
        out.warm_ms.extend(log.warm_ms);
        out.cold.extend(log.seeds.into_iter().zip(log.bodies));
        out.failures.extend(log.failures);
        out.checks += log.checks;
    }
    out
}

fn absorb(report: &mut Report, r: &Round) {
    report.ok(r.requests);
    report.ok(r.checks);
    for f in &r.failures {
        report.fail(f.clone());
    }
}

/// Server-reported spans of the requests in `GET /requests`, by outcome.
/// Every round has a server of its own, read once after the round, so no
/// request is read twice.
#[derive(Debug, Default)]
struct Spans {
    /// `(outcome, span name)` → durations, seconds.
    by_phase: std::collections::BTreeMap<(String, String), Vec<f64>>,
    /// outcome → handler totals, seconds.
    totals: std::collections::BTreeMap<String, Vec<f64>>,
}

impl Spans {
    fn collect(&mut self, addr: SocketAddr) -> Result<(), String> {
        let reply = send(addr, "GET", "/requests", "").map_err(|e| e.to_string())?;
        let text = String::from_utf8(reply.body).map_err(|e| e.to_string())?;
        let value: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        let requests = value.get("requests").and_then(Value::as_array).unwrap_or(&[]);
        for r in requests {
            let outcome = r.get("outcome").and_then(Value::as_str).unwrap_or("?").to_string();
            if let Some(t) = r.get("total_s").and_then(Value::as_f64) {
                self.totals.entry(outcome.clone()).or_default().push(t);
            }
            for s in r.get("spans").and_then(Value::as_array).unwrap_or(&[]) {
                let name = s.get("name").and_then(Value::as_str).unwrap_or("?").to_string();
                let dur = s.get("dur_s").and_then(Value::as_f64).unwrap_or(0.0);
                self.by_phase.entry((outcome.clone(), name)).or_default().push(dur);
            }
        }
        Ok(())
    }

    /// Median duration of `phase` over requests with `outcome` (`any`:
    /// every outcome).
    fn median_of(&self, outcome: &str, phase: &str) -> f64 {
        let durations: Vec<f64> = self
            .by_phase
            .iter()
            .filter(|((o, p), _)| p == phase && (outcome == "any" || o == outcome))
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        median(&durations)
    }
}

/// Copies the cache entries (the `*.json` files) of `from` into `to`.
fn copy_entries(from: &Path, to: &Path) -> Result<(), String> {
    let to = fresh_dir(to)?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|e| e == "json") {
            let name = path.file_name().expect("a file in the directory");
            std::fs::copy(&path, to.join(name)).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Runs `serve_mixed` for `opts`.
pub fn run(opts: &RunOpts, report: &mut Report) -> Result<(), String> {
    let dir = fresh_dir(&opts.dir.join("serve"))?;
    let cache_dir = dir.join("cache");
    let base_seed = cell_seed(opts.seed, SEED_INDEX);

    let (server, _) = Running::start(&cache_dir)?;
    let canary =
        send(server.addr, "POST", "/run", &request_body(None)).map_err(|e| e.to_string())?;
    report.check(
        canary.status == 200 && digest(&canary.body) == CANARY_DIGEST,
        format!(
            "canary fig5 cell body digest {} (status {}) equals the recorded {CANARY_DIGEST}",
            digest(&canary.body),
            canary.status
        ),
    );
    let fill = round(server.addr, base_seed, 0);
    absorb(report, &fill);
    server.stop();

    // Every measured round runs against a server restarted over a fresh
    // copy of round 0's cache: the restart is timed as one `setup_s`
    // sample, and every round starts from the same entries and adds its
    // own, so neither the set-up nor the memory grows with the number of
    // rounds a run fits in.
    if opts.trace {
        let mut open_s = Vec::new();
        let mut entries = 0;
        for _ in 0..RESTARTS {
            let start = Instant::now();
            let cache = ResultCache::open_with_io(
                &cache_dir,
                Arc::new(UnsyncedIo),
                RetryPolicy::standard(),
            )
            .map_err(|e| e.to_string())?;
            open_s.push(start.elapsed().as_secs_f64());
            entries = cache.len();
        }
        report.extra("cache.open_s", median(&open_s), "s");
        report.extra("cache.entries", entries as f64, "count");
        report.series("cache.open_s", &open_s);
    }
    let round_dir = dir.join("round");
    let mut setup_s = Vec::new();
    for _ in 0..RESTARTS {
        copy_entries(&cache_dir, &round_dir)?;
        let (probe, seconds) = Running::start(&round_dir)?;
        probe.stop();
        setup_s.push(seconds);
    }

    let mut rounds = Vec::new();
    let mut traced_walls = Vec::new();
    let mut spans = Spans::default();
    let start = Instant::now();
    let mut index = 1;
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < opts.seconds {
        copy_entries(&cache_dir, &round_dir)?;
        let (server, seconds) = Running::start(&round_dir)?;
        setup_s.push(seconds);
        let warm_canary =
            send(server.addr, "POST", "/run", &request_body(None)).map_err(|e| e.to_string())?;
        report.check(
            warm_canary.cache.as_deref() == Some("hit") && warm_canary.body == canary.body,
            "the restarted server answers the canary from its warm-loaded cache, byte-identically",
        );
        let r = round(server.addr, base_seed, index);
        absorb(report, &r);
        // Traced runs alternate plain rounds with rounds whose server-side
        // spans are read back from `GET /requests` (a ring of 256 requests,
        // so it is read after every traced round).
        if opts.trace && index % 2 == 0 {
            spans.collect(server.addr)?;
            traced_walls.push(r.wall_s);
        }
        server.stop();
        rounds.push(r);
        index += 1;
    }

    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let cold: Vec<f64> = rounds.iter().flat_map(|r| r.cold_ms.iter().copied()).collect();
    let warm: Vec<f64> = rounds.iter().flat_map(|r| r.warm_ms.iter().copied()).collect();
    let requests: u64 = rounds.iter().map(|r| r.requests).sum();
    let hits: u64 = rounds.iter().map(|r| r.hits).sum();

    report.extra("setup_s", median(&setup_s), "s");
    report.series("setup_s", &setup_s);
    report.extra("campaign_s", median(&walls), "s");
    report.series("campaign_s", &walls);
    for (name, xs) in [("serve_cold", &cold), ("serve_warm", &warm)] {
        report.extra(format!("{name}_p50_ms"), percentile(xs, 50.0), "ms");
        report.extra(format!("{name}_p90_ms"), percentile(xs, 90.0), "ms");
        report.extra(format!("{name}_samples"), xs.len() as f64, "count");
        report.samples(format!("{name}_p50_ms"), xs.len());
        report.samples(format!("{name}_p90_ms"), xs.len());
    }
    report.extra("serve_rps", requests as f64 / walls.iter().sum::<f64>(), "1/s");
    report.extra("cache.hit_ratio", hits as f64 / requests.max(1) as f64, "ratio");

    if opts.trace {
        let plain: Vec<f64> =
            rounds.iter().zip(1..).filter(|(_, i)| i % 2 == 1).map(|(r, _)| r.wall_s).collect();
        report.extra("trace.untraced_wall_s", median(&plain), "s");
        report.extra("trace.traced_wall_s", median(&traced_walls), "s");
        report.extra(
            "trace_overhead_pct",
            (median(&traced_walls) / median(&plain) - 1.0) * 100.0,
            "%",
        );
        for (metric, phase, outcome) in [
            ("server.parse_s", "parse", "any"),
            ("server.cache_lookup_s.hit", "cache_lookup", "hit"),
            ("server.cache_lookup_s.miss", "cache_lookup", "miss"),
            ("server.serialize_s.hit", "serialize", "hit"),
            ("server.serialize_s.miss", "serialize", "miss"),
            ("server.admission_wait_s", "admission_wait", "miss"),
            ("server.compute_s", "compute", "miss"),
        ] {
            report.extra(metric, spans.median_of(outcome, phase), "s");
        }
        for outcome in ["hit", "miss"] {
            let n = spans.totals.get(outcome).map_or(0, Vec::len);
            report.samples(format!("server spans ({outcome})"), n);
        }
        for (metric, outcome, client) in
            [("http.accept_wait_ms.hit", "hit", &warm), ("http.accept_wait_ms.miss", "miss", &cold)]
        {
            let server_total = spans.totals.get(outcome).map_or(0.0, |v| median(v));
            report.extra(metric, median(client) - server_total * 1e3, "ms");
        }
        redrive(rounds.last().expect("at least two rounds"), report)?;
    }
    Ok(())
}

/// Re-drives the last round's cold cells through the traced figure pass
/// (outside the server), attributing the server's opaque `compute` span to
/// layers, and checks each re-driven CSV against the body the server sent.
fn redrive(last: &Round, report: &mut Report) -> Result<(), String> {
    let clock = LayerClock::default();
    let mut wall_s = 0.0;
    let mut mismatches = 0;
    for (seed, body) in &last.cold {
        let cfg = request_config(Some(*seed));
        let start = Instant::now();
        let rows =
            traced_figure(&cfg, &clock, &ExecContext::transient()).map_err(|e| e.to_string())?;
        wall_s += start.elapsed().as_secs_f64();
        if figure_csv(&rows).as_bytes() != body.as_slice() {
            mismatches += 1;
        }
        core_replay(&Inputs::Figure(cfg), &clock)?;
    }
    report.check(
        mismatches == 0,
        format!(
            "{} served miss bodies equal the traced re-drive of their cells ({mismatches} differ)",
            last.cold.len()
        ),
    );
    report.extras.extend(layer_metrics(&TraceSums::from_clock(&clock), wall_s, 1));
    Ok(())
}
