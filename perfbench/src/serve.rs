//! `serve-stencil`: the whole service path, with the server in its own
//! process.
//!
//! The benchmark re-executes its own binary with [`CHILD_FLAG`] to host a
//! `dsm_service::Server` (default `ServeConfig`, so a checkpoint every 1024
//! events). The child prints its address, serves until its standard input
//! closes, then prints its `Server::shutdown()` statistics and its peak RSS
//! as one JSON line. Two client threads each stream the same
//! `opstream::stencil` events in a closed loop: 256 events, then a `Ping`
//! whose `Health` answer must arrive before the next 256 are sent.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dsm_bench::opstream::{self, StreamEvent};
use dsm_bench::serve::{in_process_summary_json, wire_events};
use dsm_service::frame::WireEvent;
use dsm_service::server::{ServeConfig, Server, SessionOutcome};
use dsm_service::ServiceClient;
use race_core::{DetectorConfig, DetectorKind};

use crate::hist::Histogram;
use crate::report::{median, Outcome};

/// First argument that turns the binary into the server process.
pub const CHILD_FLAG: &str = "--serve-child";
/// Client connections (and load threads).
pub const CLIENTS: usize = 2;
/// Events between two in-band pings.
const PING_EVERY: usize = 256;
/// Ranks of the stencil stream and of the detector config.
const RANKS: usize = 16;
/// Words per rank of the stencil stream.
const WORDS: usize = 256;

/// The detector configuration every client says hello with.
pub fn config() -> DetectorConfig {
    DetectorConfig::new(DetectorKind::Dual, RANKS)
}

/// The stream for `seed`: `opstream::stencil(16, 256, iters)` with
/// `iters` in `24..40` chosen by the seed (the stencil has no randomness
/// of its own). About 100k events per client.
pub fn stream(seed: u64) -> Vec<StreamEvent> {
    opstream::stencil(RANKS, WORDS, 24 + (seed % 16) as usize)
}

/// The server process's statistics, as it printed them at shutdown.
#[derive(Debug, Default, Clone, Copy)]
pub struct ChildStats {
    pub unfinished: u64,
    pub events_applied: u64,
    pub events_shed: u64,
    pub frames_rejected: u64,
    pub panics_supervised: u64,
    pub vm_hwm_kib: u64,
}

/// The server-process entry point; returns the exit code.
pub fn child_main() -> i32 {
    let server = match Server::bind("127.0.0.1:0", ServeConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench server: bind failed: {e}");
            return 1;
        }
    };
    let mut out = std::io::stdout();
    if writeln!(out, "{}", server.local_addr())
        .and_then(|()| out.flush())
        .is_err()
    {
        return 1;
    }
    // Serve until the parent closes our standard input.
    let mut drain = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut drain);
    let report = server.shutdown();
    let s = report.stats;
    let applied: u64 = report.sessions.iter().map(|r| r.events).sum();
    let unfinished = report
        .sessions
        .iter()
        .filter(|r| r.outcome != SessionOutcome::Finished)
        .count();
    let line = format!(
        "{{\"accepted\": {}, \"finished\": {}, \"drained\": {}, \"reaped\": {}, \"hangups\": {}, \
         \"poisoned\": {}, \"panics_supervised\": {}, \"frames_rejected\": {}, \"events_shed\": {}, \
         \"parked\": {}, \"resumed\": {}, \"events_applied\": {applied}, \"unfinished\": {unfinished}, \
         \"vm_hwm_kib\": {}}}",
        s.accepted,
        s.finished,
        s.drained,
        s.reaped,
        s.hangups,
        s.poisoned,
        s.panics_supervised,
        s.frames_rejected,
        s.events_shed,
        s.parked,
        s.resumed,
        crate::report::self_peak_rss_kib(),
    );
    if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
        return 1;
    }
    0
}

fn field(json: &str, key: &str) -> Option<u64> {
    let at = json.find(&format!("\"{key}\": "))? + key.len() + 4;
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// A running server process. Dropping it kills and reaps the child.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawn the server process and wait for its address.
    pub fn spawn() -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg(CHILD_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take();
        let mut proc = ServerProc {
            child,
            stdin,
            stdout: BufReader::new(stdout.ok_or("server stdout")?),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        proc.stdout
            .read_line(&mut line)
            .map_err(|e| format!("read server address: {e}"))?;
        proc.addr = line
            .trim()
            .parse()
            .map_err(|_| format!("bad server address line {line:?}"))?;
        Ok(proc)
    }

    /// Close the server's input, read its statistics and reap it.
    pub fn shutdown(mut self) -> Result<ChildStats, String> {
        drop(self.stdin.take());
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("read server stats: {e}"))?;
        let status = self.child.wait().map_err(|e| format!("wait server: {e}"))?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        let get =
            |k: &str| field(&line, k).ok_or_else(|| format!("server stats lack {k}: {line:?}"));
        Ok(ChildStats {
            unfinished: get("unfinished")?,
            events_applied: get("events_applied")?,
            events_shed: get("events_shed")?,
            frames_rejected: get("frames_rejected")?,
            panics_supervised: get("panics_supervised")?,
            vm_hwm_kib: get("vm_hwm_kib")?,
        })
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What one client saw in one pass.
#[derive(Debug)]
pub struct ClientRun {
    pub sent: u64,
    pub pings: Histogram,
    /// Per-`send` call times; filled only when traced.
    pub sends: Histogram,
    /// Pings whose `Health` disagreed with the events sent before them, or
    /// reported shedding or degradation.
    pub bad_health: u64,
    /// The last `Health.events` seen.
    pub applied: u64,
    pub reconnects: u64,
    pub shed: u64,
    pub summary_json: String,
    pub error: Option<String>,
    /// When the `HelloAck` arrived.
    pub connected: Instant,
    pub start: Instant,
    pub end: Instant,
}

fn run_client(
    addr: SocketAddr,
    config: &DetectorConfig,
    events: &[WireEvent],
    start: &Barrier,
    traced: bool,
) -> Result<ClientRun, String> {
    let client = ServiceClient::connect(addr, config);
    let connected = Instant::now();
    start.wait();
    let mut client = client.map_err(|e| format!("connect: {e}"))?;
    let mut run = ClientRun {
        sent: 0,
        pings: Histogram::default(),
        sends: Histogram::default(),
        bad_health: 0,
        applied: 0,
        reconnects: 0,
        shed: 0,
        summary_json: String::new(),
        error: None,
        connected,
        start: Instant::now(),
        end: Instant::now(),
    };
    for chunk in events.chunks(PING_EVERY) {
        for ev in chunk {
            if traced {
                let t = Instant::now();
                client.send(ev).map_err(|e| format!("send: {e}"))?;
                run.sends.record_duration(t.elapsed());
            } else {
                client.send(ev).map_err(|e| format!("send: {e}"))?;
            }
        }
        run.sent += chunk.len() as u64;
        let t = Instant::now();
        let health = client.ping().map_err(|e| format!("ping: {e}"))?;
        run.pings.record_duration(t.elapsed());
        run.applied = health.events;
        if health.events != run.sent || health.shed != 0 || health.degraded {
            run.bad_health += 1;
        }
    }
    run.reconnects = client.reconnects();
    let summary = client.finish().map_err(|e| format!("finish: {e}"))?;
    run.end = Instant::now();
    run.shed = summary.shed;
    run.summary_json = summary.raw_json;
    run.error = summary.error;
    Ok(run)
}

/// One pass: every client streams `events` once over a fresh session.
pub struct Pass {
    pub clients: Vec<ClientRun>,
    /// When the last client's `HelloAck` arrived.
    pub connected: Instant,
    /// First send to last `Summary`.
    pub wall: Duration,
}

/// Run one pass against `addr` with `clients` concurrent clients.
pub fn pass(
    addr: SocketAddr,
    config: &DetectorConfig,
    events: &[WireEvent],
    clients: usize,
    traced: bool,
) -> Result<Pass, String> {
    let start = Barrier::new(clients);
    let runs: Vec<Result<ClientRun, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| s.spawn(|| run_client(addr, config, events, &start, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let clients = runs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let first = clients.iter().map(|c| c.start).min().ok_or("no clients")?;
    let last = clients.iter().map(|c| c.end).max().ok_or("no clients")?;
    let connected = clients
        .iter()
        .map(|c| c.connected)
        .max()
        .ok_or("no clients")?;
    Ok(Pass {
        clients,
        connected,
        wall: last - first,
    })
}

/// Check one pass's outputs against the in-process twin.
pub fn check_pass(out: &mut Outcome, p: &Pass, twin: &str) {
    for c in &p.clients {
        out.attempt(c.sent);
        out.fail_ops(c.shed, "events shed");
        out.check(
            c.summary_json == twin,
            "served summary differs from the in-process twin",
        );
        out.check(
            c.bad_health == 0,
            format!(
                "{} health lines disagreed with the events sent",
                c.bad_health
            ),
        );
        out.check(
            c.reconnects == 0,
            format!("{} client reconnects", c.reconnects),
        );
        out.check(
            c.error.is_none(),
            format!("session ended with error {:?}", c.error),
        );
    }
}

/// Check the server's own statistics after its shutdown.
pub fn check_server(out: &mut Outcome, s: &ChildStats) {
    out.fail_ops(s.events_shed, "events shed by the server");
    out.fail_ops(s.frames_rejected, "frames rejected by the server");
    out.fail_ops(s.unfinished, "sessions not finished");
    out.check(s.panics_supervised == 0, "server supervised a panic");
}

/// The untraced end-to-end run.
pub fn run(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = measure(&mut out, seed, budget) {
        out.check(false, e);
    }
    out
}

fn measure(out: &mut Outcome, seed: u64, budget: Duration) -> Result<(), String> {
    let config = config();
    let events = wire_events(&stream(seed));
    let twin = in_process_summary_json(&config, &events);

    // Every pass gets its own server process: spawning it and opening both
    // sessions is one `setup_s` sample, and its peak RSS one `peak_rss_mb`
    // sample. The first pass is an untimed warm-up, checked like the rest.
    let mut warm = true;
    let mut setups = Vec::new();
    let mut rss = Vec::new();
    let mut rates = Vec::new();
    let mut pings = Histogram::default();
    let began = Instant::now();
    while rates.is_empty() || began.elapsed() < budget {
        let spawned = Instant::now();
        let server = ServerProc::spawn()?;
        let p = pass(server.addr, &config, &events, CLIENTS, false)?;
        let stats = server.shutdown()?;
        check_pass(out, &p, &twin);
        check_server(out, &stats);
        if std::mem::take(&mut warm) {
            continue;
        }
        setups.push((p.connected - spawned).as_secs_f64());
        rss.push(stats.vm_hwm_kib as f64 / 1024.0);
        let sent: u64 = p.clients.iter().map(|c| c.sent).sum();
        rates.push(sent as f64 / p.wall.as_secs_f64());
        for c in &p.clients {
            pings.merge(&c.pings);
        }
    }

    out.metric("setup_s", median(&setups), "s");
    out.metric("throughput_per_s", median(&rates), "1/s");
    out.metric("latency_p50_ms", pings.quantile(0.5) / 1e6, "ms");
    out.metric("latency_p99_ms", pings.quantile(0.99) / 1e6, "ms");
    out.metric("peak_rss_mb", median(&rss), "MiB");
    out.samples("passes", rates.len() as u64);
    out.samples("pings", pings.count());
    out.samples("pings_beyond_p99", pings.beyond(0.99));
    out.samples("events_per_client_pass", events.len() as u64);
    Ok(())
}
