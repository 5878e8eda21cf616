//! The traced run (`--trace 1`): per-layer metrics, timed from this file
//! around calls into each layer's public functions. Nothing inside the
//! program is instrumented.
//!
//! Every traced run reports every layer, measured on the workload's own
//! inputs:
//!
//! * the layers on the workload's path are timed inside its own passes,
//!   which alternate with untraced passes of the same work to give
//!   `trace.overhead_frac`;
//! * the other layers are probed with the same inputs: the workload's event
//!   stream is served through a server process, encoded as frames, replayed
//!   through an inline session (with checkpoints every 1024 events, as the
//!   server worker does) and through the sharded session; its simulated
//!   twin runs through the engine with and without detection.
//!
//! Spans are aggregated in memory (histograms and sums) and printed when
//! the run ends.

use std::time::{Duration, Instant};

use dsm_bench::opstream::{self, StreamEvent};
use dsm_bench::serve::{in_process_summary_json, wire_events};
use dsm_service::frame::{ClientFrame, WireEvent};
use race_core::{DetectorConfig, DetectorKind};
use simulator::workloads::{random_access, stencil, Workload};

use crate::hist::Histogram;
use crate::inproc::{self, Path};
use crate::report::{median, Outcome};
use crate::serve::{self, ServerProc, CLIENTS};
use crate::sim;

/// Server checkpoints once per this many events (the `ServeConfig`
/// default); the snapshot probe mirrors it.
const CHECKPOINT_EVERY: usize = 1024;
/// Events of a non-serve workload's stream sent per client in the service
/// probe.
const SERVE_PROBE_EVENTS: usize = 65_536;
/// Events encoded and decoded by the frame probe.
const FRAME_PROBE_EVENTS: usize = 262_144;
/// Events replayed by the snapshot probe.
const SNAPSHOT_PROBE_EVENTS: usize = 262_144;
/// Runs of each engine probe.
const ENGINE_PROBE_RUNS: usize = 3;

/// The per-layer metrics, in print order.
#[derive(Debug, Default)]
struct Layers {
    client_send_ns_p50: f64,
    client_send_ns_p99: f64,
    client_reconnects: f64,
    frame_encode_ns: f64,
    frame_decode_ns: f64,
    frame_bytes_per_event: f64,
    server_events_applied: f64,
    server_events_shed: f64,
    server_frames_rejected: f64,
    server_panics_supervised: f64,
    server_residual_ns_per_event: f64,
    session_op_ns: f64,
    session_sync_ns: f64,
    session_reports_per_access: f64,
    session_finish_ms: f64,
    snapshot_checkpoint_ms_p50: f64,
    snapshot_checkpoint_ms_max: f64,
    snapshot_checkpoint_bytes: f64,
    detector_clock_bytes: f64,
    sharded_observe_ns_p50: f64,
    sharded_observe_ns_p99: f64,
    sharded_setup_ms: f64,
    engine_run_ms: f64,
    engine_vanilla_run_ms: f64,
    net_msgs_per_op: f64,
    net_bytes_per_op: f64,
    net_detection_msgs_frac: f64,
    trace_overhead_frac: f64,
    /// Per-connection wall time per event of the untraced service passes
    /// (input to the residual, not printed).
    serve_ns_per_event: f64,
}

impl Layers {
    fn emit(&self, out: &mut Outcome) {
        let rows: [(&str, f64, &'static str); 28] = [
            ("client.send_ns_p50", self.client_send_ns_p50, "ns"),
            ("client.send_ns_p99", self.client_send_ns_p99, "ns"),
            ("client.reconnects", self.client_reconnects, "count"),
            ("frame.encode_ns", self.frame_encode_ns, "ns"),
            ("frame.decode_ns", self.frame_decode_ns, "ns"),
            ("frame.bytes_per_event", self.frame_bytes_per_event, "bytes"),
            ("server.events_applied", self.server_events_applied, "count"),
            ("server.events_shed", self.server_events_shed, "count"),
            (
                "server.frames_rejected",
                self.server_frames_rejected,
                "count",
            ),
            (
                "server.panics_supervised",
                self.server_panics_supervised,
                "count",
            ),
            (
                "server.residual_ns_per_event",
                self.server_residual_ns_per_event,
                "ns",
            ),
            ("session.op_ns", self.session_op_ns, "ns"),
            ("session.sync_ns", self.session_sync_ns, "ns"),
            (
                "session.reports_per_access",
                self.session_reports_per_access,
                "ratio",
            ),
            ("session.finish_ms", self.session_finish_ms, "ms"),
            (
                "snapshot.checkpoint_ms_p50",
                self.snapshot_checkpoint_ms_p50,
                "ms",
            ),
            (
                "snapshot.checkpoint_ms_max",
                self.snapshot_checkpoint_ms_max,
                "ms",
            ),
            (
                "snapshot.checkpoint_bytes",
                self.snapshot_checkpoint_bytes,
                "bytes",
            ),
            ("detector.clock_bytes", self.detector_clock_bytes, "bytes"),
            ("sharded.observe_ns_p50", self.sharded_observe_ns_p50, "ns"),
            ("sharded.observe_ns_p99", self.sharded_observe_ns_p99, "ns"),
            ("sharded.setup_ms", self.sharded_setup_ms, "ms"),
            ("engine.run_ms", self.engine_run_ms, "ms"),
            ("engine.vanilla_run_ms", self.engine_vanilla_run_ms, "ms"),
            ("net.msgs_per_op", self.net_msgs_per_op, "ratio"),
            ("net.bytes_per_op", self.net_bytes_per_op, "bytes"),
            (
                "net.detection_msgs_frac",
                self.net_detection_msgs_frac,
                "fraction",
            ),
            ("trace.overhead_frac", self.trace_overhead_frac, "fraction"),
        ];
        for (name, value, unit) in rows {
            out.metric(name, value, unit);
        }
    }
}

/// The inputs every layer is measured on.
struct Inputs {
    /// The workload's event stream (for `sim-random`, the detector-only
    /// twin of its simulated programs).
    stream: Vec<StreamEvent>,
    /// The detector configuration the stream is observed with inline.
    config: DetectorConfig,
    /// The workload's simulated programs (for the stream workloads, the
    /// simulated twin of their pattern).
    programs: Workload,
}

fn inputs(workload: &str, seed: u64) -> Inputs {
    match workload {
        "serve-stencil" => Inputs {
            stream: serve::stream(seed),
            config: serve::config(),
            programs: stencil::with_barrier(16, 64, 2),
        },
        "sim-random" => Inputs {
            stream: opstream::random(inproc::spec(seed, sim::OPS_PER_RANK, sim::HOT_WORDS)),
            config: inproc::config(Path::Inline),
            programs: sim::workload(seed),
        },
        _ => Inputs {
            stream: inproc::stream(seed),
            config: inproc::config(Path::Inline),
            programs: random_access::generate(inproc::spec(seed, sim::OPS_PER_RANK, 4096)),
        },
    }
}

/// Run the traced measurement of `workload`.
pub fn run(workload: &str, seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let mut l = Layers::default();
    if let Err(e) = measure(&mut out, &mut l, workload, seed, budget) {
        out.check(false, e);
    }
    l.emit(&mut out);
    out
}

fn measure(
    out: &mut Outcome,
    l: &mut Layers,
    workload: &str,
    seed: u64,
    budget: Duration,
) -> Result<(), String> {
    let inp = inputs(workload, seed);
    // The workload's own path gets half the budget, alternating untraced
    // and traced passes; every other layer gets a probe (`None`).
    let own = |path: &str| (workload == path).then_some(budget / 2);
    let serve_events = match own("serve-stencil") {
        Some(_) => inp.stream.len(),
        None => SERVE_PROBE_EVENTS.min(inp.stream.len()),
    };
    let overheads = [
        service_layers(out, l, &inp, serve_events, own("serve-stencil"))?,
        session_layer(out, l, &inp, own("session-random")),
        sharded_layer(out, l, &inp, own("sharded-random")),
        engine_layer(out, l, &inp, seed, own("sim-random")),
    ];
    frame_layer(out, l, &inp.stream)?;
    snapshot_layer(out, l, &inp)?;
    l.trace_overhead_frac = overheads.into_iter().flatten().next().unwrap_or(0.0);

    // The residual: what the served path costs per event beyond the frame,
    // session and amortised checkpoint self times.
    l.server_residual_ns_per_event = l.serve_ns_per_event
        - l.frame_encode_ns
        - l.frame_decode_ns
        - l.session_op_ns
        - l.snapshot_checkpoint_ms_p50 * 1e6 / CHECKPOINT_EVERY as f64;
    Ok(())
}

/// Whether a layer needs another pass after `done`: a probe (`own` is
/// `None`) runs `probe_passes`; the workload's own path runs for its
/// duration, at least two passes.
fn more(own: Option<Duration>, done: usize, probe_passes: usize, began: Instant) -> bool {
    match own {
        None => done < probe_passes,
        Some(d) => done < 2 || began.elapsed() < d,
    }
}

/// `traced / untraced - 1` over the medians of alternating passes, on the
/// workload's own path only.
fn overhead(own: Option<Duration>, untraced: &[f64], traced: &[f64]) -> Option<f64> {
    own.map(|_| median(traced) / median(untraced) - 1.0)
}

/// Client and server layers: the first `events` of the stream served by
/// one server process to `CLIENTS` clients, untraced and traced passes
/// alternating.
fn service_layers(
    out: &mut Outcome,
    l: &mut Layers,
    inp: &Inputs,
    events: usize,
    own: Option<Duration>,
) -> Result<Option<f64>, String> {
    let config = &inp.config;
    let events: Vec<WireEvent> = wire_events(&inp.stream[..events]);
    let twin = in_process_summary_json(config, &events);
    let server = ServerProc::spawn()?;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut sends = Histogram::default();
    let (mut applied, mut reconnects) = (0u64, 0u64);
    let began = Instant::now();
    while more(own, traced.len(), 1, began) {
        for trace in [false, true] {
            let p = serve::pass(server.addr, config, &events, CLIENTS, trace)?;
            serve::check_pass(out, &p, &twin);
            let ns_per_event = p.wall.as_nanos() as f64 / events.len() as f64;
            if trace {
                traced.push(ns_per_event);
                for c in &p.clients {
                    sends.merge(&c.sends);
                }
            } else {
                untraced.push(ns_per_event);
            }
            for c in &p.clients {
                applied += c.applied;
                reconnects += c.reconnects;
            }
        }
    }
    let stats = server.shutdown()?;
    serve::check_server(out, &stats);
    out.check(
        stats.events_applied == applied,
        format!(
            "server applied {} events, health lines said {applied}",
            stats.events_applied
        ),
    );
    l.client_send_ns_p50 = sends.quantile(0.5);
    l.client_send_ns_p99 = sends.quantile(0.99);
    l.client_reconnects = reconnects as f64;
    l.server_events_applied = stats.events_applied as f64;
    l.server_events_shed = stats.events_shed as f64;
    l.server_frames_rejected = stats.frames_rejected as f64;
    l.server_panics_supervised = stats.panics_supervised as f64;
    l.serve_ns_per_event = median(&untraced);
    out.samples("service_sends", sends.count());
    out.samples("service_sends_beyond_p99", sends.beyond(0.99));
    out.samples("service_passes", (untraced.len() + traced.len()) as u64);
    Ok(overhead(own, &untraced, &traced))
}

/// `ClientFrame::encode` / `decode` of every event, timed per block.
fn frame_layer(out: &mut Outcome, l: &mut Layers, stream: &[StreamEvent]) -> Result<(), String> {
    let frames: Vec<ClientFrame> = wire_events(&stream[..FRAME_PROBE_EVENTS.min(stream.len())])
        .into_iter()
        .map(ClientFrame::Event)
        .collect();
    let n = frames.len() as f64;
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut bytes = 0usize;
    let mut mismatched = 0u64;
    for rep in 0..3 {
        let t = Instant::now();
        let encoded: Vec<Vec<u8>> = frames.iter().map(ClientFrame::encode).collect();
        enc.push(t.elapsed().as_nanos() as f64 / n);
        let t = Instant::now();
        for p in &encoded {
            std::hint::black_box(ClientFrame::decode(p).map_err(|e| format!("frame decode: {e}"))?);
        }
        dec.push(t.elapsed().as_nanos() as f64 / n);
        if rep == 0 {
            // Each frame also pays a 4-byte length prefix on the wire.
            bytes = encoded.iter().map(|p| p.len() + 4).sum();
            mismatched = encoded
                .iter()
                .zip(&frames)
                .filter(|(p, f)| ClientFrame::decode(p).as_ref() != Ok(*f))
                .count() as u64;
        }
    }
    out.attempt(frames.len() as u64);
    out.check(
        mismatched == 0,
        format!("{mismatched} frames did not round-trip"),
    );
    l.frame_encode_ns = median(&enc);
    l.frame_decode_ns = median(&dec);
    l.frame_bytes_per_event = bytes as f64 / n;
    out.samples("frame_events", frames.len() as u64);
    Ok(())
}

/// What one traced inline session pass measured.
struct SessionSpans {
    wall: f64,
    op_ns: f64,
    sync: Histogram,
    finish: Duration,
    reports: usize,
    clock_bytes: usize,
    json: String,
}

/// One inline session pass with a span around every run of consecutive
/// `observe` calls and around every sync call.
fn session_traced(config: &DetectorConfig, events: &[StreamEvent]) -> SessionSpans {
    let mut s = inproc::session(config);
    let mut sync = Histogram::default();
    let mut op_time = Duration::ZERO;
    let mut ops = 0usize;
    let t0 = Instant::now();
    let mut i = 0;
    while i < events.len() {
        let run = events[i..]
            .iter()
            .take_while(|e| matches!(e, StreamEvent::Op(_)))
            .count();
        if run > 0 {
            let t = Instant::now();
            for ev in &events[i..i + run] {
                inproc::apply(&mut s, ev);
            }
            op_time += t.elapsed();
            ops += run;
            i += run;
        } else {
            let t = Instant::now();
            inproc::apply(&mut s, &events[i]);
            sync.record_duration(t.elapsed());
            i += 1;
        }
    }
    let clock_bytes = s.clock_memory_bytes();
    let t = Instant::now();
    let (summary, _) = s.finish();
    let finish = t.elapsed();
    SessionSpans {
        wall: t0.elapsed().as_nanos() as f64,
        op_ns: op_time.as_nanos() as f64 / ops.max(1) as f64,
        sync,
        finish,
        reports: summary.total,
        clock_bytes,
        json: summary.to_json(),
    }
}

/// The session and detector layers: traced inline session passes, which
/// alternate with untraced ones on the `session-random` path.
fn session_layer(
    out: &mut Outcome,
    l: &mut Layers,
    inp: &Inputs,
    own: Option<Duration>,
) -> Option<f64> {
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut spans = Vec::new();
    let began = Instant::now();
    while more(own, spans.len(), 1, began) {
        if own.is_some() {
            let p = inproc::pass(&inp.config, &inp.stream);
            untraced.push(p.wall.as_nanos() as f64);
        }
        let s = session_traced(&inp.config, &inp.stream);
        traced.push(s.wall);
        spans.push(s);
    }
    let twin = {
        let events = wire_events(&inp.stream);
        in_process_summary_json(&inp.config, &events)
    };
    let first = &spans[0];
    out.attempt(inp.stream.len() as u64 * spans.len() as u64);
    out.check(
        spans
            .iter()
            .all(|s| s.json == twin && s.reports == first.reports),
        "traced session summary differs from the in-process summary",
    );
    let accesses = opstream::access_count(&inp.stream) as f64;
    let mut sync = Histogram::default();
    for s in &spans {
        sync.merge(&s.sync);
    }
    l.session_op_ns = median(&spans.iter().map(|s| s.op_ns).collect::<Vec<_>>());
    l.session_sync_ns = sync.mean();
    l.session_reports_per_access = first.reports as f64 / accesses;
    l.session_finish_ms = median(
        &spans
            .iter()
            .map(|s| s.finish.as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    );
    l.detector_clock_bytes = first.clock_bytes as f64;
    out.samples("session_passes", spans.len() as u64);
    out.samples("session_sync_calls", sync.count());
    overhead(own, &untraced, &traced)
}

/// `Session::checkpoint` every `CHECKPOINT_EVERY` events of an inline
/// session, as the server worker does.
fn snapshot_layer(out: &mut Outcome, l: &mut Layers, inp: &Inputs) -> Result<(), String> {
    let events = &inp.stream[..SNAPSHOT_PROBE_EVENTS.min(inp.stream.len())];
    let mut s = inproc::session(&inp.config);
    let mut took = Histogram::default();
    let mut bytes = 0usize;
    for (k, ev) in events.iter().enumerate() {
        inproc::apply(&mut s, ev);
        if (k + 1) % CHECKPOINT_EVERY == 0 {
            let t = Instant::now();
            let blob = s.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
            took.record_duration(t.elapsed());
            bytes = blob.len();
        }
    }
    let (summary, _) = s.finish();
    let twin = in_process_summary_json(&inp.config, &wire_events(events));
    out.check(
        summary.to_json() == twin,
        "checkpointing changed the session summary",
    );
    l.snapshot_checkpoint_ms_p50 = took.quantile(0.5) / 1e6;
    l.snapshot_checkpoint_ms_max = took.quantile(1.0) / 1e6;
    l.snapshot_checkpoint_bytes = bytes as f64;
    out.samples("checkpoints", took.count());
    Ok(())
}

/// The sharded layer: the stream through the threaded configuration with
/// a span around every call, alternating with untraced passes on the
/// `sharded-random` path.
fn sharded_layer(
    out: &mut Outcome,
    l: &mut Layers,
    inp: &Inputs,
    own: Option<Duration>,
) -> Option<f64> {
    let config = inp.config.clone().with_shards(2).with_batch(256);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut setups = Vec::new();
    let mut calls = Histogram::default();
    let mut jsons = Vec::new();
    let began = Instant::now();
    while more(own, traced.len(), 1, began) {
        if own.is_some() {
            let p = inproc::pass(&config, &inp.stream);
            untraced.push(p.wall.as_nanos() as f64);
        }
        let t = Instant::now();
        let mut s = inproc::session(&config);
        setups.push(t.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        for ev in &inp.stream {
            let t = Instant::now();
            inproc::apply(&mut s, ev);
            calls.record_duration(t.elapsed());
        }
        let (summary, _) = s.finish();
        traced.push(t0.elapsed().as_nanos() as f64);
        jsons.push(summary.to_json());
    }
    let inline = in_process_summary_json(&inp.config, &wire_events(&inp.stream));
    out.attempt(inp.stream.len() as u64 * jsons.len() as u64);
    out.check(
        jsons.iter().all(|j| *j == inline),
        "sharded summary differs from the inline session's",
    );
    l.sharded_observe_ns_p50 = calls.quantile(0.5);
    l.sharded_observe_ns_p99 = calls.quantile(0.99);
    l.sharded_setup_ms = median(&setups);
    out.samples("sharded_calls", calls.count());
    out.samples("sharded_calls_beyond_p99", calls.beyond(0.99));
    overhead(own, &untraced, &traced)
}

/// The engine and network layers: the simulated programs with dual-clock
/// detection and with `Vanilla` (no detection). On the `sim-random` path
/// the dual runs go on for `own`. Its untraced run already times
/// `Engine::new` and `Engine::run` apart and the traced run adds no other
/// span, so the overhead there compares alternate identical runs: it reads
/// the run-to-run noise.
fn engine_layer(
    out: &mut Outcome,
    l: &mut Layers,
    inp: &Inputs,
    seed: u64,
    own: Option<Duration>,
) -> Option<f64> {
    let w = &inp.programs;
    let dual = sim::sim_config(w.n, seed, DetectorKind::Dual);
    let vanilla = sim::sim_config(w.n, seed, DetectorKind::Vanilla);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut first: Option<simulator::RunResult> = None;
    let mut mismatched = 0u64;
    let began = Instant::now();
    while more(own, traced.len(), ENGINE_PROBE_RUNS, began) {
        if own.is_some() {
            let (_, ran, _) = sim::pass(&dual, w);
            untraced.push(ran.as_nanos() as f64);
        }
        let (_, ran, r) = sim::pass(&dual, w);
        traced.push(ran.as_nanos() as f64);
        out.attempt(w.data_ops() as u64);
        out.fail_ops(
            (r.errors.len() + r.stuck.len()) as u64,
            "engine errors or stuck ranks",
        );
        match &first {
            None => first = Some(r),
            Some(f) => mismatched += u64::from(f.deduped.len() != r.deduped.len()),
        }
    }
    let vanilla_runs: Vec<f64> = (0..ENGINE_PROBE_RUNS)
        .map(|_| {
            let (_, ran, r) = sim::pass(&vanilla, w);
            out.fail_ops(
                (r.errors.len() + r.stuck.len()) as u64,
                "engine errors or stuck ranks",
            );
            ran.as_secs_f64() * 1e3
        })
        .collect();
    l.engine_run_ms = median(&traced) / 1e6;
    l.engine_vanilla_run_ms = median(&vanilla_runs);
    if let Some(r) = &first {
        let ops = w.data_ops().max(1) as f64;
        l.net_msgs_per_op = r.stats.total_msgs() as f64 / ops;
        l.net_bytes_per_op = r.stats.total_bytes() as f64 / ops;
        l.net_detection_msgs_frac =
            r.stats.detection_msgs() as f64 / r.stats.total_msgs().max(1) as f64;
        if own.is_some() {
            sim::grade(out, r);
        }
    }
    out.check(
        mismatched == 0,
        format!("{mismatched} engine runs reported different races"),
    );
    out.samples("engine_runs", traced.len() as u64);
    overhead(own, &untraced, &traced)
}
