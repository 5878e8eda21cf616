//! `session-random` and `sharded-random`: the detector driven in-process
//! through `race_core::api::Session`, with no service.
//!
//! Both run the same unlocked random stream (`opstream::random`, n=8,
//! 4096 hot words, 25% writes) into a `SummarySink` session. The sharded
//! path adds `.with_shards(2).with_batch(256)`, which puts the threaded
//! router, the wire codec, the shard workers and the report merge on the
//! path. The outputs are checked against a `ReferenceHbDetector` run of
//! the same stream, made once per run after the timed passes.

use std::time::{Duration, Instant};

use dsm_bench::opstream::{self, StreamEvent};
use race_core::api::SummarySink;
use race_core::{DetectorConfig, DetectorKind, Granularity, HbMode, ReferenceHbDetector, Session};
use simulator::workloads::random_access::RandomSpec;

use crate::hist::Histogram;
use crate::report::{median, self_peak_rss_kib, Outcome};

/// Ranks of the random stream.
pub const RANKS: usize = 8;
/// Events per timed chunk: the in-process analogue of the served loop's
/// 256 events between pings.
pub const CHUNK: usize = 256;
/// Operations per rank of one pass's stream.
const OPS_PER_RANK: usize = 65_536;

/// Which in-process pipeline a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `DetectorConfig::new(Dual, 8)`: the sequential detector.
    Inline,
    /// The same with `.with_shards(2).with_batch(256)`.
    Sharded,
}

/// The detector configuration of `path`.
pub fn config(path: Path) -> DetectorConfig {
    let base = DetectorConfig::new(DetectorKind::Dual, RANKS);
    match path {
        Path::Inline => base,
        Path::Sharded => base.with_shards(2).with_batch(256),
    }
}

/// The random stream's parameters for `seed`.
pub fn spec(seed: u64, ops_per_rank: usize, hot_words: usize) -> RandomSpec {
    RandomSpec {
        n: RANKS,
        ops_per_rank,
        hot_words,
        p_write: 0.25,
        locked: false,
        seed,
    }
}

/// The stream of one pass for `seed` (524,288 events).
pub fn stream(seed: u64) -> Vec<StreamEvent> {
    opstream::random(spec(seed, OPS_PER_RANK, 4096))
}

/// Apply one stream event to a session; returns the reports it raised.
pub fn apply(session: &mut Session, ev: &StreamEvent) -> usize {
    match ev {
        StreamEvent::Op(op) => session.observe(op, &[]),
        StreamEvent::Barrier => {
            session.on_barrier();
            0
        }
        StreamEvent::Acquire { rank, lock } => {
            session.on_acquire(*rank, *lock);
            0
        }
        StreamEvent::Release { rank, lock } => {
            session.on_release(*rank, *lock);
            0
        }
    }
}

/// A fresh session of `config` streaming into a `SummarySink`.
pub fn session(config: &DetectorConfig) -> Session {
    config.session_with(Box::new(SummarySink::default()))
}

/// The reference detector's summary of `events`: `(report count, JSON)`.
pub fn reference(events: &[StreamEvent]) -> (usize, String) {
    let mut detector = ReferenceHbDetector::new(RANKS, Granularity::WORD, HbMode::Dual);
    let mut sink = SummarySink::default();
    opstream::drive_sink(&mut detector, &mut sink, events);
    let summary = sink.into_summary();
    (summary.total, summary.to_json())
}

/// What one pass produced.
pub struct PassResult {
    /// First event to the end of `finish`.
    pub wall: Duration,
    /// Apply time of each `CHUNK`-event chunk.
    pub chunks: Histogram,
    pub reports: usize,
    pub summary_json: String,
    pub degraded: bool,
}

/// Stream `events` once through a fresh session of `config`.
pub fn pass(config: &DetectorConfig, events: &[StreamEvent]) -> PassResult {
    let mut s = session(config);
    let mut chunks = Histogram::default();
    let t0 = Instant::now();
    for chunk in events.chunks(CHUNK) {
        let t = Instant::now();
        for ev in chunk {
            apply(&mut s, ev);
        }
        chunks.record_duration(t.elapsed());
    }
    let (summary, _) = s.finish();
    let wall = t0.elapsed();
    PassResult {
        wall,
        chunks,
        reports: summary.total,
        degraded: summary.degraded,
        summary_json: summary.to_json(),
    }
}

/// Session builds timed per run; `setup_s` is their median. A sharded
/// build spawns and joins worker threads, so it gets fewer trials.
fn setup_trials(path: Path) -> usize {
    match path {
        Path::Inline => 1001,
        Path::Sharded => 201,
    }
}

/// Median build time of `trials` sessions of `config`, in seconds.
pub fn setup_seconds(config: &DetectorConfig, trials: usize) -> f64 {
    let builds: Vec<f64> = (0..trials)
        .map(|_| {
            let t = Instant::now();
            let s = session(config);
            let took = t.elapsed().as_secs_f64();
            drop(s);
            took
        })
        .collect();
    median(&builds)
}

/// The untraced end-to-end run of `path`.
pub fn run(path: Path, seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let config = config(path);
    let events = stream(seed);

    let setup = setup_seconds(&config, setup_trials(path));
    // One untimed warm-up pass: caches fill and the allocator settles. Its
    // outputs are the ones every timed pass must repeat.
    let warm = pass(&config, &events);
    out.attempt(events.len() as u64);
    out.check(!warm.degraded, "session summary degraded");
    let (reports, json) = (warm.reports, warm.summary_json);
    let mut rates = Vec::new();
    let mut chunks = Histogram::default();
    let mut mismatched = 0u64;
    let began = Instant::now();
    while rates.is_empty() || began.elapsed() < budget {
        let p = pass(&config, &events);
        out.attempt(events.len() as u64);
        out.check(!p.degraded, "session summary degraded");
        rates.push(events.len() as f64 / p.wall.as_secs_f64());
        chunks.merge(&p.chunks);
        mismatched += u64::from(p.reports != reports || p.summary_json != json);
    }
    let rss = self_peak_rss_kib();

    // Output checks, outside every timed region.
    out.check(
        mismatched == 0,
        format!("{mismatched} passes disagreed with the warm-up pass"),
    );
    let (ref_reports, ref_json) = reference(&events);
    out.check(
        reports == ref_reports,
        format!("{reports} reports, reference has {ref_reports}"),
    );
    out.check(
        json == ref_json,
        "summary JSON differs from the reference detector's",
    );
    out.check(reports > 0, "unlocked random traffic must race");

    out.metric("setup_s", setup, "s");
    out.metric("throughput_per_s", median(&rates), "1/s");
    out.metric("latency_p50_ms", chunks.quantile(0.5) / 1e6, "ms");
    out.metric("latency_p99_ms", chunks.quantile(0.99) / 1e6, "ms");
    out.metric("peak_rss_mb", rss as f64 / 1024.0, "MiB");
    out.samples("setup_trials", setup_trials(path) as u64);
    out.samples("passes", rates.len() as u64);
    out.samples("chunks", chunks.count());
    out.samples("chunks_beyond_p99", chunks.beyond(0.99));
    out.samples("events_per_pass", events.len() as u64);
    out.samples("reports_per_pass", reports as u64);
    out
}
