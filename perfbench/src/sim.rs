//! `sim-random`: simulated runs through the discrete-event engine, the path
//! the `repro` tables, `--scenarios`, `--chaos` and `--analyze` all take.
//!
//! Each pass is `Engine::new(SimConfig::debugging(8).with_seed(seed),
//! random_access::generate(n=8, ops_per_rank=2048, hot_words=256,
//! p_write=0.25, seed))` followed by `Engine::run`. Every pass of a run
//! must report the same races; once per run, outside timing, the `Oracle`
//! grades the dual-clock run.

use std::time::{Duration, Instant};

use race_core::{DetectorKind, Oracle};
use simulator::workloads::{random_access, Workload};
use simulator::{Engine, RunResult, SimConfig};

use crate::hist::Histogram;
use crate::inproc;
use crate::report::{median, self_peak_rss_kib, Outcome};

/// Operations per rank of the simulated workload.
pub const OPS_PER_RANK: usize = 2048;
/// Shared words of the simulated workload.
pub const HOT_WORDS: usize = 256;

/// The simulated workload for `seed`.
pub fn workload(seed: u64) -> Workload {
    random_access::generate(inproc::spec(seed, OPS_PER_RANK, HOT_WORDS))
}

/// The engine configuration for `n` ranks, `seed` and detector `kind`.
pub fn sim_config(n: usize, seed: u64, kind: DetectorKind) -> SimConfig {
    SimConfig::debugging(n).with_seed(seed).with_detector(kind)
}

/// One pass: `(Engine::new time, Engine::run time, result)`.
pub fn pass(cfg: &SimConfig, w: &Workload) -> (Duration, Duration, RunResult) {
    let programs = w.programs.clone();
    let t = Instant::now();
    let engine = Engine::new(cfg.clone(), programs);
    let built = t.elapsed();
    let t = Instant::now();
    let result = engine.run();
    (built, t.elapsed(), result)
}

/// The untraced end-to-end run.
pub fn run(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let w = workload(seed);
    let cfg = sim_config(w.n, seed, DetectorKind::Dual);
    let ops = w.data_ops() as f64;

    // One untimed warm-up run; every timed run must repeat its reports.
    let (_, _, first) = pass(&cfg, &w);
    out.attempt(w.data_ops() as u64);
    out.fail_ops(
        (first.errors.len() + first.stuck.len()) as u64,
        "engine errors or stuck ranks",
    );
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut runs = Histogram::default();
    let mut mismatched = 0u64;
    let began = Instant::now();
    while rates.is_empty() || began.elapsed() < budget {
        let (built, ran, r) = pass(&cfg, &w);
        setups.push(built.as_secs_f64());
        rates.push(ops / ran.as_secs_f64());
        runs.record_duration(ran);
        out.attempt(w.data_ops() as u64);
        out.fail_ops(
            (r.errors.len() + r.stuck.len()) as u64,
            "engine errors or stuck ranks",
        );
        mismatched += u64::from(
            r.reports.len() != first.reports.len() || r.deduped.len() != first.deduped.len(),
        );
    }
    let rss = self_peak_rss_kib();

    out.check(
        mismatched == 0,
        format!("{mismatched} runs reported different races for one seed"),
    );
    grade(&mut out, &first);

    out.metric("setup_s", median(&setups), "s");
    out.metric("throughput_per_s", median(&rates), "1/s");
    out.metric("latency_p50_ms", runs.quantile(0.5) / 1e6, "ms");
    out.metric("latency_p99_ms", runs.quantile(0.99) / 1e6, "ms");
    out.metric("peak_rss_mb", rss as f64 / 1024.0, "MiB");
    out.samples("runs", runs.count());
    out.samples("runs_beyond_p99", runs.beyond(0.99));
    out.samples("data_ops_per_run", w.data_ops() as u64);
    out.samples("reports_per_run", first.deduped.len() as u64);
    out
}

/// The oracle's verdict on a dual-clock run: no false-positive pairs and
/// every racy site found.
pub fn grade(out: &mut Outcome, r: &RunResult) {
    let oracle = Oracle::analyze(&r.trace);
    let pairs = oracle.score(&r.deduped);
    let sites = oracle.site_score(&r.deduped);
    out.check(
        pairs.false_positives == 0,
        format!("oracle: {} false-positive pairs", pairs.false_positives),
    );
    out.check(
        sites.recall() == 1.0,
        format!("oracle: site recall {}", sites.recall()),
    );
    out.check(!r.deduped.is_empty(), "unlocked random traffic must race");
}
