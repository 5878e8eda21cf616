//! Allocation regression guard for the engine's per-op bookkeeping.
//!
//! A counting global allocator tallies heap allocations made by the test
//! thread while `Engine::run` executes a dual-clock `random_access` run.
//! The count is deterministic for a seed (the engine is single-threaded
//! and the inline detector spawns nothing), so the bound is exact rather
//! than statistical: a plan, a step, a clock payload or a memory read that
//! starts allocating again shows up as several allocations per data op.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use race_core::DetectorKind;
use simulator::workloads::random_access::{self, RandomSpec};
use simulator::{Engine, SimConfig};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator may run while the thread-local is being
    // torn down at thread exit.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations made by `Engine::run` alone (construction excluded) on the
/// benchmark's simulated workload, and its data-op count.
fn run_allocs(seed: u64) -> (u64, usize) {
    let w = random_access::generate(RandomSpec {
        n: 8,
        ops_per_rank: 2048,
        hot_words: 256,
        p_write: 0.25,
        locked: false,
        seed,
    });
    let cfg = SimConfig::debugging(w.n)
        .with_seed(seed)
        .with_detector(DetectorKind::Dual);
    let engine = Engine::new(cfg, w.programs.clone());
    let before = allocs();
    let r = engine.run();
    let used = allocs() - before;
    assert!(r.errors.is_empty() && r.stuck.is_empty());
    (used, w.data_ops())
}

#[test]
fn engine_run_allocates_at_most_eight_times_per_data_op() {
    let (used, ops) = run_allocs(1);
    assert_eq!(ops, 8 * 2048);
    let per_op = used as f64 / ops as f64;
    eprintln!("Engine::run: {used} allocations, {per_op:.2} per data op");
    assert!(
        used <= 8 * ops as u64,
        "{used} allocations for {ops} data ops ({per_op:.1} per op)"
    );
}

#[test]
fn allocation_count_is_deterministic_per_seed() {
    assert_eq!(run_allocs(2).0, run_allocs(2).0);
}
