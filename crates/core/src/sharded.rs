//! Sharded parallel detection: the per-area check-and-update fanned out
//! over worker threads, with a byte-identical report stream.
//!
//! The paper keeps two clocks *per memory area* (§IV-A), which makes areas
//! natural shard keys: the expensive part of detection — the Algorithm-3
//! antichain scans and the Algorithm-5 clock updates — touches exactly one
//! area, and areas are disjoint. [`ShardedDetector`] exploits this:
//!
//! ```text
//!            ┌───────────── router (sequential) ─────────────┐
//!  MemOp ──▶ │ tick actor clock · read-absorb · sync events   │
//!            │ hash(area) → shard, epoch-delta clock encoding │
//!            └──────┬──────────────┬──────────────┬───────────┘
//!         recycled  ▼              ▼              ▼   batch buffers
//!             shard 0        shard 1        shard k-1     (OS threads)
//!             own ClockStore own ClockStore own ClockStore
//!             check+update   check+update   check+update
//!                   └──────────────┴──────────────┘
//!                                  ▼
//!                   k-way merge of key-sorted report logs
//! ```
//!
//! **Router (sequential).** Per-process state couples areas: every op ticks
//! its actor's matrix clock, and a *read* absorbs the area's write clock
//! into the reader (§IV-B — the get reply carries the clock). The router
//! therefore owns the actor clocks and replays exactly the sequential
//! detector's clock evolution, using lightweight per-area *join replicas*
//! (`JoinClock`: the epoch trick of [`vclock::AreaClock`], reconstructing
//! event clocks from per-actor generation-base snapshots instead of
//! resolving through antichains). Barriers and lock hand-offs only touch
//! actor clocks, so they are router-local too.
//!
//! **Zero-copy transport.** Routed accesses travel in preallocated
//! `ShardItem` batch buffers that cycle router → shard → router through a
//! recycle channel, so the steady state allocates nothing per batch. Access
//! clocks use the epoch-delta encoding of [`crate::wire`]: a shared
//! generation-base snapshot crosses the thread boundary only when the
//! actor's clock changed in a non-own component since the last send to
//! that shard (sync events); otherwise the wire carries a one-word
//! `(count)` delta — or nothing at all for further accesses of the same op
//! — that the shard applies to its cached copy. The dominant per-access
//! costs of the naive transport (cross-thread `Arc` refcount traffic and
//! cache misses on router-owned clock data) disappear; see the `wire`
//! module docs for the protocol.
//!
//! A single-shard detector skips all of this: `new(.., 1)` runs the
//! check-and-update inline on the caller thread (see
//! [`ShardedDetector::new`]).
//!
//! **Shards (parallel).** Everything per-area — slab lookup, happens-before
//! guards, antichain race scan, history recording — runs on worker threads,
//! each owning the [`ClockStore`] slab set for the areas that hash to it.
//! Work is streamed in chunks while the router is still routing, so router
//! and shards overlap.
//!
//! **Determinism.** Each routed access carries a key `(op sequence, access
//! slot, block, report index)` that totally orders reports exactly as the
//! sequential [`crate::HbDetector`] emits them (ops in order; within an op the
//! read side before the write side; within an access, blocks ascending;
//! within a block, antichain order). Each shard's log is emitted already
//! sorted by that key (items arrive in routing order), so the fence runs a
//! k-way merge over the per-shard replies — no re-sort — and the final
//! stream is **byte-identical** to the single-shard detector's. The
//! differential property tests in `tests/differential.rs` enforce this
//! against both [`crate::HbDetector`] and [`crate::ReferenceHbDetector`].

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use dsm::addr::{MemRange, Segment};
use vclock::{MatrixClock, VectorClock};

use crate::api::{ReportSink, VecSink};
use crate::clockstore::{AreaKey, ClockStore, Granularity, StoreConfig};
use crate::detector::Detector;
use crate::error::{DetectError, PipelineHealth, RetryPolicy};
use crate::event::{AccessKind, AccessSummary, DsmOp, LockId};
use crate::hb::{acquire_clock, barrier_join, check_access, release_clock, HbDetector, HbMode};
use crate::report::RaceReport;
use crate::wire::{ClockCache, ClockEncoder, ClockWire};
use crate::Rank;

/// One element of a batched detection stream: an operation or a
/// synchronisation event, in program order.
///
/// The batched pipeline must see sync events *in sequence* with the
/// operations (a barrier orders everything before it against everything
/// after), so backends that buffer ops buffer these alongside. `Copy`: the
/// whole event is a few plain words, so buffering never touches the heap.
#[derive(Debug, Clone, Copy)]
pub enum MemOp {
    /// A DSM operation (put/get/local/atomic accesses).
    Op(DsmOp),
    /// A barrier completed among all ranks.
    Barrier,
    /// `rank` acquired program lock `lock` (after someone's release).
    Acquire {
        /// Acquiring process.
        rank: Rank,
        /// The program lock.
        lock: LockId,
    },
    /// `rank` released program lock `lock`.
    Release {
        /// Releasing process.
        rank: Rank,
        /// The program lock.
        lock: LockId,
    },
}

/// Items per chunk streamed to a shard while routing (keeps workers busy
/// before the batch is fully routed).
const SHARD_CHUNK: usize = 512;

/// Effective streaming threshold: mid-batch streaming overlaps router and
/// workers, which is pure overhead (one context-switch pair per chunk) when
/// the host cannot run a worker beside the router. On single-core hosts
/// everything ships at the fence instead; buffers grow past [`SHARD_CHUNK`]
/// but are recycled with their capacity. Either way the buffer population
/// is bounded: fence-only shipping keeps exactly one buffer per shard, and
/// mid-batch shipping adds at most the chunks one batch has in flight.
fn stream_threshold() -> usize {
    match std::thread::available_parallelism() {
        Ok(cores) if cores.get() > 1 => SHARD_CHUNK,
        _ => usize::MAX,
    }
}

/// Totally orders reports as the sequential detector emits them:
/// `(op sequence, access slot within op, block within access, report index
/// within (op, access, block))`.
type ReportKey = (u64, u8, usize, u32);

/// One access routed to a shard: the flat access fields plus the
/// epoch-delta-encoded clock — no shared state with the router except the
/// rare [`ClockWire::Rebase`] base snapshot.
struct ShardItem {
    seq: u64,
    slot: u8,
    kind: AccessKind,
    atomic: bool,
    /// `W-join ≤ access clock`, computed once by the router against its
    /// join replica — which represents exactly the value of the shard's
    /// authoritative write clock, so the shard reuses it instead of
    /// re-running the compare (an O(n) sweep on demoted areas).
    w_le: bool,
    id: u64,
    process: Rank,
    range: MemRange,
    area: AreaKey,
    clock: ClockWire,
}

enum ToShard {
    Items(Vec<ShardItem>),
    Flush,
    /// On-demand accounting: reply with the O(touched)-to-compute epoch
    /// census, which is deliberately *not* piggybacked on every `Flush`
    /// (the per-op `Detector` path fences per access and must stay O(1)
    /// in the number of touched areas).
    CountEpochs,
    /// Chaos instrumentation: panic on receipt, exactly as a bug in the
    /// check-and-update would. Used by the fault-injection tests to
    /// exercise the supervisor (see [`ShardedDetector::inject_worker_panic`]).
    Poison,
}

struct ShardReply {
    reports: Vec<(ReportKey, RaceReport)>,
    clock_bytes: usize,
    touched: usize,
    /// Present only in replies to [`ToShard::CountEpochs`].
    epoch_areas: Option<usize>,
}

/// The router's replica of one area clock join — [`vclock::AreaClock`]'s
/// adaptive representation, but self-contained: the `Epoch` state keeps the
/// dominating event as `(rank, count)` plus the actor's **generation base**
/// (the once-per-sync-generation row snapshot, shared by every area the
/// actor writes in that generation). Since non-own components are frozen
/// within a generation, the event's full clock is exactly "base with the
/// own component raised to `count`" — so promotion costs two words and a
/// refcount, never a row clone.
///
/// The represented value always equals the authoritative area clock held by
/// the owning shard: both are the join of the same access clocks, updated
/// by the same promote/demote rules.
#[derive(Debug, Clone, Default)]
enum JoinClock {
    /// Nothing recorded: the zero clock.
    #[default]
    Bottom,
    /// The join equals this one event's clock (totally ordered so far):
    /// non-own components from `base`, own component `count`.
    Epoch {
        rank: Rank,
        count: u64,
        base: Arc<VectorClock>,
    },
    /// Concurrent events recorded: the dense component-wise join.
    Vector(VectorClock),
}

impl JoinClock {
    /// `join ≤ c` — O(1) in `Bottom`/`Epoch`, O(n) in `Vector`.
    #[inline]
    fn leq(&self, c: &VectorClock) -> bool {
        match self {
            JoinClock::Bottom => true,
            JoinClock::Epoch { rank, count, .. } => *count <= c.get(*rank),
            JoinClock::Vector(v) => v.leq(c),
        }
    }

    /// Merge the join into `dst` (the read-absorb of Algorithm 4).
    fn merge_into(&self, dst: &mut VectorClock) {
        match self {
            JoinClock::Bottom => {}
            JoinClock::Epoch { rank, count, base } => {
                dst.merge(base);
                if *count > dst.get(*rank) {
                    dst.set(*rank, *count);
                }
            }
            JoinClock::Vector(v) => dst.merge(v),
        }
    }

    /// Record the write event `(rank, count, base)` into the join —
    /// `base` being `rank`'s current generation base, so the event's clock
    /// is base-with-own-raised-to-`count`. The caller has already computed
    /// `join ≤ event clock` as `le` (the same guard it shares with the
    /// absorb decision): promotion is O(1), demotion materialises the dense
    /// join once.
    fn record(&mut self, rank: Rank, count: u64, base: &Arc<VectorClock>, le: bool) {
        if le {
            *self = JoinClock::Epoch {
                rank,
                count,
                base: Arc::clone(base),
            };
            return;
        }
        match self {
            JoinClock::Bottom => unreachable!("bottom precedes every clock"),
            JoinClock::Epoch {
                rank: r0,
                count: c0,
                base: b0,
            } => {
                // Demote: materialise the old event's clock, merge the new.
                let mut v = (**b0).clone();
                if *c0 > v.get(*r0) {
                    v.set(*r0, *c0);
                }
                v.merge(base);
                if count > v.get(rank) {
                    v.set(rank, count);
                }
                *self = JoinClock::Vector(v);
            }
            JoinClock::Vector(v) => {
                v.merge(base);
                if count > v.get(rank) {
                    v.set(rank, count);
                }
            }
        }
    }
}

/// The `(V, W)` join replicas for one area.
#[derive(Debug, Default)]
struct AreaJoins {
    v: JoinClock,
    w: JoinClock,
}

/// Per-rank join storage, same flat-slab layout as [`ClockStore`] (dense
/// direct-indexed prefix, spillover map for pathological high blocks),
/// sharing the detector's [`StoreConfig`] dense bound.
#[derive(Debug, Default)]
struct JoinSlab {
    dense: Vec<Option<AreaJoins>>,
    sparse: HashMap<usize, AreaJoins>,
}

#[derive(Debug)]
struct JoinStore {
    slabs: Vec<JoinSlab>,
    /// Dense-prefix bound, fixed at construction (same hazard-avoidance as
    /// [`ClockStore`]: a per-call bound could place one area on both sides
    /// of the dense/spillover split).
    dense_blocks: usize,
}

impl JoinStore {
    fn new(config: StoreConfig) -> Self {
        JoinStore {
            slabs: Vec::new(),
            dense_blocks: config.dense_blocks,
        }
    }

    fn get_mut(&mut self, key: AreaKey) -> &mut AreaJoins {
        if key.rank >= self.slabs.len() {
            self.slabs.resize_with(key.rank + 1, JoinSlab::default);
        }
        let slab = &mut self.slabs[key.rank];
        if key.block < self.dense_blocks {
            if key.block >= slab.dense.len() {
                slab.dense.resize_with(key.block + 1, || None);
            }
            slab.dense[key.block].get_or_insert_with(AreaJoins::default)
        } else {
            slab.sparse.entry(key.block).or_default()
        }
    }
}

/// `area → shard` routing: a multiplicative hash of `(rank, block)` so
/// neighbouring blocks spread across shards, reduced to the shard range by
/// the multiply-shift trick (`(h × shards) >> 64`) — no hardware divide on
/// the per-access path. Deterministic — the partition is part of the
/// detector's observable state (per-shard memory accounting).
#[inline]
fn shard_of(area: AreaKey, shards: usize) -> usize {
    let h = (area.rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (area.block as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    let h = h.wrapping_mul(0x2545_F491_4F6C_DD1D);
    ((h as u128 * shards as u128) >> 64) as usize
}

struct Worker {
    tx: Option<Sender<ToShard>>,
    rx: Receiver<ShardReply>,
    /// Joining yields the worker's panic message, if it panicked: the
    /// spawn wrapper runs the loop under `catch_unwind` and returns the
    /// stringified payload instead of propagating the unwind.
    handle: Option<JoinHandle<Option<String>>>,
}

/// Stringify a panic payload recovered from a supervised worker.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// The per-shard worker loop: owns this shard's [`ClockStore`] and runs the
/// authoritative check-and-update for every area that hashes here. Consumed
/// batch buffers go back to the router through `recycle` instead of being
/// dropped, closing the allocation-free loop.
fn shard_worker(
    mode: HbMode,
    n: usize,
    granularity: Granularity,
    config: StoreConfig,
    rx: Receiver<ToShard>,
    tx: Sender<ShardReply>,
    recycle: Sender<Vec<ShardItem>>,
) {
    let mut store = ClockStore::with_config(n, granularity, mode != HbMode::Single, config);
    let mut cache = ClockCache::new(n);
    let mut pending: Vec<(ReportKey, RaceReport)> = Vec::new();
    let mut scratch: Vec<RaceReport> = Vec::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            ToShard::Items(mut items) => {
                for item in items.drain(..) {
                    // Rebuild the access clock from the delta stream; the
                    // resulting Arc lives and dies on this thread.
                    let clock = cache.apply(item.process, item.clock);
                    let access = AccessSummary {
                        id: item.id,
                        process: item.process,
                        kind: item.kind,
                        range: item.range,
                        clock,
                        atomic: item.atomic,
                    };
                    let hist = store.history_mut(item.area);
                    // Same guard-once discipline as HbDetector::observe; the
                    // W guard rides the item (the router computed it against
                    // the join replica, which represents the same value).
                    let w_le = item.w_le;
                    debug_assert_eq!(w_le, hist.w.leq(&access.clock));
                    let v_le = hist.v.leq(&access.clock);
                    check_access(mode, hist, &access, item.area, w_le, v_le, &mut scratch);
                    for (sub, report) in scratch.drain(..).enumerate() {
                        let key = (item.seq, item.slot, item.area.block, sub as u32);
                        pending.push((key, report));
                    }
                    match item.kind {
                        AccessKind::Write => hist.record_write_hinted(access, v_le, w_le),
                        AccessKind::Read => hist.record_read_hinted(access, v_le),
                    }
                }
                // Hand the emptied buffer back for reuse (the router may
                // already be gone during teardown — then it just drops).
                let _ = recycle.send(items);
            }
            ToShard::Flush => {
                let reply = ShardReply {
                    reports: std::mem::take(&mut pending),
                    clock_bytes: store.clock_memory_bytes(),
                    touched: store.touched_areas(),
                    epoch_areas: None,
                };
                if tx.send(reply).is_err() {
                    break; // detector dropped mid-flush
                }
            }
            ToShard::CountEpochs => {
                let reply = ShardReply {
                    reports: Vec::new(),
                    clock_bytes: store.clock_memory_bytes(),
                    touched: store.touched_areas(),
                    epoch_areas: Some(store.epoch_areas()),
                };
                if tx.send(reply).is_err() {
                    break;
                }
            }
            // `resume_unwind` rather than `panic!`: the unwind is caught by
            // the spawn wrapper either way, but resuming skips the global
            // panic hook, so injected deaths do not spray backtraces over
            // test output.
            ToShard::Poison => {
                std::panic::resume_unwind(Box::new("injected shard poison".to_string()))
            }
        }
    }
}

/// K-way merge of per-shard report logs — each already sorted by
/// [`ReportKey`] — into `out`, preserving the sequential emission order.
/// Keys are globally unique (one per `(op, slot, block, index)`), so the
/// merge is deterministic; reports reach the sink by value, in emission
/// order, exactly as the sequential detector hands them over. Returns the
/// number of reports merged. O(total · k) head compares with tiny `k`, no
/// intermediate buffer, and the common single-source case is a plain loop.
fn merge_sorted_reports(
    replies: Vec<Vec<(ReportKey, RaceReport)>>,
    out: &mut dyn ReportSink,
) -> usize {
    debug_assert!(replies
        .iter()
        .all(|r| r.windows(2).all(|w| w[0].0 < w[1].0)));
    match replies.len() {
        0 => 0,
        1 => {
            let only = replies.into_iter().next().expect("one reply");
            let total = only.len();
            for (_, report) in only {
                out.accept(report);
            }
            total
        }
        _ => {
            let total = replies.iter().map(Vec::len).sum();
            let mut tails: Vec<_> = replies.into_iter().map(Vec::into_iter).collect();
            let mut heads: Vec<Option<(ReportKey, RaceReport)>> =
                tails.iter_mut().map(Iterator::next).collect();
            loop {
                let mut best: Option<(usize, ReportKey)> = None;
                for (i, head) in heads.iter().enumerate() {
                    if let Some((key, _)) = head {
                        if best.is_none_or(|(_, b)| *key < b) {
                            best = Some((i, *key));
                        }
                    }
                }
                let Some((i, _)) = best else { break };
                let (_, report) = heads[i].take().expect("best head present");
                out.accept(report);
                heads[i] = tails[i].next();
            }
            total
        }
    }
}

/// The clock-based detector with its per-area work partitioned across `k`
/// worker threads (see the module docs for the pipeline).
///
/// **Degenerate single-shard case.** One shard has no parallelism to buy,
/// so [`ShardedDetector::new`] with `shards == 1` runs the whole
/// check-and-update inline on the caller thread — the sequential detector
/// behind the batch API, with zero transport cost (the same convention as
/// every work-distribution runtime: never pay fan-out for a fleet of one).
/// The report stream is identical either way; benchmarks that want to
/// measure the threaded transport at one shard use
/// [`ShardedDetector::threaded`].
///
/// Construction spawns the workers (none for the inline case); they live
/// until the detector is dropped. [`ShardedDetector::observe_batch`] is the
/// intended entry point; the [`Detector`] impl routes single ops by
/// reference — no buffering, no clone — but still pays a full
/// fan-out/fan-in round trip per call on the threaded pipeline; batch when
/// you can.
///
/// ```
/// use dsm::GlobalAddr;
/// use race_core::sharded::{MemOp, ShardedDetector};
/// use race_core::{DsmOp, Granularity, HbMode, OpKind};
///
/// let mut det = ShardedDetector::new(3, Granularity::WORD, HbMode::Dual, 2);
/// // Fig 5a: P0 and P2 put to the same word of P1's memory, unsynchronised.
/// let dst = GlobalAddr::public(1, 0).range(8);
/// let batch: Vec<MemOp> = [0usize, 2]
///     .iter()
///     .enumerate()
///     .map(|(i, &actor)| {
///         MemOp::Op(DsmOp {
///             op_id: i as u64,
///             actor,
///             kind: OpKind::Put {
///                 src: GlobalAddr::private(actor, 0).range(8),
///                 dst,
///             },
///         })
///     })
///     .collect();
/// assert_eq!(det.observe_batch(&batch), 1); // exactly one write-write race
/// ```
pub struct ShardedDetector {
    pipeline: Pipeline,
    /// The legacy keep-everything log, fed only by the sink-less entry
    /// points ([`Detector::observe`] / [`ShardedDetector::observe_batch`]).
    log: VecSink,
    /// The failure that degraded this detector, if any. Set exactly once:
    /// after the threaded pipeline falls back inline there is nothing left
    /// to die.
    last_error: Option<DetectError>,
}

enum Pipeline {
    /// `shards == 1`: the sequential detector run inline — no worker
    /// thread, no transport, no join replicas (the authoritative store is
    /// right here, so the read-absorb needs no replica).
    Inline(Box<crate::hb::HbDetector>),
    /// `shards >= 2`: router + worker threads over the zero-copy transport.
    Threaded(Box<Threaded>),
}

/// The threaded pipeline: router state plus worker handles.
struct Threaded {
    mode: HbMode,
    granularity: Granularity,
    n: usize,
    /// One matrix clock per process (§IV-B) — router-owned.
    clocks: Vec<MatrixClock>,
    /// Per-actor sync generation: bumped whenever the actor's clock may
    /// have changed in a non-own component (read-absorb, barrier, lock
    /// acquire). The delta encoding is valid exactly while it is stable.
    sync_gen: Vec<u64>,
    /// Per-actor generation base: a row snapshot taken once per sync
    /// generation (lazily, at the first op that needs it). Within a
    /// generation only the own component moves, so `base` + an own-count
    /// reconstructs any event clock — the join replicas and the wire's
    /// [`ClockWire::Rebase`] both lean on this instead of per-op clones.
    bases: Vec<Arc<VectorClock>>,
    /// Generation each [`ShardedDetector::bases`] entry was taken in.
    base_gens: Vec<u64>,
    /// Router-side `(V, W)` join replicas (see [`JoinClock`]).
    joins: JoinStore,
    /// Clock snapshots taken at program-lock releases (grant carries them).
    lock_clocks: HashMap<LockId, VectorClock>,
    /// Scratch clock for the read-absorb merge, reused across ops.
    absorb: VectorClock,
    /// Global operation sequence across all batches (orders the merge).
    seq: u64,
    /// Per-shard outgoing chunks being filled.
    buffers: Vec<Vec<ShardItem>>,
    /// Chunk size that triggers a mid-batch ship (see [`stream_threshold`]).
    chunk: usize,
    /// Per-shard epoch-delta encoder state (see [`crate::wire`]).
    encoders: Vec<ClockEncoder>,
    /// Emptied batch buffers recovered from the workers, ready for reuse.
    pool: Vec<Vec<ShardItem>>,
    /// Workers return consumed buffers here (all share one sender side).
    recycle_rx: Receiver<Vec<ShardItem>>,
    workers: Vec<Worker>,
    /// Per-shard accounting, refreshed at every batch fence.
    shard_clock_bytes: Vec<usize>,
    shard_touched: Vec<usize>,
    /// The store layout every shard was built with, kept so the supervisor
    /// can rebuild an equivalent inline detector after a worker death.
    store: StoreConfig,
    /// Every event ever routed, in order — the supervisor's recovery
    /// journal. On a worker death the whole history replays through a
    /// fresh inline detector, which regenerates the already-delivered
    /// prefix of the report stream ([`Threaded::emitted`] reports, skipped)
    /// and everything the dead pipeline still owed. The journal grows with
    /// the stream: that unbounded memory is the price of byte-exact
    /// recovery, documented in `docs/ROBUSTNESS.md`.
    journal: Vec<MemOp>,
    /// Reports already merged into caller-visible sinks at past fences —
    /// the skip prefix for a recovery replay.
    emitted: usize,
    /// Backoff schedule for distinguishing slow workers from dead ones at
    /// the fence (see [`RetryPolicy`]).
    retry: RetryPolicy,
}

impl ShardedDetector {
    /// A detector for `n` processes at `granularity`, partitioned over
    /// `shards` worker threads, with the default clock-store layout. One
    /// shard runs inline (see the type docs).
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn new(n: usize, granularity: Granularity, mode: HbMode, shards: usize) -> Self {
        ShardedDetector::with_config(n, granularity, mode, shards, StoreConfig::default())
    }

    /// [`ShardedDetector::new`] with an explicit [`StoreConfig`], applied
    /// to every shard's [`ClockStore`] and to the router's join replicas.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn with_config(
        n: usize,
        granularity: Granularity,
        mode: HbMode,
        shards: usize,
        store: StoreConfig,
    ) -> Self {
        assert!(shards > 0, "at least one shard");
        let pipeline = if shards == 1 {
            Pipeline::Inline(Box::new(crate::hb::HbDetector::with_config(
                n,
                granularity,
                mode,
                store,
            )))
        } else {
            Pipeline::Threaded(Box::new(Threaded::new(
                n,
                granularity,
                mode,
                shards,
                store,
                stream_threshold(),
            )))
        };
        ShardedDetector {
            pipeline,
            log: VecSink::new(),
            last_error: None,
        }
    }

    /// Always-threaded construction, even at one shard — the degenerate
    /// configuration benchmarks use to measure the transport itself
    /// (`ShardedDetector::new` runs a single shard inline instead, which is
    /// what production callers want).
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn threaded(
        n: usize,
        granularity: Granularity,
        mode: HbMode,
        shards: usize,
        store: StoreConfig,
    ) -> Self {
        assert!(shards > 0, "at least one shard");
        ShardedDetector {
            pipeline: Pipeline::Threaded(Box::new(Threaded::new(
                n,
                granularity,
                mode,
                shards,
                store,
                stream_threshold(),
            ))),
            log: VecSink::new(),
            last_error: None,
        }
    }

    /// Rebuild from a restored inline detector (the snapshot codec's
    /// restore path, see [`crate::snapshot`]). Restored sessions always run
    /// the inline pipeline regardless of the config's shard count: the two
    /// pipelines are report-stream byte-identical by construction, so this
    /// is a performance trade, never a correctness one.
    pub(crate) fn from_restored(hb: Box<crate::hb::HbDetector>) -> Self {
        ShardedDetector {
            pipeline: Pipeline::Inline(hb),
            log: VecSink::new(),
            last_error: None,
        }
    }

    /// Number of worker shards (1 for the inline pipeline).
    pub fn shards(&self) -> usize {
        match &self.pipeline {
            Pipeline::Inline(_) => 1,
            Pipeline::Threaded(t) => t.workers.len(),
        }
    }

    /// True when the degenerate single shard runs inline on the caller
    /// thread (no worker, no transport).
    pub fn is_inline(&self) -> bool {
        matches!(self.pipeline, Pipeline::Inline(_))
    }

    /// The actor's current vector clock (parity tests and traces).
    pub fn process_clock(&self, rank: Rank) -> &VectorClock {
        match &self.pipeline {
            Pipeline::Inline(hb) => hb.process_clock(rank),
            Pipeline::Threaded(t) => t.clocks[rank].own_row(),
        }
    }

    /// Touched areas summed over all shards (accounting parity with
    /// [`ClockStore::touched_areas`]).
    pub fn touched_areas(&self) -> usize {
        match &self.pipeline {
            Pipeline::Inline(hb) => hb.store().touched_areas(),
            Pipeline::Threaded(t) => t.shard_touched.iter().sum(),
        }
    }

    /// Areas currently in the O(1) epoch representation, summed over
    /// shards. On the threaded pipeline this costs one accounting round
    /// trip per shard plus an O(touched-areas) census on each —
    /// instrumentation for tests and benches, kept off the fence path on
    /// purpose.
    pub fn epoch_areas(&mut self) -> usize {
        let res = match &mut self.pipeline {
            Pipeline::Inline(hb) => return hb.store().epoch_areas(),
            Pipeline::Threaded(t) => t.epoch_areas(),
        };
        match res {
            Ok(total) => total,
            Err(err) => {
                // This instrumentation path has no caller sink, so any
                // reports the dead pipeline still owed land in the legacy
                // log (the sink-less entry points' destination).
                let mut log = std::mem::take(&mut self.log);
                self.recover(err, &mut log);
                self.log = log;
                match &mut self.pipeline {
                    Pipeline::Inline(hb) => hb.store().epoch_areas(),
                    Pipeline::Threaded(_) => unreachable!("recover degrades to inline"),
                }
            }
        }
    }

    /// Pipeline failure that degraded this detector, if any — `Some`
    /// exactly when [`Detector::health`] reports
    /// [`PipelineHealth::Degraded`].
    pub fn last_error(&self) -> Option<&DetectError> {
        self.last_error.as_ref()
    }

    /// Chaos instrumentation: make shard `shard`'s worker panic at its
    /// next message, as an implementation bug in the check-and-update
    /// would. The death is asynchronous — the *next* fence discovers it
    /// and degrades the detector (journal replay, inline fallback, health
    /// [`PipelineHealth::Degraded`]) without losing or duplicating a
    /// single report. Returns `false` when there is no worker to poison
    /// (inline pipeline, out-of-range shard, or already-dead worker).
    pub fn inject_worker_panic(&mut self, shard: usize) -> bool {
        match &mut self.pipeline {
            Pipeline::Inline(_) => false,
            Pipeline::Threaded(t) => match t.workers.get(shard).and_then(|w| w.tx.as_ref()) {
                Some(tx) => tx.send(ToShard::Poison).is_ok(),
                None => false,
            },
        }
    }

    /// Supervision fallback: worker `err.shard()` died, taking its slice
    /// of the detection state with it. Rebuild from the journal — replay
    /// every event ever observed through a fresh inline [`HbDetector`]
    /// with the same configuration, suppressing the first
    /// [`Threaded::emitted`] reports (already delivered at past fences)
    /// and forwarding the remainder to `sink`. The replayed detector then
    /// *becomes* the pipeline, so the stream stays byte-identical to a
    /// healthy run at the cost of parallelism. Returns the number of
    /// reports forwarded, which is exactly what the failed call owed.
    fn recover(&mut self, err: DetectError, sink: &mut dyn ReportSink) -> usize {
        let Pipeline::Threaded(t) = &mut self.pipeline else {
            unreachable!("recover only runs on the threaded pipeline");
        };
        let journal = std::mem::take(&mut t.journal);
        let emitted = t.emitted;
        let (n, granularity, mode, store) = (t.n, t.granularity, t.mode, t.store);
        let mut hb = Box::new(HbDetector::with_config(n, granularity, mode, store));
        let mut skip = SkipSink {
            skip: emitted,
            forwarded: 0,
            inner: sink,
        };
        for event in &journal {
            match event {
                MemOp::Op(op) => {
                    hb.observe_sink(op, &[], &mut skip);
                }
                MemOp::Barrier => hb.on_barrier(),
                MemOp::Acquire { rank, lock } => hb.on_acquire(*rank, *lock),
                MemOp::Release { rank, lock } => hb.on_release(*rank, *lock),
            }
        }
        debug_assert_eq!(skip.skip, 0, "replay must regenerate every emitted report");
        let forwarded = skip.forwarded;
        // Swapping the pipeline drops `Threaded`, whose Drop joins the
        // surviving workers.
        self.pipeline = Pipeline::Inline(hb);
        self.last_error = Some(err);
        forwarded
    }

    /// Observe a batch of operations and synchronisation events, running
    /// the per-area checks on the worker shards (inline for a single
    /// shard), appending the merged reports to the legacy log
    /// ([`Detector::reports`]) in the sequential detector's emission
    /// order. Returns the number of new race reports.
    ///
    /// Synchronous: when this returns, every report triggered by the batch
    /// is in the log and the per-shard accounting is up to date.
    pub fn observe_batch(&mut self, batch: &[MemOp]) -> usize {
        let mut log = std::mem::take(&mut self.log);
        let n = self.observe_batch_sink(batch, &mut log);
        self.log = log;
        n
    }

    /// Sink-streaming variant of [`ShardedDetector::observe_batch`]: the
    /// merged, deterministically ordered report stream goes to `sink`
    /// instead of the internal log. Returns the number of new reports.
    ///
    /// This call cannot fail: a worker death inside the threaded pipeline
    /// is absorbed by the supervisor, which replays the event journal
    /// through a rebuilt inline pipeline and delivers this batch's reports
    /// from there (see [`Detector::health`] and
    /// [`ShardedDetector::inject_worker_panic`]).
    pub fn observe_batch_sink(&mut self, batch: &[MemOp], sink: &mut dyn ReportSink) -> usize {
        let res = match &mut self.pipeline {
            Pipeline::Inline(hb) => {
                let mut new = 0;
                for event in batch {
                    match event {
                        MemOp::Op(op) => new += hb.observe_sink(op, &[], sink),
                        MemOp::Barrier => hb.on_barrier(),
                        MemOp::Acquire { rank, lock } => hb.on_acquire(*rank, *lock),
                        MemOp::Release { rank, lock } => hb.on_release(*rank, *lock),
                    }
                }
                return new;
            }
            Pipeline::Threaded(t) => t.observe_batch_sink(batch, sink),
        };
        match res {
            Ok(new) => new,
            Err(err) => self.recover(err, sink),
        }
    }
}

/// Forwards reports past an initial skip window: the recovery replay
/// regenerates the *entire* report stream, and the first
/// [`Threaded::emitted`] reports were already delivered by the pipeline
/// before it died.
struct SkipSink<'a> {
    skip: usize,
    forwarded: usize,
    inner: &'a mut dyn ReportSink,
}

impl ReportSink for SkipSink<'_> {
    fn on_report(&mut self, report: &RaceReport) {
        if self.skip > 0 {
            self.skip -= 1;
        } else {
            self.forwarded += 1;
            self.inner.on_report(report);
        }
    }

    fn accept(&mut self, report: RaceReport) {
        if self.skip > 0 {
            self.skip -= 1;
        } else {
            self.forwarded += 1;
            self.inner.accept(report);
        }
    }
}

impl Threaded {
    /// `chunk` is the per-shard buffer length that triggers a mid-batch
    /// ship; `usize::MAX` ships only at the fence.
    fn new(
        n: usize,
        granularity: Granularity,
        mode: HbMode,
        shards: usize,
        store: StoreConfig,
        chunk: usize,
    ) -> Self {
        let (recycle_tx, recycle_rx) = channel();
        let workers = (0..shards)
            .map(|_| {
                let (tx, worker_rx) = channel();
                let (reply_tx, rx) = channel();
                let recycle = recycle_tx.clone();
                // Supervised spawn: the worker loop runs under
                // `catch_unwind`, so a panicking shard dies quietly and the
                // router learns the payload at join time instead of the
                // process aborting or the unwind crossing threads.
                let handle = std::thread::spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        shard_worker(mode, n, granularity, store, worker_rx, reply_tx, recycle)
                    }))
                    .err()
                    .map(panic_message)
                });
                Worker {
                    tx: Some(tx),
                    rx,
                    handle: Some(handle),
                }
            })
            .collect();
        Threaded {
            mode,
            granularity,
            n,
            clocks: (0..n).map(|i| MatrixClock::zero(i, n)).collect(),
            sync_gen: vec![0; n],
            bases: (0..n).map(|_| Arc::new(VectorClock::zero(n))).collect(),
            base_gens: vec![0; n],
            joins: JoinStore::new(store),
            lock_clocks: HashMap::new(),
            absorb: VectorClock::zero(n),
            seq: 0,
            buffers: (0..shards)
                .map(|_| Vec::with_capacity(SHARD_CHUNK))
                .collect(),
            chunk,
            encoders: (0..shards).map(|_| ClockEncoder::new(n)).collect(),
            pool: Vec::new(),
            recycle_rx,
            workers,
            shard_clock_bytes: vec![0; shards],
            shard_touched: vec![0; shards],
            store,
            journal: Vec::new(),
            emitted: 0,
            retry: RetryPolicy::default(),
        }
    }

    /// Diagnose a worker that stopped responding: close our side of its
    /// channel and join the thread, recovering the panic payload. Only
    /// called once the worker is known dead (send failed, reply channel
    /// disconnected, or the thread observed finished), so the join cannot
    /// block on live work.
    fn worker_error(&mut self, shard: usize) -> DetectError {
        let worker = &mut self.workers[shard];
        worker.tx = None;
        match worker.handle.take().map(JoinHandle::join) {
            Some(Ok(Some(message))) => DetectError::WorkerPanicked { shard, message },
            _ => DetectError::WorkerDisconnected { shard },
        }
    }

    /// Send `msg` to `shard`, diagnosing the worker on a closed channel.
    fn send_to(&mut self, shard: usize, msg: ToShard) -> Result<(), DetectError> {
        let sent = match &self.workers[shard].tx {
            Some(tx) => tx.send(msg).is_ok(),
            None => false,
        };
        if sent {
            Ok(())
        } else {
            Err(self.worker_error(shard))
        }
    }

    /// Wait for `shard`'s reply, probing liveness with the bounded
    /// exponential backoff of [`RetryPolicy`]: a timeout re-checks whether
    /// the thread is still running (transient stall → next, longer probe),
    /// and only an actually-finished thread or a closed channel becomes an
    /// error. A worker that outlives every probe is waited out with a
    /// plain blocking receive — the policy bounds death-*detection*
    /// latency, it never abandons a live worker.
    fn recv_reply(&mut self, shard: usize) -> Result<ShardReply, DetectError> {
        use std::sync::mpsc::RecvTimeoutError;
        let policy = self.retry;
        for delay in policy.delays() {
            match self.workers[shard].rx.recv_timeout(delay) {
                Ok(reply) => return Ok(reply),
                Err(RecvTimeoutError::Timeout) => {
                    let finished = self.workers[shard]
                        .handle
                        .as_ref()
                        .is_none_or(|h| h.is_finished());
                    if finished {
                        // Drain a reply the worker managed to send in its
                        // final moments before diagnosing.
                        if let Ok(reply) = self.workers[shard].rx.try_recv() {
                            return Ok(reply);
                        }
                        return Err(self.worker_error(shard));
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return Err(self.worker_error(shard)),
            }
        }
        match self.workers[shard].rx.recv() {
            Ok(reply) => Ok(reply),
            Err(_) => Err(self.worker_error(shard)),
        }
    }

    /// Per-shard epoch census (see [`ShardedDetector::epoch_areas`]).
    fn epoch_areas(&mut self) -> Result<usize, DetectError> {
        for shard in 0..self.workers.len() {
            self.send_to(shard, ToShard::CountEpochs)?;
        }
        let mut total = 0;
        for shard in 0..self.workers.len() {
            let reply = self.recv_reply(shard)?;
            self.shard_clock_bytes[shard] = reply.clock_bytes;
            self.shard_touched[shard] = reply.touched;
            // Requests are strictly request/reply per worker, so a census
            // request always gets a census reply.
            total += reply.epoch_areas.unwrap_or(0);
        }
        Ok(total)
    }

    /// The threaded half of [`ShardedDetector::observe_batch_sink`]. The
    /// whole batch is journaled up front, so a mid-batch worker death can
    /// hand the supervisor a journal that already covers every event of
    /// this call — the replay then owes nothing to the caller.
    fn observe_batch_sink(
        &mut self,
        batch: &[MemOp],
        sink: &mut dyn ReportSink,
    ) -> Result<usize, DetectError> {
        self.journal.extend_from_slice(batch);
        for event in batch {
            match event {
                MemOp::Op(op) => self.route_op(op)?,
                MemOp::Barrier => self.barrier_event(),
                MemOp::Acquire { rank, lock } => self.acquire_event(*rank, *lock),
                MemOp::Release { rank, lock } => self.release_event(*rank, *lock),
            }
        }
        self.fence(sink)
    }

    /// Route one op: tick the actor, replay the read-absorb against the
    /// join replicas, and stream every public access to its area's shard.
    ///
    /// Allocation-free in steady state: the join replicas and the wire
    /// format both work from the actor's per-generation base snapshot, so
    /// the router never clones a row per op — only once per sync event.
    fn route_op(&mut self, op: &DsmOp) -> Result<(), DetectError> {
        let seq = self.seq;
        self.seq += 1;
        let actor = op.actor;
        let count = self.clocks[actor].tick_count();
        let gen = self.sync_gen[actor];
        // Refresh the generation base lazily: one row clone per sync event,
        // amortised over every op / area / shard of the generation.
        if self.base_gens[actor] != gen {
            self.bases[actor] = Arc::new(self.clocks[actor].own_row().clone());
            self.base_gens[actor] = gen;
        }
        let shards = self.workers.len();
        // Take the scratch clock out so area-join borrows don't conflict.
        let mut absorb = std::mem::replace(&mut self.absorb, VectorClock::zero(0));
        let mut absorbed = false;
        // Single/Literal reads also absorb the general clock V; Dual needs
        // only W, so the router skips V bookkeeping entirely in Dual mode.
        let track_v = self.mode != HbMode::Dual;

        for (slot, (kind, range, access_id)) in op.accesses().into_iter().enumerate() {
            if range.addr.segment != Segment::Public {
                continue; // private memory cannot race (§IV-A)
            }
            let atomic = op.is_atomic();
            for block in self.granularity.blocks_of(&range) {
                let area = AreaKey::new(range.addr.rank, block);
                let w_le = {
                    let clocks = &self.clocks;
                    let bases = &self.bases;
                    let joins = self.joins.get_mut(area);
                    // The access's clock is the freshly ticked row.
                    let row = clocks[actor].own_row();
                    match kind {
                        AccessKind::Write => {
                            let w_le = joins.w.leq(row);
                            joins.w.record(actor, count, &bases[actor], w_le);
                            if track_v {
                                let v_le = joins.v.leq(row);
                                joins.v.record(actor, count, &bases[actor], v_le);
                            }
                            w_le
                        }
                        AccessKind::Read => {
                            // Absorb *before* recording, from the pre-access
                            // joins, exactly as HbDetector::observe does.
                            let w_le = joins.w.leq(row);
                            if !w_le {
                                if !absorbed {
                                    absorb.clear();
                                    absorbed = true;
                                }
                                joins.w.merge_into(&mut absorb);
                            }
                            if track_v {
                                let v_le = joins.v.leq(row);
                                if !v_le {
                                    if !absorbed {
                                        absorb.clear();
                                        absorbed = true;
                                    }
                                    joins.v.merge_into(&mut absorb);
                                }
                                joins.v.record(actor, count, &bases[actor], v_le);
                            }
                            w_le
                        }
                    }
                };
                let shard = shard_of(area, shards);
                let bases = &self.bases;
                let wire = self.encoders[shard]
                    .encode(actor, seq, gen, count, || Arc::clone(&bases[actor]));
                self.buffers[shard].push(ShardItem {
                    seq,
                    slot: slot as u8,
                    kind,
                    atomic,
                    w_le,
                    id: access_id,
                    process: actor,
                    range,
                    area,
                    clock: wire,
                });
                if self.buffers[shard].len() >= self.chunk {
                    if let Err(err) = self.ship(shard) {
                        // Restore the scratch clock before bailing: recovery
                        // replays the journal, but `self` must stay sane.
                        self.absorb = absorb;
                        return Err(err);
                    }
                }
            }
        }

        if absorbed {
            self.clocks[actor].absorb(&absorb);
            // Foreign knowledge entered the actor's clock: delta encodings
            // minted from the old row are no longer derivable shard-side.
            self.sync_gen[actor] += 1;
        }
        self.absorb = absorb;
        Ok(())
    }

    /// An empty batch buffer: recycled from the pool / the workers' return
    /// channel when available, freshly allocated only during warm-up.
    fn take_buffer(&mut self) -> Vec<ShardItem> {
        if let Some(buf) = self.pool.pop() {
            return buf;
        }
        while let Ok(buf) = self.recycle_rx.try_recv() {
            self.pool.push(buf);
        }
        self.pool
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(SHARD_CHUNK))
    }

    /// Send a shard's filled chunk, replacing it with a recycled buffer.
    /// A closed channel (dead worker) surfaces as a [`DetectError`]; the
    /// in-flight items are abandoned, which is safe because the journal
    /// replay regenerates their effects.
    fn ship(&mut self, shard: usize) -> Result<(), DetectError> {
        let empty = self.take_buffer();
        let items = std::mem::replace(&mut self.buffers[shard], empty);
        self.send_to(shard, ToShard::Items(items))
    }

    /// Batch fence: flush every shard, collect replies, and k-way merge the
    /// already-sorted per-shard report logs into the caller's sink. Returns
    /// the number of reports merged.
    ///
    /// The merge runs only after *every* reply is in, so a worker death
    /// mid-fence emits nothing: either the whole fence reaches the sink
    /// (and bumps [`Threaded::emitted`]) or none of it does and the
    /// supervisor's replay regenerates it.
    ///
    /// Buffers shipped here go out without a replacement; they are back on
    /// the recycle channel before their shard's flush reply and are put
    /// back in place once every reply is in. So every fence ends with every
    /// buffer home, and a fence never allocates.
    fn fence(&mut self, sink: &mut dyn ReportSink) -> Result<usize, DetectError> {
        for shard in 0..self.workers.len() {
            if !self.buffers[shard].is_empty() {
                let items = std::mem::take(&mut self.buffers[shard]);
                self.send_to(shard, ToShard::Items(items))?;
            }
            self.send_to(shard, ToShard::Flush)?;
        }
        let mut replies: Vec<Vec<(ReportKey, RaceReport)>> = Vec::new();
        for shard in 0..self.workers.len() {
            let reply = self.recv_reply(shard)?;
            self.shard_clock_bytes[shard] = reply.clock_bytes;
            self.shard_touched[shard] = reply.touched;
            if !reply.reports.is_empty() {
                replies.push(reply.reports);
            }
        }
        self.pool.extend(self.recycle_rx.try_iter());
        for buf in &mut self.buffers {
            if buf.capacity() == 0 {
                *buf = self.pool.pop().unwrap_or_default();
            }
        }
        let merged = merge_sorted_reports(replies, sink);
        self.emitted += merged;
        Ok(merged)
    }

    // The sync-event clock semantics are the exact shared bodies the
    // sequential detector uses (hb::barrier_join / release_clock /
    // acquire_clock) — one implementation, no parity drift. Each one that
    // can merge foreign knowledge into an actor's clock bumps that actor's
    // sync generation, forcing the next send per shard to carry a full
    // snapshot.

    fn barrier_event(&mut self) {
        barrier_join(&mut self.clocks);
        for gen in &mut self.sync_gen {
            *gen += 1;
        }
    }

    fn release_event(&mut self, rank: Rank, lock: LockId) {
        release_clock(&self.clocks, &mut self.lock_clocks, rank, lock);
    }

    fn acquire_event(&mut self, rank: Rank, lock: LockId) {
        acquire_clock(&mut self.clocks, &self.lock_clocks, rank, lock);
        self.sync_gen[rank] += 1;
    }
}

impl Detector for ShardedDetector {
    fn name(&self) -> &'static str {
        match &self.pipeline {
            Pipeline::Inline(hb) => hb.name(),
            Pipeline::Threaded(t) => t.mode.detector_name(),
        }
    }

    fn observe_sink(
        &mut self,
        op: &DsmOp,
        _held_locks: &[LockId],
        sink: &mut dyn ReportSink,
    ) -> usize {
        // By-reference single-op path: route straight from the borrow — no
        // `MemOp` wrapper, no clone, no allocation (the journal copy is a
        // few plain words).
        let res = match &mut self.pipeline {
            Pipeline::Inline(hb) => return hb.observe_sink(op, &[], sink),
            Pipeline::Threaded(t) => {
                t.journal.push(MemOp::Op(*op));
                t.route_op(op).and_then(|()| t.fence(sink))
            }
        };
        match res {
            Ok(new) => new,
            Err(err) => self.recover(err, sink),
        }
    }

    fn observe(&mut self, op: &DsmOp, held_locks: &[LockId]) -> usize {
        crate::detector::observe_via_log!(self.log, op, held_locks)
    }

    fn reports(&self) -> &[RaceReport] {
        self.log.as_slice()
    }

    fn clock_components_per_area(&self) -> usize {
        match &self.pipeline {
            Pipeline::Inline(hb) => hb.clock_components_per_area(),
            Pipeline::Threaded(t) => match t.mode {
                HbMode::Dual | HbMode::Literal => 2 * t.n,
                HbMode::Single => t.n,
            },
        }
    }

    fn clock_memory_bytes(&self) -> usize {
        match &self.pipeline {
            Pipeline::Inline(hb) => hb.clock_memory_bytes(),
            Pipeline::Threaded(t) => t.shard_clock_bytes.iter().sum(),
        }
    }

    fn requires_locking(&self) -> bool {
        true
    }

    fn on_release(&mut self, rank: usize, lock: LockId) {
        match &mut self.pipeline {
            Pipeline::Inline(hb) => hb.on_release(rank, lock),
            Pipeline::Threaded(t) => {
                t.journal.push(MemOp::Release { rank, lock });
                t.release_event(rank, lock);
            }
        }
    }

    fn on_acquire(&mut self, rank: usize, lock: LockId) {
        match &mut self.pipeline {
            Pipeline::Inline(hb) => hb.on_acquire(rank, lock),
            Pipeline::Threaded(t) => {
                t.journal.push(MemOp::Acquire { rank, lock });
                t.acquire_event(rank, lock);
            }
        }
    }

    fn on_barrier(&mut self) {
        match &mut self.pipeline {
            Pipeline::Inline(hb) => hb.on_barrier(),
            Pipeline::Threaded(t) => {
                t.journal.push(MemOp::Barrier);
                t.barrier_event();
            }
        }
    }

    fn health(&self) -> PipelineHealth {
        if self.last_error.is_some() {
            PipelineHealth::Degraded
        } else {
            PipelineHealth::Healthy
        }
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        match &self.pipeline {
            Pipeline::Inline(hb) => Some(crate::snapshot::encode_hb(hb)),
            // The threaded pipeline's state lives across worker threads;
            // its recovery journal (every event ever routed, the same
            // record a worker-death replay uses) rebuilds an equivalent
            // inline detector whose state *is* the pipeline's state.
            // Reports regenerated by the replay are discarded — they were
            // already delivered at past fences.
            Pipeline::Threaded(t) => {
                let mut hb =
                    crate::hb::HbDetector::with_config(t.n, t.granularity, t.mode, t.store);
                let mut discard = crate::api::CountingSink::default();
                for event in &t.journal {
                    match event {
                        MemOp::Op(op) => {
                            hb.observe_sink(op, &[], &mut discard);
                        }
                        MemOp::Barrier => hb.on_barrier(),
                        MemOp::Release { rank, lock } => hb.on_release(*rank, *lock),
                        MemOp::Acquire { rank, lock } => hb.on_acquire(*rank, *lock),
                    }
                }
                Some(crate::snapshot::encode_hb(&hb))
            }
        }
    }
}

impl Drop for Threaded {
    fn drop(&mut self) {
        // Close the channels (workers exit their recv loop), then join.
        for worker in &mut self.workers {
            worker.tx = None;
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// A buffering front-end that turns the per-op [`Detector`] interface into
/// batched [`ShardedDetector::observe_batch`] calls.
///
/// Operations and sync events accumulate (in order, by value — [`MemOp`] is
/// `Copy`, so buffering is a word-copy into preallocated capacity) until
/// the buffer holds `capacity` events or [`Detector::flush`] is called,
/// then drain as one batch. The engine's batched drain mode wraps the
/// sharded detector in this to amortise the fan-out over many ops; the
/// drained batches ride the detector's recycled transport buffers, so the
/// steady-state drain allocates nothing end to end.
///
/// Contract difference from the inline detectors: [`Detector::observe`]
/// returns 0 while buffering and the whole batch's report count at the
/// observe that triggers a drain, so per-op report attribution is only
/// available at batch fences. Backends must call `flush()` before reading
/// the final log.
pub struct BatchingDetector {
    inner: ShardedDetector,
    buf: Vec<MemOp>,
    capacity: usize,
    /// Reports produced by capacity drains that a *sync event* triggered
    /// (the sync hooks carry no report destination), staged until the next
    /// observe / flush forwards them to its destination.
    staged: VecSink,
}

impl BatchingDetector {
    /// Wrap `inner`, draining every `capacity` buffered events.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(inner: ShardedDetector, capacity: usize) -> Self {
        assert!(capacity > 0, "batch capacity must be positive");
        BatchingDetector {
            inner,
            buf: Vec::with_capacity(capacity),
            capacity,
            staged: VecSink::new(),
        }
    }

    /// The wrapped sharded detector.
    pub fn inner(&self) -> &ShardedDetector {
        &self.inner
    }

    /// Hand any sync-drain staged reports to `sink`, oldest first; returns
    /// how many were forwarded. Staged reports always precede the reports
    /// of newer events, so emission order is preserved.
    fn forward_staged(&mut self, sink: &mut dyn ReportSink) -> usize {
        if self.staged.is_empty() {
            return 0;
        }
        let staged = std::mem::take(&mut self.staged);
        let n = staged.len();
        for report in staged.into_reports() {
            sink.accept(report);
        }
        n
    }

    /// Legacy-path variant of [`BatchingDetector::forward_staged`]: staged
    /// reports go into the wrapped detector's internal log, where
    /// [`Detector::reports`] reads them.
    fn forward_staged_to_log(&mut self) -> usize {
        if self.staged.is_empty() {
            return 0;
        }
        let mut log = std::mem::take(&mut self.inner.log);
        let n = self.forward_staged(&mut log);
        self.inner.log = log;
        n
    }

    fn drain(&mut self) -> usize {
        if self.buf.is_empty() {
            return 0;
        }
        let batch = std::mem::take(&mut self.buf);
        let new = self.inner.observe_batch(&batch);
        self.buf = batch; // reuse the allocation
        self.buf.clear();
        new
    }

    fn drain_sink(&mut self, sink: &mut dyn ReportSink) -> usize {
        if self.buf.is_empty() {
            return 0;
        }
        let batch = std::mem::take(&mut self.buf);
        let new = self.inner.observe_batch_sink(&batch, sink);
        self.buf = batch; // reuse the allocation
        self.buf.clear();
        new
    }

    fn push(&mut self, event: MemOp) -> usize {
        self.buf.push(event);
        if self.buf.len() >= self.capacity {
            self.drain()
        } else {
            0
        }
    }

    /// Buffer a synchronisation event. The sync hooks carry no destination
    /// for reports, so a capacity-triggered drain here goes into the
    /// internal staging sink, which the next entry point *with* a
    /// destination (observe / flush, either flavour) forwards before its
    /// own reports. This keeps the buffer bounded by `capacity` on any
    /// event mix while still never splitting a sink-driven session's
    /// stream across the legacy log.
    fn push_sync(&mut self, event: MemOp) {
        self.buf.push(event);
        if self.buf.len() >= self.capacity {
            let mut staged = std::mem::take(&mut self.staged);
            self.drain_sink(&mut staged);
            self.staged = staged;
        }
    }
}

impl Detector for BatchingDetector {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn observe_sink(
        &mut self,
        op: &DsmOp,
        _held_locks: &[LockId],
        sink: &mut dyn ReportSink,
    ) -> usize {
        let forwarded = self.forward_staged(sink);
        self.buf.push(MemOp::Op(*op));
        forwarded
            + if self.buf.len() >= self.capacity {
                self.drain_sink(sink)
            } else {
                0
            }
    }

    fn observe(&mut self, op: &DsmOp, _held_locks: &[LockId]) -> usize {
        self.forward_staged_to_log() + self.push(MemOp::Op(*op))
    }

    fn reports(&self) -> &[RaceReport] {
        self.inner.reports()
    }

    fn clock_components_per_area(&self) -> usize {
        self.inner.clock_components_per_area()
    }

    fn clock_memory_bytes(&self) -> usize {
        self.inner.clock_memory_bytes()
    }

    fn requires_locking(&self) -> bool {
        true
    }

    fn on_release(&mut self, rank: usize, lock: LockId) {
        self.push_sync(MemOp::Release { rank, lock });
    }

    fn on_acquire(&mut self, rank: usize, lock: LockId) {
        self.push_sync(MemOp::Acquire { rank, lock });
    }

    fn on_barrier(&mut self) {
        self.push_sync(MemOp::Barrier);
    }

    fn flush(&mut self) {
        self.forward_staged_to_log();
        self.drain();
    }

    fn flush_sink(&mut self, sink: &mut dyn ReportSink) -> usize {
        self.forward_staged(sink) + self.drain_sink(sink)
    }

    fn health(&self) -> PipelineHealth {
        self.inner.health()
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        if self.buf.is_empty() {
            // Drained: the wrapper is stateless, the inner detector is the
            // durable state (the restore path re-wraps per the config).
            self.inner.snapshot_state()
        } else {
            // A buffered prefix has not been observed yet; callers must
            // flush first (Session::checkpoint does).
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OpKind;
    use crate::hb::HbDetector;
    use dsm::addr::GlobalAddr;

    fn put(op_id: u64, actor: Rank, dst_rank: Rank, dst_off: usize) -> DsmOp {
        DsmOp {
            op_id,
            actor,
            kind: OpKind::Put {
                src: GlobalAddr::private(actor, 0).range(8),
                dst: GlobalAddr::public(dst_rank, dst_off).range(8),
            },
        }
    }

    fn get(op_id: u64, actor: Rank, src_rank: Rank, src_off: usize) -> DsmOp {
        DsmOp {
            op_id,
            actor,
            kind: OpKind::Get {
                src: GlobalAddr::public(src_rank, src_off).range(8),
                dst: GlobalAddr::private(actor, 0).range(8),
            },
        }
    }

    /// A small mixed stream touching several areas, with a barrier, lock
    /// hand-off and an atomic, that races on some ops.
    fn mixed_stream(n: usize) -> Vec<MemOp> {
        let mut ops = Vec::new();
        let mut id = 0u64;
        let mut op = |kind: OpKind, actor: Rank, ops: &mut Vec<MemOp>| {
            ops.push(MemOp::Op(DsmOp {
                op_id: id,
                actor,
                kind,
            }));
            id += 1;
        };
        for rank in 0..n {
            op(
                OpKind::LocalWrite {
                    range: GlobalAddr::public(rank, 0).range(24),
                },
                rank,
                &mut ops,
            );
        }
        // Concurrent cross-writes: races.
        op(
            OpKind::Put {
                src: GlobalAddr::private(0, 0).range(8),
                dst: GlobalAddr::public(1, 0).range(8),
            },
            0,
            &mut ops,
        );
        ops.push(MemOp::Barrier);
        for rank in 0..n {
            let next = (rank + 1) % n;
            op(
                OpKind::Get {
                    src: GlobalAddr::public(next, 8).range(8),
                    dst: GlobalAddr::private(rank, 0).range(8),
                },
                rank,
                &mut ops,
            );
        }
        ops.push(MemOp::Release {
            rank: 0,
            lock: (1, 0),
        });
        ops.push(MemOp::Acquire {
            rank: 2 % n,
            lock: (1, 0),
        });
        op(
            OpKind::AtomicRmw {
                range: GlobalAddr::public(0, 32).range(8),
            },
            1,
            &mut ops,
        );
        op(
            OpKind::Put {
                src: GlobalAddr::private(2 % n, 0).range(8),
                dst: GlobalAddr::public(0, 32).range(8),
            },
            2 % n,
            &mut ops,
        );
        ops
    }

    /// Drive the same stream through the sequential detector (per op) and
    /// a sharded one (batched), asserting identical logs and clocks.
    /// `force_threaded` pins the threaded pipeline even at one shard (the
    /// configuration `new` would run inline).
    fn assert_parity(mode: HbMode, shards: usize, batch: usize, force_threaded: bool) {
        let n = 4;
        let stream = mixed_stream(n);
        let mut seq = HbDetector::new(n, Granularity::WORD, mode);
        let mut par = if force_threaded {
            ShardedDetector::threaded(n, Granularity::WORD, mode, shards, StoreConfig::default())
        } else {
            ShardedDetector::new(n, Granularity::WORD, mode, shards)
        };
        assert_eq!(par.is_inline(), !force_threaded && shards == 1);
        for event in &stream {
            match event {
                MemOp::Op(op) => {
                    seq.observe(op, &[]);
                }
                MemOp::Barrier => seq.on_barrier(),
                MemOp::Acquire { rank, lock } => seq.on_acquire(*rank, *lock),
                MemOp::Release { rank, lock } => seq.on_release(*rank, *lock),
            }
        }
        for chunk in stream.chunks(batch) {
            par.observe_batch(chunk);
        }
        assert_eq!(
            seq.reports(),
            par.reports(),
            "report stream must be byte-identical"
        );
        assert_eq!(seq.clock_memory_bytes(), par.clock_memory_bytes());
        for rank in 0..n {
            assert_eq!(seq.process_clock(rank), par.process_clock(rank));
        }
    }

    #[test]
    fn parity_across_modes_shards_and_batch_sizes() {
        for mode in [HbMode::Dual, HbMode::Single, HbMode::Literal] {
            for shards in [1, 2, 3, 4] {
                for batch in [1, 3, 64] {
                    assert_parity(mode, shards, batch, false);
                }
            }
            // The degenerate threaded single shard (inline-bypassed by
            // `new`) must stay byte-identical too — it is what the
            // transport benches measure.
            for batch in [1, 64] {
                assert_parity(mode, 1, batch, true);
            }
        }
    }

    #[test]
    fn fig5a_race_found_once() {
        let mut det = ShardedDetector::new(3, Granularity::WORD, HbMode::Dual, 2);
        let batch = vec![MemOp::Op(put(0, 0, 1, 0)), MemOp::Op(put(1, 2, 1, 0))];
        assert_eq!(det.observe_batch(&batch), 1);
        assert_eq!(det.reports().len(), 1);
        let r = &det.reports()[0];
        assert!(r
            .current
            .clock
            .concurrent_with(&r.previous.as_ref().unwrap().clock));
    }

    #[test]
    fn read_absorb_crosses_shards() {
        // P2 gets P1's word (absorbing P1's write clock) then puts to it:
        // causally ordered, silent — even when the areas and the absorb
        // bookkeeping live on different sides of the router/shard split.
        let mut det = ShardedDetector::new(3, Granularity::WORD, HbMode::Dual, 4);
        let init = DsmOp {
            op_id: 0,
            actor: 1,
            kind: OpKind::LocalWrite {
                range: GlobalAddr::public(1, 0).range(8),
            },
        };
        det.observe_batch(&[MemOp::Op(init)]);
        det.observe_batch(&[MemOp::Op(get(1, 2, 1, 0))]);
        let before = det.reports().len();
        det.observe_batch(&[MemOp::Op(put(2, 2, 1, 0))]);
        assert_eq!(det.reports().len(), before, "causal chain must be silent");
    }

    #[test]
    fn batch_split_does_not_change_the_log() {
        let stream = mixed_stream(4);
        let mut whole = ShardedDetector::new(4, Granularity::WORD, HbMode::Dual, 3);
        whole.observe_batch(&stream);
        let mut split = ShardedDetector::new(4, Granularity::WORD, HbMode::Dual, 3);
        for event in &stream {
            split.observe_batch(std::slice::from_ref(event));
        }
        assert_eq!(whole.reports(), split.reports());
    }

    #[test]
    fn deterministic_across_runs() {
        let stream = mixed_stream(4);
        let run = || {
            let mut d = ShardedDetector::new(4, Granularity::WORD, HbMode::Dual, 4);
            d.observe_batch(&stream);
            d.reports().to_vec()
        };
        let a = run();
        assert!(!a.is_empty(), "stream must race for the test to bite");
        for _ in 0..5 {
            assert_eq!(a, run(), "merge order must not depend on scheduling");
        }
    }

    #[test]
    fn accounting_sums_across_shards() {
        let mut seq = HbDetector::new(4, Granularity::WORD, HbMode::Dual);
        let mut par = ShardedDetector::new(4, Granularity::WORD, HbMode::Dual, 4);
        let stream = mixed_stream(4);
        par.observe_batch(&stream);
        for event in &stream {
            if let MemOp::Op(op) = event {
                seq.observe(op, &[]);
            } else if let MemOp::Barrier = event {
                seq.on_barrier();
            }
        }
        assert_eq!(par.touched_areas(), seq.store().touched_areas());
        assert!(par.epoch_areas() <= par.touched_areas());
    }

    #[test]
    fn batching_front_end_flushes_on_capacity_and_flush() {
        let inner = ShardedDetector::new(3, Granularity::WORD, HbMode::Dual, 2);
        let mut det = BatchingDetector::new(inner, 2);
        assert_eq!(det.observe(&put(0, 0, 1, 0), &[]), 0, "buffered");
        // Second op fills the buffer: the drain reports the race.
        assert_eq!(det.observe(&put(1, 2, 1, 0), &[]), 1);
        // P2's second put races with P0's (its own earlier write is program
        // ordered) — but it stays buffered until the explicit flush.
        det.observe(&put(2, 2, 1, 0), &[]);
        assert_eq!(det.reports().len(), 1, "third op still buffered");
        det.flush();
        assert_eq!(det.reports().len(), 2, "flush drains the remainder");
    }

    #[test]
    fn sync_event_runs_stay_bounded_and_lose_no_reports() {
        // A long run of consecutive sync events must keep the buffer
        // bounded by the capacity (each capacity hit drains into the
        // staging sink), and the staged reports must all surface at the
        // next entry point with a destination.
        let inner = ShardedDetector::new(3, Granularity::WORD, HbMode::Dual, 2);
        let mut det = BatchingDetector::new(inner, 3);
        det.observe(&put(0, 0, 1, 0), &[]);
        det.observe(&put(1, 2, 1, 0), &[]); // 2 buffered, capacity 3
        det.on_barrier(); // hits capacity → sync-triggered drain → staged
        assert!(det.buf.is_empty(), "sync event at capacity drained");
        assert!(
            det.reports().is_empty(),
            "staged until a destination exists"
        );
        for _ in 0..32 {
            det.on_barrier();
        }
        assert!(det.buf.len() <= 3, "sync runs never outgrow the capacity");
        det.flush();
        assert_eq!(det.reports().len(), 1, "the staged race surfaced");

        // Same shape on the sink path: the staged report reaches the sink
        // (and is counted) at the next observe_sink.
        let inner = ShardedDetector::new(3, Granularity::WORD, HbMode::Dual, 2);
        let mut det = BatchingDetector::new(inner, 3);
        let mut sink = VecSink::new();
        det.observe_sink(&put(0, 0, 1, 0), &[], &mut sink);
        det.observe_sink(&put(1, 2, 1, 0), &[], &mut sink);
        det.on_barrier(); // capacity hit → staged
        assert!(sink.is_empty());
        let n = det.observe_sink(&put(2, 2, 1, 8), &[], &mut sink);
        assert_eq!(n, 1, "forwarded staged report is counted");
        assert_eq!(sink.len(), 1);
        assert!(det.reports().is_empty(), "sink mode never feeds the log");
    }

    #[test]
    fn shard_routing_is_deterministic_and_total() {
        for shards in [1usize, 2, 3, 8] {
            for rank in 0..4 {
                for block in 0..64 {
                    let area = AreaKey::new(rank, block);
                    let s = shard_of(area, shards);
                    assert!(s < shards);
                    assert_eq!(s, shard_of(area, shards));
                }
            }
        }
        // The hash actually spreads: 64 consecutive blocks over 4 shards
        // must not all collapse onto one.
        let mut seen = std::collections::HashSet::new();
        for block in 0..64 {
            seen.insert(shard_of(AreaKey::new(0, block), 4));
        }
        assert!(seen.len() > 1);
    }

    #[test]
    fn merge_sorted_reports_orders_across_sources() {
        let report = |seq: u64| RaceReport {
            detector: "dual-clock",
            class: crate::report::RaceClass::WriteWrite,
            current: AccessSummary {
                id: seq,
                process: 0,
                kind: AccessKind::Write,
                range: GlobalAddr::public(0, 0).range(8),
                clock: Arc::new(VectorClock::zero(2)),
                atomic: false,
            },
            previous: None,
            area: AreaKey::new(0, 0),
        };
        let key = |seq: u64| -> ReportKey { (seq, 0, 0, 0) };
        // Three sorted shard logs with interleaved keys.
        let replies = vec![
            vec![(key(0), report(0)), (key(5), report(5))],
            vec![(key(2), report(2))],
            vec![
                (key(1), report(1)),
                (key(3), report(3)),
                (key(4), report(4)),
            ],
        ];
        let mut out = VecSink::new();
        let merged = merge_sorted_reports(replies, &mut out);
        assert_eq!(merged, 6);
        let ids: Vec<u64> = out.as_slice().iter().map(|r| r.current.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    /// A two-shard threaded detector whose mid-batch shipping threshold is
    /// `chunk` regardless of the host's core count.
    fn threaded_with_chunk(n: usize, chunk: usize) -> ShardedDetector {
        ShardedDetector {
            pipeline: Pipeline::Threaded(Box::new(Threaded::new(
                n,
                Granularity::WORD,
                HbMode::Dual,
                2,
                StoreConfig::default(),
                chunk,
            ))),
            log: VecSink::new(),
            last_error: None,
        }
    }

    /// Buffer census after a fence: every buffer is pooled or in place
    /// (the fence got every shard's reply, so none is still in flight; any
    /// left on the recycle channel is pooled first).
    fn population(det: &mut ShardedDetector) -> usize {
        let Pipeline::Threaded(t) = &mut det.pipeline else {
            panic!("recycling test needs the threaded pipeline");
        };
        t.pool.extend(t.recycle_rx.try_iter());
        t.pool.len() + t.buffers.len()
    }

    fn recycling_stream() -> Vec<MemOp> {
        (0..100u64)
            .map(|i| MemOp::Op(put(i, (i % 4) as usize, ((i + 1) % 4) as usize, 0)))
            .collect()
    }

    #[test]
    fn steady_state_recycles_transport_buffers() {
        // Fence-only shipping: every buffer leaves at the fence and is
        // back in place when the fence returns, so the population is one
        // buffer per shard after every batch, on any core count.
        let stream = recycling_stream();
        let mut det = threaded_with_chunk(4, usize::MAX);
        let expected =
            ShardedDetector::new(4, Granularity::WORD, HbMode::Dual, 1).observe_batch(&stream);
        assert_eq!(det.observe_batch(&stream), expected);
        let after_warmup = population(&mut det);
        assert_eq!(after_warmup, 2, "one buffer per shard");
        for _ in 0..10 {
            det.observe_batch(&stream);
        }
        let after_steady = population(&mut det);
        assert_eq!(
            after_steady, after_warmup,
            "steady state must allocate no new transport buffers"
        );
    }

    #[test]
    fn mid_batch_shipping_recycles_within_a_bound() {
        // `SHARD_CHUNK`-style streaming with a tiny chunk: a mid-batch ship
        // takes a pooled or returned buffer and allocates only when every
        // spare is still in flight, so the population never exceeds one
        // buffer per shard plus the chunks one batch ships.
        let chunk = 8;
        let stream = recycling_stream();
        let mut det = threaded_with_chunk(4, chunk);
        let mut inline = ShardedDetector::new(4, Granularity::WORD, HbMode::Dual, 1);
        // Each put is two accesses; a shard ships at most once per `chunk`
        // of them.
        let bound = 2 + 2 * stream.len() / chunk;
        let mut populations = Vec::new();
        for _ in 0..10 {
            assert_eq!(det.observe_batch(&stream), inline.observe_batch(&stream));
            populations.push(population(&mut det));
        }
        assert!(
            populations[0] > 2,
            "the first mid-batch ship finds no spare and allocates: {populations:?}"
        );
        assert!(
            populations.iter().all(|&p| p <= bound),
            "population {populations:?} exceeds the in-flight bound {bound}"
        );
        assert!(
            populations.windows(2).all(|w| w[0] <= w[1]),
            "buffers are never lost: {populations:?}"
        );
    }

    #[test]
    fn with_config_boundary_matches_default_layout() {
        // A dense prefix of 2 blocks forces the mixed stream across the
        // dense→spillover boundary on both the shard stores and the join
        // replicas; reports and accounting must be layout-invariant.
        let n = 4;
        let stream = mixed_stream(n);
        let tiny = StoreConfig { dense_blocks: 2 };
        let mut small = ShardedDetector::with_config(n, Granularity::WORD, HbMode::Dual, 3, tiny);
        let mut dflt = ShardedDetector::new(n, Granularity::WORD, HbMode::Dual, 3);
        small.observe_batch(&stream);
        dflt.observe_batch(&stream);
        assert_eq!(small.reports(), dflt.reports());
        assert_eq!(small.touched_areas(), dflt.touched_areas());
        assert_eq!(small.clock_memory_bytes(), dflt.clock_memory_bytes());
    }

    #[test]
    fn killed_worker_mid_stream_is_byte_identical_and_degraded() {
        // The tentpole property: poisoning any worker before any chunk of
        // the stream must leave the report stream byte-identical to the
        // healthy run, with the detector degraded to the inline pipeline.
        let n = 4;
        let stream = mixed_stream(n);
        let chunk = 3;
        let chunks = stream.len().div_ceil(chunk);
        let healthy = {
            let mut det = ShardedDetector::new(n, Granularity::WORD, HbMode::Dual, 3);
            let mut sink = VecSink::new();
            for c in stream.chunks(chunk) {
                det.observe_batch_sink(c, &mut sink);
            }
            assert_eq!(det.health(), PipelineHealth::Healthy);
            assert!(det.last_error().is_none());
            sink.into_reports()
        };
        assert!(!healthy.is_empty(), "stream must race for the test to bite");
        for shard in 0..3 {
            for kill_at in 0..chunks {
                let mut det = ShardedDetector::new(n, Granularity::WORD, HbMode::Dual, 3);
                let mut sink = VecSink::new();
                for (i, c) in stream.chunks(chunk).enumerate() {
                    if i == kill_at {
                        assert!(det.inject_worker_panic(shard));
                    }
                    det.observe_batch_sink(c, &mut sink);
                }
                assert!(det.is_inline(), "worker death must degrade to inline");
                assert_eq!(det.health(), PipelineHealth::Degraded);
                assert!(matches!(
                    det.last_error(),
                    Some(DetectError::WorkerPanicked { message, .. })
                        if message.contains("injected shard poison")
                ));
                assert_eq!(
                    healthy,
                    sink.into_reports(),
                    "shard {shard} killed before chunk {kill_at}: stream must not change"
                );
            }
        }
    }

    #[test]
    fn per_op_path_survives_worker_death() {
        let n = 3;
        let ops = [
            put(0, 0, 1, 0),
            put(1, 2, 1, 0),
            put(2, 2, 1, 8),
            put(3, 0, 1, 8),
        ];
        let mut healthy = ShardedDetector::new(n, Granularity::WORD, HbMode::Dual, 2);
        let mut healthy_sink = VecSink::new();
        for op in &ops {
            healthy.observe_sink(op, &[], &mut healthy_sink);
        }
        let mut det = ShardedDetector::new(n, Granularity::WORD, HbMode::Dual, 2);
        let mut sink = VecSink::new();
        for (i, op) in ops.iter().enumerate() {
            if i == 2 {
                // Kill both workers so the fence trips no matter where the
                // op's areas hash.
                assert!(det.inject_worker_panic(0));
                assert!(det.inject_worker_panic(1));
            }
            det.observe_sink(op, &[], &mut sink);
        }
        assert!(det.is_inline());
        assert_eq!(det.health(), PipelineHealth::Degraded);
        assert_eq!(healthy_sink.as_slice(), sink.as_slice());
    }

    #[test]
    fn accounting_query_survives_worker_death() {
        let mut det = ShardedDetector::new(3, Granularity::WORD, HbMode::Dual, 2);
        det.observe_batch(&[MemOp::Op(put(0, 0, 1, 0)), MemOp::Op(put(1, 2, 1, 0))]);
        let before = det.reports().len();
        assert_eq!(before, 1);
        det.inject_worker_panic(0);
        det.inject_worker_panic(1);
        let epochs = det.epoch_areas();
        assert!(det.is_inline(), "sink-less path degrades too");
        assert!(epochs <= det.touched_areas());
        assert_eq!(
            det.reports().len(),
            before,
            "recovery must neither lose nor duplicate reports"
        );
    }

    #[test]
    fn inline_pipeline_has_no_worker_to_poison() {
        let mut det = ShardedDetector::new(3, Granularity::WORD, HbMode::Dual, 1);
        assert!(!det.inject_worker_panic(0));
        let mut threaded = ShardedDetector::new(3, Granularity::WORD, HbMode::Dual, 2);
        assert!(!threaded.inject_worker_panic(7), "out of range");
    }

    #[test]
    fn batching_flush_after_worker_failure_keeps_staged_reports() {
        // S3: reports staged by a sync-triggered drain must survive a
        // worker death discovered at the final flush.
        let run = |poison: bool| -> Vec<RaceReport> {
            let inner = ShardedDetector::new(3, Granularity::WORD, HbMode::Dual, 2);
            let mut det = BatchingDetector::new(inner, 3);
            det.observe(&put(0, 0, 1, 0), &[]);
            det.observe(&put(1, 2, 1, 0), &[]);
            det.on_barrier(); // capacity hit → drain → the race is staged
            if poison {
                det.inner.inject_worker_panic(0);
                det.inner.inject_worker_panic(1);
            }
            det.observe(&put(2, 2, 1, 8), &[]);
            det.observe(&put(3, 0, 1, 8), &[]);
            det.flush();
            if poison {
                assert_eq!(det.health(), PipelineHealth::Degraded);
            } else {
                assert_eq!(det.health(), PipelineHealth::Healthy);
            }
            det.reports().to_vec()
        };
        let healthy = run(false);
        assert!(healthy.len() >= 2, "staged + post-barrier races expected");
        assert_eq!(healthy, run(true), "flush must return the staged reports");
    }

    #[test]
    fn single_op_observe_matches_batched_observe() {
        let n = 3;
        let mut by_ref = ShardedDetector::new(n, Granularity::WORD, HbMode::Dual, 2);
        let mut batched = ShardedDetector::new(n, Granularity::WORD, HbMode::Dual, 2);
        let ops = [put(0, 0, 1, 0), put(1, 2, 1, 0), put(2, 2, 1, 8)];
        for op in &ops {
            by_ref.observe(op, &[]);
            batched.observe_batch(&[MemOp::Op(*op)]);
        }
        assert_eq!(by_ref.reports(), batched.reports());
    }
}
