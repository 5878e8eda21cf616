//! Trace construction for the offline oracle.
//!
//! Records every access in memory-apply order together with the
//! *program-level* happens-before edges: lock hand-offs, barriers, and data
//! flow (a read sees the writes whose bytes it observes — in this model data
//! movement carries causality, because the messages carry the clocks,
//! §IV-B). The locks the detection algorithms take internally are **not**
//! recorded: they serialise physical application but are not program
//! synchronisation, and including them would make every pair ordered and
//! define races out of existence.

use std::collections::{BTreeMap, HashMap};

use dsm::addr::{MemRange, Segment};
use race_core::{AccessKind, LockId, Trace, TraceAccess};

use crate::Rank;

/// Every write recorded to one `(rank, segment)`, indexed by offset.
///
/// A read must absorb every prior write that overlaps it, in the order the
/// writes were recorded. Writes are grouped by `(offset, len)`; each group
/// lists `(record sequence, write access id)` in record order. A read of
/// `[a, b)` visits only the groups starting in `[a - max_len + 1, b)`,
/// the only starts an overlapping write of at most `max_len` bytes can
/// have, instead of every write ever made to the rank.
#[derive(Debug, Default)]
struct WriteIndex {
    groups: BTreeMap<(usize, usize), Vec<(u64, u64)>>,
    /// Longest write recorded here (the lookup window).
    max_len: usize,
}

impl WriteIndex {
    fn insert(&mut self, range: MemRange, seq: u64, id: u64) {
        self.max_len = self.max_len.max(range.len);
        self.groups
            .entry((range.addr.offset, range.len))
            .or_default()
            .push((seq, id));
    }

    /// Append `(seq, id)` of every write overlapping `range` to `out`.
    fn overlapping(&self, range: MemRange, out: &mut Vec<(u64, u64)>) {
        let lo = range
            .addr
            .offset
            .saturating_sub(self.max_len.saturating_sub(1));
        for (&(offset, len), writes) in self.groups.range((lo, 0)..(range.end(), 0)) {
            if offset + len > range.addr.offset {
                out.extend_from_slice(writes);
            }
        }
    }
}

/// Position of `segment` in a rank's `[WriteIndex; 2]`.
fn slot(segment: Segment) -> usize {
    match segment {
        Segment::Private => 0,
        Segment::Public => 1,
    }
}

/// Incremental trace builder used by the engine.
#[derive(Debug)]
pub struct TraceBuilder {
    trace: Trace,
    /// Last recorded access id per process (edge sources).
    last_access: Vec<Option<u64>>,
    /// Edge sources waiting to attach to a process's next access.
    pending_edges: Vec<Vec<u64>>,
    /// Per lock id: last access of the most recent releaser.
    lock_last: HashMap<LockId, u64>,
    /// Per rank, per segment (private, public): every write recorded so
    /// far, overwritten ones included, for data-flow edges.
    writes: Vec<[WriteIndex; 2]>,
    /// Record sequence number of the next write.
    next_write: u64,
    /// Scratch for one read's overlapping writes (reused across reads).
    hits: Vec<(u64, u64)>,
}

impl TraceBuilder {
    /// A builder for `n` processes.
    pub fn new(n: usize) -> Self {
        TraceBuilder {
            trace: Trace::new(n),
            last_access: vec![None; n],
            pending_edges: vec![Vec::new(); n],
            lock_last: HashMap::new(),
            writes: (0..n).map(|_| Default::default()).collect(),
            next_write: 0,
            hits: Vec::new(),
        }
    }

    /// Record an access applied to memory *now* (apply order = call order).
    pub fn record_access(&mut self, id: u64, process: Rank, kind: AccessKind, range: MemRange) {
        self.record_access_ext(id, process, kind, range, false);
    }

    /// Like [`TraceBuilder::record_access`] with the NIC-atomic flag.
    pub fn record_access_ext(
        &mut self,
        id: u64,
        process: Rank,
        kind: AccessKind,
        range: MemRange,
        atomic: bool,
    ) {
        // Attach deferred edges (lock hand-offs, barrier releases).
        for src in self.pending_edges[process].drain(..) {
            self.trace.push_edge(src, id);
        }

        if kind == AccessKind::Read {
            // Data flow: absorb edges from every prior write overlapping the
            // range — causality reaches the reader's *later* events only
            // (check-then-absorb, Algorithm 2). All prior writes, not just
            // the live value: the protocol's `W` is the *join* of every
            // writer's clock (update_clock_W merges, never replaces), so a
            // read becomes causally dependent on overwritten writers too.
            // The oracle mirrors that so it measures the paper's
            // happens-before, not a value-precise one.
            if range.len > 0 {
                self.writes[range.addr.rank][slot(range.addr.segment)]
                    .overlapping(range, &mut self.hits);
                // Groups are visited by offset; the edges go out in the
                // order the writes were recorded.
                self.hits.sort_unstable();
                for &(_, wid) in &self.hits {
                    self.trace.push_absorb_edge(wid, id);
                }
                self.hits.clear();
            }
        }

        self.trace.push_access(TraceAccess {
            id,
            process,
            kind,
            range,
            atomic,
        });
        self.last_access[process] = Some(id);

        if kind == AccessKind::Write && range.len > 0 {
            // Keep every write (see the absorb-edge note above); bounded by
            // the run length, which is fine at debugging scale. A
            // zero-length write overlaps nothing and is not indexed.
            let seq = self.next_write;
            self.next_write += 1;
            self.writes[range.addr.rank][slot(range.addr.segment)].insert(range, seq, id);
        }
    }

    /// A program-level lock on `lock` was released by `process`.
    pub fn on_unlock(&mut self, lock: LockId, process: Rank) {
        if let Some(id) = self.last_access[process] {
            self.lock_last.insert(lock, id);
        }
    }

    /// A program-level lock on `lock` was granted to `process`.
    pub fn on_lock_granted(&mut self, lock: LockId, process: Rank) {
        if let Some(&src) = self.lock_last.get(&lock) {
            self.pending_edges[process].push(src);
        }
    }

    /// A barrier released: every process's next access is ordered after
    /// every process's last access.
    pub fn on_barrier_release(&mut self) {
        let sources: Vec<u64> = self.last_access.iter().flatten().copied().collect();
        for p in 0..self.pending_edges.len() {
            self.pending_edges[p].extend(sources.iter().copied());
        }
    }

    /// Finish and return the trace.
    pub fn finish(self) -> Trace {
        self.trace
    }

    /// Peek at the trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm::addr::GlobalAddr;
    use race_core::Oracle;

    fn w(off: usize) -> MemRange {
        GlobalAddr::public(0, off).range(8)
    }

    #[test]
    fn plain_conflicting_writes_race() {
        let mut b = TraceBuilder::new(2);
        b.record_access(1, 0, AccessKind::Write, w(0));
        b.record_access(3, 1, AccessKind::Write, w(0));
        let o = Oracle::analyze(&b.finish());
        assert_eq!(o.truth().len(), 1);
    }

    #[test]
    fn lock_handoff_orders() {
        let lock: LockId = (0, 0);
        let mut b = TraceBuilder::new(2);
        b.record_access(1, 0, AccessKind::Write, w(0));
        b.on_unlock(lock, 0);
        b.on_lock_granted(lock, 1);
        b.record_access(3, 1, AccessKind::Write, w(0));
        let o = Oracle::analyze(&b.finish());
        assert!(o.truth().is_empty(), "lock hand-off creates HB");
    }

    #[test]
    fn barrier_orders_everything_before_after() {
        let mut b = TraceBuilder::new(2);
        b.record_access(1, 0, AccessKind::Write, w(0));
        b.on_barrier_release();
        b.record_access(3, 1, AccessKind::Write, w(0));
        let o = Oracle::analyze(&b.finish());
        assert!(o.truth().is_empty());
    }

    #[test]
    fn dataflow_orders_later_events_not_the_read() {
        let mut b = TraceBuilder::new(3);
        b.record_access(1, 0, AccessKind::Write, w(0));
        b.record_access(3, 1, AccessKind::Read, w(0));
        // P1's subsequent write is ordered after P0's write through the
        // absorb edge; the unsynchronised read itself still races.
        b.record_access(5, 1, AccessKind::Write, w(0));
        let o = Oracle::analyze(&b.finish());
        assert_eq!(o.truth(), &[(1, 3)]);
    }

    #[test]
    fn reads_absorb_every_prior_write() {
        let mut b = TraceBuilder::new(3);
        b.record_access(1, 0, AccessKind::Write, w(0));
        b.record_access(3, 1, AccessKind::Write, w(0)); // races with 1 (WW)
        b.record_access(5, 2, AccessKind::Read, w(0));
        let o = Oracle::analyze(&b.finish());
        // All three pairs are unsynchronised conflicts: (1,3) WW, and the
        // read races with both writes (absorb edges never order the read
        // itself).
        assert!(o.truth().contains(&(1, 3)));
        assert!(o.truth().contains(&(1, 5)));
        assert!(o.truth().contains(&(3, 5)));
        // But anything P2 does *after* the read is ordered behind BOTH
        // writes — the protocol's W is the join of all writers.
        let mut b = TraceBuilder::new(3);
        b.record_access(1, 0, AccessKind::Write, w(0));
        b.record_access(3, 1, AccessKind::Write, w(0));
        b.record_access(5, 2, AccessKind::Read, w(0));
        b.record_access(7, 2, AccessKind::Write, w(0));
        let o = Oracle::analyze(&b.finish());
        assert!(
            !o.truth().contains(&(1, 7)),
            "post-read write ordered after w1"
        );
        assert!(
            !o.truth().contains(&(3, 7)),
            "post-read write ordered after w3"
        );
    }

    #[test]
    fn absorb_edges_follow_write_record_order() {
        // Recorded out of offset order; the read visits the index by offset
        // but must emit its edges in record order.
        let at = |off, len| GlobalAddr::public(0, off).range(len);
        let mut b = TraceBuilder::new(2);
        b.record_access(1, 0, AccessKind::Write, at(8, 8));
        b.record_access(3, 0, AccessKind::Write, at(0, 16));
        b.record_access(5, 0, AccessKind::Write, at(4, 4));
        b.record_access(7, 0, AccessKind::Write, at(16, 8)); // disjoint
        b.record_access(9, 0, AccessKind::Write, at(0, 16));
        b.record_access(11, 1, AccessKind::Read, at(6, 4));
        assert_eq!(b.trace().absorb_edges, [(1, 11), (3, 11), (5, 11), (9, 11)]);
    }

    #[test]
    fn unlock_without_prior_access_is_harmless() {
        let mut b = TraceBuilder::new(2);
        b.on_unlock((0, 0), 0);
        b.on_lock_granted((0, 0), 1);
        b.record_access(1, 1, AccessKind::Write, w(0));
        assert_eq!(b.trace().edges.len(), 0);
    }

    /// The builder before indexing: every read scans every write ever
    /// recorded to the owner rank. The differential reference.
    struct FullScan {
        trace: Trace,
        last_access: Vec<Option<u64>>,
        pending_edges: Vec<Vec<u64>>,
        lock_last: HashMap<LockId, u64>,
        writes: Vec<Vec<(MemRange, u64)>>,
    }

    impl FullScan {
        fn new(n: usize) -> Self {
            FullScan {
                trace: Trace::new(n),
                last_access: vec![None; n],
                pending_edges: vec![Vec::new(); n],
                lock_last: HashMap::new(),
                writes: vec![Vec::new(); n],
            }
        }

        fn record_access(&mut self, id: u64, process: Rank, kind: AccessKind, range: MemRange) {
            for src in self.pending_edges[process].drain(..) {
                self.trace.push_edge(src, id);
            }
            if kind == AccessKind::Read {
                for (wr, wid) in &self.writes[range.addr.rank] {
                    if wr.overlaps(&range) {
                        self.trace.push_absorb_edge(*wid, id);
                    }
                }
            }
            self.trace.push_access(TraceAccess {
                id,
                process,
                kind,
                range,
                atomic: false,
            });
            self.last_access[process] = Some(id);
            if kind == AccessKind::Write {
                self.writes[range.addr.rank].push((range, id));
            }
        }

        fn on_unlock(&mut self, lock: LockId, process: Rank) {
            if let Some(id) = self.last_access[process] {
                self.lock_last.insert(lock, id);
            }
        }

        fn on_lock_granted(&mut self, lock: LockId, process: Rank) {
            if let Some(&src) = self.lock_last.get(&lock) {
                self.pending_edges[process].push(src);
            }
        }

        fn on_barrier_release(&mut self) {
            let sources: Vec<u64> = self.last_access.iter().flatten().copied().collect();
            for pending in &mut self.pending_edges {
                pending.extend(sources.iter().copied());
            }
        }
    }

    const RANKS: usize = 3;

    /// One builder call.
    #[derive(Debug, Clone, Copy)]
    enum Call {
        Access(Rank, AccessKind, MemRange),
        Unlock(LockId, Rank),
        Granted(LockId, Rank),
        Barrier,
    }

    /// Mostly accesses: unaligned offsets, lengths from 0 to three words,
    /// both segments, every rank; locks and barriers interleaved.
    fn arb_call() -> impl proptest::Strategy<Value = Call> {
        use proptest::prelude::*;
        (
            (0u8..16, 0usize..RANKS, 0usize..RANKS),
            (0u8..2, 0usize..96, 0usize..25, 0usize..2),
        )
            .prop_map(|((sel, process, rank), (seg, offset, len, lock))| {
                let addr = match seg {
                    0 => GlobalAddr::private(rank, offset),
                    _ => GlobalAddr::public(rank, offset),
                };
                let lock_id = (rank, 8 * lock);
                match sel {
                    0..=6 => Call::Access(process, AccessKind::Read, addr.range(len)),
                    7..=12 => Call::Access(process, AccessKind::Write, addr.range(len)),
                    13 => Call::Unlock(lock_id, process),
                    14 => Call::Granted(lock_id, process),
                    _ => Call::Barrier,
                }
            })
    }

    fn events(t: &Trace) -> Vec<(u64, Rank, AccessKind, MemRange, bool)> {
        t.events
            .iter()
            .map(|e| (e.id, e.process, e.kind, e.range, e.atomic))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn indexed_builder_matches_full_scan(
            calls in proptest::collection::vec(arb_call(), 0..200)
        ) {
            let mut indexed = TraceBuilder::new(RANKS);
            let mut scan = FullScan::new(RANKS);
            for (i, call) in calls.into_iter().enumerate() {
                match call {
                    Call::Access(process, kind, range) => {
                        let id = 2 * i as u64 + u64::from(kind == AccessKind::Write);
                        indexed.record_access(id, process, kind, range);
                        scan.record_access(id, process, kind, range);
                    }
                    Call::Unlock(lock, process) => {
                        indexed.on_unlock(lock, process);
                        scan.on_unlock(lock, process);
                    }
                    Call::Granted(lock, process) => {
                        indexed.on_lock_granted(lock, process);
                        scan.on_lock_granted(lock, process);
                    }
                    Call::Barrier => {
                        indexed.on_barrier_release();
                        scan.on_barrier_release();
                    }
                }
            }
            let (got, want) = (indexed.finish(), scan.trace);
            proptest::prop_assert_eq!(events(&got), events(&want));
            proptest::prop_assert_eq!(got.edges, want.edges);
            proptest::prop_assert_eq!(got.absorb_edges, want.absorb_edges);
        }
    }
}
