//! The DSM wire protocol carried over the `netsim` interconnect.
//!
//! Message inventory follows §III-B exactly: a **put is one message**
//! (source → destination, carrying the data); a **get is two messages**
//! (request, then the data reply). Locks add request/grant/release traffic,
//! and the detection algorithms (Algorithms 1, 2, 5) add clock reads and
//! writes — classified separately so the §V-A overhead split is measurable.

use bytes::Bytes;
use netsim::{Classify, OpClass};
use serde::{Deserialize, Serialize};

use crate::addr::MemRange;

/// An operation token correlating requests with replies/completions.
pub type OpToken = u64;

/// Atomic read-modify-write operations a NIC can execute on a u64 word
/// (the standard RDMA verbs; §V-B's "new operations can be imagined").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AtomicOp {
    /// `old = *p; *p = old + v; return old`.
    FetchAdd(u64),
    /// `old = *p; if old == expected { *p = new }; return old`.
    CompareSwap {
        /// Value the word must currently hold.
        expected: u64,
        /// Replacement on success.
        new: u64,
    },
    /// `old = *p; *p = v; return old`.
    Swap(u64),
}

impl AtomicOp {
    /// Apply to a current value; returns `(new_value, old_value)`.
    pub fn apply(self, current: u64) -> (u64, u64) {
        match self {
            AtomicOp::FetchAdd(v) => (current.wrapping_add(v), current),
            AtomicOp::CompareSwap { expected, new } => {
                if current == expected {
                    (new, current)
                } else {
                    (current, current)
                }
            }
            AtomicOp::Swap(v) => (v, current),
        }
    }
}

/// Protocol payloads.
#[derive(Debug, Clone)]
pub enum DsmPayload {
    /// The single message of a put: write `data` at `dst` (Fig 2 left).
    PutData {
        /// Destination range in the target's public memory.
        dst: MemRange,
        /// Data to write (`data.len() == dst.len`).
        data: Bytes,
        /// Completion token echoed to the initiator.
        token: OpToken,
    },
    /// First message of a get: ask the owner's NIC for `src` (Fig 2 right).
    GetRequest {
        /// Range to read.
        src: MemRange,
        /// Completion token.
        token: OpToken,
    },
    /// Second message of a get: the data comes back.
    GetReply {
        /// Token of the original request.
        token: OpToken,
        /// The bytes read.
        data: Bytes,
    },
    /// Acknowledgement that a put was applied (RDMA completion).
    PutAck {
        /// Token of the original put.
        token: OpToken,
    },
    /// Ask the owner's NIC to lock `range`.
    LockRequest {
        /// Area to lock.
        range: MemRange,
        /// Correlation token.
        token: OpToken,
    },
    /// The lock is now held by the requester.
    LockGrant {
        /// Token of the granted request.
        token: OpToken,
        /// The NIC-side lock token needed to release.
        lock_token: u64,
    },
    /// Release a held lock (fire-and-forget).
    LockRelease {
        /// NIC-side lock token.
        lock_token: u64,
    },
    /// Detection traffic: read the `(V, W)` clocks of the area containing
    /// `range` (Algorithms 1–2: `get_clock` / `get_clock_W`).
    ClockReadRequest {
        /// Area whose clocks are read.
        range: MemRange,
        /// Correlation token.
        token: OpToken,
    },
    /// Detection traffic: the clocks come back (`n` components each).
    ///
    /// Detection logic is centralised in the detector, so the message
    /// carries only the component counts that size it on the wire.
    ClockReadReply {
        /// Token of the request.
        token: OpToken,
        /// Components of the area's general-purpose clock `V`.
        v_components: usize,
        /// Components of the area's write clock `W`.
        w_components: usize,
    },
    /// Detection traffic: merge `V`/`W` components into the area's clocks
    /// (Algorithm 5 `put_clock`, and `update_clock_W`). Sized by component
    /// counts, like [`DsmPayload::ClockReadReply`].
    ClockWrite {
        /// Area whose clocks are updated.
        range: MemRange,
        /// Components to merge into `V` (0 = skip).
        v_components: usize,
        /// Components to merge into `W` (0 = skip).
        w_components: usize,
        /// Completion token (clock writes are acknowledged so the algorithm
        /// steps stay ordered under the lock).
        token: OpToken,
    },
    /// Acknowledgement of a `ClockWrite`.
    ClockWriteAck {
        /// Token of the clock write.
        token: OpToken,
    },
    /// NIC-executed atomic read-modify-write request (§V-B extension).
    AtomicRequest {
        /// Target u64 word (must be 8 bytes).
        range: MemRange,
        /// The operation to apply.
        op: AtomicOp,
        /// Correlation token.
        token: OpToken,
    },
    /// The atomic's reply, carrying the previous value.
    AtomicReply {
        /// Token of the request.
        token: OpToken,
        /// Value of the word before the operation.
        old: u64,
    },
    /// Barrier arrival notification (to the coordinator, rank 0).
    BarrierArrive {
        /// Barrier epoch.
        epoch: u64,
    },
    /// Barrier release broadcast (from the coordinator).
    BarrierRelease {
        /// Barrier epoch.
        epoch: u64,
    },
}

impl Classify for DsmPayload {
    fn class(&self) -> OpClass {
        match self {
            // A put is ONE data message (Fig 2). The optional PutAck is a
            // completion notification outside the paper's model; it is
            // classified `Other` so it never perturbs the Fig 2 counts.
            DsmPayload::PutData { .. } => OpClass::PutData,
            DsmPayload::PutAck { .. } => OpClass::Other,
            DsmPayload::GetRequest { .. } => OpClass::GetRequest,
            DsmPayload::GetReply { .. } => OpClass::GetReply,
            DsmPayload::LockRequest { .. }
            | DsmPayload::LockGrant { .. }
            | DsmPayload::LockRelease { .. } => OpClass::Lock,
            DsmPayload::ClockReadRequest { .. }
            | DsmPayload::ClockReadReply { .. }
            | DsmPayload::ClockWrite { .. }
            | DsmPayload::ClockWriteAck { .. } => OpClass::Clock,
            DsmPayload::AtomicRequest { .. } | DsmPayload::AtomicReply { .. } => OpClass::Atomic,
            DsmPayload::BarrierArrive { .. } | DsmPayload::BarrierRelease { .. } => OpClass::Sync,
        }
    }

    fn wire_bytes(&self) -> usize {
        const RANGE: usize = 24; // rank + segment + offset + len
        const TOKEN: usize = 8;
        match self {
            DsmPayload::PutData { data, .. } => RANGE + TOKEN + data.len(),
            DsmPayload::GetRequest { .. } => RANGE + TOKEN,
            DsmPayload::GetReply { data, .. } => TOKEN + data.len(),
            DsmPayload::PutAck { .. } => TOKEN,
            DsmPayload::LockRequest { .. } => RANGE + TOKEN,
            DsmPayload::LockGrant { .. } => 2 * TOKEN,
            DsmPayload::LockRelease { .. } => TOKEN,
            DsmPayload::ClockReadRequest { .. } => RANGE + TOKEN,
            DsmPayload::ClockReadReply {
                v_components,
                w_components,
                ..
            } => TOKEN + 8 * (v_components + w_components),
            DsmPayload::ClockWrite {
                v_components,
                w_components,
                ..
            } => RANGE + TOKEN + 8 * (v_components + w_components),
            DsmPayload::ClockWriteAck { .. } => TOKEN,
            DsmPayload::AtomicRequest { .. } => RANGE + TOKEN + 24,
            DsmPayload::AtomicReply { .. } => 2 * TOKEN,
            DsmPayload::BarrierArrive { .. } | DsmPayload::BarrierRelease { .. } => 8,
        }
    }
}

/// Serializable summary of a payload (for traces; omits bulk data).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PayloadSummary {
    /// Payload discriminant name.
    pub kind: String,
    /// Stats class label.
    pub class: String,
    /// Wire size in bytes.
    pub bytes: usize,
}

impl From<&DsmPayload> for PayloadSummary {
    fn from(p: &DsmPayload) -> Self {
        let kind = match p {
            DsmPayload::PutData { .. } => "PutData",
            DsmPayload::GetRequest { .. } => "GetRequest",
            DsmPayload::GetReply { .. } => "GetReply",
            DsmPayload::PutAck { .. } => "PutAck",
            DsmPayload::LockRequest { .. } => "LockRequest",
            DsmPayload::LockGrant { .. } => "LockGrant",
            DsmPayload::LockRelease { .. } => "LockRelease",
            DsmPayload::ClockReadRequest { .. } => "ClockReadRequest",
            DsmPayload::ClockReadReply { .. } => "ClockReadReply",
            DsmPayload::ClockWrite { .. } => "ClockWrite",
            DsmPayload::ClockWriteAck { .. } => "ClockWriteAck",
            DsmPayload::AtomicRequest { .. } => "AtomicRequest",
            DsmPayload::AtomicReply { .. } => "AtomicReply",
            DsmPayload::BarrierArrive { .. } => "BarrierArrive",
            DsmPayload::BarrierRelease { .. } => "BarrierRelease",
        };
        PayloadSummary {
            kind: kind.to_string(),
            class: p.class().label().to_string(),
            bytes: p.wire_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::GlobalAddr;

    fn range() -> MemRange {
        GlobalAddr::public(1, 0).range(8)
    }

    #[test]
    fn put_is_put_class_and_sized_by_data() {
        let p = DsmPayload::PutData {
            dst: range(),
            data: Bytes::from(vec![0u8; 100]),
            token: 1,
        };
        assert_eq!(p.class(), OpClass::PutData);
        assert_eq!(p.wire_bytes(), 24 + 8 + 100);
    }

    #[test]
    fn get_halves_have_distinct_classes() {
        let req = DsmPayload::GetRequest {
            src: range(),
            token: 1,
        };
        let rep = DsmPayload::GetReply {
            token: 1,
            data: Bytes::from(vec![0u8; 8]),
        };
        assert_eq!(req.class(), OpClass::GetRequest);
        assert_eq!(rep.class(), OpClass::GetReply);
    }

    #[test]
    fn clock_traffic_is_detection_overhead() {
        let msgs = [
            DsmPayload::ClockReadRequest {
                range: range(),
                token: 0,
            },
            DsmPayload::ClockReadReply {
                token: 0,
                v_components: 4,
                w_components: 4,
            },
            DsmPayload::ClockWrite {
                range: range(),
                v_components: 4,
                w_components: 0,
                token: 0,
            },
        ];
        for m in &msgs {
            assert!(m.class().is_detection_overhead());
        }
        // Clock reply carries 2 × n × 8 bytes of clocks.
        assert_eq!(msgs[1].wire_bytes(), 8 + 8 * 8);
        assert_eq!(msgs[2].wire_bytes(), 24 + 8 + 4 * 8);
    }

    #[test]
    fn atomic_ops_apply() {
        assert_eq!(AtomicOp::FetchAdd(5).apply(10), (15, 10));
        assert_eq!(
            AtomicOp::CompareSwap {
                expected: 10,
                new: 99
            }
            .apply(10),
            (99, 10)
        );
        assert_eq!(
            AtomicOp::CompareSwap {
                expected: 11,
                new: 99
            }
            .apply(10),
            (10, 10)
        );
        assert_eq!(AtomicOp::Swap(7).apply(3), (7, 3));
        // Wrapping semantics at the boundary.
        assert_eq!(AtomicOp::FetchAdd(1).apply(u64::MAX), (0, u64::MAX));
    }

    #[test]
    fn atomic_messages_classified() {
        let req = DsmPayload::AtomicRequest {
            range: range(),
            op: AtomicOp::FetchAdd(1),
            token: 0,
        };
        let rep = DsmPayload::AtomicReply { token: 0, old: 0 };
        assert_eq!(req.class(), OpClass::Atomic);
        assert_eq!(rep.class(), OpClass::Atomic);
        assert!(req.wire_bytes() > rep.wire_bytes());
    }

    #[test]
    fn summary_captures_kind() {
        let p = DsmPayload::BarrierArrive { epoch: 3 };
        let s = PayloadSummary::from(&p);
        assert_eq!(s.kind, "BarrierArrive");
        assert_eq!(s.class, "sync");
    }
}
