//! Property tests for the wire codec's trust boundary: arbitrary and
//! corrupted bytes must decode to typed errors (or valid frames), never
//! panic, and valid frames must survive a round trip bit-for-bit.

use dsm::addr::GlobalAddr;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use dsm_service::frame::{
    read_frame, write_frame, ClientFrame, FrameReader, ServerFrame, WireError, WireEvent, MAX_FRAME,
};
use dsm_service::FrameError;
use proptest::prelude::*;
use race_core::{DsmOp, OpKind};

/// Decode an arbitrary wire event from four generator words — covers every
/// event and op-kind arm.
fn event_from_words(sel: u64, a: u64, b: u64, c: u64) -> WireEvent {
    let rank = (a % 8) as usize;
    let range = |seed: u64| {
        let addr = if seed.is_multiple_of(2) {
            GlobalAddr::public((seed % 8) as usize, (seed % 4096) as usize)
        } else {
            GlobalAddr::private((seed % 8) as usize, (seed % 4096) as usize)
        };
        addr.range(1 + (seed % 64) as usize)
    };
    match sel % 7 {
        0 => WireEvent::Op(DsmOp {
            op_id: b,
            actor: rank,
            kind: OpKind::Put {
                src: range(b),
                dst: range(c),
            },
        }),
        1 => WireEvent::Op(DsmOp {
            op_id: b,
            actor: rank,
            kind: OpKind::Get {
                src: range(b),
                dst: range(c),
            },
        }),
        2 => WireEvent::Op(DsmOp {
            op_id: b,
            actor: rank,
            kind: OpKind::LocalRead { range: range(c) },
        }),
        3 => WireEvent::Op(DsmOp {
            op_id: b,
            actor: rank,
            kind: OpKind::LocalWrite { range: range(c) },
        }),
        4 => WireEvent::Op(DsmOp {
            op_id: b,
            actor: rank,
            kind: OpKind::AtomicRmw { range: range(c) },
        }),
        5 => WireEvent::Barrier,
        _ => WireEvent::Acquire {
            rank,
            lock: ((b % 8) as usize, (c % 4096) as usize),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any generated event round-trips exactly.
    #[test]
    fn events_round_trip(raw in proptest::collection::vec(
        (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        1..40,
    )) {
        for (sel, a, b, c) in raw {
            let frame = ClientFrame::Event(event_from_words(sel, a, b, c));
            let decoded = ClientFrame::decode(&frame.encode());
            prop_assert_eq!(decoded.as_ref(), Ok(&frame));
        }
    }

    /// Arbitrary byte soup decodes without panicking, on both sides of the
    /// protocol.
    #[test]
    fn random_bytes_never_panic_the_decoders(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let _ = ClientFrame::decode(&bytes);
        let _ = ServerFrame::decode(&bytes);
    }

    /// Single-byte corruption of a valid frame decodes to a typed error or
    /// a (different but) valid frame — never a panic, and never the
    /// original frame when the corrupted byte matters.
    #[test]
    fn corrupted_frames_fail_typed(
        (sel, a, b, c) in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        flip_pos in 0usize..4096,
        flip_bits in 1u8..=255,
    ) {
        let frame = ClientFrame::Event(event_from_words(sel, a, b, c));
        let mut payload = frame.encode();
        let pos = flip_pos % payload.len();
        payload[pos] ^= flip_bits;
        // Must not panic; errors must be typed (that's the return type);
        // success is legitimate when the flipped bits land in a value field.
        let _ = ClientFrame::decode(&payload);
    }

    /// Truncation at every length decodes to a typed error, never a panic.
    #[test]
    fn truncated_frames_fail_typed(
        (sel, a, b, c) in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        keep in 0usize..4096,
    ) {
        let frame = ClientFrame::Event(event_from_words(sel, a, b, c));
        let mut payload = frame.encode();
        let keep = keep % payload.len();
        payload.truncate(keep);
        prop_assert!(ClientFrame::decode(&payload).is_err());
    }

    /// `read_frame` handles arbitrary byte streams (hostile length
    /// prefixes included) without panicking or over-allocating.
    #[test]
    fn read_frame_survives_arbitrary_streams(
        bytes in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let mut cursor = std::io::Cursor::new(bytes);
        let _ = read_frame(&mut cursor);
    }

    /// The resume-protocol frames (v2) round-trip exactly for every token
    /// and sequence value.
    #[test]
    fn resume_frames_round_trip(
        token in 0u64..u64::MAX,
        seq in 0u64..u64::MAX,
        session in 0u64..u64::MAX,
    ) {
        let resume = ClientFrame::Resume { token, last_acked_seq: seq };
        prop_assert_eq!(ClientFrame::decode(&resume.encode()).as_ref(), Ok(&resume));

        let hello_ack = ServerFrame::HelloAck { session, token };
        prop_assert_eq!(ServerFrame::decode(&hello_ack.encode()).as_ref(), Ok(&hello_ack));

        let resume_ack = ServerFrame::ResumeAck { session, next_seq: seq };
        prop_assert_eq!(ServerFrame::decode(&resume_ack.encode()).as_ref(), Ok(&resume_ack));
    }

    /// Truncating a resume-protocol frame at any length is a typed error,
    /// never a panic — tokens cannot be smuggled through short frames.
    #[test]
    fn truncated_resume_frames_fail_typed(
        token in 0u64..u64::MAX,
        seq in 0u64..u64::MAX,
        keep in 0usize..4096,
    ) {
        let payload = ClientFrame::Resume { token, last_acked_seq: seq }.encode();
        let cut = keep % payload.len();
        prop_assert!(ClientFrame::decode(&payload[..cut]).is_err());

        let payload = ServerFrame::HelloAck { session: seq, token }.encode();
        let cut = keep % payload.len();
        prop_assert!(ServerFrame::decode(&payload[..cut]).is_err());

        let payload = ServerFrame::ResumeAck { session: token, next_seq: seq }.encode();
        let cut = keep % payload.len();
        prop_assert!(ServerFrame::decode(&payload[..cut]).is_err());
    }

    /// XOR-corrupting a resume frame decodes to a typed error or a valid
    /// frame with different fields — never a panic, and flips in the
    /// version byte are always rejected.
    #[test]
    fn corrupted_resume_frames_fail_typed(
        token in 0u64..u64::MAX,
        seq in 0u64..u64::MAX,
        flip_pos in 0usize..4096,
        flip_bits in 1u8..=255,
    ) {
        let mut payload = ClientFrame::Resume { token, last_acked_seq: seq }.encode();
        let pos = flip_pos % payload.len();
        payload[pos] ^= flip_bits;
        match ClientFrame::decode(&payload) {
            // Version byte (offset 1) corrupted: must be refused as such.
            _ if pos == 1 => prop_assert!(matches!(
                ClientFrame::decode(&payload),
                Err(dsm_service::FrameError::Version { .. })
            )),
            // Tag corrupted into another tag or garbage: any typed outcome
            // is fine; the original frame must not come back.
            Ok(frame) => prop_assert_ne!(
                frame,
                ClientFrame::Resume { token, last_acked_seq: seq }
            ),
            Err(_) => {}
        }
    }
}

/// Any client frame from five generator words: every event arm, the
/// control frames, and hellos up to the maximal payload.
fn frame_from_words(sel: u64, a: u64, b: u64, c: u64) -> ClientFrame {
    match sel % 11 {
        7 => ClientFrame::Ping,
        8 => ClientFrame::Finish,
        9 => ClientFrame::Hello {
            config_json: "x".repeat((a % (MAX_FRAME as u64 - 1)) as usize),
        },
        10 => ClientFrame::Resume {
            token: b,
            last_acked_seq: c,
        },
        _ => ClientFrame::Event(event_from_words(sel, a, b, c)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The server's bulk reader over a real socket: a random frame
    /// sequence, written in random-sized chunks, decodes to the same frames
    /// in the same order, then ends cleanly.
    #[test]
    fn bulk_reader_decodes_chunked_socket_streams(
        raw in proptest::collection::vec(
            (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            1..24,
        ),
        chunks in proptest::collection::vec(1usize..3000, 1..16),
    ) {
        let frames: Vec<ClientFrame> = raw
            .iter()
            .map(|&(sel, a, b, c)| frame_from_words(sel, a, b, c))
            .collect();
        let mut bytes = Vec::new();
        for f in &frames {
            write_frame(&mut bytes, &f.encode()).unwrap();
        }

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            let mut rest = &bytes[..];
            for &size in chunks.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (chunk, tail) = rest.split_at(size.min(rest.len()));
                stream.write_all(chunk).unwrap();
                rest = tail;
            }
        });
        let (stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = FrameReader::new(stream);
        let mut got = Vec::new();
        let end = loop {
            match reader.next_frame() {
                Ok(payload) => got.push(ClientFrame::decode(payload)),
                Err(e) => break e,
            }
        };
        writer.join().unwrap();
        let want: Vec<_> = frames.into_iter().map(Ok).collect();
        prop_assert_eq!(got, want);
        prop_assert!(
            matches!(end, WireError::Frame(FrameError::ConnectionClosed)),
            "stream must end cleanly, got {:?}",
            end
        );
    }
}
