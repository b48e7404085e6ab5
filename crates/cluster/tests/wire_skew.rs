//! Wire-version skew regression: a v8 peer (the protocol before
//! telemetry frames lost the twelve counter words that repeated a work
//! tally) must be rejected with a *typed*
//! [`WireError::Version`] on its very first frame — never a garbage
//! decode deep inside a message codec — on both transports:
//!
//! * the in-process backends (thread simulator, virtual-time sim) hand
//!   raw frames to the protocol codecs, so every `decode` is the gate;
//! * the socket backend rejects the skewed worker at its HELLO, before
//!   it is ever admitted to a rank.

use repro_align::{Scoring, Seq};
use repro_cluster::protocol::{
    AcceptedMsg, JobMsg, ResultMsg, ResultsMsg, ResyncMsg, TaskItem, TaskMsg, Work,
};
use repro_core::{PackUnit, Stats};
use repro_simd::{select, GroupSweeper, LaneWidth};
use repro_xmpi::socket::{envelope, SocketHub, SocketPeer};
use repro_xmpi::wire::{WireError, VERSION};
use repro_xmpi::Comm;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The version the skewed peer speaks: the one this build replaced.
const V8: u32 = 8;
const _: () = assert!(
    VERSION > V8,
    "the telemetry layout change must bump the wire version"
);

/// Rewrite a framed buffer's version word (bytes 4..8) to `v`. The
/// checksum only covers the payload, so the frame stays otherwise
/// intact — exactly what a well-formed frame from a stale build looks
/// like.
fn reversion(mut frame: Vec<u8>, v: u32) -> Vec<u8> {
    frame[4..8].copy_from_slice(&v.to_le_bytes());
    frame
}

#[test]
fn v8_frames_are_rejected_typed_by_every_message_codec() {
    let seq = Seq::dna("ATGCATGC").unwrap();
    let scoring = Scoring::dna_example();
    let sel = select(Some(LaneWidth::X4), None).unwrap();
    let packs = PackUnit::new(GroupSweeper::new(&seq, &scoring, sel), None);
    let frames: Vec<(&str, Vec<u8>)> = vec![
        (
            "TaskMsg",
            TaskMsg::single(
                0,
                TaskItem {
                    unit: 1,
                    attempt: 1,
                    first: true,
                    bound: 99,
                    rows: vec![],
                },
            )
            .encode(),
        ),
        (
            "ResultsMsg",
            ResultsMsg {
                items: vec![ResultMsg {
                    unit: 1,
                    stamp: 0,
                    attempt: 1,
                    best: (5, 7),
                    rows: vec![(5, vec![0, 1, 2]), (6, vec![0, 1]), (7, vec![0])],
                    work: Work::of(&Stats {
                        alignments: 3,
                        cells: 12,
                        ..Stats::default()
                    }),
                }],
            }
            .encode(),
        ),
        (
            "AcceptedMsg",
            AcceptedMsg {
                index: 0,
                pairs: vec![(1, 5)],
            }
            .encode(),
        ),
        ("ResyncMsg", ResyncMsg { applied: 2 }.encode()),
        (
            "JobMsg",
            JobMsg {
                count: 1,
                seq: seq.clone(),
                scoring: scoring.clone(),
                deadline_ms: 1_000,
                checkpoint_budget: None,
                lanes: LaneWidth::X4,
            }
            .encode(),
        ),
    ];
    let want = WireError::Version {
        got: V8,
        want: VERSION,
    };
    for (kind, frame) in frames {
        let stale = reversion(frame, V8);
        let got = match kind {
            "TaskMsg" => TaskMsg::decode(&stale, &packs).unwrap_err(),
            "ResultsMsg" => ResultsMsg::decode(&stale, &packs).unwrap_err(),
            "AcceptedMsg" => AcceptedMsg::decode(&stale).unwrap_err(),
            "ResyncMsg" => ResyncMsg::decode(&stale).unwrap_err(),
            "JobMsg" => JobMsg::decode(&stale).unwrap_err(),
            _ => unreachable!(),
        };
        assert_eq!(got, want, "{kind} did not reject the v8 frame typed");
    }
}

#[test]
fn v8_worker_hello_is_rejected_at_the_socket_hub() {
    let hub = SocketHub::bind("127.0.0.1:0").expect("bind hub");
    assert_eq!(hub.version_rejects(), 0);

    // A stale worker's admission request: a well-formed HELLO envelope
    // (reserved tag 0xFFFF_FF01) whose frame declares the previous
    // protocol version.
    let hello = reversion(envelope(0xFFFF_FF01, 1, &[]), V8);
    let mut stream = TcpStream::connect(hub.addr()).expect("connect");
    stream.write_all(&hello).expect("send stale hello");

    // The hub must count the typed rejection and never admit a rank.
    let deadline = Instant::now() + Duration::from_secs(10);
    while hub.version_rejects() == 0 {
        assert!(
            Instant::now() < deadline,
            "hub never counted the version rejection"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(hub.version_rejects(), 1);
    assert_eq!(hub.size(), 1, "a skewed worker must not be admitted");

    // The hub stays healthy: a current-version worker is admitted.
    let peer = SocketPeer::connect(&hub.addr().to_string()).expect("v9 worker admitted");
    assert_eq!(peer.rank(), 1);
    assert_eq!(hub.version_rejects(), 1);
}
