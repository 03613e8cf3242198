//! Codec property tests: encode→decode is the identity over arbitrary
//! request/response batches (ISSUE-7 satellite).
//!
//! Two layers of identity are pinned per case:
//! 1. structural — the decoded value equals the original;
//! 2. byte-level — re-encoding the decoded value reproduces the wire
//!    frame exactly (no tolerated-but-unreproducible encodings, which
//!    is the property the wire-equivalence suite's frame comparisons
//!    stand on).
//!
//! Empty batches ride along naturally (`vec(..., 0..N)` generates
//! them); the max-size batch is covered both here (a dedicated case)
//! and in the codec's unit tests.
//!
//! Round trips compare the codec with itself, so they cannot see the
//! protocol *change*. [`golden_frames_pin_the_protocol_bytes`] can: one
//! checked-in frame per request and response kind, which this file
//! must keep matching, unmodified, on every commit that claims protocol
//! v1.1.

use proptest::collection::vec;
use proptest::prelude::*;
use tivgate::proto::{
    decode_request, decode_response, encode_request, encode_response, next_frame, ErrorCode,
    FrameStep, Request, Response, MAX_PAIRS,
};
use tivserve::snapshot::{EdgeEstimate, RouteEstimate};
use tivserve::SeverityEstimate;

fn assert_request_roundtrip(req: &Request) {
    let wire = encode_request(req);
    let FrameStep::Frame { body, consumed } = next_frame(&wire) else {
        panic!("encoded request did not frame");
    };
    assert_eq!(consumed, wire.len());
    let decoded = decode_request(&body).expect("decode");
    assert_eq!(&decoded, req);
    assert_eq!(encode_request(&decoded), wire, "re-encode must reproduce the bytes");
}

fn assert_response_roundtrip(resp: &Response) {
    let wire = encode_response(resp);
    let FrameStep::Frame { body, consumed } = next_frame(&wire) else {
        panic!("encoded response did not frame");
    };
    assert_eq!(consumed, wire.len());
    let decoded = decode_response(&body).expect("decode");
    assert_eq!(&decoded, resp);
    assert_eq!(encode_response(&decoded), wire, "re-encode must reproduce the bytes");
}

/// Wire bytes from a hex listing (whitespace is layout only).
fn hex(listing: &str) -> Vec<u8> {
    let digits: Vec<u8> = listing.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).expect("hex digit pair"))
        .collect()
}

/// Every frame below is `u32 length | version 01, kind, minor 01,
/// reserved 00 | u32 id | payload`, little-endian, `f64`s as IEEE bit
/// patterns. The values are literals — no snapshot, embedding or libm
/// call stands between this file and the bytes.
#[test]
fn golden_frames_pin_the_protocol_bytes() {
    let requests = [
        (
            Request::Estimate { id: 0x0101, pairs: vec![(1, 2), (70_000, 3)] },
            "1c000000 01010100 01010000  02000000  01000000 02000000  70110100 03000000",
        ),
        (
            Request::Route { id: 2, pairs: vec![(4, 5)] },
            "14000000 01020100 02000000  01000000  04000000 05000000",
        ),
        (Request::Severity { id: 3, pairs: vec![] }, "0c000000 01030100 03000000  00000000"),
        (
            Request::Alerts { id: 4, pairs: vec![(6, 7)] },
            "14000000 01040100 04000000  01000000  06000000 07000000",
        ),
        (Request::Ping { id: 5 }, "08000000 01050100 05000000"),
        (
            // witnesses before the pair batch
            Request::SampledSeverity { id: 6, witnesses: 64, pairs: vec![(8, 9)] },
            "18000000 01060100 06000000  40000000  01000000  08000000 09000000",
        ),
    ];
    for (value, listing) in &requests {
        let golden = hex(listing);
        assert_eq!(encode_request(value), golden, "encoding of {value:?} moved");
        assert_eq!(&decode_request(&golden[4..]).expect("golden request decodes"), value);
    }

    let responses = [
        (
            Response::Estimate {
                id: 7,
                items: vec![EdgeEstimate {
                    epoch: 3,
                    predicted: 12.5,
                    measured: Some(-0.0),
                    ratio: None,
                    severity: Some(0.25),
                    alert: true,
                }],
            },
            // epoch, predicted, tagged measured, absent ratio, tagged severity, alert
            "30000000 01810100 07000000  01000000
             0300000000000000 0000000000002940 01 0000000000000080 00 01 000000000000d03f 01",
        ),
        (
            Response::Route {
                id: 8,
                items: vec![RouteEstimate {
                    epoch: 1,
                    direct_ms: Some(80.0),
                    relay: Some(77),
                    via_ms: Some(50.5),
                    saving_ms: Some(29.5),
                    saving_frac: None,
                }],
            },
            // epoch, tagged direct, tagged u32 relay, tagged via, tagged saving, absent frac
            "35000000 01820100 08000000  01000000
             0100000000000000 01 0000000000005440 01 4d000000 01 0000000000404940
             01 0000000000803d40 00",
        ),
        (
            Response::Severity { id: 9, items: vec![None, Some(0.25)] },
            "16000000 01830100 09000000  02000000  00  01 000000000000d03f",
        ),
        (
            Response::Alerts { id: 10, items: vec![true, false] },
            "0e000000 01840100 0a000000  02000000  01 00",
        ),
        (
            Response::SampledSeverity {
                id: 11,
                items: vec![
                    None,
                    Some(SeverityEstimate { point: 0.125, ci_lo: -0.0, ci_hi: 0.5, sampled: 31 }),
                ],
            },
            // absent; tag, point, ci_lo, ci_hi, u32 sampled
            "2a000000 01860100 0b000000  02000000  00
             01 000000000000c03f 0000000000000080 000000000000e03f 1f000000",
        ),
        (
            Response::Pong { id: 12, epoch: 17, nodes: 512 },
            "14000000 01850100 0c000000  1100000000000000 00020000",
        ),
        (
            Response::Error {
                id: 13,
                code: ErrorCode::OutOfRange,
                message: "node 900 outside 512".to_string(),
            },
            // u16 code, u16 length, UTF-8 message
            "20000000 01ff0100 0d000000  0400 1400
             6e6f646520393030206f75747369646520353132",
        ),
    ];
    for (value, listing) in &responses {
        let golden = hex(listing);
        assert_eq!(encode_response(value), golden, "encoding of {value:?} moved");
        assert_eq!(&decode_response(&golden[4..]).expect("golden response decodes"), value);
    }
}

/// `Option<f64>` from a tag draw and a value draw.
fn opt(tag: u8, v: f64) -> Option<f64> {
    (tag == 1).then_some(v)
}

proptest! {
    #[test]
    fn request_batches_round_trip(
        id in 0u32..u32::MAX,
        kind in 0u8..5,
        pairs in vec((0u32..100_000, 0u32..100_000), 0..300),
    ) {
        let req = match kind {
            0 => Request::Estimate { id, pairs },
            1 => Request::Route { id, pairs },
            2 => Request::Severity { id, pairs },
            3 => Request::Alerts { id, pairs },
            _ => Request::Ping { id },
        };
        assert_request_roundtrip(&req);
    }

    #[test]
    fn estimate_responses_round_trip(
        id in 0u32..u32::MAX,
        raw in vec(
            (
                0u64..1_000_000,
                -1.0e6f64..1.0e6,
                (0u8..2, 0.0f64..1.0e5),
                (0u8..2, -10.0f64..10.0),
                (0u8..2, 0.0f64..1.0),
                0u8..2,
            ),
            0..200,
        ),
    ) {
        let items: Vec<EdgeEstimate> = raw
            .into_iter()
            .map(|(epoch, predicted, m, r, s, alert)| EdgeEstimate {
                epoch,
                predicted,
                measured: opt(m.0, m.1),
                ratio: opt(r.0, r.1),
                severity: opt(s.0, s.1),
                alert: alert == 1,
            })
            .collect();
        assert_response_roundtrip(&Response::Estimate { id, items });
    }

    #[test]
    fn route_responses_round_trip(
        id in 0u32..u32::MAX,
        raw in vec(
            (
                0u64..1_000_000,
                (0u8..2, 0.0f64..1.0e5),
                (0u8..2, 0usize..100_000),
                (0u8..2, 0.0f64..1.0e5),
                (0u8..2, -1.0e4f64..1.0e4),
                (0u8..2, -1.0f64..1.0),
            ),
            0..200,
        ),
    ) {
        let items: Vec<RouteEstimate> = raw
            .into_iter()
            .map(|(epoch, d, relay, v, sm, sf)| RouteEstimate {
                epoch,
                direct_ms: opt(d.0, d.1),
                relay: (relay.0 == 1).then_some(relay.1),
                via_ms: opt(v.0, v.1),
                saving_ms: opt(sm.0, sm.1),
                saving_frac: opt(sf.0, sf.1),
            })
            .collect();
        assert_response_roundtrip(&Response::Route { id, items });
    }

    #[test]
    fn severity_and_alert_responses_round_trip(
        id in 0u32..u32::MAX,
        sev in vec((0u8..2, 0.0f64..1.0e4), 0..300),
        alerts in vec(0u8..2, 0..300),
    ) {
        let items: Vec<Option<f64>> = sev.into_iter().map(|(t, v)| opt(t, v)).collect();
        assert_response_roundtrip(&Response::Severity { id, items });
        let items: Vec<bool> = alerts.into_iter().map(|a| a == 1).collect();
        assert_response_roundtrip(&Response::Alerts { id, items });
    }

    #[test]
    fn pong_round_trips(id in 0u32..u32::MAX, epoch in 0u64..u64::MAX, nodes in 0u32..1_000_000) {
        assert_response_roundtrip(&Response::Pong { id, epoch, nodes });
    }
}

proptest! {
    // Max-size batches are expensive to build; a handful of cases is
    // plenty on top of the dedicated unit test.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn near_and_at_max_size_batches_round_trip(slack in 0usize..3, id in 0u32..u32::MAX) {
        let len = MAX_PAIRS - slack;
        let pairs: Vec<(u32, u32)> = (0..len as u32).map(|i| (i, i ^ 0x5a5a)).collect();
        assert_request_roundtrip(&Request::Estimate { id, pairs });
    }
}
