//! Malformed-input hardening over real sockets (ISSUE-7 satellite).
//!
//! Every case here feeds a live gate server something broken —
//! truncated frames, oversized length prefixes, wrong protocol
//! versions, unknown kinds, mid-frame disconnects, out-of-range
//! queries — and then proves two things:
//!
//! 1. the server answered with a structured error frame (or closed
//!    cleanly), never panicking;
//! 2. the server is *still alive and correct afterwards*: a fresh,
//!    well-formed request gets the right answer, and
//!    [`GateHandle::shutdown`] returns `Ok` (a panicked serving loop
//!    would surface there).

use std::io::ErrorKind;
use std::sync::atomic::Ordering;
use std::time::Duration;
use tivgate::client::GateClient;
use tivgate::proto::{encode_request, ErrorCode, Request, Response, MAX_FRAME, MINOR, VERSION};
use tivgate::server::{GateConfig, GateHandle, GateServer};
use tivgate::testutil::small_service;
use tivserve::query::QueryBatch;

const TIMEOUT: Duration = Duration::from_secs(10);

fn spawn_gate() -> GateHandle {
    GateServer::spawn(small_service(16), GateConfig::default()).expect("spawn gate")
}

fn connect(handle: &GateHandle) -> GateClient {
    let client = GateClient::connect(handle.addr()).expect("connect");
    client.set_read_timeout(Some(TIMEOUT)).expect("timeout");
    client
}

/// The liveness probe every case ends with: a fresh connection gets a
/// correct answer.
fn assert_still_serving(handle: &GateHandle) {
    let mut probe = connect(handle);
    match probe.call(&Request::Ping { id: 99 }).expect("server must still answer") {
        Response::Pong { id, nodes, .. } => {
            assert_eq!(id, 99);
            assert_eq!(nodes, 16);
        }
        other => panic!("expected a pong, got {other:?}"),
    }
}

#[test]
fn wrong_protocol_version_gets_error_frame_then_close() {
    let handle = spawn_gate();
    let mut client = connect(&handle);
    let mut frame = encode_request(&Request::Ping { id: 5 });
    frame[4] = VERSION + 1;
    client.send_bytes(&frame).expect("send");
    match client.recv().expect("error frame expected") {
        Response::Error { code, id, .. } => {
            assert_eq!(code, ErrorCode::BadVersion);
            assert_eq!(id, 0, "a foreign version's header is not trusted for the id");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    // Fatal: the server closes after flushing the error.
    let err = client.recv().expect_err("connection should be closed");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    assert_still_serving(&handle);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn oversized_length_prefix_gets_error_frame_then_close() {
    let handle = spawn_gate();
    let mut client = connect(&handle);
    client.send_bytes(&((MAX_FRAME as u32) + 1).to_le_bytes()).expect("send");
    match client.recv().expect("error frame expected") {
        Response::Error { code, message, .. } => {
            assert_eq!(code, ErrorCode::FrameTooLarge);
            assert!(message.contains("exceeds"), "useful message: {message}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    let err = client.recv().expect_err("connection should be closed");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    assert_still_serving(&handle);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn unknown_kind_gets_error_frame_and_connection_survives() {
    let handle = spawn_gate();
    let mut client = connect(&handle);
    let mut frame = encode_request(&Request::Ping { id: 31 });
    frame[5] = 0x6f; // a request-range kind this build does not serve
    client.send_bytes(&frame).expect("send");
    match client.recv().expect("error frame expected") {
        Response::Error { code, id, .. } => {
            assert_eq!(code, ErrorCode::UnsupportedKind);
            assert_eq!(id, 31, "header parsed far enough to echo the id");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    // Non-fatal: the same connection keeps working.
    match client.call(&Request::Ping { id: 32 }).expect("connection must survive") {
        Response::Pong { id, .. } => assert_eq!(id, 32),
        other => panic!("expected a pong, got {other:?}"),
    }
    assert_still_serving(&handle);
    handle.shutdown().expect("clean shutdown");
}

/// The version-skew scenario the minor byte exists for: a client from a
/// *newer* minor sends a kind this server has never heard of, with its
/// own minor advertised in the header. The server answers a structured
/// `unsupported-kind` error frame — carrying the request id — and the
/// session keeps serving the kinds it does know.
#[test]
fn newer_minor_kind_degrades_per_request_not_per_connection() {
    let handle = spawn_gate();
    let mut client = connect(&handle);
    // Hand-build a plausible v1.MINOR+1 request: valid header, future
    // kind 0x07, future minor byte, arbitrary payload.
    let mut body = vec![VERSION, 0x07, MINOR + 1, 0];
    body.extend_from_slice(&77u32.to_le_bytes()); // request id
    body.extend_from_slice(&0u32.to_le_bytes()); // some future payload
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    client.send_bytes(&frame).expect("send");
    match client.recv().expect("error frame expected") {
        Response::Error { code, id, message } => {
            assert_eq!(code, ErrorCode::UnsupportedKind);
            assert!(!code.is_fatal());
            assert_eq!(id, 77, "the structured error names the refused request");
            assert!(message.contains("0x07"), "names the kind: {message}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    // The same connection still answers the kinds this build serves —
    // including the newest one it *does* know.
    match client.call(&Request::SampledSeverity { id: 78, witnesses: 4, pairs: vec![(0, 1)] }) {
        Ok(Response::SampledSeverity { id, items }) => {
            assert_eq!(id, 78);
            assert_eq!(items.len(), 1);
        }
        other => panic!("expected sampled severities, got {other:?}"),
    }
    assert_still_serving(&handle);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn truncated_payload_gets_error_frame_and_connection_survives() {
    let handle = spawn_gate();
    let mut client = connect(&handle);
    // A frame whose length prefix is honest but whose payload lies: the
    // pair count says 3, the data holds 1.
    let good = encode_request(&Request::Estimate { id: 44, pairs: vec![(1, 2)] });
    let mut bad = good.clone();
    let count_at = 4 + 8;
    bad[count_at..count_at + 4].copy_from_slice(&3u32.to_le_bytes());
    client.send_bytes(&bad).expect("send");
    match client.recv().expect("error frame expected") {
        Response::Error { code, id, .. } => {
            assert_eq!(code, ErrorCode::BadPayload);
            assert_eq!(id, 44);
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    match client.call(&Request::Estimate { id: 45, pairs: vec![(1, 2)] }).expect("survives") {
        Response::Estimate { id, items } => {
            assert_eq!(id, 45);
            assert_eq!(items.len(), 1);
        }
        other => panic!("expected estimates, got {other:?}"),
    }
    assert_still_serving(&handle);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn mid_frame_disconnect_is_a_clean_close_not_a_panic() {
    let handle = spawn_gate();
    {
        let mut client = connect(&handle);
        // Half a frame: honest prefix, half the promised payload...
        let frame = encode_request(&Request::Estimate { id: 1, pairs: vec![(0, 1), (2, 3)] });
        client.send_bytes(&frame[..frame.len() / 2]).expect("send");
        // ...then vanish.
    }
    // Give the server a few poll cycles to observe the hangup.
    std::thread::sleep(Duration::from_millis(100));
    assert_still_serving(&handle);
    let closed = handle.stats().connections_closed.load(Ordering::Relaxed);
    assert!(closed >= 1, "the dead connection must be reaped, saw {closed}");
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn out_of_range_query_gets_error_frame_not_a_dead_replica() {
    let handle = spawn_gate();
    let mut client = connect(&handle);
    match client.call(&Request::Severity { id: 6, pairs: vec![(0, 1), (500, 2)] }).expect("call") {
        Response::Error { code, id, message } => {
            assert_eq!(code, ErrorCode::OutOfRange);
            assert_eq!(id, 6);
            assert!(message.contains("(500,2)"), "names the offender: {message}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    // The same connection — and the replica — keep answering.
    match client.call(&Request::Severity { id: 7, pairs: vec![(0, 1)] }).expect("survives") {
        Response::Severity { id, items } => {
            assert_eq!(id, 7);
            assert_eq!(items.len(), 1);
        }
        other => panic!("expected severities, got {other:?}"),
    }
    assert_still_serving(&handle);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn garbage_bytes_with_honest_prefix_get_an_error_frame() {
    let handle = spawn_gate();
    let mut client = connect(&handle);
    let mut frame = vec![0u8; 4 + 32];
    frame[..4].copy_from_slice(&32u32.to_le_bytes());
    frame[4] = VERSION; // right version so the garbage reaches the payload parser
    for (i, b) in frame.iter_mut().enumerate().skip(5) {
        *b = (i as u8).wrapping_mul(37).wrapping_add(11);
    }
    client.send_bytes(&frame).expect("send");
    match client.recv().expect("error frame expected") {
        Response::Error { code, .. } => {
            assert!(
                matches!(code, ErrorCode::BadKind | ErrorCode::BadPayload),
                "garbage decodes to a structured error, got {code}"
            );
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert_still_serving(&handle);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn error_frames_are_counted() {
    let handle = spawn_gate();
    let mut client = connect(&handle);
    for id in 0..3u32 {
        let mut frame = encode_request(&Request::Ping { id });
        frame[5] = 0x70;
        client.send_bytes(&frame).expect("send");
        let Response::Error { .. } = client.recv().expect("error frame") else {
            panic!("expected an error frame");
        };
    }
    assert_eq!(handle.stats().error_frames.load(Ordering::Relaxed), 3);
    handle.shutdown().expect("clean shutdown");
}

/// A burst of well-formed traffic sprinkled with every malformed shape
/// above, on interleaved connections — the server must finish with zero
/// panics and exact answers for the well-formed part. (Belt-and-braces
/// over the single-shape cases: panics that need *sequences* of bad
/// input to trigger show up here.)
#[test]
fn mixed_good_and_bad_traffic_never_panics() {
    let handle = spawn_gate();
    let service = small_service(16);
    let expect = service.query(&QueryBatch::Estimate(vec![(3, 7)])).into_estimates();
    for round in 0..10u32 {
        let mut bad = connect(&handle);
        let mut frame = encode_request(&Request::Ping { id: round });
        match round % 4 {
            0 => frame[4] = 9,      // bad version
            1 => frame[5] = 0x42,   // bad kind
            2 => frame.truncate(7), // will be a partial frame, then EOF
            _ => frame[7] = 1,      // non-zero reserved
        }
        bad.send_bytes(&frame).expect("send");
        drop(bad); // some cases disconnect before the server answers
        let mut good = connect(&handle);
        match good.call(&Request::Estimate { id: round, pairs: vec![(3, 7)] }).expect("call") {
            Response::Estimate { items, .. } => assert_eq!(items, expect),
            other => panic!("expected estimates, got {other:?}"),
        }
    }
    handle.shutdown().expect("clean shutdown");
}
