//! A minimal blocking client for the gate protocol.
//!
//! One [`GateClient`] wraps one TCP connection and exposes both a typed
//! request/response call and raw-bytes entry points. The raw layer is
//! deliberate API, not plumbing: the wire-equivalence suite compares
//! *frames*, byte for byte, against locally encoded expectations, and
//! the malformed-input suite needs to put arbitrary garbage on the
//! wire — both go through [`GateClient::send_bytes`] /
//! [`GateClient::recv_frame`].

use crate::proto::{self, decode_response, encode_request, FrameStep, Request, Response};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use tivserve::query::{QueryBatch, ReplyBatch};

/// A blocking connection to one gate replica.
#[derive(Debug)]
pub struct GateClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl GateClient {
    /// Connects (with Nagle disabled — this is a small-frame
    /// request/response protocol).
    pub fn connect(addr: SocketAddr) -> io::Result<GateClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(GateClient { stream, buf: Vec::new() })
    }

    /// Wraps an existing (blocking) stream, e.g. a response-reader
    /// half built over a [`try_clone_stream`](GateClient::try_clone_stream) fd.
    pub fn from_stream(stream: TcpStream) -> GateClient {
        GateClient { stream, buf: Vec::new() }
    }

    /// Bounds how long [`recv_frame`](GateClient::recv_frame) blocks
    /// (`None` = forever). Tests use this so a server bug cannot hang
    /// the suite.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends one typed request and blocks for its response.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        self.send_bytes(&encode_request(req))?;
        self.recv()
    }

    /// Answers one unified [`QueryBatch`] over this connection: encodes
    /// it via [`Request::from_query`], checks the echoed id, and
    /// unwraps the reply, which must answer `query`'s kind with one
    /// answer per pair. An error frame (including a newer kind's
    /// `unsupported-kind` answer from an older server), or a reply of
    /// another kind or length, surfaces as `InvalidData`, never a hang,
    /// a panic or a closed session.
    pub fn query(&mut self, id: u32, query: &QueryBatch) -> io::Result<ReplyBatch> {
        let invalid = |detail: String| io::Error::new(io::ErrorKind::InvalidData, detail);
        let resp = self.call(&Request::from_query(id, query))?;
        if resp.id() != id {
            return Err(invalid(format!("server echoed id {} for request {id}", resp.id())));
        }
        let reply = match resp {
            Response::Error { code, message, .. } => {
                return Err(invalid(format!("error frame [{code}]: {message}")));
            }
            other => other.into_reply().ok_or_else(|| invalid("non-query response kind".into()))?,
        };
        if !reply.answers(query) {
            return Err(invalid("server answered another query kind".into()));
        }
        if reply.len() != query.len() {
            return Err(invalid(format!(
                "server answered {} items for {} pairs",
                reply.len(),
                query.len()
            )));
        }
        Ok(reply)
    }

    /// Sends one typed request and returns the raw response *frame*
    /// (length prefix included) — the byte-level equivalence entry
    /// point.
    pub fn call_frame(&mut self, req: &Request) -> io::Result<Vec<u8>> {
        self.send_bytes(&encode_request(req))?;
        self.recv_frame()
    }

    /// Writes arbitrary bytes to the connection — also how the
    /// malformed-input tests inject broken frames.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Blocks until one complete frame arrives and returns it whole
    /// (length prefix included). EOF mid-frame is `UnexpectedEof`; an
    /// oversized length prefix from the server is `InvalidData`.
    pub fn recv_frame(&mut self) -> io::Result<Vec<u8>> {
        let mut scratch = [0u8; 64 * 1024];
        loop {
            match proto::next_frame(&self.buf) {
                FrameStep::Frame { consumed, .. } => {
                    let frame: Vec<u8> = self.buf.drain(..consumed).collect();
                    return Ok(frame);
                }
                FrameStep::TooLarge(len) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("server sent an oversized frame ({len} bytes)"),
                    ));
                }
                FrameStep::Incomplete => {}
            }
            match self.stream.read(&mut scratch) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("connection closed with {} buffered bytes", self.buf.len()),
                    ));
                }
                Ok(n) => self.buf.extend_from_slice(&scratch[..n]),
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Blocks for one frame and decodes it.
    pub fn recv(&mut self) -> io::Result<Response> {
        let frame = self.recv_frame()?;
        decode_response(&frame[4..])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Clones the underlying stream (shared fd) so a reader thread can
    /// drain responses while this handle keeps sending (pipelined,
    /// open-loop clients).
    pub fn try_clone_stream(&self) -> io::Result<TcpStream> {
        self.stream.try_clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_request, encode_response};
    use std::net::TcpListener;

    /// Sends `query` to a one-shot fake replica that answers with
    /// whatever `respond` builds from the request's id.
    fn query_fake_replica(
        query: &QueryBatch,
        respond: fn(u32) -> Response,
    ) -> io::Result<ReplyBatch> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let replica = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut peer = GateClient::from_stream(stream);
            let frame = peer.recv_frame().expect("request frame");
            let id = decode_request(&frame[4..]).expect("request").id();
            peer.send_bytes(&encode_response(&respond(id))).expect("reply");
        });
        let mut client = GateClient::connect(addr).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let reply = client.query(7, query);
        replica.join().expect("fake replica panicked");
        reply
    }

    #[test]
    fn reply_of_another_kind_is_an_error() {
        // Both sides empty, so only the kind differs.
        let query = QueryBatch::Estimate(Vec::new());
        let err = query_fake_replica(&query, |id| Response::Route { id, items: Vec::new() })
            .expect_err("wrong kind");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn reply_one_item_short_is_an_error() {
        let query = QueryBatch::Estimate(vec![(0, 1)]);
        let err = query_fake_replica(&query, |id| Response::Estimate { id, items: Vec::new() })
            .expect_err("short reply");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
}
