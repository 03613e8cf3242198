//! The wire protocol: compact length-prefixed binary frames.
//!
//! Every message — request or response — is one **frame**:
//!
//! ```text
//! ┌────────────┬─────────────────────────────────────────────────┐
//! │ u32 LE len │ body (len bytes, at most MAX_FRAME)             │
//! └────────────┴─────────────────────────────────────────────────┘
//! body:
//! ┌────────────┬──────────┬─────────┬────────────┬──────────────┬────────┐
//! │ u8 version │ u8 kind  │ u8 minor│ u8 reserved│ u32 LE req id│ payload│
//! └────────────┴──────────┴─────────┴────────────┴──────────────┴────────┘
//! ```
//!
//! Request payloads are pair batches (`u32 count`, then `count` ×
//! `(u32 a, u32 c)` little-endian node ids); responses carry the
//! service's answers with every `f64` transported as its IEEE-754 bit
//! pattern (`to_bits`, little-endian), so a decoded answer is
//! **bit-identical** to the in-process one — including `-0.0` — which
//! is what the `wire_equivalence` integration test pins. `Option`
//! fields use a one-byte tag (0 = absent, 1 = present + value); decode
//! rejects any other tag, so encode→decode→encode is the identity on
//! bytes (the codec property tests pin that too).
//!
//! Protocol versioning is explicit and two-level. The *major* byte
//! ([`VERSION`]) gates the header layout: a frame whose version byte is
//! not [`VERSION`] is answered with a [`Kind::Error`] frame carrying
//! [`ErrorCode::BadVersion`] and the connection is closed — a v2 server
//! can dispatch on the byte instead. The *minor* byte ([`MINOR`], in
//! what used to be the first reserved byte) is a capability
//! advertisement: it never changes the header layout, so any minor is
//! accepted, and a frame carrying a kind this build does not serve is
//! answered with a **structured** [`ErrorCode::UnsupportedKind`] error
//! frame — the connection survives, so a v1.0 server facing a v1.1
//! client degrades per-request instead of dropping the session. Error
//! frames are structured (`u16 code`, `u16 message length`, UTF-8
//! message) and carry the request id when one was parsed (0 otherwise).

use delayspace::NodePair;
use std::fmt;
use tivserve::query::{QueryBatch, ReplyBatch};
use tivserve::snapshot::{EdgeEstimate, RouteEstimate};
use tivserve::SeverityEstimate;

/// The protocol version this build speaks.
pub const VERSION: u8 = 1;

/// The minor (capability) version this build advertises in body byte 2.
/// Minor 1 added the sampled-severity kind; minor bumps never change
/// the header layout, so peers accept any minor and answer unknown
/// kinds with [`ErrorCode::UnsupportedKind`].
pub const MINOR: u8 = 1;

/// A query pair as transported on the wire: `u32` node ids. The
/// in-process layers use [`delayspace::NodePair`] (`usize` ids);
/// [`to_wire_pairs`]/[`to_node_pairs`] are the **only** place the two
/// representations meet.
pub type WirePair = (u32, u32);

/// Narrows in-process pairs to their wire form.
pub fn to_wire_pairs(pairs: &[NodePair]) -> Vec<WirePair> {
    pairs.iter().map(|&(a, c)| (a as u32, c as u32)).collect()
}

/// Widens wire pairs to the in-process form.
pub fn to_node_pairs(pairs: &[WirePair]) -> Vec<NodePair> {
    pairs.iter().map(|&(a, c)| (a as usize, c as usize)).collect()
}

/// Maximum frame *body* length. A length prefix beyond this is a
/// malformed or hostile frame: the server answers
/// [`ErrorCode::FrameTooLarge`] and closes instead of allocating.
pub const MAX_FRAME: usize = 1 << 20;

/// Bytes of the body header (version, kind, reserved, request id).
pub const HEADER: usize = 8;

/// Worst-case encoded size of one response item: a route answer with
/// every optional field present (`epoch` 8 + four tagged `f64`s at 9 +
/// one tagged `u32` at 5 = 49 bytes). Estimate items top out at 44,
/// sampled-severity items at 29 (tag 1 + three `f64`s + `u32`).
const MAX_RESPONSE_ITEM: usize = 49;

/// The most query pairs one batch may carry. Derived from the
/// *response* side, not the 8-byte request pairs: every answer to a
/// legal request must also fit in one `MAX_FRAME` frame, and the
/// fattest answer is a fully-populated route item.
pub const MAX_PAIRS: usize = (MAX_FRAME - HEADER - 4) / MAX_RESPONSE_ITEM;

/// Frame kinds. Requests are `0x01..=0x06`; each response kind is its
/// request's kind with the top bit set; errors are `0xFF`. A request
/// byte outside the known set (a newer minor's kind) is answered with
/// [`ErrorCode::UnsupportedKind`], never a close.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// Edge-estimate batch request.
    Estimate = 0x01,
    /// Detour-route batch request.
    Route = 0x02,
    /// Severity-projection batch request.
    Severity = 0x03,
    /// Alert-projection batch request.
    Alerts = 0x04,
    /// Liveness/epoch probe.
    Ping = 0x05,
    /// Sampled-severity (point + confidence interval) batch request
    /// (minor ≥ 1).
    SampledSeverity = 0x06,
    /// Edge-estimate batch response.
    EstimateResp = 0x81,
    /// Detour-route batch response.
    RouteResp = 0x82,
    /// Severity-projection batch response.
    SeverityResp = 0x83,
    /// Alert-projection batch response.
    AlertsResp = 0x84,
    /// Liveness/epoch probe response.
    Pong = 0x85,
    /// Sampled-severity batch response.
    SampledSeverityResp = 0x86,
    /// Structured error response.
    Error = 0xFF,
}

/// Structured error-frame codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The version byte is not one this server speaks (fatal: the
    /// connection is closed after the error frame).
    BadVersion = 1,
    /// Unknown frame kind (the connection survives).
    BadKind = 2,
    /// The payload does not parse under its declared kind.
    BadPayload = 3,
    /// A query named a node outside the served snapshot.
    OutOfRange = 4,
    /// The length prefix exceeds [`MAX_FRAME`] (fatal: framing can no
    /// longer be trusted, the connection is closed).
    FrameTooLarge = 5,
    /// The frame is well-formed but names a request kind this build
    /// does not serve — a newer minor version's kind. The connection
    /// survives; the client can fall back per request.
    UnsupportedKind = 6,
}

impl ErrorCode {
    /// Decodes a wire code.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        match v {
            1 => Some(ErrorCode::BadVersion),
            2 => Some(ErrorCode::BadKind),
            3 => Some(ErrorCode::BadPayload),
            4 => Some(ErrorCode::OutOfRange),
            5 => Some(ErrorCode::FrameTooLarge),
            6 => Some(ErrorCode::UnsupportedKind),
            _ => None,
        }
    }

    /// True when the connection cannot continue after this error
    /// (unknown framing or version: byte boundaries are untrustworthy).
    pub fn is_fatal(self) -> bool {
        matches!(self, ErrorCode::BadVersion | ErrorCode::FrameTooLarge)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::BadVersion => "bad-version",
            ErrorCode::BadKind => "bad-kind",
            ErrorCode::BadPayload => "bad-payload",
            ErrorCode::OutOfRange => "out-of-range",
            ErrorCode::FrameTooLarge => "frame-too-large",
            ErrorCode::UnsupportedKind => "unsupported-kind",
        };
        f.write_str(name)
    }
}

/// A decoded request frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Edge-estimate batch.
    Estimate {
        /// Caller-chosen id echoed in the response.
        id: u32,
        /// Ordered query pairs.
        pairs: Vec<(u32, u32)>,
    },
    /// Detour-route batch.
    Route {
        /// Caller-chosen id echoed in the response.
        id: u32,
        /// Ordered query pairs.
        pairs: Vec<(u32, u32)>,
    },
    /// Severity-projection batch.
    Severity {
        /// Caller-chosen id echoed in the response.
        id: u32,
        /// Ordered query pairs.
        pairs: Vec<(u32, u32)>,
    },
    /// Alert-projection batch.
    Alerts {
        /// Caller-chosen id echoed in the response.
        id: u32,
        /// Ordered query pairs.
        pairs: Vec<(u32, u32)>,
    },
    /// Liveness/epoch probe.
    Ping {
        /// Caller-chosen id echoed in the response.
        id: u32,
    },
    /// Sampled-severity batch (minor ≥ 1).
    SampledSeverity {
        /// Caller-chosen id echoed in the response.
        id: u32,
        /// Witnesses sampled per pair (0 = server default).
        witnesses: u32,
        /// Ordered query pairs.
        pairs: Vec<(u32, u32)>,
    },
}

impl Request {
    /// The caller-chosen request id.
    pub fn id(&self) -> u32 {
        match *self {
            Request::Estimate { id, .. }
            | Request::Route { id, .. }
            | Request::Severity { id, .. }
            | Request::Alerts { id, .. }
            | Request::Ping { id }
            | Request::SampledSeverity { id, .. } => id,
        }
    }

    /// Builds the wire request of one in-process [`QueryBatch`] — the
    /// single place query kinds map onto frame kinds.
    pub fn from_query(id: u32, query: &QueryBatch) -> Request {
        match query {
            QueryBatch::Estimate(p) => Request::Estimate { id, pairs: to_wire_pairs(p) },
            QueryBatch::Route(p) => Request::Route { id, pairs: to_wire_pairs(p) },
            QueryBatch::Severity(p) => Request::Severity { id, pairs: to_wire_pairs(p) },
            QueryBatch::Alerts(p) => Request::Alerts { id, pairs: to_wire_pairs(p) },
            QueryBatch::SampledSeverity { pairs, witnesses } => {
                Request::SampledSeverity { id, witnesses: *witnesses, pairs: to_wire_pairs(pairs) }
            }
        }
    }

    /// The in-process [`QueryBatch`] this request asks — the inverse of
    /// [`Request::from_query`]. `None` for [`Request::Ping`], which is
    /// a transport probe, not a query.
    pub fn to_query(&self) -> Option<QueryBatch> {
        match self {
            Request::Estimate { pairs, .. } => Some(QueryBatch::Estimate(to_node_pairs(pairs))),
            Request::Route { pairs, .. } => Some(QueryBatch::Route(to_node_pairs(pairs))),
            Request::Severity { pairs, .. } => Some(QueryBatch::Severity(to_node_pairs(pairs))),
            Request::Alerts { pairs, .. } => Some(QueryBatch::Alerts(to_node_pairs(pairs))),
            Request::SampledSeverity { pairs, witnesses, .. } => {
                Some(QueryBatch::SampledSeverity {
                    pairs: to_node_pairs(pairs),
                    witnesses: *witnesses,
                })
            }
            Request::Ping { .. } => None,
        }
    }
}

/// A decoded response frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answers of an [`Request::Estimate`] batch, in request order.
    Estimate {
        /// Echo of the request id.
        id: u32,
        /// One answer per requested pair.
        items: Vec<EdgeEstimate>,
    },
    /// Answers of a [`Request::Route`] batch, in request order.
    Route {
        /// Echo of the request id.
        id: u32,
        /// One answer per requested pair.
        items: Vec<RouteEstimate>,
    },
    /// Answers of a [`Request::Severity`] batch.
    Severity {
        /// Echo of the request id.
        id: u32,
        /// One sampled severity (or `None` for unmeasured edges) per pair.
        items: Vec<Option<f64>>,
    },
    /// Answers of an [`Request::Alerts`] batch.
    Alerts {
        /// Echo of the request id.
        id: u32,
        /// One alert state per pair.
        items: Vec<bool>,
    },
    /// Answers of a [`Request::SampledSeverity`] batch.
    SampledSeverity {
        /// Echo of the request id.
        id: u32,
        /// One estimate (or `None` for unmeasured edges) per pair.
        items: Vec<Option<SeverityEstimate>>,
    },
    /// Answer of a [`Request::Ping`].
    Pong {
        /// Echo of the request id.
        id: u32,
        /// Epoch of the replica's published snapshot.
        epoch: u64,
        /// Nodes the snapshot serves.
        nodes: u32,
    },
    /// A structured error.
    Error {
        /// Echo of the request id (0 when none was parsed).
        id: u32,
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// The echoed request id.
    pub fn id(&self) -> u32 {
        match *self {
            Response::Estimate { id, .. }
            | Response::Route { id, .. }
            | Response::Severity { id, .. }
            | Response::Alerts { id, .. }
            | Response::SampledSeverity { id, .. }
            | Response::Pong { id, .. }
            | Response::Error { id, .. } => id,
        }
    }

    /// Wraps the service's in-process answer as the wire response —
    /// the single place reply kinds map onto frame kinds.
    pub fn from_reply(id: u32, reply: ReplyBatch) -> Response {
        match reply {
            ReplyBatch::Estimate(items) => Response::Estimate { id, items },
            ReplyBatch::Route(items) => Response::Route { id, items },
            ReplyBatch::Severity(items) => Response::Severity { id, items },
            ReplyBatch::Alerts(items) => Response::Alerts { id, items },
            ReplyBatch::SampledSeverity(items) => Response::SampledSeverity { id, items },
        }
    }

    /// Unwraps a query answer back into the in-process [`ReplyBatch`]
    /// — the inverse of [`Response::from_reply`]. `None` for
    /// [`Response::Pong`] and [`Response::Error`] frames.
    pub fn into_reply(self) -> Option<ReplyBatch> {
        match self {
            Response::Estimate { items, .. } => Some(ReplyBatch::Estimate(items)),
            Response::Route { items, .. } => Some(ReplyBatch::Route(items)),
            Response::Severity { items, .. } => Some(ReplyBatch::Severity(items)),
            Response::Alerts { items, .. } => Some(ReplyBatch::Alerts(items)),
            Response::SampledSeverity { items, .. } => Some(ReplyBatch::SampledSeverity(items)),
            Response::Pong { .. } | Response::Error { .. } => None,
        }
    }
}

/// Why a frame body failed to decode.
#[derive(Clone, Debug, PartialEq)]
pub enum DecodeError {
    /// The version byte is not [`VERSION`].
    BadVersion(u8),
    /// The kind byte names a kind that can never be valid in this
    /// position: a response kind (top bit set) sent as a request, or
    /// an unknown kind in a response.
    BadKind(u8),
    /// The kind byte is in the request range but this build does not
    /// serve it — a newer minor version's kind. Answered with a
    /// structured [`ErrorCode::UnsupportedKind`] frame; the connection
    /// survives.
    UnsupportedKind(u8),
    /// The payload does not parse: truncated, trailing bytes, a bad
    /// option tag, a non-zero reserved field, …
    Malformed(String),
}

impl DecodeError {
    /// The error-frame code a server answers this decode failure with.
    pub fn code(&self) -> ErrorCode {
        match self {
            DecodeError::BadVersion(_) => ErrorCode::BadVersion,
            DecodeError::BadKind(_) => ErrorCode::BadKind,
            DecodeError::UnsupportedKind(_) => ErrorCode::UnsupportedKind,
            DecodeError::Malformed(_) => ErrorCode::BadPayload,
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::BadKind(k) => write!(f, "unknown frame kind 0x{k:02x}"),
            DecodeError::UnsupportedKind(k) => {
                write!(f, "request kind 0x{k:02x} is not served at minor {MINOR}")
            }
            DecodeError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

/// Outcome of scanning a byte buffer for the next complete frame.
#[derive(Clone, Debug, PartialEq)]
pub enum FrameStep {
    /// Not enough bytes buffered yet; keep reading.
    Incomplete,
    /// One complete frame body, plus the total bytes it consumed
    /// (prefix + body).
    Frame {
        /// The frame body (header + payload, without the length prefix).
        body: Vec<u8>,
        /// Bytes to drop from the front of the buffer.
        consumed: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME`]; the stream can no
    /// longer be framed.
    TooLarge(u32),
}

/// Scans `buf` for the next complete frame (see [`FrameStep`]).
pub fn next_frame(buf: &[u8]) -> FrameStep {
    let Some(prefix) = buf.get(..4).and_then(|s| <[u8; 4]>::try_from(s).ok()) else {
        return FrameStep::Incomplete;
    };
    let len = u32::from_le_bytes(prefix);
    if len as usize > MAX_FRAME {
        return FrameStep::TooLarge(len);
    }
    let total = 4 + len as usize;
    match buf.get(4..total) {
        Some(body) => FrameStep::Frame { body: body.to_vec(), consumed: total },
        None => FrameStep::Incomplete,
    }
}

// ---------------------------------------------------------------------
// Little-endian primitive writers/readers.

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts a frame body with its header; the length prefix is
    /// prepended by `finish`.
    fn frame(kind: Kind, id: u32) -> Writer {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&[0, 0, 0, 0]); // length prefix placeholder
        buf.push(VERSION);
        buf.push(kind as u8);
        buf.push(MINOR);
        buf.push(0); // reserved
        buf.extend_from_slice(&id.to_le_bytes());
        Writer { buf }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.f64_bits(x);
            }
        }
    }

    fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u32(x);
            }
        }
    }

    fn pairs(&mut self, pairs: &[(u32, u32)]) {
        assert!(pairs.len() <= MAX_PAIRS, "batch of {} pairs exceeds MAX_PAIRS", pairs.len());
        self.u32(pairs.len() as u32);
        for &(a, c) in pairs {
            self.u32(a);
            self.u32(c);
        }
    }

    /// Fills in the length prefix and returns the wire bytes.
    fn finish(mut self) -> Vec<u8> {
        let body_len = self.buf.len() - 4;
        assert!(body_len <= MAX_FRAME, "encoded frame body of {body_len} bytes exceeds MAX_FRAME");
        if let Some(prefix) = self.buf.get_mut(..4) {
            prefix.copy_from_slice(&(body_len as u32).to_le_bytes());
        }
        self.buf
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DecodeError> {
        match self.buf.get(self.pos..self.pos + n) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(DecodeError::Malformed(format!(
                "truncated {what}: wanted {n} bytes, {} left",
                self.buf.len().saturating_sub(self.pos)
            ))),
        }
    }

    /// Fixed-size read: the conversion cannot fail (`take` returned
    /// exactly `N` bytes), so decode stays panic-free by construction
    /// instead of by `expect`.
    fn take_n<const N: usize>(&mut self, what: &str) -> Result<[u8; N], DecodeError> {
        let s = self.take(N, what)?;
        <[u8; N]>::try_from(s).map_err(|_| DecodeError::Malformed(format!("truncated {what}")))
    }

    fn u8(&mut self, what: &str) -> Result<u8, DecodeError> {
        let [b] = self.take_n::<1>(what)?;
        Ok(b)
    }

    fn u16(&mut self, what: &str) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take_n(what)?))
    }

    fn u32(&mut self, what: &str) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take_n(what)?))
    }

    fn u64(&mut self, what: &str) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take_n(what)?))
    }

    fn f64_bits(&mut self, what: &str) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn bool(&mut self, what: &str) -> Result<bool, DecodeError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecodeError::Malformed(format!("{what}: bad bool byte {t}"))),
        }
    }

    fn opt_f64(&mut self, what: &str) -> Result<Option<f64>, DecodeError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.f64_bits(what)?)),
            t => Err(DecodeError::Malformed(format!("{what}: bad option tag {t}"))),
        }
    }

    fn opt_u32(&mut self, what: &str) -> Result<Option<u32>, DecodeError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.u32(what)?)),
            t => Err(DecodeError::Malformed(format!("{what}: bad option tag {t}"))),
        }
    }

    /// Reads a batch length. Both directions share one cap: a request
    /// carries at most [`MAX_PAIRS`] pairs and a response answers item
    /// for pair, so a larger count is malformed whatever the kind —
    /// rejected here, before anything is allocated for it.
    fn count(&mut self, what: &str) -> Result<usize, DecodeError> {
        let count = self.u32(what)? as usize;
        if count > MAX_PAIRS {
            return Err(DecodeError::Malformed(format!("{what} {count} exceeds {MAX_PAIRS}")));
        }
        Ok(count)
    }

    fn pairs(&mut self) -> Result<Vec<(u32, u32)>, DecodeError> {
        let count = self.count("pair count")?;
        let mut pairs = Vec::with_capacity(count);
        for _ in 0..count {
            let a = self.u32("pair")?;
            let c = self.u32("pair")?;
            pairs.push((a, c));
        }
        Ok(pairs)
    }

    /// Declares the payload finished; trailing bytes are malformed (a
    /// count that undershoots its data must not round-trip).
    fn done(&self) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
            return Err(DecodeError::Malformed(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Parses a frame-body header, returning `(kind byte, request id,
/// payload reader)`.
fn header<'a>(body: &'a [u8]) -> Result<(u8, u32, Reader<'a>), DecodeError> {
    let mut r = Reader::new(body);
    let version = r.u8("version")?;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let kind = r.u8("kind")?;
    // The minor byte is a capability advertisement, never a layout
    // change: any value is accepted (a newer peer's unknown kinds get
    // structured UnsupportedKind answers instead).
    let _minor = r.u8("minor version")?;
    let reserved = r.u8("reserved")?;
    if reserved != 0 {
        return Err(DecodeError::Malformed(format!("reserved field is 0x{reserved:02x}, not 0")));
    }
    let id = r.u32("request id")?;
    Ok((kind, id, r))
}

/// Encodes a request as one wire frame (length prefix included).
///
/// # Panics
/// Panics when a pair batch exceeds [`MAX_PAIRS`] — the caller's
/// batching contract, not a wire condition.
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Estimate { id, pairs } => {
            let mut w = Writer::frame(Kind::Estimate, *id);
            w.pairs(pairs);
            w.finish()
        }
        Request::Route { id, pairs } => {
            let mut w = Writer::frame(Kind::Route, *id);
            w.pairs(pairs);
            w.finish()
        }
        Request::Severity { id, pairs } => {
            let mut w = Writer::frame(Kind::Severity, *id);
            w.pairs(pairs);
            w.finish()
        }
        Request::Alerts { id, pairs } => {
            let mut w = Writer::frame(Kind::Alerts, *id);
            w.pairs(pairs);
            w.finish()
        }
        Request::Ping { id } => Writer::frame(Kind::Ping, *id).finish(),
        Request::SampledSeverity { id, witnesses, pairs } => {
            let mut w = Writer::frame(Kind::SampledSeverity, *id);
            w.u32(*witnesses);
            w.pairs(pairs);
            w.finish()
        }
    }
}

/// Decodes a request frame body (no length prefix).
pub fn decode_request(body: &[u8]) -> Result<Request, DecodeError> {
    let (kind, id, mut r) = header(body)?;
    let req = match kind {
        k if k == Kind::Estimate as u8 => Request::Estimate { id, pairs: r.pairs()? },
        k if k == Kind::Route as u8 => Request::Route { id, pairs: r.pairs()? },
        k if k == Kind::Severity as u8 => Request::Severity { id, pairs: r.pairs()? },
        k if k == Kind::Alerts as u8 => Request::Alerts { id, pairs: r.pairs()? },
        k if k == Kind::Ping as u8 => Request::Ping { id },
        k if k == Kind::SampledSeverity as u8 => {
            Request::SampledSeverity { id, witnesses: r.u32("witnesses")?, pairs: r.pairs()? }
        }
        // A response kind (top bit set) can never be a request; a clear
        // top bit is the request range, so an unknown byte there is a
        // *future* kind and earns a structured, survivable error.
        k if k & 0x80 != 0 => return Err(DecodeError::BadKind(k)),
        k => return Err(DecodeError::UnsupportedKind(k)),
    };
    r.done()?;
    Ok(req)
}

/// Encodes a response as one wire frame (length prefix included).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Estimate { id, items } => {
            let mut w = Writer::frame(Kind::EstimateResp, *id);
            w.u32(items.len() as u32);
            for e in items {
                w.u64(e.epoch);
                w.f64_bits(e.predicted);
                w.opt_f64(e.measured);
                w.opt_f64(e.ratio);
                w.opt_f64(e.severity);
                w.u8(e.alert as u8);
            }
            w.finish()
        }
        Response::Route { id, items } => {
            let mut w = Writer::frame(Kind::RouteResp, *id);
            w.u32(items.len() as u32);
            for route in items {
                w.u64(route.epoch);
                w.opt_f64(route.direct_ms);
                w.opt_u32(route.relay.map(|n| n as u32));
                w.opt_f64(route.via_ms);
                w.opt_f64(route.saving_ms);
                w.opt_f64(route.saving_frac);
            }
            w.finish()
        }
        Response::Severity { id, items } => {
            let mut w = Writer::frame(Kind::SeverityResp, *id);
            w.u32(items.len() as u32);
            for &s in items {
                w.opt_f64(s);
            }
            w.finish()
        }
        Response::Alerts { id, items } => {
            let mut w = Writer::frame(Kind::AlertsResp, *id);
            w.u32(items.len() as u32);
            for &a in items {
                w.u8(a as u8);
            }
            w.finish()
        }
        Response::SampledSeverity { id, items } => {
            let mut w = Writer::frame(Kind::SampledSeverityResp, *id);
            w.u32(items.len() as u32);
            for s in items {
                match s {
                    None => w.u8(0),
                    Some(e) => {
                        w.u8(1);
                        w.f64_bits(e.point);
                        w.f64_bits(e.ci_lo);
                        w.f64_bits(e.ci_hi);
                        w.u32(e.sampled);
                    }
                }
            }
            w.finish()
        }
        Response::Pong { id, epoch, nodes } => {
            let mut w = Writer::frame(Kind::Pong, *id);
            w.u64(*epoch);
            w.u32(*nodes);
            w.finish()
        }
        Response::Error { id, code, message } => {
            let mut w = Writer::frame(Kind::Error, *id);
            w.u16(*code as u16);
            let msg = message.as_bytes();
            let (msg, _) = msg.split_at(msg.len().min(512)); // errors stay small
            w.u16(msg.len() as u16);
            w.buf.extend_from_slice(msg);
            w.finish()
        }
    }
}

/// Decodes a response frame body (no length prefix).
pub fn decode_response(body: &[u8]) -> Result<Response, DecodeError> {
    let (kind, id, mut r) = header(body)?;
    let resp = match kind {
        k if k == Kind::EstimateResp as u8 => {
            let count = r.count("item count")?;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(EdgeEstimate {
                    epoch: r.u64("epoch")?,
                    predicted: r.f64_bits("predicted")?,
                    measured: r.opt_f64("measured")?,
                    ratio: r.opt_f64("ratio")?,
                    severity: r.opt_f64("severity")?,
                    alert: r.bool("alert")?,
                });
            }
            Response::Estimate { id, items }
        }
        k if k == Kind::RouteResp as u8 => {
            let count = r.count("item count")?;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(RouteEstimate {
                    epoch: r.u64("epoch")?,
                    direct_ms: r.opt_f64("direct_ms")?,
                    relay: r.opt_u32("relay")?.map(|n| n as usize),
                    via_ms: r.opt_f64("via_ms")?,
                    saving_ms: r.opt_f64("saving_ms")?,
                    saving_frac: r.opt_f64("saving_frac")?,
                });
            }
            Response::Route { id, items }
        }
        k if k == Kind::SeverityResp as u8 => {
            let count = r.count("item count")?;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(r.opt_f64("severity")?);
            }
            Response::Severity { id, items }
        }
        k if k == Kind::AlertsResp as u8 => {
            let count = r.count("item count")?;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(r.bool("alert")?);
            }
            Response::Alerts { id, items }
        }
        k if k == Kind::SampledSeverityResp as u8 => {
            let count = r.count("item count")?;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(match r.u8("estimate tag")? {
                    0 => None,
                    1 => Some(SeverityEstimate {
                        point: r.f64_bits("point")?,
                        ci_lo: r.f64_bits("ci_lo")?,
                        ci_hi: r.f64_bits("ci_hi")?,
                        sampled: r.u32("sampled")?,
                    }),
                    t => {
                        return Err(DecodeError::Malformed(format!("estimate: bad option tag {t}")))
                    }
                });
            }
            Response::SampledSeverity { id, items }
        }
        k if k == Kind::Pong as u8 => {
            Response::Pong { id, epoch: r.u64("epoch")?, nodes: r.u32("nodes")? }
        }
        k if k == Kind::Error as u8 => {
            let raw = r.u16("error code")?;
            let code = ErrorCode::from_u16(raw)
                .ok_or_else(|| DecodeError::Malformed(format!("unknown error code {raw}")))?;
            let len = r.u16("message length")? as usize;
            let bytes = r.take(len, "error message")?;
            let message = std::str::from_utf8(bytes)
                .map_err(|_| DecodeError::Malformed("error message is not UTF-8".to_string()))?
                .to_string();
            Response::Error { id, code, message }
        }
        k => return Err(DecodeError::BadKind(k)),
    };
    r.done()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(frame: &[u8]) -> &[u8] {
        &frame[4..]
    }

    #[test]
    fn request_frames_round_trip() {
        let reqs = [
            Request::Estimate { id: 7, pairs: vec![(0, 1), (5, 2)] },
            Request::Route { id: u32::MAX, pairs: vec![(9, 9)] },
            Request::Severity { id: 0, pairs: vec![] },
            Request::Alerts { id: 1, pairs: vec![(3, 4); 100] },
            Request::Ping { id: 42 },
            Request::SampledSeverity { id: 6, witnesses: 64, pairs: vec![(1, 2), (8, 0)] },
        ];
        for req in &reqs {
            let wire = encode_request(req);
            let len = u32::from_le_bytes(wire[..4].try_into().unwrap()) as usize;
            assert_eq!(len, wire.len() - 4, "length prefix covers the body");
            assert_eq!(&decode_request(body(&wire)).expect("decode"), req);
        }
    }

    #[test]
    fn max_size_batch_round_trips_and_worst_case_response_fits() {
        let pairs: Vec<(u32, u32)> = (0..MAX_PAIRS as u32).map(|i| (i, i + 1)).collect();
        let req = Request::Estimate { id: 3, pairs };
        let wire = encode_request(&req);
        assert!(wire.len() - 4 <= MAX_FRAME);
        assert!(matches!(next_frame(&wire), FrameStep::Frame { .. }));
        assert_eq!(decode_request(body(&wire)).expect("decode"), req);

        // The invariant MAX_PAIRS encodes: the fattest possible answer
        // to a max-size batch still fits in one frame. A violation
        // would panic the server's encoder, so pin it here.
        let fat = RouteEstimate {
            epoch: u64::MAX,
            direct_ms: Some(1.0),
            relay: Some(usize::MAX & u32::MAX as usize),
            via_ms: Some(2.0),
            saving_ms: Some(3.0),
            saving_frac: Some(0.5),
        };
        let resp = Response::Route { id: 3, items: vec![fat; MAX_PAIRS] };
        let resp_wire = encode_response(&resp);
        assert!(
            resp_wire.len() - 4 <= MAX_FRAME,
            "worst-case route response ({} bytes) exceeds MAX_FRAME",
            resp_wire.len() - 4
        );
        assert!(matches!(next_frame(&resp_wire), FrameStep::Frame { .. }));
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_PAIRS")]
    fn oversized_batch_is_rejected_at_encode_time() {
        let pairs = vec![(0u32, 1u32); MAX_PAIRS + 1];
        encode_request(&Request::Estimate { id: 0, pairs });
    }

    #[test]
    fn response_frames_round_trip() {
        let resps = [
            Response::Estimate {
                id: 9,
                items: vec![EdgeEstimate {
                    epoch: 3,
                    predicted: 12.5,
                    measured: Some(-0.0),
                    ratio: None,
                    severity: Some(f64::MIN_POSITIVE),
                    alert: true,
                }],
            },
            Response::Route {
                id: 1,
                items: vec![RouteEstimate {
                    epoch: 0,
                    direct_ms: None,
                    relay: Some(77),
                    via_ms: Some(5.0),
                    saving_ms: None,
                    saving_frac: None,
                }],
            },
            Response::Severity { id: 2, items: vec![None, Some(0.25)] },
            Response::Alerts { id: 3, items: vec![true, false, true] },
            Response::SampledSeverity {
                id: 8,
                items: vec![
                    None,
                    Some(SeverityEstimate { point: 0.125, ci_lo: -0.0, ci_hi: 0.5, sampled: 31 }),
                ],
            },
            Response::Pong { id: 4, epoch: 17, nodes: 512 },
            Response::Error {
                id: 5,
                code: ErrorCode::OutOfRange,
                message: "node 900 outside 512".to_string(),
            },
        ];
        for resp in &resps {
            let wire = encode_response(resp);
            let decoded = decode_response(body(&wire)).expect("decode");
            assert_eq!(&decoded, resp);
            // Byte-level identity: re-encoding the decoded value must
            // reproduce the wire exactly (the equivalence tests compare
            // raw frames).
            assert_eq!(encode_response(&decoded), wire);
        }
    }

    #[test]
    fn negative_zero_and_nan_severity_survive_bitwise() {
        let items = vec![
            EdgeEstimate {
                epoch: 1,
                predicted: -0.0,
                measured: Some(f64::from_bits(0x7ff8_0000_0000_1234)), // NaN payload
                ratio: Some(f64::INFINITY),
                severity: None,
                alert: false,
            };
            1
        ];
        let wire = encode_response(&Response::Estimate { id: 0, items: items.clone() });
        let Response::Estimate { items: got, .. } = decode_response(body(&wire)).expect("decode")
        else {
            panic!("wrong kind");
        };
        assert_eq!(got[0].predicted.to_bits(), (-0.0f64).to_bits());
        assert_eq!(got[0].measured.map(f64::to_bits), items[0].measured.map(f64::to_bits));
        assert_eq!(got[0].ratio.map(f64::to_bits), items[0].ratio.map(f64::to_bits));
    }

    #[test]
    fn frame_scanner_handles_partial_and_oversized_input() {
        let wire = encode_request(&Request::Ping { id: 1 });
        assert_eq!(next_frame(&wire[..2]), FrameStep::Incomplete);
        assert_eq!(next_frame(&wire[..wire.len() - 1]), FrameStep::Incomplete);
        match next_frame(&wire) {
            FrameStep::Frame { consumed, body } => {
                assert_eq!(consumed, wire.len());
                assert_eq!(body, wire[4..].to_vec());
            }
            other => panic!("expected a frame, got {other:?}"),
        }
        // Two frames back to back: the scanner returns the first only.
        let mut two = wire.clone();
        two.extend_from_slice(&encode_request(&Request::Ping { id: 2 }));
        match next_frame(&two) {
            FrameStep::Frame { consumed, .. } => assert_eq!(consumed, wire.len()),
            other => panic!("expected a frame, got {other:?}"),
        }
        // An oversized length prefix is flagged, not allocated.
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        assert_eq!(next_frame(&huge), FrameStep::TooLarge(MAX_FRAME as u32 + 1));
    }

    #[test]
    fn malformed_bodies_are_rejected_with_the_right_codes() {
        let good = encode_request(&Request::Estimate { id: 5, pairs: vec![(1, 2)] });
        // Wrong version.
        let mut bad = good[4..].to_vec();
        bad[0] = 9;
        assert_eq!(decode_request(&bad), Err(DecodeError::BadVersion(9)));
        assert_eq!(DecodeError::BadVersion(9).code(), ErrorCode::BadVersion);
        // Unknown *request-range* kind: a future minor's kind, served a
        // structured, survivable unsupported-kind error.
        let mut bad = good[4..].to_vec();
        bad[1] = 0x7e;
        assert_eq!(decode_request(&bad), Err(DecodeError::UnsupportedKind(0x7e)));
        assert_eq!(DecodeError::UnsupportedKind(0x7e).code(), ErrorCode::UnsupportedKind);
        assert!(!ErrorCode::UnsupportedKind.is_fatal());
        // A foreign minor byte is accepted — minors never change layout.
        let mut newer = good[4..].to_vec();
        newer[2] = MINOR + 9;
        assert!(decode_request(&newer).is_ok());
        // Non-zero reserved field.
        let mut bad = good[4..].to_vec();
        bad[3] = 1;
        assert!(matches!(decode_request(&bad), Err(DecodeError::Malformed(_))));
        // Count larger than the data.
        let mut bad = good[4..].to_vec();
        let count_at = HEADER;
        bad[count_at..count_at + 4].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(decode_request(&bad), Err(DecodeError::Malformed(_))));
        // Trailing garbage after a complete payload.
        let mut bad = good[4..].to_vec();
        bad.push(0xab);
        assert!(matches!(decode_request(&bad), Err(DecodeError::Malformed(_))));
        // Body shorter than the header.
        assert!(matches!(decode_request(&good[4..7]), Err(DecodeError::Malformed(_))));
        // A response kind sent as a request.
        let resp = encode_response(&Response::Pong { id: 1, epoch: 0, nodes: 4 });
        assert_eq!(decode_request(&resp[4..]), Err(DecodeError::BadKind(Kind::Pong as u8)));
        // Bad option tag in a response.
        let sev = encode_response(&Response::Severity { id: 1, items: vec![None] });
        let mut bad = sev[4..].to_vec();
        let tag_at = HEADER + 4;
        bad[tag_at] = 7;
        assert!(matches!(decode_response(&bad), Err(DecodeError::Malformed(_))));
        // Bad bool byte in an alerts response.
        let alerts = encode_response(&Response::Alerts { id: 1, items: vec![true] });
        let mut bad = alerts[4..].to_vec();
        bad[HEADER + 4] = 2;
        assert!(matches!(decode_response(&bad), Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn every_response_kind_caps_its_item_count_at_max_pairs() {
        // A count past the cap is malformed on its own, whatever
        // follows: the body here is a bare header + count, and the
        // decoder must refuse it on the count, not on the missing data
        // (`MAX_PAIRS` itself fails later, as truncated — distinguish
        // the two by the message).
        for kind in [
            Kind::EstimateResp,
            Kind::RouteResp,
            Kind::SeverityResp,
            Kind::AlertsResp,
            Kind::SampledSeverityResp,
        ] {
            for (count, why) in [(MAX_PAIRS + 1, "exceeds"), (MAX_PAIRS, "truncated")] {
                let mut w = Writer::frame(kind, 1);
                w.u32(count as u32);
                let wire = w.finish();
                match decode_response(body(&wire)) {
                    Err(DecodeError::Malformed(m)) => {
                        assert!(m.contains(why), "{kind:?} x{count}: {m}")
                    }
                    other => panic!("{kind:?} x{count}: expected Malformed, got {other:?}"),
                }
            }
        }
        // The alerts kind is the one whose items are small enough for
        // an over-cap batch to fit a legal frame: fully populated, it
        // still must not decode.
        let mut w = Writer::frame(Kind::AlertsResp, 1);
        w.u32(MAX_PAIRS as u32 + 1);
        w.buf.resize(w.buf.len() + MAX_PAIRS + 1, 1);
        let wire = w.finish();
        assert!(matches!(next_frame(&wire), FrameStep::Frame { .. }));
        assert!(matches!(decode_response(body(&wire)), Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn error_code_properties() {
        for code in [
            ErrorCode::BadVersion,
            ErrorCode::BadKind,
            ErrorCode::BadPayload,
            ErrorCode::OutOfRange,
            ErrorCode::FrameTooLarge,
            ErrorCode::UnsupportedKind,
        ] {
            assert_eq!(ErrorCode::from_u16(code as u16), Some(code));
            assert!(!code.to_string().is_empty());
        }
        assert_eq!(ErrorCode::from_u16(0), None);
        assert_eq!(ErrorCode::from_u16(999), None);
        assert!(ErrorCode::BadVersion.is_fatal());
        assert!(ErrorCode::FrameTooLarge.is_fatal());
        assert!(!ErrorCode::BadPayload.is_fatal());
        assert!(!ErrorCode::OutOfRange.is_fatal());
        assert!(!ErrorCode::BadKind.is_fatal());
        assert!(!ErrorCode::UnsupportedKind.is_fatal());
    }

    #[test]
    fn query_round_trips_through_request_and_reply_through_response() {
        let pairs = vec![(1usize, 2usize), (7, 0)];
        let queries = [
            QueryBatch::Estimate(pairs.clone()),
            QueryBatch::Route(pairs.clone()),
            QueryBatch::Severity(pairs.clone()),
            QueryBatch::Alerts(pairs.clone()),
            QueryBatch::SampledSeverity { pairs: pairs.clone(), witnesses: 12 },
        ];
        for q in &queries {
            let req = Request::from_query(11, q);
            assert_eq!(req.id(), 11);
            assert_eq!(req.to_query().as_ref(), Some(q), "from_query/to_query must invert");
            // And survive the codec.
            let wire = encode_request(&req);
            assert_eq!(decode_request(&wire[4..]).expect("decode"), req);
        }
        assert_eq!(Request::Ping { id: 1 }.to_query(), None);
        let reply = ReplyBatch::Alerts(vec![true, false]);
        let resp = Response::from_reply(4, reply.clone());
        assert_eq!(resp.id(), 4);
        assert_eq!(resp.into_reply(), Some(reply));
        assert_eq!(Response::Pong { id: 1, epoch: 0, nodes: 2 }.into_reply(), None);
    }

    #[test]
    fn long_error_messages_are_truncated_on_encode() {
        let wire = encode_response(&Response::Error {
            id: 1,
            code: ErrorCode::BadPayload,
            message: "x".repeat(10_000),
        });
        let Response::Error { message, .. } = decode_response(body(&wire)).expect("decode") else {
            panic!("wrong kind");
        };
        assert_eq!(message.len(), 512);
    }
}
