//! Wire-format encoding and decoding for the LSS network protocol.
//!
//! This module is the *implementation* of **docs/PROTOCOL.md** — the normative
//! specification. Every constant below cites the spec section that defines it, and
//! the [`worked_example_hex`](self) unit test pins the encoding to the spec's §10
//! byte-for-byte example. Where this code and the spec disagree, the spec wins.
//!
//! The module is transport-agnostic: it reads and writes frames over any
//! [`std::io::Read`] / [`std::io::Write`], and is shared by the server's connection
//! loop and by `lss-client` (which depends on this crate for exactly this module).

use lss_core::util::{crc32c, crc32c_append};
use std::io::{self, IoSlice, Read, Write};

/// Frame magic, `0x534C` — wire bytes `4C 53`, ASCII `"LS"` (PROTOCOL.md §3.2).
pub const MAGIC: u16 = 0x534C;
/// The protocol version this implementation speaks (PROTOCOL.md §3.3, §9).
pub const VERSION: u8 = 1;
/// Body bytes of an empty-payload frame, and the minimum legal `length` field:
/// 12-byte body header + 4-byte CRC (PROTOCOL.md §3.1).
pub const MIN_FRAME_LEN: u32 = 16;
/// Maximum legal `length` field: 16 MiB (PROTOCOL.md §3.1). A length above this is
/// fatal *before* any allocation of the claimed size.
pub const MAX_FRAME_BYTES: u32 = 16 << 20;
/// Fixed body-header bytes preceding the payload: magic + version + opcode +
/// correlation id (PROTOCOL.md §3).
pub const BODY_HEADER_BYTES: usize = 12;
/// Keys above this are rejected with [`ERR_BAD_REQUEST`] (PROTOCOL.md §6).
pub const MAX_KEY_BYTES: usize = 64 << 10;
/// Opcode bit 7: set on responses, clear on requests (PROTOCOL.md §3.4).
pub const RESPONSE_BIT: u8 = 0x80;

/// GET opcode (PROTOCOL.md §5.1).
pub const OP_GET: u8 = 0x01;
/// PUT opcode (PROTOCOL.md §5.2).
pub const OP_PUT: u8 = 0x02;
/// DELETE opcode (PROTOCOL.md §5.3).
pub const OP_DELETE: u8 = 0x03;
/// SCAN opcode (PROTOCOL.md §5.4).
pub const OP_SCAN: u8 = 0x04;
/// FLUSH opcode (PROTOCOL.md §5.5).
pub const OP_FLUSH: u8 = 0x05;
/// STATS opcode (PROTOCOL.md §5.6).
pub const OP_STATS: u8 = 0x06;

/// PUT/DELETE flag bit 0: ack without waiting for a durable commit (PROTOCOL.md §5.2).
pub const FLAG_NO_FLUSH: u8 = 0x01;

/// Response status `OK` (PROTOCOL.md §6).
pub const STATUS_OK: u8 = 0x00;
/// Malformed payload for the opcode (PROTOCOL.md §6).
pub const ERR_BAD_REQUEST: u8 = 0x01;
/// Well-formed frame, opcode unknown to this server (PROTOCOL.md §3.4, §6).
pub const ERR_UNSUPPORTED_OPCODE: u8 = 0x02;
/// Value exceeds the store's single-page capacity (PROTOCOL.md §6).
pub const ERR_VALUE_TOO_LARGE: u8 = 0x03;
/// The store is out of reclaimable space (PROTOCOL.md §6).
pub const ERR_STORE_FULL: u8 = 0x04;
/// Internal server failure; the request must not be assumed applied (PROTOCOL.md §6).
pub const ERR_SERVER: u8 = 0x05;
/// The server is draining and will close the connection (PROTOCOL.md §6).
pub const ERR_SHUTTING_DOWN: u8 = 0x06;

/// Why a frame could not be read. The split mirrors PROTOCOL.md §8: a [`Fatal`]
/// error poisons the byte stream (the connection must close); a clean EOF at a
/// frame boundary is not an error at all (`read_frame` returns `Ok(None)`).
///
/// [`Fatal`]: FrameError::Fatal
#[derive(Debug)]
pub enum FrameError {
    /// The stream's framing is untrusted: bad length bounds, bad magic, unsupported
    /// version, CRC mismatch, or a torn frame (EOF mid-body). PROTOCOL.md §8.
    Fatal(String),
    /// Transport-level I/O failure (also fatal to the connection).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Fatal(why) => write!(f, "fatal framing error: {why}"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// One decoded frame: the body header's variable fields plus the raw payload.
/// CRC and magic/version have already been verified by [`read_frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// PROTOCOL.md §3.4.
    pub opcode: u8,
    /// PROTOCOL.md §3.5.
    pub corr_id: u64,
    /// PROTOCOL.md §3.6.
    pub payload: Vec<u8>,
}

/// Append one complete frame (length prefix, body header, payload, CRC) to `buf`.
/// The layout is PROTOCOL.md §3; the CRC covers magic..payload (§4).
pub fn encode_frame(buf: &mut Vec<u8>, opcode: u8, corr_id: u64, payload: &[u8]) {
    let length = (MIN_FRAME_LEN as usize + payload.len()) as u32;
    buf.extend_from_slice(&length.to_le_bytes());
    let body_start = buf.len();
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.push(VERSION);
    buf.push(opcode);
    buf.extend_from_slice(&corr_id.to_le_bytes());
    buf.extend_from_slice(payload);
    let crc = crc32c(&buf[body_start..]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Encode one frame straight into `w` as a single vectored write of header, payload
/// and CRC — no intermediate buffer, and one packet on an unbuffered `TCP_NODELAY`
/// socket. The caller owns buffering/flushing policy. Same bytes as [`encode_frame`].
pub fn write_frame(w: &mut impl Write, opcode: u8, corr_id: u64, payload: &[u8]) -> io::Result<()> {
    let mut head = [0u8; 4 + BODY_HEADER_BYTES];
    let length = (MIN_FRAME_LEN as usize + payload.len()) as u32;
    head[0..4].copy_from_slice(&length.to_le_bytes());
    head[4..6].copy_from_slice(&MAGIC.to_le_bytes());
    head[6] = VERSION;
    head[7] = opcode;
    head[8..16].copy_from_slice(&corr_id.to_le_bytes());
    let crc = crc32c_append(crc32c(&head[4..]), payload).to_le_bytes();
    let mut parts = [
        IoSlice::new(&head),
        IoSlice::new(payload),
        IoSlice::new(&crc),
    ];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read exactly `buf.len()` bytes, mapping EOF to a *torn frame* if any bytes of the
/// frame were already consumed (`mid_frame`), or to a clean end-of-stream otherwise.
fn read_exact_or(r: &mut impl Read, buf: &mut [u8], mid_frame: bool) -> Result<bool, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if mid_frame || filled > 0 {
                    // PROTOCOL.md §8: EOF mid-frame is a torn frame, fatal.
                    return Err(FrameError::Fatal(format!(
                        "torn frame: EOF after {filled} of {} bytes",
                        buf.len()
                    )));
                }
                return Ok(false);
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(true)
}

/// Read and validate one frame: length bounds (§3.1) before any payload-sized
/// allocation, then magic (§3.2), version (§3.3) and CRC (§4). Returns `Ok(None)` on
/// a clean EOF at a frame boundary; every other shortfall is a [`FrameError`].
///
/// `max_frame` is the §3.1 upper bound; pass [`MAX_FRAME_BYTES`] unless a test needs
/// a smaller ceiling.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Option<Frame>, FrameError> {
    let mut len_bytes = [0u8; 4];
    if !read_exact_or(r, &mut len_bytes, false)? {
        return Ok(None);
    }
    let length = u32::from_le_bytes(len_bytes);
    if length < MIN_FRAME_LEN || length > max_frame {
        return Err(FrameError::Fatal(format!(
            "frame length {length} outside [{MIN_FRAME_LEN}, {max_frame}] (PROTOCOL.md \u{a7}3.1)"
        )));
    }
    let mut body = vec![0u8; length as usize];
    read_exact_or(r, &mut body, true)?;

    let crc_at = body.len() - 4;
    let wire_crc = u32::from_le_bytes(body[crc_at..].try_into().unwrap());
    let computed = crc32c(&body[..crc_at]);
    if wire_crc != computed {
        return Err(FrameError::Fatal(format!(
            "crc mismatch: frame {wire_crc:#010x}, computed {computed:#010x} (PROTOCOL.md \u{a7}4)"
        )));
    }
    let magic = u16::from_le_bytes(body[0..2].try_into().unwrap());
    if magic != MAGIC {
        return Err(FrameError::Fatal(format!(
            "bad magic {magic:#06x} (PROTOCOL.md \u{a7}3.2)"
        )));
    }
    let version = body[2];
    if version != VERSION {
        return Err(FrameError::Fatal(format!(
            "unsupported protocol version {version} (PROTOCOL.md \u{a7}3.3)"
        )));
    }
    let opcode = body[3];
    let corr_id = u64::from_le_bytes(body[4..12].try_into().unwrap());
    let payload = body[BODY_HEADER_BYTES..crc_at].to_vec();
    Ok(Some(Frame {
        opcode,
        corr_id,
        payload,
    }))
}

/// Whether `buffered` begins with one complete frame (PROTOCOL.md §3.1), i.e. the
/// next [`read_frame`] from a reader holding these bytes cannot block. Both ends use
/// it for the same rule: push what you have written before you would wait for input.
pub fn holds_whole_frame(buffered: &[u8]) -> bool {
    buffered
        .split_first_chunk::<4>()
        .is_some_and(|(length, rest)| rest.len() >= u32::from_le_bytes(*length) as usize)
}

/// A decoded request (PROTOCOL.md §5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// §5.1.
    Get { key: Vec<u8> },
    /// §5.2. `durable` is the *inverse* of the wire's `NO_FLUSH` bit.
    Put {
        key: Vec<u8>,
        value: Vec<u8>,
        durable: bool,
    },
    /// §5.3.
    Delete { key: Vec<u8>, durable: bool },
    /// §5.4. `max_items == 0` means no client-imposed cap.
    Scan {
        start: Vec<u8>,
        end: Vec<u8>,
        max_items: u32,
    },
    /// §5.5.
    Flush,
    /// §5.6.
    Stats,
}

impl Request {
    /// The request's wire opcode (PROTOCOL.md §3.4).
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Get { .. } => OP_GET,
            Request::Put { .. } => OP_PUT,
            Request::Delete { .. } => OP_DELETE,
            Request::Scan { .. } => OP_SCAN,
            Request::Flush => OP_FLUSH,
            Request::Stats => OP_STATS,
        }
    }

    /// Encode the request payload (the §5 table's "request payload" column).
    pub fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Get { key } => put_string(buf, key),
            Request::Put {
                key,
                value,
                durable,
            } => {
                buf.push(if *durable { 0 } else { FLAG_NO_FLUSH });
                put_string(buf, key);
                put_string(buf, value);
            }
            Request::Delete { key, durable } => {
                buf.push(if *durable { 0 } else { FLAG_NO_FLUSH });
                put_string(buf, key);
            }
            Request::Scan {
                start,
                end,
                max_items,
            } => {
                put_string(buf, start);
                put_string(buf, end);
                buf.extend_from_slice(&max_items.to_le_bytes());
            }
            Request::Flush | Request::Stats => {}
        }
    }

    /// Decode a request from a verified frame. Errors map to the two recoverable
    /// per-request statuses of PROTOCOL.md §6/§8: an unknown opcode and a malformed
    /// payload both leave the connection open.
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Request, RequestError> {
        let mut c = Cursor::new(payload);
        let req = match opcode {
            OP_GET => Request::Get {
                key: c.string("key")?,
            },
            OP_PUT => {
                let flags = c.u8("flags")?;
                if flags & !FLAG_NO_FLUSH != 0 {
                    // §5.2: unknown flag bits need a version bump.
                    return Err(RequestError::Bad(format!("unknown PUT flags {flags:#04x}")));
                }
                Request::Put {
                    durable: flags & FLAG_NO_FLUSH == 0,
                    key: c.string("key")?,
                    value: c.string("value")?,
                }
            }
            OP_DELETE => {
                let flags = c.u8("flags")?;
                if flags & !FLAG_NO_FLUSH != 0 {
                    return Err(RequestError::Bad(format!(
                        "unknown DELETE flags {flags:#04x}"
                    )));
                }
                Request::Delete {
                    durable: flags & FLAG_NO_FLUSH == 0,
                    key: c.string("key")?,
                }
            }
            OP_SCAN => Request::Scan {
                start: c.string("start")?,
                end: c.string("end")?,
                max_items: c.u32("max_items")?,
            },
            OP_FLUSH => Request::Flush,
            OP_STATS => Request::Stats,
            other => return Err(RequestError::UnsupportedOpcode(other)),
        };
        c.finish()?; // §9: trailing bytes in a known payload are ERR_BAD_REQUEST.
        if let Request::Get { key } | Request::Put { key, .. } | Request::Delete { key, .. } = &req
        {
            if key.len() > MAX_KEY_BYTES {
                return Err(RequestError::Bad(format!(
                    "key of {} bytes exceeds MAX_KEY_BYTES (PROTOCOL.md \u{a7}6)",
                    key.len()
                )));
            }
        }
        Ok(req)
    }
}

/// Why a CRC-verified frame still could not become a [`Request`]. Both variants are
/// recoverable per PROTOCOL.md §8: the server replies with the matching status and
/// keeps the connection.
#[derive(Debug)]
pub enum RequestError {
    /// Maps to [`ERR_UNSUPPORTED_OPCODE`] (PROTOCOL.md §3.4).
    UnsupportedOpcode(u8),
    /// Maps to [`ERR_BAD_REQUEST`] (PROTOCOL.md §6).
    Bad(String),
}

impl RequestError {
    /// The §6 status code this error is reported as.
    pub fn status(&self) -> u8 {
        match self {
            RequestError::UnsupportedOpcode(_) => ERR_UNSUPPORTED_OPCODE,
            RequestError::Bad(_) => ERR_BAD_REQUEST,
        }
    }
}

/// A decoded response (PROTOCOL.md §5's "successful response payload" column, plus
/// the error case).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// §5.1. `None` = key absent (a *successful* response).
    Get(Option<Vec<u8>>),
    /// §5.2.
    Put,
    /// §5.3.
    Delete { existed: bool },
    /// §5.4.
    Scan {
        items: Vec<(Vec<u8>, Vec<u8>)>,
        truncated: bool,
    },
    /// §5.5.
    Flush,
    /// §5.6.
    Stats(String),
    /// Any non-OK status (PROTOCOL.md §6).
    Err { status: u8 },
}

impl Response {
    /// Encode the response payload: status byte first (§6), then the §5 columns.
    pub fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Get(value) => {
                buf.push(STATUS_OK);
                match value {
                    Some(v) => {
                        buf.push(1);
                        put_string(buf, v);
                    }
                    None => buf.push(0),
                }
            }
            Response::Put | Response::Flush => buf.push(STATUS_OK),
            Response::Delete { existed } => {
                buf.push(STATUS_OK);
                buf.push(u8::from(*existed));
            }
            Response::Scan { items, truncated } => {
                buf.push(STATUS_OK);
                buf.extend_from_slice(&(items.len() as u32).to_le_bytes());
                for (k, v) in items {
                    put_string(buf, k);
                    put_string(buf, v);
                }
                buf.push(u8::from(*truncated));
            }
            Response::Stats(json) => {
                buf.push(STATUS_OK);
                put_string(buf, json.as_bytes());
            }
            Response::Err { status } => buf.push(*status),
        }
    }

    /// Decode a response from a verified frame whose opcode has [`RESPONSE_BIT`]
    /// set. The request opcode (`opcode & !RESPONSE_BIT`) selects the §5 layout.
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Response, FrameError> {
        let req_op = opcode & !RESPONSE_BIT;
        let mut c = Cursor::new(payload);
        let status = c
            .u8("status")
            .map_err(|e| FrameError::Fatal(e.to_string()))?;
        if status != STATUS_OK {
            // §6: a non-OK response carries only the status byte.
            c.finish().map_err(|e| FrameError::Fatal(e.to_string()))?;
            return Ok(Response::Err { status });
        }
        let fatal = |e: RequestError| FrameError::Fatal(e.to_string());
        let resp = match req_op {
            OP_GET => {
                let found = c.u8("found").map_err(fatal)? != 0;
                Response::Get(if found {
                    Some(c.string("value").map_err(fatal)?)
                } else {
                    None
                })
            }
            OP_PUT => Response::Put,
            OP_DELETE => Response::Delete {
                existed: c.u8("existed").map_err(fatal)? != 0,
            },
            OP_SCAN => {
                let count = c.u32("count").map_err(fatal)?;
                let mut items = Vec::with_capacity(count.min(4096) as usize);
                for _ in 0..count {
                    let k = c.string("key").map_err(fatal)?;
                    let v = c.string("value").map_err(fatal)?;
                    items.push((k, v));
                }
                Response::Scan {
                    items,
                    truncated: c.u8("truncated").map_err(fatal)? != 0,
                }
            }
            OP_FLUSH => Response::Flush,
            OP_STATS => {
                let json = c.string("stats json").map_err(fatal)?;
                Response::Stats(String::from_utf8(json).map_err(|_| {
                    FrameError::Fatal("STATS payload is not UTF-8 (PROTOCOL.md \u{a7}5.6)".into())
                })?)
            }
            other => {
                return Err(FrameError::Fatal(format!(
                    "response to unknown opcode {other:#04x}"
                )))
            }
        };
        c.finish().map_err(|e| FrameError::Fatal(e.to_string()))?;
        Ok(resp)
    }
}

/// Append a §2 *string*: `u32` length + raw bytes.
fn put_string(buf: &mut Vec<u8>, s: &[u8]) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s);
}

/// Bounds-checked payload reader; every shortfall names the field it was reading.
struct Cursor<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, at: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], RequestError> {
        if self.data.len() - self.at < n {
            return Err(RequestError::Bad(format!(
                "payload truncated reading {what}: need {n} bytes, have {}",
                self.data.len() - self.at
            )));
        }
        let out = &self.data[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    fn u8(&mut self, what: &str) -> Result<u8, RequestError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, RequestError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// A §2 *string*: `u32` length + raw bytes. The length is validated against the
    /// remaining payload, so a lying length cannot over-allocate.
    fn string(&mut self, what: &str) -> Result<Vec<u8>, RequestError> {
        let n = self.u32(what)? as usize;
        Ok(self.take(n, what)?.to_vec())
    }

    /// §9: a known payload with trailing bytes is malformed.
    fn finish(&mut self) -> Result<(), RequestError> {
        if self.at != self.data.len() {
            return Err(RequestError::Bad(format!(
                "{} trailing payload bytes (PROTOCOL.md \u{a7}9)",
                self.data.len() - self.at
            )));
        }
        Ok(())
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::UnsupportedOpcode(op) => write!(f, "unsupported opcode {op:#04x}"),
            RequestError::Bad(why) => write!(f, "bad request: {why}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_frame_detection_follows_the_length_prefix() {
        let mut frame = Vec::new();
        encode_frame(&mut frame, OP_FLUSH, 1, &[]);
        for cut in 0..frame.len() {
            assert!(!holds_whole_frame(&frame[..cut]), "cut {cut}");
        }
        assert!(holds_whole_frame(&frame));
        frame.extend_from_slice(&[0x11, 0x00]); // the start of a next frame
        assert!(holds_whole_frame(&frame));
    }

    /// PROTOCOL.md §10: the spec's worked PUT/reply exchange, byte for byte.
    #[test]
    fn worked_example_hex() {
        let mut req = Vec::new();
        let mut payload = Vec::new();
        Request::Put {
            key: b"k1".to_vec(),
            value: b"v1".to_vec(),
            durable: true,
        }
        .encode_payload(&mut payload);
        encode_frame(&mut req, OP_PUT, 7, &payload);
        let expect_req: Vec<u8> = vec![
            0x1D, 0x00, 0x00, 0x00, // length = 29
            0x4C, 0x53, // magic "LS"
            0x01, // version 1
            0x02, // opcode PUT
            0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // corr id 7
            0x00, // flags: durable
            0x02, 0x00, 0x00, 0x00, 0x6B, 0x31, // key "k1"
            0x02, 0x00, 0x00, 0x00, 0x76, 0x31, // value "v1"
            0x9C, 0xDA, 0x6C, 0x2A, // crc32c
        ];
        assert_eq!(req, expect_req, "request drifted from PROTOCOL.md \u{a7}10");

        let mut resp = Vec::new();
        let mut payload = Vec::new();
        Response::Put.encode_payload(&mut payload);
        encode_frame(&mut resp, OP_PUT | RESPONSE_BIT, 7, &payload);
        let expect_resp: Vec<u8> = vec![
            0x11, 0x00, 0x00, 0x00, // length = 17
            0x4C, 0x53, 0x01, 0x82, // magic, version, opcode PUT|0x80
            0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // corr id 7
            0x00, // status OK
            0xEE, 0x93, 0x60, 0x67, // crc32c
        ];
        assert_eq!(
            resp, expect_resp,
            "response drifted from PROTOCOL.md \u{a7}10"
        );
    }

    /// `write_frame` puts [`encode_frame`]'s bytes on the wire whatever the writer
    /// accepts per call: everything at once, or a few bytes at a time.
    #[test]
    fn write_frame_matches_encode_frame_under_short_writes() {
        struct Dribble(Vec<u8>, usize);
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(self.1);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        for payload in [&b""[..], b"x", &[0xA5u8; 300]] {
            let mut want = Vec::new();
            encode_frame(&mut want, OP_SCAN, 0x0102_0304_0506_0708, payload);
            let mut whole = Vec::new();
            write_frame(&mut whole, OP_SCAN, 0x0102_0304_0506_0708, payload).unwrap();
            assert_eq!(whole, want);
            for step in [1, 3, 17] {
                let mut w = Dribble(Vec::new(), step);
                write_frame(&mut w, OP_SCAN, 0x0102_0304_0506_0708, payload).unwrap();
                assert_eq!(w.0, want, "step {step}");
            }
        }
    }

    #[test]
    fn request_roundtrip_all_opcodes() {
        let cases = vec![
            Request::Get { key: b"a".to_vec() },
            Request::Put {
                key: b"k".to_vec(),
                value: vec![0u8; 100],
                durable: true,
            },
            Request::Put {
                key: b"k".to_vec(),
                value: vec![],
                durable: false,
            },
            Request::Delete {
                key: b"z".to_vec(),
                durable: true,
            },
            Request::Scan {
                start: b"a".to_vec(),
                end: b"q".to_vec(),
                max_items: 17,
            },
            Request::Flush,
            Request::Stats,
        ];
        for req in cases {
            let mut wire = Vec::new();
            let mut payload = Vec::new();
            req.encode_payload(&mut payload);
            encode_frame(&mut wire, req.opcode(), 99, &payload);
            let frame = read_frame(&mut wire.as_slice(), MAX_FRAME_BYTES)
                .unwrap()
                .unwrap();
            assert_eq!(frame.corr_id, 99);
            let decoded = Request::decode(frame.opcode, &frame.payload).unwrap();
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn response_roundtrip_all_opcodes() {
        let cases = vec![
            (OP_GET, Response::Get(Some(b"v".to_vec()))),
            (OP_GET, Response::Get(None)),
            (OP_PUT, Response::Put),
            (OP_DELETE, Response::Delete { existed: true }),
            (
                OP_SCAN,
                Response::Scan {
                    items: vec![(b"k".to_vec(), b"v".to_vec())],
                    truncated: true,
                },
            ),
            (OP_FLUSH, Response::Flush),
            (OP_STATS, Response::Stats("{}".into())),
            (OP_PUT, Response::Err { status: ERR_SERVER }),
        ];
        for (op, resp) in cases {
            let mut wire = Vec::new();
            let mut payload = Vec::new();
            resp.encode_payload(&mut payload);
            encode_frame(&mut wire, op | RESPONSE_BIT, 5, &payload);
            let frame = read_frame(&mut wire.as_slice(), MAX_FRAME_BYTES)
                .unwrap()
                .unwrap();
            let decoded = Response::decode(frame.opcode, &frame.payload).unwrap();
            assert_eq!(decoded, resp);
        }
    }

    /// PROTOCOL.md §4: a single flipped payload bit must fail CRC verification.
    #[test]
    fn bit_flip_fails_crc() {
        let mut wire = Vec::new();
        encode_frame(&mut wire, OP_GET, 1, b"\x01\x00\x00\x00x");
        let mut corrupt = wire.clone();
        let mid = 4 + BODY_HEADER_BYTES + 2;
        corrupt[mid] ^= 0x10;
        match read_frame(&mut corrupt.as_slice(), MAX_FRAME_BYTES) {
            Err(FrameError::Fatal(why)) => assert!(why.contains("crc"), "{why}"),
            other => panic!("corrupt frame accepted: {other:?}"),
        }
    }

    /// PROTOCOL.md §3.1: lengths outside the legal band are fatal before allocation.
    #[test]
    fn length_bounds_are_fatal() {
        for bad_len in [0u32, 15, MAX_FRAME_BYTES + 1, u32::MAX] {
            let mut wire = bad_len.to_le_bytes().to_vec();
            wire.extend_from_slice(&[0u8; 32]);
            match read_frame(&mut wire.as_slice(), MAX_FRAME_BYTES) {
                Err(FrameError::Fatal(why)) => assert!(why.contains("length"), "{why}"),
                other => panic!("length {bad_len} accepted: {other:?}"),
            }
        }
    }

    /// PROTOCOL.md §8: EOF mid-body is a torn frame, distinct from clean EOF.
    #[test]
    fn torn_frame_vs_clean_eof() {
        let mut wire = Vec::new();
        encode_frame(&mut wire, OP_FLUSH, 3, &[]);
        // Clean EOF: zero bytes.
        assert!(matches!(
            read_frame(&mut [].as_slice(), MAX_FRAME_BYTES),
            Ok(None)
        ));
        // Torn at every interior boundary.
        for cut in 1..wire.len() {
            match read_frame(&mut &wire[..cut], MAX_FRAME_BYTES) {
                Err(FrameError::Fatal(why)) => {
                    assert!(why.contains("torn") || why.contains("length"), "{why}")
                }
                other => panic!("cut at {cut} accepted: {other:?}"),
            }
        }
    }

    /// PROTOCOL.md §9: trailing bytes in a known request payload are ERR_BAD_REQUEST.
    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Vec::new();
        Request::Flush.encode_payload(&mut payload);
        payload.push(0xAB);
        match Request::decode(OP_FLUSH, &payload) {
            Err(e) => assert_eq!(e.status(), ERR_BAD_REQUEST),
            Ok(r) => panic!("trailing bytes accepted: {r:?}"),
        }
    }
}
