//! # lss-client — sync client for the LSS KV server
//!
//! A blocking client for the wire protocol specified in **docs/PROTOCOL.md** and
//! served by `lss-server`. Three layers, use whichever fits:
//!
//! * **One-shot calls** — [`Client::get`], [`Client::put`], [`Client::delete`],
//!   [`Client::scan`], [`Client::flush`], [`Client::stats`]: send one request,
//!   wait for its reply. On a broken connection they transparently reconnect with
//!   exponential backoff and retry once (mutations too, unless
//!   [`ClientOptions::retry_mutations`] is off — a retried PUT is an idempotent
//!   full-value write, so at-least-once delivery is safe; a retried DELETE may
//!   report `existed = false` for a key its first attempt already removed).
//! * **Pipelining** — [`Client::send`] queues any number of requests without
//!   waiting (they leave in one write when [`Client::recv`] has to wait for the
//!   server); [`Client::recv`] returns completions in whatever order the server
//!   replies (PROTOCOL.md §7), matched by correlation id; [`Client::drain`]
//!   collects everything outstanding. Deep pipelines are how durable PUTs share
//!   one superblock flip (PROTOCOL.md §5.2) — see the `kv_server` bench.
//! * **Reconnection** — [`Client::reconnect`] redials with exponential backoff
//!   (capped by [`ClientOptions`]); in-flight pipelined requests are abandoned as
//!   PROTOCOL.md §8 requires (their fates are unknown; acked durable writes remain
//!   trustworthy).
//!
//! ## Example: round trip against an in-process server
//!
//! ```
//! use lss_core::{LogStore, StoreConfig};
//! use lss_btree::kv::KvStore;
//! use lss_server::{Server, ServerConfig};
//! use lss_client::Client;
//! use std::sync::Arc;
//!
//! let kv = Arc::new(KvStore::open(
//!     LogStore::open_in_memory(StoreConfig::small_for_tests()).unwrap(),
//! ).unwrap());
//! let server = Server::start(kv, "127.0.0.1:0", ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
//! client.put(b"answer", b"42").unwrap();                 // durable: acked after commit
//! assert_eq!(client.get(b"answer").unwrap().as_deref(), Some(&b"42"[..]));
//!
//! // Pipelined: three PUTs in flight at once share one group-commit flip.
//! let mut corrs = Vec::new();
//! for i in 0..3u8 {
//!     corrs.push(client.send(&lss_server::protocol::Request::Put {
//!         key: vec![b'k', i], value: vec![i], durable: true,
//!     }).unwrap());
//! }
//! let replies = client.drain().unwrap();
//! assert_eq!(replies.len(), 3);
//!
//! let (items, _truncated) = client.scan(b"k", b"l", 0).unwrap();
//! assert_eq!(items.len(), 3);
//! server.shutdown();
//! ```

use lss_server::protocol::{
    holds_whole_frame, read_frame, write_frame, FrameError, Request, Response, RESPONSE_BIT,
};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Dial attempts per connect/reconnect before giving up.
    pub connect_attempts: u32,
    /// Backoff before the second dial attempt; doubles per attempt.
    pub backoff_initial: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Socket read timeout (`None` = block forever). With a timeout set,
    /// [`Client::recv`] surfaces [`ClientError::Io`] with `WouldBlock`/`TimedOut`.
    pub read_timeout: Option<Duration>,
    /// Frame-length ceiling accepted from the server (PROTOCOL.md §3.1).
    pub max_frame_bytes: u32,
    /// Whether one-shot `put`/`delete` retry after a transparent reconnect
    /// (at-least-once; see the crate docs). One-shot reads always retry.
    pub retry_mutations: bool,
}

impl Default for ClientOptions {
    fn default() -> Self {
        Self {
            connect_attempts: 5,
            backoff_initial: Duration::from_millis(10),
            backoff_max: Duration::from_secs(1),
            read_timeout: None,
            max_frame_bytes: lss_server::protocol::MAX_FRAME_BYTES,
            retry_mutations: true,
        }
    }
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (includes read timeouts).
    Io(io::Error),
    /// The server broke the protocol (bad frame, wrong correlation id, malformed
    /// response payload).
    Protocol(String),
    /// The server answered with a non-OK status (PROTOCOL.md §6).
    Server { status: u8 },
    /// Every dial attempt failed; the client is not connected.
    Disconnected,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(why) => write!(f, "protocol violation: {why}"),
            ClientError::Server { status } => {
                write!(f, "server error status {status} (PROTOCOL.md \u{a7}6)")
            }
            ClientError::Disconnected => write!(f, "disconnected: all dial attempts failed"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::Fatal(why) => ClientError::Protocol(why),
        }
    }
}

/// Alias for results of client calls.
pub type Result<T> = std::result::Result<T, ClientError>;

/// One scan page: the returned `(key, value)` pairs (PROTOCOL.md §5.4).
pub type ScanItems = Vec<(Vec<u8>, Vec<u8>)>;

/// A blocking connection to one `lss-server`. Not internally synchronised: wrap in
/// a mutex or give each thread its own `Client` (the bench gives one per
/// connection; that is the unit the server schedules fairly).
pub struct Client {
    addr: String,
    opts: ClientOptions,
    /// Requests queued by [`Client::send`] wait here until [`Client::recv`] would
    /// block (or the buffer fills).
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    next_corr: u64,
    /// Correlation id → request opcode for every in-flight pipelined request, so
    /// replies can be decoded and matched out of order (PROTOCOL.md §7).
    pending: HashMap<u64, u8>,
}

impl Client {
    /// Connect with default options, dialing with backoff.
    pub fn connect(addr: &str) -> Result<Client> {
        Self::connect_with(addr, ClientOptions::default())
    }

    /// Connect with explicit options, dialing with backoff.
    pub fn connect_with(addr: &str, opts: ClientOptions) -> Result<Client> {
        let stream = dial(addr, &opts)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            addr: addr.to_string(),
            opts,
            writer: BufWriter::new(stream),
            reader,
            next_corr: 1,
            pending: HashMap::new(),
        })
    }

    /// The address this client dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// In-flight pipelined requests ([`Client::send`] minus [`Client::recv`]).
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Drop the current connection and redial with exponential backoff. In-flight
    /// requests are abandoned: their fates are unknown (PROTOCOL.md §8).
    pub fn reconnect(&mut self) -> Result<()> {
        self.pending.clear();
        let stream = dial(&self.addr, &self.opts)?;
        self.reader = BufReader::new(stream.try_clone()?);
        // Requests still queued for the old connection are abandoned with it.
        let _ = std::mem::replace(&mut self.writer, BufWriter::new(stream)).into_parts();
        Ok(())
    }

    /// Queue one request without waiting for its reply; returns the correlation id
    /// its reply will echo. This is the pipelining primitive (PROTOCOL.md §7). The
    /// request goes to the socket with everything else queued, in one write, when
    /// [`Client::recv`] would otherwise block — the server's own rule (§7), so a
    /// burst of replies turns into one burst of requests, not one packet and one
    /// server wake-up apiece — or earlier if the write buffer fills.
    pub fn send(&mut self, request: &Request) -> Result<u64> {
        let corr_id = self.next_corr;
        self.next_corr += 1;
        let mut payload = Vec::new();
        request.encode_payload(&mut payload);
        write_frame(&mut self.writer, request.opcode(), corr_id, &payload)?;
        self.pending.insert(corr_id, request.opcode());
        Ok(corr_id)
    }

    /// Wait for the next reply, in whatever order the server finished
    /// (PROTOCOL.md §7). Returns the echoed correlation id and the decoded
    /// response — including error responses ([`Response::Err`]); one-shot callers
    /// turn those into [`ClientError::Server`], pipelining callers see them inline.
    pub fn recv(&mut self) -> Result<(u64, Response)> {
        if !holds_whole_frame(self.reader.buffer()) {
            self.writer.flush()?; // about to wait for the server: send what is queued
        }
        let frame = read_frame(&mut self.reader, self.opts.max_frame_bytes)?
            .ok_or_else(|| ClientError::Io(io::ErrorKind::UnexpectedEof.into()))?;
        if frame.opcode & RESPONSE_BIT == 0 {
            return Err(ClientError::Protocol(format!(
                "server sent a request opcode {:#04x} (PROTOCOL.md \u{a7}3.4)",
                frame.opcode
            )));
        }
        let Some(req_opcode) = self.pending.remove(&frame.corr_id) else {
            return Err(ClientError::Protocol(format!(
                "reply to unknown correlation id {} (PROTOCOL.md \u{a7}3.5)",
                frame.corr_id
            )));
        };
        if frame.opcode != req_opcode | RESPONSE_BIT {
            return Err(ClientError::Protocol(format!(
                "reply opcode {:#04x} does not match request opcode {req_opcode:#04x}",
                frame.opcode
            )));
        }
        let response = Response::decode(frame.opcode, &frame.payload)?;
        Ok((frame.corr_id, response))
    }

    /// Collect every outstanding reply, in completion order.
    pub fn drain(&mut self) -> Result<Vec<(u64, Response)>> {
        let mut out = Vec::with_capacity(self.pending.len());
        while !self.pending.is_empty() {
            out.push(self.recv()?);
        }
        Ok(out)
    }

    /// Point lookup (PROTOCOL.md §5.1). `None` = key absent.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        match self.call(&Request::Get { key: key.to_vec() }, true)? {
            Response::Get(value) => Ok(value),
            other => Err(unexpected(&other)),
        }
    }

    /// Durable upsert: the OK ack means the write survived a crash barrier
    /// (PROTOCOL.md §5.2).
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.put_opts(key, value, true)
    }

    /// Buffered upsert: acked on apply, durable at the next commit (PROTOCOL.md §5.2).
    pub fn put_buffered(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.put_opts(key, value, false)
    }

    fn put_opts(&mut self, key: &[u8], value: &[u8], durable: bool) -> Result<()> {
        let retry = self.opts.retry_mutations;
        match self.call(
            &Request::Put {
                key: key.to_vec(),
                value: value.to_vec(),
                durable,
            },
            retry,
        )? {
            Response::Put => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Durable delete (PROTOCOL.md §5.3); returns whether the key existed.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool> {
        let retry = self.opts.retry_mutations;
        match self.call(
            &Request::Delete {
                key: key.to_vec(),
                durable: true,
            },
            retry,
        )? {
            Response::Delete { existed } => Ok(existed),
            other => Err(unexpected(&other)),
        }
    }

    /// One SCAN frame's worth of `[start, end)` (PROTOCOL.md §5.4). `max_items = 0`
    /// leaves the cap to the server. The `bool` is the `truncated` flag; resume with
    /// [`Client::scan_all`] or a successor-key start.
    pub fn scan(&mut self, start: &[u8], end: &[u8], max_items: u32) -> Result<(ScanItems, bool)> {
        match self.call(
            &Request::Scan {
                start: start.to_vec(),
                end: end.to_vec(),
                max_items,
            },
            true,
        )? {
            Response::Scan { items, truncated } => Ok((items, truncated)),
            other => Err(unexpected(&other)),
        }
    }

    /// Full `[start, end)` scan, following truncation with successor-key resumes
    /// (PROTOCOL.md §5.4).
    pub fn scan_all(&mut self, start: &[u8], end: &[u8]) -> Result<ScanItems> {
        let mut out = Vec::new();
        let mut cursor = start.to_vec();
        loop {
            let (mut items, truncated) = self.scan(&cursor, end, 0)?;
            let last = items.last().map(|(k, _)| k.clone());
            out.append(&mut items);
            if !truncated {
                return Ok(out);
            }
            let Some(mut next) = last else {
                return Ok(out); // truncated with zero items: nothing fits; stop.
            };
            next.push(0); // byte-wise successor (PROTOCOL.md §5.4)
            cursor = next;
        }
    }

    /// Force a commit covering every previously acked write (PROTOCOL.md §5.5).
    pub fn flush(&mut self) -> Result<()> {
        match self.call(&Request::Flush, true)? {
            Response::Flush => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// The server's STATS JSON document (PROTOCOL.md §5.6; fields in
    /// docs/OPERATIONS.md).
    pub fn stats(&mut self) -> Result<String> {
        match self.call(&Request::Stats, true)? {
            Response::Stats(json) => Ok(json),
            other => Err(unexpected(&other)),
        }
    }

    /// One-shot call: send, wait for exactly this request's reply, map error
    /// statuses, and — on a dead connection — reconnect with backoff and retry once
    /// (`retry` gates the resend; the reconnect itself always happens so the client
    /// is usable afterwards).
    fn call(&mut self, request: &Request, retry: bool) -> Result<Response> {
        match self.call_once(request) {
            Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) => {
                self.reconnect()?;
                if !retry {
                    return Err(ClientError::Disconnected);
                }
                self.call_once(request)
            }
            other => other,
        }
    }

    fn call_once(&mut self, request: &Request) -> Result<Response> {
        let want = self.send(request)?;
        let (corr_id, response) = self.recv()?;
        if corr_id != want {
            return Err(ClientError::Protocol(format!(
                "one-shot call interleaved with pipelined replies (corr {corr_id}, want {want})"
            )));
        }
        match response {
            Response::Err { status } => Err(ClientError::Server { status }),
            ok => Ok(ok),
        }
    }
}

fn unexpected(resp: &Response) -> ClientError {
    ClientError::Protocol(format!("response variant mismatch: {resp:?}"))
}

/// Dial with exponential backoff per [`ClientOptions`].
fn dial(addr: &str, opts: &ClientOptions) -> Result<TcpStream> {
    let mut backoff = opts.backoff_initial;
    let mut last_err: Option<io::Error> = None;
    for attempt in 0..opts.connect_attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(opts.backoff_max);
        }
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true)?; // PROTOCOL.md §1
                stream.set_read_timeout(opts.read_timeout)?;
                return Ok(stream);
            }
            Err(e) => last_err = Some(e),
        }
    }
    match last_err {
        Some(e) => Err(ClientError::Io(e)),
        None => Err(ClientError::Disconnected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lss_server::protocol::MAX_FRAME_BYTES;
    use std::io::Read;
    use std::net::TcpListener;

    /// Queued requests leave together when `recv` has to wait for the server, not
    /// one by one as they are queued; replies already in hand are returned first.
    #[test]
    fn queued_requests_are_sent_when_recv_would_block() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = Client::connect(&listener.local_addr().unwrap().to_string()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let get = |key: &[u8]| Request::Get { key: key.to_vec() };
        let corrs: Vec<u64> = (0..3)
            .map(|i| client.send(&get(&[b'k', i])).unwrap())
            .collect();

        // Nothing has been written to the socket yet.
        peer.set_nonblocking(true).unwrap();
        let nothing = peer.read(&mut [0u8; 1]).unwrap_err();
        assert_eq!(nothing.kind(), io::ErrorKind::WouldBlock);
        peer.set_nonblocking(false).unwrap();

        let server = std::thread::spawn(move || {
            // All three requests arrive once the client waits; answer them in one go.
            let mut replies = Vec::new();
            for _ in 0..3 {
                let frame = read_frame(&mut peer, MAX_FRAME_BYTES).unwrap().unwrap();
                let mut payload = Vec::new();
                Response::Get(None).encode_payload(&mut payload);
                let opcode = frame.opcode | RESPONSE_BIT;
                lss_server::protocol::encode_frame(&mut replies, opcode, frame.corr_id, &payload);
            }
            peer.write_all(&replies).unwrap();
            // The fourth request comes only after the client has used up the replies.
            read_frame(&mut peer, MAX_FRAME_BYTES)
                .unwrap()
                .unwrap()
                .corr_id
        });
        assert_eq!(client.recv().unwrap(), (corrs[0], Response::Get(None)));
        let fourth = client.send(&get(b"late")).unwrap();
        assert_eq!(client.recv().unwrap(), (corrs[1], Response::Get(None)));
        assert_eq!(client.recv().unwrap(), (corrs[2], Response::Get(None)));
        assert_eq!(client.pending(), 1);
        drop(client); // a dropped client still sends what it queued
        assert_eq!(server.join().unwrap(), fourth);
    }
}
