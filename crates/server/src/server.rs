//! The TCP front-end: listener, one thread per connection, one committer.
//!
//! Data flow (docs/ARCHITECTURE.md, "The network front-end") — a request crosses no
//! queue:
//!
//! ```text
//! accept thread ──► connection thread (one per connection: reader = executor)
//!                     │  read_frame → CRC/magic/version verify → Request::decode
//!                     │  execute inline against Arc<KvStore>
//!                     ├─ GET / SCAN / STATS / NO_FLUSH write ──► reply into the
//!                     │     connection's BufWriter; socket flushed before the
//!                     │     thread would block in `read`
//!                     └─ durable PUT / DELETE, FLUSH: applied, then *parked* ──┐
//!                                                                             ▼
//! committer thread ◄── rider list (server-wide) ── sleeps until a rider exists,
//!     cuts the list as its group-commit generation closes, runs one flip (a short
//!     cut under the epoch latch, then two barriers beside live writers), acks every
//!     rider it cut: all acks of a connection, then one flush; and goes again
//! ```
//!
//! Two batching effects stack here: every durable write parked before the cut shares
//! one superblock flip, whichever socket it came from (PROTOCOL.md §5.2), and the
//! replies to requests that arrived together share one socket flush (PROTOCOL.md §7).
//!
//! Each connection's `BufWriter` sits behind a mutex with two users: the
//! connection's own thread (a reply, or the flush before it blocks) and the
//! committer (that connection's acks plus their flush). Neither holds it while
//! touching the store. A peer that stops reading its replies blocks only its own
//! thread; it can hold the committer for at most one `write_timeout`, after which
//! the connection is dropped.

use crate::protocol::{
    self, holds_whole_frame, read_frame, FrameError, Request, Response, ERR_SERVER,
    ERR_SHUTTING_DOWN, ERR_STORE_FULL, ERR_VALUE_TOO_LARGE, RESPONSE_BIT, STATUS_OK,
};
use lss_btree::kv::KvStore;
use lss_core::error::{Error, Result};
use parking_lot::{Condvar, Mutex};
use serde::Serialize;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Durable requests one connection may have parked for the committer. At the cap
/// the connection's thread stops reading until a flip acknowledges some, so a peer
/// cannot grow the rider list without bound by never waiting for its acks.
const MAX_PARKED_PER_CONN: usize = 1024;

/// Server tuning knobs. All knobs are also documented in docs/OPERATIONS.md.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Upper bound accepted for a frame's `length` field (PROTOCOL.md §3.1) and the
    /// budget a SCAN reply is packed against (PROTOCOL.md §5.4).
    pub max_frame_bytes: u32,
    /// Server-side cap on items in one SCAN reply (PROTOCOL.md §5.4 lets the server
    /// cap independently of the client's `max_items`).
    pub max_scan_items: u32,
    /// Socket write timeout; a connection whose peer stops draining replies is
    /// dropped rather than wedging its thread (or the committer) forever.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_frame_bytes: protocol::MAX_FRAME_BYTES,
            max_scan_items: 65_536,
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Lock-free request/reply counters, reported by the STATS opcode (PROTOCOL.md §5.6;
/// field inventory in docs/OPERATIONS.md).
#[derive(Default)]
struct Counters {
    connections_accepted: AtomicU64,
    connections_closed: AtomicU64,
    gets: AtomicU64,
    puts: AtomicU64,
    deletes: AtomicU64,
    scans: AtomicU64,
    flushes: AtomicU64,
    stats_calls: AtomicU64,
    /// Fatal framing errors that closed a connection (PROTOCOL.md §8).
    frame_errors: AtomicU64,
    /// Recoverable per-request errors: bad payloads and unknown opcodes.
    protocol_errors: AtomicU64,
    /// Requests that failed in the store (ERR_SERVER / ERR_STORE_FULL / ...).
    store_errors: AtomicU64,
    replies: AtomicU64,
    /// Socket flushes performed — `replies / socket_flushes` is the reply batching
    /// factor (PROTOCOL.md §7).
    socket_flushes: AtomicU64,
    write_errors: AtomicU64,
}

/// One live connection.
struct Conn {
    /// Owned handle used by [`Server::shutdown`] to unblock the reader.
    stream: TcpStream,
    /// Shared by the connection's thread and the committer (see the module docs).
    writer: Mutex<ReplyWriter>,
    /// Riders of this connection not yet acknowledged; only changed under
    /// `Shared::riders`, which is what the cap wait sleeps on.
    parked: AtomicUsize,
}

struct ReplyWriter {
    out: BufWriter<TcpStream>,
    /// Set by the first failed write; nothing is written afterwards.
    broken: bool,
}

impl Conn {
    /// Run `write` on the connection's buffered writer. The first failed write (peer
    /// gone, or stalled past `write_timeout`) drops the connection; `false` tells
    /// the connection's thread to stop — requests the peer already queued can still
    /// be read after the socket is shut down.
    fn with_writer(
        &self,
        shared: &Shared,
        write: impl FnOnce(&Counters, &mut BufWriter<TcpStream>) -> io::Result<()>,
    ) -> bool {
        let mut writer = self.writer.lock();
        if writer.broken {
            return false;
        }
        writer.broken = write(&shared.counters, &mut writer.out).is_err();
        if writer.broken {
            shared.counters.write_errors.fetch_add(1, Ordering::Relaxed);
            let _ = self.stream.shutdown(Shutdown::Both);
        }
        !writer.broken
    }

    /// Encode one reply into the buffered writer; the socket is not touched unless
    /// the buffer fills. `req_opcode` is echoed with [`RESPONSE_BIT`] (PROTOCOL.md §3.4).
    fn reply(&self, shared: &Shared, req_opcode: u8, corr_id: u64, payload: &[u8]) -> bool {
        self.with_writer(shared, |c, w| put_reply(c, w, req_opcode, corr_id, payload))
    }

    /// Push buffered replies to the socket (the group flush of PROTOCOL.md §7).
    fn flush(&self, shared: &Shared) -> bool {
        self.with_writer(shared, flush_replies)
    }
}

fn put_reply(
    c: &Counters,
    w: &mut BufWriter<TcpStream>,
    req_opcode: u8,
    corr_id: u64,
    payload: &[u8],
) -> io::Result<()> {
    c.replies.fetch_add(1, Ordering::Relaxed);
    protocol::write_frame(w, req_opcode | RESPONSE_BIT, corr_id, payload)
}

fn flush_replies(c: &Counters, w: &mut BufWriter<TcpStream>) -> io::Result<()> {
    if w.buffer().is_empty() {
        return Ok(());
    }
    c.socket_flushes.fetch_add(1, Ordering::Relaxed);
    w.flush()
}

/// A durable request that has been applied and waits for the flip that covers it.
struct Rider {
    conn: Arc<Conn>,
    opcode: u8,
    corr_id: u64,
    /// The reply if the flip succeeds: `[OK]`, or DELETE's `[OK, existed]`.
    ok: [u8; 2],
    ok_len: usize,
}

/// Registry of connection threads. A thread moves its own entry from `open` to
/// `finished` as it exits, which releases the connection's descriptors at once; the
/// handle is joined by the next accept or by shutdown.
#[derive(Default)]
struct Conns {
    next_id: u64,
    open: HashMap<u64, (Arc<Conn>, JoinHandle<()>)>,
    finished: Vec<JoinHandle<()>>,
}

struct Shared {
    kv: Arc<KvStore>,
    config: ServerConfig,
    shutting_down: AtomicBool,
    counters: Counters,
    conns: Mutex<Conns>,
    /// Parked riders in arrival order: pushed by connection threads after their
    /// mutation returned, cut by the committer as its generation closes.
    riders: Mutex<Vec<Rider>>,
    /// Signalled (with `riders`) when a rider is parked on an empty list: wakes the
    /// committer.
    rider_parked: Condvar,
    /// Signalled (with `riders`) when riders were acknowledged: wakes threads at
    /// [`MAX_PARKED_PER_CONN`].
    riders_acked: Condvar,
}

/// A running KV server. Start with [`Server::start`], stop with
/// [`Server::shutdown`] (also run on drop). The server holds an `Arc<KvStore>`:
/// callers keep their own clone to reopen or inspect the store after shutdown.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    /// The accept thread and the committer, in that order.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port — see [`Server::local_addr`])
    /// and serve `kv`: one thread per accepted connection plus one committer.
    pub fn start(kv: Arc<KvStore>, addr: impl ToSocketAddrs, config: ServerConfig) -> Result<Self> {
        let listener = TcpListener::bind(addr).map_err(Error::Io)?;
        let local_addr = listener.local_addr().map_err(Error::Io)?;
        let shared = Arc::new(Shared {
            kv,
            config,
            shutting_down: AtomicBool::new(false),
            counters: Counters::default(),
            conns: Mutex::new(Conns::default()),
            riders: Mutex::new(Vec::new()),
            rider_parked: Condvar::new(),
            riders_acked: Condvar::new(),
        });
        // Built before the threads so that a failed spawn drops it, and the drop
        // stops whatever did start.
        let server = Self {
            shared,
            local_addr,
            threads: Mutex::new(Vec::new()),
        };
        let shared = Arc::clone(&server.shared);
        server.spawn("lss-server-accept", move || accept_loop(&shared, &listener))?;
        let shared = Arc::clone(&server.shared);
        server.spawn("lss-server-commit", move || commit_loop(&shared))?;
        Ok(server)
    }

    fn spawn(&self, name: &str, body: impl FnOnce() + Send + 'static) -> Result<()> {
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(body)
            .map_err(Error::Io)?;
        self.threads.lock().push(handle);
        Ok(())
    }

    /// The bound address — with port 0 this is where the ephemeral port lands.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The served store (e.g. to flush or inspect out of band in tests).
    pub fn kv(&self) -> &Arc<KvStore> {
        &self.shared.kv
    }

    /// Stop accepting, close every connection, and join all threads: sockets first,
    /// then the connection threads, then the committer. Riders still parked are
    /// never acknowledged (PROTOCOL.md §8: unacked fates are unknown); a flip
    /// already running finishes. Idempotent and callable from any thread.
    pub fn shutdown(&self) {
        if self.shared.shutting_down.swap(true, Ordering::AcqRel) {
            return;
        }
        let mut threads = std::mem::take(&mut *self.threads.lock()).into_iter();
        // Unblock the accept loop, then join it so no new connection can register.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = threads.next() {
            let _ = accept.join();
        }
        // Close every socket: readers unblock with EOF/error, and a write the
        // committer has pending fails fast instead of wedging on a dead peer.
        let conns = std::mem::take(&mut *self.shared.conns.lock());
        for (conn, _) in conns.open.values() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        // Wake the committer and any thread waiting at the rider cap; taking the
        // lock orders the flag before their next check of it.
        drop(self.shared.riders.lock());
        self.shared.rider_parked.notify_all();
        self.shared.riders_acked.notify_all();
        let readers = conns.open.into_values().map(|(_, handle)| handle);
        for handle in readers.chain(conns.finished).chain(threads) {
            let _ = handle.join();
        }
        self.shared.riders.lock().clear();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        let finished = std::mem::take(&mut shared.conns.lock().finished);
        for handle in finished {
            let _ = handle.join();
        }
        // A socket that died between accept and set-up needs no clean-up. When
        // `accept` itself fails (EMFILE: out of descriptors) the pending connection
        // stays queued, so pause instead of spinning on the same error.
        if stream.and_then(|s| register_connection(shared, s)).is_err() {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

fn register_connection(shared: &Arc<Shared>, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?; // PROTOCOL.md §1
    stream.set_write_timeout(shared.config.write_timeout)?;
    let reader = BufReader::new(stream.try_clone()?);
    let writer = ReplyWriter {
        out: BufWriter::new(stream.try_clone()?),
        broken: false,
    };
    let conn = Arc::new(Conn {
        stream,
        writer: Mutex::new(writer),
        parked: AtomicUsize::new(0),
    });
    // The registry stays locked across the spawn, so the thread cannot look for its
    // entry before it is there.
    let mut conns = shared.conns.lock();
    let id = conns.next_id;
    conns.next_id += 1;
    let handle = std::thread::Builder::new()
        .name("lss-server-conn".into())
        .spawn({
            let (shared, conn) = (Arc::clone(shared), Arc::clone(&conn));
            move || {
                connection_loop(&shared, &conn, reader);
                conn.flush(&shared);
                let _ = conn.stream.shutdown(Shutdown::Both);
                let c = &shared.counters;
                c.connections_closed.fetch_add(1, Ordering::Relaxed);
                let mut conns = shared.conns.lock();
                if let Some((_, handle)) = conns.open.remove(&id) {
                    conns.finished.push(handle);
                }
            }
        })?;
    let c = &shared.counters;
    c.connections_accepted.fetch_add(1, Ordering::Relaxed);
    conns.open.insert(id, (conn, handle));
    Ok(())
}

/// The connection's thread: frame → decode → execute → reply, per PROTOCOL.md §8's
/// two failure classes (fatal framing errors close the connection here; per-request
/// errors are answered and the loop continues). Replies accumulate in the writer
/// while whole requests are already buffered and go out before the thread would
/// block for more input.
fn connection_loop(shared: &Arc<Shared>, conn: &Arc<Conn>, mut reader: BufReader<TcpStream>) {
    let mut payload = Vec::new(); // the one reply buffer of this connection
    loop {
        if !holds_whole_frame(reader.buffer()) && !conn.flush(shared) {
            return;
        }
        let frame = match read_frame(&mut reader, shared.config.max_frame_bytes) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // clean EOF at a frame boundary
            Err(FrameError::Fatal(_)) | Err(FrameError::Io(_)) => {
                // PROTOCOL.md §8: the stream is untrusted (or gone) — no reply, close.
                shared.counters.frame_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        if shared.shutting_down.load(Ordering::Acquire) {
            conn.reply(shared, frame.opcode, frame.corr_id, &[ERR_SHUTTING_DOWN]);
            return;
        }
        payload.clear();
        let park = match Request::decode(frame.opcode, &frame.payload) {
            Ok(request) => execute_into(shared, request, &mut payload),
            Err(e) => {
                // Recoverable per-request error (PROTOCOL.md §8): reply, keep going.
                let c = &shared.counters;
                c.protocol_errors.fetch_add(1, Ordering::Relaxed);
                payload.push(e.status());
                false
            }
        };
        if park {
            park_rider(shared, conn, frame.opcode, frame.corr_id, &payload);
        } else if !conn.reply(shared, frame.opcode, frame.corr_id, &payload) {
            return;
        }
    }
}

/// Park an applied durable request for the committer; `ok` is its success reply.
/// Called only after the request's mutation returned, so whichever flip cuts the
/// rider from the list checkpoints a tree that already contains it.
fn park_rider(shared: &Shared, conn: &Arc<Conn>, opcode: u8, corr_id: u64, ok: &[u8]) {
    if conn.parked.load(Ordering::Relaxed) >= MAX_PARKED_PER_CONN {
        conn.flush(shared); // about to block: same rule as before a read
    }
    let mut rider = Rider {
        conn: Arc::clone(conn),
        opcode,
        corr_id,
        ok: [0; 2],
        ok_len: ok.len(),
    };
    rider.ok[..ok.len()].copy_from_slice(ok);
    let mut riders = shared.riders.lock();
    while conn.parked.load(Ordering::Relaxed) >= MAX_PARKED_PER_CONN
        && !shared.shutting_down.load(Ordering::Acquire)
    {
        shared.riders_acked.wait(&mut riders);
    }
    conn.parked.fetch_add(1, Ordering::Relaxed);
    riders.push(rider);
    let first = riders.len() == 1;
    drop(riders);
    if first {
        // Only an empty list has the committer waiting for a rider; with one on it,
        // it is flipping.
        shared.rider_parked.notify_one();
    }
}

/// The committer: the only caller of `KvStore::flush*` in the server. One flip per
/// iteration acknowledges every rider parked before the flip's generation closed;
/// riders parked later wait for the next iteration, which starts as soon as this one
/// has acked. A flip holds the tree's epoch latch only for its cut, so flips back to
/// back leave writers running; the group-commit window is what gathers riders.
fn commit_loop(shared: &Shared) {
    let mut batch = Vec::new();
    loop {
        {
            let mut riders = shared.riders.lock();
            while riders.is_empty() && !shared.shutting_down.load(Ordering::Acquire) {
                shared.rider_parked.wait(&mut riders);
            }
        }
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        // The hook takes the list strictly before the flip's checkpoint begins (see
        // `KvStore::flush_with`): every rider taken here was applied before the
        // epoch's cut, so the flip covers it.
        let flipped = shared
            .kv
            .flush_with(|| std::mem::swap(&mut batch, &mut *shared.riders.lock()));
        let failure = flipped.err().map(|e| [status_of_store(&e)]);
        if failure.is_some() {
            let c = &shared.counters;
            c.store_errors
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
        }
        // All acks of a connection, then one flush of it. The sort is stable, so a
        // connection's acks keep their request order.
        batch.sort_by_key(|rider| Arc::as_ptr(&rider.conn) as usize);
        for acks in batch.chunk_by(|a, b| Arc::ptr_eq(&a.conn, &b.conn)) {
            acks[0].conn.with_writer(shared, |c, w| {
                for rider in acks {
                    let payload = failure.as_ref().map_or(&rider.ok[..rider.ok_len], |f| f);
                    put_reply(c, w, rider.opcode, rider.corr_id, payload)?;
                }
                flush_replies(c, w)
            });
        }
        let riders = shared.riders.lock();
        for rider in batch.drain(..) {
            rider.conn.parked.fetch_sub(1, Ordering::Relaxed);
        }
        drop(riders);
        shared.riders_acked.notify_all();
    }
}

/// Map a store error to a PROTOCOL.md §6 status code. A failed group commit reports
/// what made the flip fail, not that it was batched.
fn status_of_store(e: &Error) -> u8 {
    match e {
        Error::GroupCommitFailed(source) => status_of_store(source),
        Error::PageTooLarge { .. } => ERR_VALUE_TOO_LARGE,
        Error::OutOfSpace { .. } => ERR_STORE_FULL,
        _ => ERR_SERVER,
    }
}

/// Execute a request against the store, encoding its response payload directly into
/// `payload` — GET and SCAN copy value bytes exactly once, store buffer → reply
/// frame, with no intermediate `Vec` per value. Returns `true` when the request is a
/// durable write that succeeded so far: `payload` then holds its success reply,
/// which must wait for the committer (PROTOCOL.md §5.2) instead of being sent.
fn execute_into(shared: &Shared, request: Request, payload: &mut Vec<u8>) -> bool {
    let kv = &shared.kv;
    let c = &shared.counters;
    let failed = |payload: &mut Vec<u8>, e: Error| {
        c.store_errors.fetch_add(1, Ordering::Relaxed);
        payload.push(status_of_store(&e));
        false
    };
    match request {
        Request::Get { key } => {
            c.gets.fetch_add(1, Ordering::Relaxed);
            match kv.get(&key) {
                Ok(Some(value)) => {
                    payload.push(STATUS_OK);
                    payload.push(1);
                    payload.extend_from_slice(&(value.len() as u32).to_le_bytes());
                    payload.extend_from_slice(&value);
                }
                Ok(None) => payload.extend_from_slice(&[STATUS_OK, 0]),
                Err(e) => return failed(payload, e),
            }
            false
        }
        Request::Put {
            key,
            value,
            durable,
        } => {
            c.puts.fetch_add(1, Ordering::Relaxed);
            match kv.put(&key, &value) {
                Ok(()) => payload.push(STATUS_OK),
                Err(e) => return failed(payload, e),
            }
            durable
        }
        Request::Delete { key, durable } => {
            c.deletes.fetch_add(1, Ordering::Relaxed);
            match kv.delete(&key) {
                Ok(existed) => payload.extend_from_slice(&[STATUS_OK, u8::from(existed)]),
                Err(e) => return failed(payload, e),
            }
            durable
        }
        Request::Scan {
            start,
            end,
            max_items,
        } => {
            c.scans.fetch_add(1, Ordering::Relaxed);
            let items = match kv.range(&start, &end) {
                Ok(items) => items,
                Err(e) => return failed(payload, e),
            };
            // Cap by the client's max_items, the server's max_scan_items,
            // and the frame-size budget (PROTOCOL.md §5.4).
            let cap = if max_items == 0 {
                shared.config.max_scan_items
            } else {
                max_items.min(shared.config.max_scan_items)
            } as usize;
            let byte_budget =
                shared.config.max_frame_bytes as usize - protocol::MIN_FRAME_LEN as usize - 64;
            payload.push(STATUS_OK);
            let count_at = payload.len();
            payload.extend_from_slice(&0u32.to_le_bytes());
            let mut emitted = 0u32;
            let mut truncated = false;
            for (k, v) in &items {
                if emitted as usize >= cap || payload.len() + k.len() + v.len() + 8 > byte_budget {
                    truncated = true;
                    break;
                }
                payload.extend_from_slice(&(k.len() as u32).to_le_bytes());
                payload.extend_from_slice(k);
                payload.extend_from_slice(&(v.len() as u32).to_le_bytes());
                payload.extend_from_slice(v);
                emitted += 1;
            }
            payload[count_at..count_at + 4].copy_from_slice(&emitted.to_le_bytes());
            payload.push(u8::from(truncated));
            false
        }
        Request::Flush => {
            // Rides the next flip like a durable write with nothing to apply.
            c.flushes.fetch_add(1, Ordering::Relaxed);
            payload.push(STATUS_OK);
            true
        }
        Request::Stats => {
            c.stats_calls.fetch_add(1, Ordering::Relaxed);
            Response::Stats(stats_json(shared)).encode_payload(payload);
            false
        }
    }
}

/// The STATS document (PROTOCOL.md §5.6). Fields documented in docs/OPERATIONS.md;
/// per §5.6 the schema may grow without a protocol version bump.
#[derive(Serialize)]
struct StatsDoc {
    server: ServerSection,
    kv: KvSection,
    store: StoreSection,
}

#[derive(Serialize)]
struct ServerSection {
    connections_open: usize,
    connections_accepted: u64,
    connections_closed: u64,
    gets: u64,
    puts: u64,
    deletes: u64,
    scans: u64,
    flushes: u64,
    stats_calls: u64,
    frame_errors: u64,
    protocol_errors: u64,
    store_errors: u64,
    write_errors: u64,
    replies: u64,
    socket_flushes: u64,
    reply_batching: f64,
}

#[derive(Serialize)]
struct KvSection {
    keys: u64,
    epoch: u64,
    puts: u64,
    gets: u64,
    deletes: u64,
    range_scans: u64,
    flush_calls: u64,
    superblock_commits: u64,
    group_commit_riders: u64,
    commit_latch_us: u64,
    commit_us: u64,
    index_write_amplification: f64,
    index_delta_pages_written: u64,
    index_delta_bytes_written: u64,
    pool_hit_ratio: f64,
    pool_dirty_evictions: u64,
    pool_flush_writes: u64,
}

#[derive(Serialize)]
struct StoreSection {
    user_pages_written: u64,
    gc_pages_written: u64,
    segments_sealed: u64,
    device_bytes_written: u64,
    persist_points: u64,
    segments_cleaned: u64,
    cleaning_cycles: u64,
    pages_read: u64,
    device_page_reads: u64,
    sealed_segments: u64,
    write_behind_jobs: u64,
    write_behind_waits: u64,
    recovery_segments_replayed: u64,
    recovery_bytes_read: u64,
}

fn stats_json(shared: &Shared) -> String {
    let c = &shared.counters;
    let kv_stats = shared.kv.stats();
    let store_stats = shared.kv.store().stats();
    let replies = c.replies.load(Ordering::Relaxed);
    let flushes = c.socket_flushes.load(Ordering::Relaxed);
    let doc = StatsDoc {
        server: ServerSection {
            connections_open: shared.conns.lock().open.len(),
            connections_accepted: c.connections_accepted.load(Ordering::Relaxed),
            connections_closed: c.connections_closed.load(Ordering::Relaxed),
            gets: c.gets.load(Ordering::Relaxed),
            puts: c.puts.load(Ordering::Relaxed),
            deletes: c.deletes.load(Ordering::Relaxed),
            scans: c.scans.load(Ordering::Relaxed),
            flushes: c.flushes.load(Ordering::Relaxed),
            stats_calls: c.stats_calls.load(Ordering::Relaxed),
            frame_errors: c.frame_errors.load(Ordering::Relaxed),
            protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
            store_errors: c.store_errors.load(Ordering::Relaxed),
            write_errors: c.write_errors.load(Ordering::Relaxed),
            replies,
            socket_flushes: flushes,
            reply_batching: if flushes == 0 {
                0.0
            } else {
                replies as f64 / flushes as f64
            },
        },
        kv: KvSection {
            keys: kv_stats.keys,
            epoch: kv_stats.epoch,
            puts: kv_stats.puts,
            gets: kv_stats.gets,
            deletes: kv_stats.deletes,
            range_scans: kv_stats.range_scans,
            flush_calls: kv_stats.flush_calls,
            superblock_commits: kv_stats.superblock_commits,
            group_commit_riders: kv_stats.group_commit_riders,
            commit_latch_us: kv_stats.commit_latch_us,
            commit_us: kv_stats.commit_us,
            index_write_amplification: kv_stats.index_write_amplification(),
            index_delta_pages_written: kv_stats.index_delta_pages_written,
            index_delta_bytes_written: kv_stats.index_delta_bytes_written,
            pool_hit_ratio: kv_stats.pool.hit_ratio(),
            pool_dirty_evictions: kv_stats.pool.dirty_evictions,
            pool_flush_writes: kv_stats.pool.flush_writes,
        },
        store: StoreSection {
            user_pages_written: store_stats.user_pages_written,
            gc_pages_written: store_stats.gc_pages_written,
            segments_sealed: store_stats.segments_sealed,
            device_bytes_written: store_stats.device_bytes_written,
            persist_points: store_stats.persist_points,
            segments_cleaned: store_stats.segments_cleaned,
            cleaning_cycles: store_stats.cleaning_cycles,
            pages_read: store_stats.pages_read,
            device_page_reads: store_stats.device_page_reads,
            sealed_segments: store_stats.sealed_segments,
            write_behind_jobs: store_stats.write_behind_jobs,
            write_behind_waits: store_stats.write_behind_waits,
            recovery_segments_replayed: store_stats.recovery_segments_replayed,
            recovery_bytes_read: store_stats.recovery_bytes_read,
        },
    };
    serde_json::to_string(&doc).unwrap_or_else(|_| "{}".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// With a group-commit window every failed flip arrives wrapped; the status must
    /// be that of the source, wrapped or bare.
    #[test]
    fn store_errors_map_through_the_group_commit_wrapper() {
        let full = || Error::OutOfSpace {
            free_segments: 0,
            needed: 1,
        };
        let too_large = || Error::PageTooLarge {
            page: 1,
            size: 2,
            max: 1,
        };
        let io = || Error::Io(io::Error::other("device gone"));
        for (source, status) in [
            (full as fn() -> Error, ERR_STORE_FULL),
            (too_large, ERR_VALUE_TOO_LARGE),
            (io, ERR_SERVER),
        ] {
            assert_eq!(status_of_store(&source()), status);
            let wrapped = Error::GroupCommitFailed(Arc::new(source()));
            assert_eq!(status_of_store(&wrapped), status);
        }
    }
}
