//! The TCP front-end: listener, per-connection reader threads, and the reply path.
//!
//! Data flow (docs/ARCHITECTURE.md, "The network front-end"):
//!
//! ```text
//! accept thread ──► reader thread (one per connection)
//!                     │  read_frame → CRC/magic/version verify → Request::decode
//!                     ▼
//!                 Executor (shared-queue pool, `server_threads` workers)
//!                     │  execute against Arc<KvStore>  (puts ride group commit)
//!                     ▼
//!                 per-connection writer mutex ──► socket (group-flushed replies)
//! ```
//!
//! Two batching effects stack here: concurrent durable PUTs share one superblock
//! flip through the KV layer's `group_commit_window_us` (PROTOCOL.md §5.2), and
//! replies completing while more requests are in flight share one socket flush
//! (PROTOCOL.md §7) — the writer mutex holder only flushes when it is the last
//! reply in flight for that connection.

use crate::executor::{Executor, SharedQueueExecutor};
use crate::protocol::{
    self, read_frame, FrameError, Request, RequestError, Response, ERR_SERVER, ERR_SHUTTING_DOWN,
    ERR_STORE_FULL, ERR_VALUE_TOO_LARGE, RESPONSE_BIT, STATUS_OK,
};
use lss_btree::kv::KvStore;
use lss_core::error::{Error, Result};
use parking_lot::Mutex;
use serde::Serialize;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning knobs. All knobs are also documented in docs/OPERATIONS.md.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads in the request executor (`0` = auto: the machine's available
    /// parallelism, clamped to `[2, 8]`). Overridable with `LSS_SERVER_THREADS`.
    pub server_threads: usize,
    /// Upper bound accepted for a frame's `length` field (PROTOCOL.md §3.1) and the
    /// budget a SCAN reply is packed against (PROTOCOL.md §5.4).
    pub max_frame_bytes: u32,
    /// Server-side cap on items in one SCAN reply (PROTOCOL.md §5.4 lets the server
    /// cap independently of the client's `max_items`).
    pub max_scan_items: u32,
    /// Socket write timeout; a connection whose peer stops draining replies is
    /// dropped rather than wedging a worker forever.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            server_threads: 0,
            max_frame_bytes: protocol::MAX_FRAME_BYTES,
            max_scan_items: 65_536,
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

impl ServerConfig {
    /// Apply environment overrides (`LSS_SERVER_THREADS`), mirroring
    /// [`lss_core::StoreConfig::with_env_overrides`]'s pattern for the store knobs.
    pub fn with_env_overrides(self) -> Self {
        self.with_overrides_from(|name| std::env::var(name).ok())
    }

    /// The injectable core of [`ServerConfig::with_env_overrides`].
    pub fn with_overrides_from(mut self, lookup: impl Fn(&str) -> Option<String>) -> Self {
        if let Some(n) = lookup("LSS_SERVER_THREADS").and_then(|v| v.parse::<usize>().ok()) {
            self.server_threads = n.clamp(1, 64);
        }
        self
    }

    /// The worker count [`Server::start`] actually spawns (resolves `0` = auto).
    pub fn effective_threads(&self) -> usize {
        if self.server_threads > 0 {
            return self.server_threads;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(2, 8)
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

/// One live connection: the reader thread owns decode, workers share the writer.
struct Conn {
    /// Owned handle used by [`Server::shutdown`] to unblock the reader.
    stream: TcpStream,
    writer: Mutex<BufWriter<TcpStream>>,
    /// Requests decoded but not yet replied to. The reply that drops this to zero
    /// flushes the socket; earlier replies just append to the buffered writer —
    /// that is the reply group-flush of PROTOCOL.md §7.
    in_flight: AtomicUsize,
}

impl Conn {
    /// Encode and send one reply, flushing only when this reply is the last in
    /// flight. `req_opcode` is echoed with [`RESPONSE_BIT`] set (PROTOCOL.md §3.4).
    fn send_reply(&self, shared: &Shared, req_opcode: u8, corr_id: u64, payload: &[u8]) {
        let mut frame = Vec::with_capacity(4 + protocol::MIN_FRAME_LEN as usize + payload.len());
        protocol::encode_frame(&mut frame, req_opcode | RESPONSE_BIT, corr_id, payload);
        let mut w = self.writer.lock();
        let mut res = w.write_all(&frame);
        shared.counters.replies.fetch_add(1, Ordering::Relaxed);
        let remaining = self.in_flight.fetch_sub(1, Ordering::AcqRel) - 1;
        if res.is_ok() && remaining == 0 {
            shared
                .counters
                .socket_flushes
                .fetch_add(1, Ordering::Relaxed);
            res = w.flush();
        }
        drop(w);
        if res.is_err() {
            shared.counters.write_errors.fetch_add(1, Ordering::Relaxed);
            // The reader will observe the shutdown and close its half too.
            let _ = self.stream.shutdown(Shutdown::Both);
        }
    }
}

struct Shared {
    kv: Arc<KvStore>,
    config: ServerConfig,
    executor: Box<dyn Executor>,
    shutting_down: AtomicBool,
    counters: Counters,
    conns: Mutex<Vec<(Arc<Conn>, JoinHandle<()>)>>,
}

/// A running KV server. Start with [`Server::start`], stop with
/// [`Server::shutdown`] (also run on drop). The server holds an `Arc<KvStore>`:
/// callers keep their own clone to reopen or inspect the store after shutdown.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port — see [`Server::local_addr`])
    /// and serve `kv` with the default shared-queue executor sized by
    /// [`ServerConfig::effective_threads`].
    pub fn start(kv: Arc<KvStore>, addr: impl ToSocketAddrs, config: ServerConfig) -> Result<Self> {
        let executor: Box<dyn Executor> =
            Box::new(SharedQueueExecutor::new(config.effective_threads()));
        Self::start_with_executor(kv, addr, config, executor)
    }

    /// The pluggable-executor seam: serve with any [`Executor`] implementation.
    pub fn start_with_executor(
        kv: Arc<KvStore>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        executor: Box<dyn Executor>,
    ) -> Result<Self> {
        let listener = TcpListener::bind(addr).map_err(Error::Io)?;
        let local_addr = listener.local_addr().map_err(Error::Io)?;
        let shared = Arc::new(Shared {
            kv,
            config,
            executor,
            shutting_down: AtomicBool::new(false),
            counters: Counters::default(),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("lss-server-accept".into())
            .spawn(move || accept_loop(&accept_shared, &listener))
            .map_err(Error::Io)?;
        Ok(Self {
            shared,
            local_addr,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }

    /// The bound address — with port 0 this is where the ephemeral port lands.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The served store (e.g. to flush or inspect out of band in tests).
    pub fn kv(&self) -> &Arc<KvStore> {
        &self.shared.kv
    }

    /// Stop accepting, close every connection, abandon queued requests
    /// (PROTOCOL.md §8: unacked fates are unknown), finish running ones, and join
    /// all threads. Idempotent and callable from any thread.
    pub fn shutdown(&self) {
        if self.shared.shutting_down.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop, then join it so no new connection can register.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.lock().take() {
            let _ = handle.join();
        }
        // Close every socket: readers unblock with EOF/error, workers' pending
        // writes fail fast instead of wedging on a dead peer.
        let conns = std::mem::take(&mut *self.shared.conns.lock());
        for (conn, _) in &conns {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        self.shared.executor.shutdown();
        for (_, reader) in conns {
            let _ = reader.join();
        }
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
        let Ok(stream) = stream else { continue };
        if let Err(e) = register_connection(shared, stream) {
            // Socket died between accept and setup — nothing to clean up.
            let _ = e;
        }
    }
}

fn register_connection(shared: &Arc<Shared>, stream: TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)?; // PROTOCOL.md §1
    stream.set_write_timeout(shared.config.write_timeout)?;
    let writer = BufWriter::new(stream.try_clone()?);
    let conn = Arc::new(Conn {
        stream,
        writer: Mutex::new(writer),
        in_flight: AtomicUsize::new(0),
    });
    shared
        .counters
        .connections_accepted
        .fetch_add(1, Ordering::Relaxed);
    let reader_shared = Arc::clone(shared);
    let reader_conn = Arc::clone(&conn);
    let handle = std::thread::Builder::new()
        .name("lss-server-conn".into())
        .spawn(move || {
            connection_loop(&reader_shared, &reader_conn);
            reader_shared
                .counters
                .connections_closed
                .fetch_add(1, Ordering::Relaxed);
            let _ = reader_conn.stream.shutdown(Shutdown::Both);
        })
        .map_err(std::io::Error::other)?;
    shared.conns.lock().push((conn, handle));
    Ok(())
}

/// Per-connection read loop: frame → decode → dispatch, per PROTOCOL.md §8's two
/// failure classes (fatal framing errors close the connection here; per-request
/// errors are answered inline and the loop continues).
fn connection_loop(shared: &Arc<Shared>, conn: &Arc<Conn>) {
    let Ok(raw) = conn.stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(raw);
    loop {
        let frame = match read_frame(&mut reader, shared.config.max_frame_bytes) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // clean EOF at a frame boundary
            Err(FrameError::Fatal(_)) | Err(FrameError::Io(_)) => {
                // PROTOCOL.md §8: the stream is untrusted (or gone) — no reply, close.
                shared.counters.frame_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        conn.in_flight.fetch_add(1, Ordering::AcqRel);
        let request = match Request::decode(frame.opcode, &frame.payload) {
            Ok(request) => request,
            Err(e) => {
                // Recoverable per-request error (PROTOCOL.md §8): reply, keep going.
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                conn.send_reply(shared, frame.opcode, frame.corr_id, &[status_of_decode(&e)]);
                continue;
            }
        };
        let job_shared = Arc::clone(shared);
        let job_conn = Arc::clone(conn);
        let opcode = frame.opcode;
        let corr_id = frame.corr_id;
        let accepted = shared.executor.submit(Box::new(move || {
            let mut payload = Vec::new();
            execute_into(&job_shared, request, &mut payload);
            job_conn.send_reply(&job_shared, opcode, corr_id, &payload);
        }));
        if !accepted {
            conn.send_reply(shared, opcode, corr_id, &[ERR_SHUTTING_DOWN]);
            return;
        }
    }
}

fn status_of_decode(e: &RequestError) -> u8 {
    e.status()
}

/// Map a store error to a PROTOCOL.md §6 status code.
fn status_of_store(e: &Error) -> u8 {
    match e {
        Error::PageTooLarge { .. } => ERR_VALUE_TOO_LARGE,
        Error::OutOfSpace { .. } => ERR_STORE_FULL,
        _ => ERR_SERVER,
    }
}

/// Execute a request against the store, encoding the response payload directly into
/// `payload` — GET and SCAN copy value bytes exactly once, store buffer → reply
/// frame, with no intermediate `Vec` per value.
fn execute_into(shared: &Shared, request: Request, payload: &mut Vec<u8>) {
    let kv = &shared.kv;
    let c = &shared.counters;
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
                Ok(None) => {
                    payload.push(STATUS_OK);
                    payload.push(0);
                }
                Err(e) => {
                    c.store_errors.fetch_add(1, Ordering::Relaxed);
                    payload.push(status_of_store(&e));
                }
            }
        }
        Request::Put {
            key,
            value,
            durable,
        } => {
            c.puts.fetch_add(1, Ordering::Relaxed);
            // PROTOCOL.md §5.2: a durable PUT acks only after the commit covering
            // it; concurrent callers batch into one superblock flip through the KV
            // layer's group-commit window.
            let res = kv
                .put(&key, &value)
                .and_then(|()| if durable { kv.flush() } else { Ok(()) });
            match res {
                Ok(()) => payload.push(STATUS_OK),
                Err(e) => {
                    c.store_errors.fetch_add(1, Ordering::Relaxed);
                    payload.push(status_of_store(&e));
                }
            }
        }
        Request::Delete { key, durable } => {
            c.deletes.fetch_add(1, Ordering::Relaxed);
            let res = kv.delete(&key).and_then(|existed| {
                if durable {
                    kv.flush().map(|()| existed)
                } else {
                    Ok(existed)
                }
            });
            match res {
                Ok(existed) => {
                    payload.push(STATUS_OK);
                    payload.push(u8::from(existed));
                }
                Err(e) => {
                    c.store_errors.fetch_add(1, Ordering::Relaxed);
                    payload.push(status_of_store(&e));
                }
            }
        }
        Request::Scan {
            start,
            end,
            max_items,
        } => {
            c.scans.fetch_add(1, Ordering::Relaxed);
            match kv.range(&start, &end) {
                Ok(items) => {
                    // Cap by the client's max_items, the server's max_scan_items,
                    // and the frame-size budget (PROTOCOL.md §5.4).
                    let cap = if max_items == 0 {
                        shared.config.max_scan_items
                    } else {
                        max_items.min(shared.config.max_scan_items)
                    } as usize;
                    let byte_budget = shared.config.max_frame_bytes as usize
                        - protocol::MIN_FRAME_LEN as usize
                        - 64;
                    payload.push(STATUS_OK);
                    let count_at = payload.len();
                    payload.extend_from_slice(&0u32.to_le_bytes());
                    let mut emitted = 0u32;
                    let mut truncated = false;
                    for (k, v) in &items {
                        if emitted as usize >= cap {
                            truncated = true;
                            break;
                        }
                        if payload.len() + k.len() + v.len() + 8 > byte_budget {
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
                }
                Err(e) => {
                    c.store_errors.fetch_add(1, Ordering::Relaxed);
                    payload.push(status_of_store(&e));
                }
            }
        }
        Request::Flush => {
            c.flushes.fetch_add(1, Ordering::Relaxed);
            match kv.flush() {
                Ok(()) => payload.push(STATUS_OK),
                Err(e) => {
                    c.store_errors.fetch_add(1, Ordering::Relaxed);
                    payload.push(status_of_store(&e));
                }
            }
        }
        Request::Stats => {
            c.stats_calls.fetch_add(1, Ordering::Relaxed);
            let json = stats_json(shared);
            Response::Stats(json).encode_payload(payload);
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
    threads: usize,
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
    index_write_amplification: f64,
    pool_hit_ratio: f64,
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
    writer_stall_events: u64,
}

fn stats_json(shared: &Shared) -> String {
    let c = &shared.counters;
    let kv_stats = shared.kv.stats();
    let store_stats = shared.kv.store().stats();
    let replies = c.replies.load(Ordering::Relaxed);
    let flushes = c.socket_flushes.load(Ordering::Relaxed);
    let doc = StatsDoc {
        server: ServerSection {
            threads: shared.executor.threads(),
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
            index_write_amplification: kv_stats.index_write_amplification(),
            pool_hit_ratio: kv_stats.pool.hit_ratio(),
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
            writer_stall_events: store_stats.writer_stall_events,
        },
    };
    serde_json::to_string(&doc).unwrap_or_else(|_| "{}".into())
}
