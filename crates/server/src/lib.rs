//! # lss-server — the networked KV front-end
//!
//! Serves an [`lss_btree::kv::KvStore`] over TCP with the length-prefixed binary
//! protocol specified normatively in **docs/PROTOCOL.md**: CRC32C-checked frames,
//! out-of-order-safe correlation ids, and pipelined requests. One thread per
//! connection reads, executes and answers that connection's requests in order; a
//! durable PUT / DELETE or FLUSH is applied at once and *parked*, and one committer
//! thread runs a superblock flip ([`KvStore::flush_with`](lss_btree::kv::KvStore::flush_with))
//! and acknowledges every request that was parked before the flip began — so durable
//! writes in flight together, from any mix of connections, share one flip, and
//! replies to requests that arrived together share one socket flush. The committer
//! starts the next flip as soon as the last one has acked and a rider is parked: a
//! flip holds the index's epoch latch only for its short cut, so writers never wait
//! for its barriers. There is no thread pool and no knob to size one.
//!
//! Most clients should use the `lss-client` crate rather than this crate's
//! [`protocol`] module directly; operators run the `lss-server` binary (see
//! docs/OPERATIONS.md). Embedding the server in-process — as the tests, benches and
//! the example below do — needs only [`Server::start`] and a shared
//! [`KvStore`](lss_btree::kv::KvStore).
//!
//! ## Example: an in-process server spoken to at the wire level
//!
//! ```
//! use lss_core::{LogStore, StoreConfig};
//! use lss_btree::kv::KvStore;
//! use lss_server::{Server, ServerConfig};
//! use lss_server::protocol::{self, Request, Response};
//! use std::net::TcpStream;
//! use std::sync::Arc;
//!
//! // A store on an in-memory device, served on an ephemeral port.
//! let kv = Arc::new(KvStore::open(
//!     LogStore::open_in_memory(StoreConfig::small_for_tests()).unwrap(),
//! ).unwrap());
//! let server = Server::start(Arc::clone(&kv), "127.0.0.1:0", ServerConfig::default()).unwrap();
//!
//! // One durable PUT, then one GET, framed by hand per docs/PROTOCOL.md §3. (Each
//! // request awaits its reply here; pipelined, the GET would still see the PUT — one
//! // connection's requests are applied in order — but its reply would overtake the
//! // PUT's ack, which waits for a commit.)
//! let mut sock = TcpStream::connect(server.local_addr()).unwrap();
//! let mut round_trip = |corr, req: Request| {
//!     let mut payload = Vec::new();
//!     req.encode_payload(&mut payload);
//!     protocol::write_frame(&mut sock, req.opcode(), corr, &payload).unwrap();
//!     let reply = protocol::read_frame(&mut sock, protocol::MAX_FRAME_BYTES).unwrap().unwrap();
//!     assert_eq!(reply.corr_id, corr);
//!     Response::decode(reply.opcode, &reply.payload).unwrap()
//! };
//! let put = Request::Put { key: b"k".to_vec(), value: b"v".to_vec(), durable: true };
//! assert_eq!(round_trip(1, put), Response::Put);
//! let get = Request::Get { key: b"k".to_vec() };
//! assert_eq!(round_trip(2, get), Response::Get(Some(b"v".to_vec())));
//! server.shutdown();
//! ```

pub mod protocol;
mod server;

pub use server::{Server, ServerConfig};
