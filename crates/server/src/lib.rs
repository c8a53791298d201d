//! # lss-server — the networked KV front-end
//!
//! Serves an [`lss_btree::kv::KvStore`] over TCP with the length-prefixed binary
//! protocol specified normatively in **docs/PROTOCOL.md**: CRC32C-checked frames,
//! out-of-order-safe correlation ids, pipelined requests executed on a pluggable
//! [`executor::Executor`] (the default is the shared-queue thread pool sized by
//! [`ServerConfig::server_threads`]), and group-batched replies — concurrent durable
//! PUTs share one superblock flip through the store's group-commit window, and
//! replies completing together share one socket flush.
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
//! // One durable PUT, then one GET, framed by hand per docs/PROTOCOL.md §3. (The GET
//! // waits for the PUT's reply: pipelined requests run concurrently and may complete
//! // — and reply — in any order.)
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

pub mod executor;
pub mod protocol;
mod server;

pub use server::{Server, ServerConfig};
