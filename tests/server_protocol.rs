//! Wire-protocol conformance tests against a live in-process server, each pinned to
//! the docs/PROTOCOL.md section it enforces: fatal framing errors close the
//! connection with no reply (§8 — torn frames, oversized lengths §3.1, bad CRC §4,
//! bad magic §3.2, bad version §3.3), recoverable errors reply and keep the
//! connection (§3.4 unknown opcode, §5 malformed payloads), pipelined replies
//! correlate by id (§7), and a seeded frame-mutation fuzz pass (honouring
//! `LSS_STRESS_SEED`) checks the server survives arbitrary corruption.
//!
//! The second half pins the committer (§5.2, §5.5, §7): which flip may acknowledge a
//! durable write, what a failed flip tells its riders, when buffered replies reach
//! the socket, and what a connection costs the process once it is gone. Interleavings
//! are forced with [`SyncControl`], a device whose `sync` can be held and failed.

mod common;

use common::{stress_seed_or, SyncControl};
use lss::btree::kv::{KvOptions, KvStore};
use lss::client::{Client, ClientError, ClientOptions};
use lss::core::device::{MemDevice, SegmentDevice};
use lss::core::{LogStore, StoreConfig};
use lss::server::protocol::{
    self, encode_frame, read_frame, write_frame, Request, Response, ERR_BAD_REQUEST, ERR_SERVER,
    ERR_UNSUPPORTED_OPCODE, MIN_FRAME_LEN, OP_PUT, RESPONSE_BIT, STATUS_OK, VERSION,
};
use lss::server::{Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// An in-process server on an ephemeral port plus the shared store handle.
fn start_server() -> (Server, Arc<KvStore>) {
    let config = StoreConfig::small_for_tests();
    let device = MemDevice::new(config.segment_bytes, config.num_segments);
    start_server_on(Box::new(device), config, 100, ServerConfig::default())
}

fn start_server_on(
    device: Box<dyn SegmentDevice>,
    config: StoreConfig,
    group_commit_window_us: u64,
    server_config: ServerConfig,
) -> (Server, Arc<KvStore>) {
    let store = LogStore::open_with_device(config, device).unwrap();
    let kv = Arc::new(
        KvStore::open_with(
            store,
            KvOptions {
                group_commit_window_us,
                ..KvOptions::default()
            },
        )
        .unwrap(),
    );
    let server = Server::start(Arc::clone(&kv), "127.0.0.1:0", server_config).unwrap();
    (server, kv)
}

/// A raw socket with a read timeout so a buggy server cannot hang the test.
fn raw_conn(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Drive one request/reply exchange over a raw socket, proving the connection works.
fn roundtrip_put(stream: &mut TcpStream, corr_id: u64) {
    let mut payload = Vec::new();
    Request::Put {
        key: b"alive".to_vec(),
        value: b"yes".to_vec(),
        durable: false,
    }
    .encode_payload(&mut payload);
    write_frame(stream, OP_PUT, corr_id, &payload).unwrap();
    stream.flush().unwrap();
    let frame = read_frame(stream, protocol::MAX_FRAME_BYTES)
        .unwrap()
        .expect("reply expected");
    assert_eq!(frame.opcode, OP_PUT | RESPONSE_BIT);
    assert_eq!(frame.corr_id, corr_id);
    assert_eq!(frame.payload, vec![STATUS_OK]);
}

/// Send raw bytes, half-close, and assert the server closes with **no reply**
/// (PROTOCOL.md §8: fatal framing errors tear the connection down silently).
fn expect_silent_close(server: &Server, bytes: &[u8]) {
    let mut stream = raw_conn(server);
    stream.write_all(bytes).unwrap();
    stream.flush().unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(
        rest.is_empty(),
        "fatal frame must not be answered, got {} reply bytes",
        rest.len()
    );
}

/// A well-formed PUT frame to corrupt in the fatal-error tests.
fn valid_put_frame(corr_id: u64) -> Vec<u8> {
    let mut payload = Vec::new();
    Request::Put {
        key: b"k".to_vec(),
        value: b"v".to_vec(),
        durable: false,
    }
    .encode_payload(&mut payload);
    let mut frame = Vec::new();
    encode_frame(&mut frame, OP_PUT, corr_id, &payload);
    frame
}

#[test]
fn torn_frame_closes_without_reply() {
    let (server, _kv) = start_server();
    let frame = valid_put_frame(1);
    // Every cut point inside the frame is a torn frame (§8); cut 0 is a clean EOF.
    for cut in [1, 4, 5, frame.len() - 1] {
        expect_silent_close(&server, &frame[..cut]);
    }
    server.shutdown();
}

#[test]
fn oversized_and_undersized_lengths_close_without_reply() {
    let (server, _kv) = start_server();
    // §3.1: length above the 16 MiB bound is fatal before any allocation...
    let huge = (protocol::MAX_FRAME_BYTES + 1).to_le_bytes();
    expect_silent_close(&server, &huge);
    // ...and a length below the 16-byte body minimum is equally fatal.
    let tiny = (MIN_FRAME_LEN - 1).to_le_bytes();
    expect_silent_close(&server, &tiny);
    server.shutdown();
}

#[test]
fn bad_crc_magic_and_version_close_without_reply() {
    let (server, _kv) = start_server();
    // §4: flip one payload bit, leave the CRC — mismatch is fatal.
    let mut frame = valid_put_frame(2);
    let mid = frame.len() / 2;
    frame[mid] ^= 0x01;
    expect_silent_close(&server, &frame);
    // §3.2: wrong magic (CRC recomputed so only the magic is at fault).
    let mut payload = Vec::new();
    Request::Flush.encode_payload(&mut payload);
    let mut frame = Vec::new();
    encode_frame(&mut frame, Request::Flush.opcode(), 3, &payload);
    frame[4] ^= 0xFF; // first magic byte, after the 4-byte length prefix
    patch_crc(&mut frame);
    expect_silent_close(&server, &frame);
    // §3.3: unsupported version.
    let mut frame = Vec::new();
    encode_frame(&mut frame, Request::Flush.opcode(), 4, &payload);
    frame[6] = VERSION + 1;
    patch_crc(&mut frame);
    expect_silent_close(&server, &frame);
    server.shutdown();
}

/// Recompute the trailing CRC over magic..payload after a test mutated the body.
fn patch_crc(frame: &mut [u8]) {
    let body_end = frame.len() - 4;
    let crc = lss::core::util::crc32c(&frame[4..body_end]);
    frame[body_end..].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn unknown_opcode_replies_and_connection_survives() {
    let (server, _kv) = start_server();
    let mut stream = raw_conn(&server);
    // §3.4: opcode 0x7F is unknown but the frame is well-formed → error reply,
    // connection stays open.
    write_frame(&mut stream, 0x7F, 9, &[]).unwrap();
    stream.flush().unwrap();
    let frame = read_frame(&mut stream, protocol::MAX_FRAME_BYTES)
        .unwrap()
        .expect("recoverable errors are answered");
    assert_eq!(frame.opcode, 0x7F | RESPONSE_BIT);
    assert_eq!(frame.corr_id, 9);
    assert_eq!(frame.payload, vec![ERR_UNSUPPORTED_OPCODE]);
    roundtrip_put(&mut stream, 10);
    server.shutdown();
}

#[test]
fn malformed_payload_replies_and_connection_survives() {
    let (server, _kv) = start_server();
    let mut stream = raw_conn(&server);
    // §5.2: a PUT payload cut short mid-string is ERR_BAD_REQUEST, not fatal.
    write_frame(&mut stream, OP_PUT, 20, &[0x00, 0x05, 0x00, 0x00]).unwrap();
    // §5.1: trailing bytes after a GET payload are equally rejected.
    let mut payload = Vec::new();
    Request::Get { key: b"k".to_vec() }.encode_payload(&mut payload);
    payload.push(0xEE);
    write_frame(&mut stream, protocol::OP_GET, 21, &payload).unwrap();
    stream.flush().unwrap();
    for corr in [20u64, 21] {
        let frame = read_frame(&mut stream, protocol::MAX_FRAME_BYTES)
            .unwrap()
            .expect("recoverable errors are answered");
        assert_eq!(frame.corr_id, corr);
        assert_eq!(frame.payload, vec![ERR_BAD_REQUEST]);
    }
    roundtrip_put(&mut stream, 22);
    server.shutdown();
}

#[test]
fn pipelined_replies_correlate_by_id() {
    let (server, kv) = start_server();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    // §7: replies come back in *completion* order (a durable ack waits for its flip
    // while later requests are answered at once), so the only valid way to pair them
    // is the correlation id.
    // Batch 1: a pipelined window of PUTs.
    let mut put_corrs = std::collections::HashSet::new();
    for i in 0..64u32 {
        let corr = client
            .send(&Request::Put {
                key: format!("p:{i:03}").into_bytes(),
                value: format!("v{i}").into_bytes(),
                durable: i % 4 == 0,
            })
            .unwrap();
        assert!(put_corrs.insert(corr), "correlation ids must be unique");
    }
    for (corr, reply) in client.drain().unwrap() {
        assert!(put_corrs.remove(&corr), "reply with unknown corr id {corr}");
        assert!(matches!(reply, Response::Put), "corr {corr}: {reply:?}");
    }
    assert!(put_corrs.is_empty(), "unanswered PUTs: {put_corrs:?}");
    // Batch 2: pipelined GETs over the now-committed keys; each reply's corr id
    // must map back to exactly the value its key holds.
    let mut want_by_corr = std::collections::HashMap::new();
    for i in 0..64u32 {
        let corr = client
            .send(&Request::Get {
                key: format!("p:{i:03}").into_bytes(),
            })
            .unwrap();
        want_by_corr.insert(corr, format!("v{i}").into_bytes());
    }
    for (corr, reply) in client.drain().unwrap() {
        let want = want_by_corr.remove(&corr).expect("unknown corr id");
        match reply {
            Response::Get(got) => assert_eq!(got.as_deref(), Some(&want[..])),
            other => panic!("corr {corr}: expected GET reply, got {other:?}"),
        }
    }
    assert!(want_by_corr.is_empty(), "unanswered GETs");
    assert_eq!(kv.len(), 64);
    server.shutdown();
}

#[test]
fn fuzzed_frames_never_kill_the_server() {
    let (server, _kv) = start_server();
    let seed = stress_seed_or(0x1552_F00D);
    let mut rng = StdRng::seed_from_u64(seed);
    for round in 0..200u64 {
        // Start from a valid frame of a random opcode and payload...
        let opcode = [
            protocol::OP_GET,
            OP_PUT,
            protocol::OP_DELETE,
            protocol::OP_SCAN,
            protocol::OP_FLUSH,
            protocol::OP_STATS,
        ][rng.gen_range(0..6usize)];
        let payload: Vec<u8> = (0..rng.gen_range(0..64usize))
            .map(|_| rng.gen::<u32>() as u8)
            .collect();
        let mut frame = Vec::new();
        encode_frame(&mut frame, opcode, round, &payload);
        // ...then corrupt it: byte flips, truncation, or garbage append.
        match rng.gen_range(0..4u32) {
            0 => {
                for _ in 0..rng.gen_range(1..4usize) {
                    let at = rng.gen_range(0..frame.len());
                    frame[at] ^= 1 << rng.gen_range(0..8u32);
                }
            }
            1 => frame.truncate(rng.gen_range(0..frame.len())),
            2 => frame.extend((0..rng.gen_range(1..32usize)).map(|_| rng.gen::<u32>() as u8)),
            _ => {} // occasionally send it clean
        }
        let mut stream = raw_conn(&server);
        // The peer may already have torn the connection down mid-write; that is a
        // pass, not a failure — the property under test is server survival.
        if stream.write_all(&frame).is_ok() {
            let _ = stream.flush();
        }
        let _ = stream.shutdown(Shutdown::Write);
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
    }
    // The server survived 200 corrupt connections: a fresh client still works.
    let mut stream = raw_conn(&server);
    roundtrip_put(&mut stream, 999);
    server.shutdown();
}

#[test]
fn shutdown_mid_request_unblocks_clients() {
    let (server, kv) = start_server();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect_with(
        &addr,
        ClientOptions {
            retry_mutations: false,
            connect_attempts: 1,
            ..ClientOptions::default()
        },
    )
    .unwrap();
    // Establish a durable prefix whose survival shutdown must not threaten.
    for i in 0..16u32 {
        client.put(format!("pre:{i}").as_bytes(), b"acked").unwrap();
    }
    // Fill the pipe with in-flight requests, then shut the server down from another
    // thread while replies are still streaming.
    for i in 0..512u32 {
        if client
            .send(&Request::Put {
                key: format!("mid:{i:04}").into_bytes(),
                value: b"racing".to_vec(),
                durable: true,
            })
            .is_err()
        {
            break;
        }
    }
    let stopper = std::thread::spawn(move || {
        server.shutdown();
        server
    });
    // Draining must terminate — with replies, an error, or a clean close — never hang.
    let drained = client.drain();
    let server = stopper.join().unwrap();
    match drained {
        Ok(replies) => assert!(replies
            .iter()
            .all(|(_, r)| matches!(r, Response::Put | Response::Err { .. }))),
        Err(ClientError::Io(_))
        | Err(ClientError::Disconnected)
        | Err(ClientError::Server { .. }) => {}
        Err(other) => panic!("unexpected drain failure: {other}"),
    }
    drop(server);
    // Every write acked before the shutdown began is still in the store.
    for i in 0..16u32 {
        assert_eq!(
            kv.get(format!("pre:{i}").as_bytes()).unwrap().as_deref(),
            Some(&b"acked"[..]),
            "acked write lost across shutdown"
        );
    }
}

// ---------------------------------------------------------------------------------
// The committer.
// ---------------------------------------------------------------------------------

/// A server on a [`SyncControl`] device with the shipped 200 µs window.
fn start_gated_server() -> (Server, Arc<KvStore>, SyncControl) {
    let config = StoreConfig::small_for_tests();
    let device = SyncControl::new(&config);
    let (server, kv) = start_server_on(
        Box::new(device.clone()),
        config,
        200,
        ServerConfig::default(),
    );
    (server, kv, device)
}

fn send(stream: &mut TcpStream, corr_id: u64, request: &Request) {
    let mut payload = Vec::new();
    request.encode_payload(&mut payload);
    write_frame(stream, request.opcode(), corr_id, &payload).unwrap();
}

fn recv(stream: &mut TcpStream) -> (u64, Response) {
    let frame = read_frame(stream, protocol::MAX_FRAME_BYTES)
        .unwrap()
        .expect("reply expected");
    let response = Response::decode(frame.opcode, &frame.payload).unwrap();
    (frame.corr_id, response)
}

fn durable_put(key: &str) -> Request {
    Request::Put {
        key: key.as_bytes().to_vec(),
        value: b"v".to_vec(),
        durable: true,
    }
}

/// A GET pipelined behind the connection's earlier requests and awaited: requests of
/// one connection are applied in order (§7), so once it is answered every durable
/// request sent before it has been applied and parked.
fn fence(stream: &mut TcpStream, corr_id: u64) {
    send(
        stream,
        corr_id,
        &Request::Get {
            key: b"absent".to_vec(),
        },
    );
    assert_eq!(recv(stream), (corr_id, Response::Get(None)));
}

/// One numeric field of the STATS document, by its (unique) name.
fn stat(json: &str, name: &str) -> u64 {
    let at = json.find(&format!("\"{name}\":")).expect(name) + name.len() + 3;
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect(name)
}

/// §5.2: durable writes in flight together share flips — counted, not timed.
#[test]
fn concurrent_durable_puts_share_flips() {
    const CONNS: u32 = 4;
    const DEPTH: u32 = 8;
    const ROUNDS: u32 = 8;
    let config = StoreConfig::small_for_tests();
    let device = MemDevice::new(config.segment_bytes, config.num_segments);
    // A window wide enough that a whole pipelined batch is parked inside it.
    let (server, kv) = start_server_on(Box::new(device), config, 2_000, ServerConfig::default());
    let addr = server.local_addr().to_string();
    let before = kv.stats().superblock_commits;
    std::thread::scope(|scope| {
        for conn in 0..CONNS {
            let addr = &addr;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..ROUNDS {
                    for i in 0..DEPTH {
                        client
                            .send(&durable_put(&format!("c{conn}:{round}:{i}")))
                            .unwrap();
                    }
                    for (corr, reply) in client.drain().unwrap() {
                        assert_eq!(reply, Response::Put, "corr {corr}");
                    }
                }
            });
        }
    });
    let ops = u64::from(CONNS * DEPTH * ROUNDS);
    let flips = kv.stats().superblock_commits - before;
    assert!(
        flips <= ops / 4,
        "{ops} durable PUTs at {CONNS} x depth {DEPTH} took {flips} flips"
    );
    assert_eq!(kv.len() as u64, ops);
    // One more pipelined batch overwrites a key of every round, one in each stretch of
    // leaves earlier flips committed whole: its flips store those leaves as deltas.
    let mut client = Client::connect(&addr).unwrap();
    for conn in 0..CONNS {
        for round in 0..ROUNDS {
            client
                .send(&durable_put(&format!("c{conn}:{round}:3")))
                .unwrap();
        }
    }
    for (corr, reply) in client.drain().unwrap() {
        assert_eq!(reply, Response::Put, "corr {corr}");
    }
    // STATS splits the index's page writes into commit write-backs and evictions.
    let stats = Client::connect(&addr).unwrap().stats().unwrap();
    let pool = kv.stats().pool;
    assert!(pool.flush_writes > 0, "{pool:?}");
    assert_eq!(
        stat(&stats, "pool_flush_writes"),
        pool.flush_writes,
        "{stats}"
    );
    assert_eq!(
        stat(&stats, "pool_dirty_evictions"),
        pool.dirty_evictions,
        "{stats}"
    );
    // Every flip after the first relocates leaves a committed epoch wrote whole, and
    // stores them as deltas against those leaves.
    let kv_stats = kv.stats();
    assert!(kv_stats.index_delta_pages_written > 0, "{kv_stats:?}");
    assert!(kv_stats.index_delta_bytes_written < kv_stats.index_bytes_written);
    assert_eq!(
        stat(&stats, "index_delta_pages_written"),
        kv_stats.index_delta_pages_written,
        "{stats}"
    );
    assert_eq!(
        stat(&stats, "index_delta_bytes_written"),
        kv_stats.index_delta_bytes_written,
        "{stats}"
    );
    server.shutdown();
}

/// §5.2: durable PUTs sent strictly one at a time each get a flip of their own — a
/// count, not a clock: there is no least time between flips.
#[test]
fn one_at_a_time_durable_puts_each_get_their_own_flip() {
    const PUTS: u32 = 8;
    let (server, kv) = start_server();
    let mut stream = raw_conn(&server);
    let before = kv.stats().superblock_commits;
    for i in 0..PUTS {
        send(&mut stream, u64::from(i), &durable_put(&format!("k{i}")));
        assert_eq!(recv(&mut stream), (u64::from(i), Response::Put));
        assert_eq!(kv.stats().superblock_commits - before, u64::from(i + 1));
    }
    server.shutdown();
}

/// §5.2 / §5.5: a request parked while a flip is under way is not covered by that
/// flip — its ack waits for a second superblock commit. Its mutation is applied at
/// once all the same: a flip holds the index only for its cut, never across a
/// barrier, so the value is readable while flip 1 is still held.
#[test]
fn a_request_parked_during_a_flip_waits_for_the_next_one() {
    let (server, kv, device) = start_gated_server();
    let mut stream = raw_conn(&server);
    let before = kv.stats().superblock_commits;
    device.set(|s| s.holding = true);
    send(&mut stream, 1, &durable_put("first"));
    device.wait_for_sync(1); // flip 1 is at its first barrier: its riders are cut
    send(&mut stream, 2, &Request::Flush);
    send(&mut stream, 3, &durable_put("second"));
    fence(&mut stream, 4); // answered at once, ahead of all three acks (§7)
    assert_eq!(kv.get(b"second").unwrap().as_deref(), Some(&b"v"[..]));
    assert_eq!(
        kv.stats().superblock_commits,
        before,
        "flip 1 is still held"
    );
    device.set(|s| s.holding = false);
    assert_eq!(recv(&mut stream), (1, Response::Put));
    assert_eq!(recv(&mut stream), (2, Response::Flush));
    let flips = kv.stats().superblock_commits - before;
    assert!(
        flips >= 2,
        "a FLUSH parked during flip 1 was acknowledged by it ({flips} flips)"
    );
    assert_eq!(recv(&mut stream), (3, Response::Put));
    let flips = kv.stats().superblock_commits - before;
    assert!((2..=3).contains(&flips), "{flips} flips for three riders");
    server.shutdown();
}

/// §5.2 / §6: a failed flip fails every rider of its generation with the mapped
/// status, exactly once each, and the generation after the device heals succeeds.
#[test]
fn a_failed_flip_fails_every_rider_and_the_next_generation_recovers() {
    let (server, _kv, device) = start_gated_server();
    let mut a = raw_conn(&server);
    let mut b = raw_conn(&server);
    device.set(|s| s.failing = true);
    // Seven riders from two connections and all three durable opcodes.
    for corr in [1, 2] {
        send(&mut a, corr, &durable_put(&format!("a{corr}")));
    }
    send(&mut a, 3, &Request::Flush);
    send(&mut a, 4, &durable_put("a4"));
    send(&mut b, 11, &durable_put("b1"));
    let delete = Request::Delete {
        key: b"b1".to_vec(),
        durable: true,
    };
    send(&mut b, 12, &delete);
    send(&mut b, 13, &Request::Flush);
    let failed = Response::Err { status: ERR_SERVER };
    for corr in [1, 2, 3, 4] {
        assert_eq!(recv(&mut a), (corr, failed.clone()));
    }
    for corr in [11, 12, 13] {
        assert_eq!(recv(&mut b), (corr, failed.clone()));
    }
    device.set(|s| s.failing = false);
    // Nothing is stranded or acknowledged twice: the next frame on each connection
    // is the reply to the next request.
    send(&mut a, 5, &durable_put("healed"));
    assert_eq!(recv(&mut a), (5, Response::Put));
    send(&mut b, 14, &Request::Flush);
    assert_eq!(recv(&mut b), (14, Response::Flush));
    let stats = Client::connect(&server.local_addr().to_string())
        .unwrap()
        .stats()
        .unwrap();
    assert_eq!(stat(&stats, "store_errors"), 7, "{stats}");
    server.shutdown();
}

/// §8: shutdown does not run a flip on behalf of parked riders, sends them no `OK`,
/// and joins the committer.
#[test]
fn shutdown_abandons_parked_riders() {
    let (server, kv, device) = start_gated_server();
    let mut stream = raw_conn(&server);
    let before = kv.stats().superblock_commits;
    device.set(|s| s.holding = true);
    send(&mut stream, 1, &durable_put("in-flip"));
    device.wait_for_sync(1);
    for corr in 2..6 {
        send(&mut stream, corr, &Request::Flush);
    }
    fence(&mut stream, 6); // the four FLUSHes are parked behind the held flip
    let stopper = std::thread::spawn(move || {
        server.shutdown();
        server
    });
    // Shutdown closes the socket before it waits for the committer, which is still
    // held inside flip 1: the connection ends with no further frame.
    match read_frame(&mut stream, protocol::MAX_FRAME_BYTES) {
        Ok(None) | Err(_) => {}
        Ok(Some(frame)) => panic!("corr {} acknowledged across shutdown", frame.corr_id),
    }
    device.set(|s| s.holding = false);
    drop(stopper.join().unwrap());
    assert_eq!(
        kv.stats().superblock_commits,
        before + 1,
        "shutdown ran a flip for riders it was abandoning"
    );
}

/// §7: replies are pushed to the socket before the connection's thread blocks for
/// more input, even mid-frame; and requests of one connection are applied in order.
#[test]
fn replies_are_flushed_before_the_reader_blocks() {
    let (server, _kv) = start_server();
    let mut stream = raw_conn(&server);
    let frame_of = |corr_id: u64, request: &Request| {
        let (mut frame, mut payload) = (Vec::new(), Vec::new());
        request.encode_payload(&mut payload);
        encode_frame(&mut frame, request.opcode(), corr_id, &payload);
        frame
    };
    let put = |value: &[u8]| Request::Put {
        key: b"k".to_vec(),
        value: value.to_vec(),
        durable: false,
    };
    let get = Request::Get { key: b"k".to_vec() };
    // One whole request plus half of the next, then silence.
    let second = frame_of(2, &get);
    let mut bytes = frame_of(1, &put(b"old"));
    bytes.extend_from_slice(&second[..second.len() / 2]);
    stream.write_all(&bytes).unwrap();
    assert_eq!(recv(&mut stream), (1, Response::Put));
    stream.write_all(&second[second.len() / 2..]).unwrap();
    assert_eq!(recv(&mut stream), (2, Response::Get(Some(b"old".to_vec()))));
    // A NO_FLUSH PUT and a GET of its key in one segment: the GET sees the PUT.
    let mut bytes = frame_of(3, &put(b"new"));
    bytes.extend_from_slice(&frame_of(4, &get));
    stream.write_all(&bytes).unwrap();
    assert_eq!(recv(&mut stream), (3, Response::Put));
    assert_eq!(recv(&mut stream), (4, Response::Get(Some(b"new".to_vec()))));
    server.shutdown();
}

/// A peer that pipelines GETs and never reads a reply stalls only its own thread —
/// the server stops reading from it once the socket buffers are full, so nothing
/// queues in memory — and is dropped after `write_timeout`. Other connections are
/// served throughout.
#[test]
fn a_peer_that_never_reads_blocks_only_itself() {
    let mut config = StoreConfig::small_for_tests();
    config.segment_bytes = 64 << 10;
    let device = MemDevice::new(config.segment_bytes, config.num_segments);
    let server_config = ServerConfig {
        write_timeout: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    };
    let (server, kv) = start_server_on(Box::new(device), config, 100, server_config);
    kv.put(b"big", &[0xABu8; 8 << 10]).unwrap();
    let addr = server.local_addr().to_string();

    let stalled = TcpStream::connect(&addr).unwrap();
    stalled
        .set_write_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let peer = std::thread::spawn(move || {
        let mut stalled = stalled;
        let mut burst = Vec::new();
        let mut payload = Vec::new();
        Request::Get {
            key: b"big".to_vec(),
        }
        .encode_payload(&mut payload);
        for corr in 0..64 {
            encode_frame(&mut burst, protocol::OP_GET, corr, &payload);
        }
        // Send until the server drops the connection (or the safety timeout).
        let mut sent = 0u64;
        while stalled.write_all(&burst).is_ok() {
            sent += 64;
        }
        sent
    });
    let mut observer = Client::connect(&addr).unwrap();
    let mut served = 0u64;
    while !peer.is_finished() {
        assert_eq!(
            observer.get(b"big").unwrap().map(|v| v.len()),
            Some(8 << 10)
        );
        served += 1;
    }
    let sent = peer.join().unwrap();
    assert!(served > 0);
    let stats = observer.stats().unwrap();
    assert_eq!(stat(&stats, "write_errors"), 1, "{stats}"); // dropped, once
    assert_eq!(stat(&stats, "connections_open"), 1, "{stats}");
    // The stalled peer's requests beyond what the socket buffers hold were never
    // read, let alone executed.
    let executed = kv.stats().gets - served;
    assert!(
        executed < sent,
        "the server read all {sent} requests of a peer that was not reading"
    );
    server.shutdown();
}

/// A closed connection gives its descriptors and its thread back at once; at the
/// parent commit every connection ever accepted kept two descriptors until shutdown.
#[test]
fn closed_connections_release_their_descriptors() {
    const CYCLES: u64 = 300;
    let open_fds = || std::fs::read_dir("/proc/self/fd").map(|dir| dir.count());
    let (server, _kv) = start_server();
    let addr = server.local_addr().to_string();
    let mut observer = Client::connect(&addr).unwrap();
    let before = open_fds();
    for i in 0..CYCLES {
        let mut stream = raw_conn(&server);
        roundtrip_put(&mut stream, i);
    }
    // A connection is reaped by its own thread, a moment after the peer's close.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = observer.stats().unwrap();
        if stat(&stats, "connections_open") == 1 || std::time::Instant::now() > deadline {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(stat(&stats, "connections_open"), 1, "{stats}");
    assert_eq!(stat(&stats, "connections_accepted"), CYCLES + 1);
    assert_eq!(stat(&stats, "connections_closed"), CYCLES);
    // Other tests of this binary open sockets of their own meanwhile, hence the
    // slack; the leak was two descriptors per cycle.
    if let (Ok(before), Ok(after)) = (before, open_fds()) {
        assert!(
            after < before + CYCLES as usize / 2,
            "{before} descriptors before {CYCLES} connections, {after} after"
        );
    }
    server.shutdown();
}
