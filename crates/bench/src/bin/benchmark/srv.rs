//! `srv-get` and `srv-put-durable`: `lss-client` → `lss-server` over loopback, the
//! server in this process. Same preloaded tree, two opposite halves of the stack:
//! GETs of a hot set that fits every cache (socket → reader → executor → writer is
//! nearly all of each operation; nothing is written), and durable PUTs (group commit,
//! two barriers, partial-segment seals and `sync()` set the pace).
//!
//! Each pass has a closed-loop window (2 connections × depth 8: `ops_s`, `p50_us`);
//! the traced pass adds two open-loop windows at fixed rates `hi` and `lo`
//! (latency from each request's due time, reported as `loadgen.*`) with span
//! recording off, and ends with a short unmeasured burst under pre-image capture
//! for the crash check.

use crate::device::DeviceProbe;
use crate::harness::{self, key, Latencies, Model, Outcome, Params, Window, KEY_BYTES};
use crate::{layers, trace};
use lss_btree::kv::KvStore;
use lss_client::Client;
use lss_server::protocol::{self, Request, Response};
use lss_server::{Server, ServerConfig};
use lss_workload::{PageWorkload, UniformWorkload, ZipfianWorkload};
use serde::Value;
use std::collections::{HashMap, VecDeque};
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

pub const GET: &str = "srv-get";
pub const PUT_DURABLE: &str = "srv-put-durable";

const CONNECTIONS: usize = 2;
const DEPTH: usize = 8;
const KEYS: u64 = 100_000;
const VALUE_BYTES: usize = 128;
/// GETs go uniformly to this share of the keys.
const HOT_SHARE: f64 = 0.10;
const ZIPF_THETA: f64 = 0.99;
/// Shares of `--seconds` the three windows of the traced pass get.
const CLOSED_SHARE: f64 = 0.5;
const HI_SHARE: f64 = 0.3;
const LO_SHARE: f64 = 0.2;
/// Requests one open-loop connection may have in flight before it holds the next
/// one back (it then goes out late, and its latency still counts from its due time).
const OPEN_LOOP_IN_FLIGHT: u64 = 64;
/// A request sent this long after it was due counts as late.
const LATE_NS: u64 = 1_000_000;

/// The frozen constants of one of the two workloads.
struct Shape {
    durable_puts: bool,
    /// The closed-loop window is `--seconds × CLOSED_SHARE ×` this many requests.
    closed_ops_per_second: f64,
    warmup_ops: u64,
    /// Fixed open-loop rates over both connections, ≈ 15 % and ≈ 50 % of the
    /// closed-loop throughput this repository had when the benchmark was written.
    rate_lo: f64,
    rate_hi: f64,
    p99_limit_us: f64,
    /// Depth-1 round trips measured for the layer-tax subtraction (traced pass).
    tax_ops: u64,
    /// Requests of the unmeasured burst before the crash check (traced pass).
    crash_ops: u64,
}

const GET_SHAPE: Shape = Shape {
    durable_puts: false,
    closed_ops_per_second: 130_000.0,
    warmup_ops: 100_000,
    rate_lo: 10_000.0,
    rate_hi: 30_000.0,
    p99_limit_us: 2_000.0,
    tax_ops: 20_000,
    crash_ops: 10_000,
};

const PUT_SHAPE: Shape = Shape {
    durable_puts: true,
    closed_ops_per_second: 200.0,
    warmup_ops: 300,
    rate_lo: 30.0,
    rate_hi: 100.0,
    p99_limit_us: 20_000.0,
    tax_ops: 100,
    crash_ops: 100,
};

/// One connection's half of the workload: the keys it owns and how it picks them.
struct Conn {
    model: Model,
    picker: Box<dyn PageWorkload>,
    durable_puts: bool,
    value: Vec<u8>,
    scratch: Vec<u8>,
    put_bytes: u64,
    attempted: u64,
    failed: u64,
    /// Traced pass: the device under the server, to ask whether its power has failed.
    probe: Option<Arc<DeviceProbe>>,
    /// Keys whose PUT was acked after the power failed — it may or may not have
    /// survived — with the version each had before the first such PUT.
    unsettled: HashMap<u64, u32>,
}

/// What a request in flight must come back as.
#[derive(Clone, Copy)]
struct Expect {
    idx: u64,
    /// The id the key's values carry.
    id: u64,
    /// GET: the version the value must be. PUT: the version being written.
    version: u32,
}

impl Conn {
    fn new(
        thread: usize,
        keys: u64,
        shape: &Shape,
        seed: u64,
        probe: Option<Arc<DeviceProbe>>,
    ) -> Self {
        let seed = seed.wrapping_mul(1000) + thread as u64;
        let picker: Box<dyn PageWorkload> = if shape.durable_puts {
            Box::new(ZipfianWorkload::scrambled(keys, ZIPF_THETA, seed))
        } else {
            let hot = ((keys as f64 * HOT_SHARE) as u64).max(1);
            Box::new(UniformWorkload::new(hot, seed))
        };
        Self {
            model: Model::preloaded(thread, keys),
            picker,
            durable_puts: shape.durable_puts,
            value: Vec::new(),
            scratch: Vec::new(),
            put_bytes: 0,
            attempted: 0,
            failed: 0,
            probe,
            unsettled: HashMap::new(),
        }
    }

    /// The next request. A PUT never targets a key in `busy` (in flight on this
    /// connection): replies may come back in any order, so two writes of one key in
    /// flight would leave the model unable to say which one won. The model takes the
    /// new version now; a PUT that then fails is counted and fails the run.
    fn next_request(&mut self, busy: impl Fn(u64) -> bool) -> (Request, Expect) {
        let mut idx = self.picker.next_page();
        self.attempted += 1;
        if !self.durable_puts {
            let version = self.model.live_version(idx).unwrap_or(0);
            let key = key(self.model.thread, idx).to_vec();
            let id = self.model.id(idx);
            return (Request::Get { key }, Expect { idx, id, version });
        }
        while busy(idx) {
            idx = (idx + 1) % self.model.keys();
        }
        let version = self.model.next_version(idx);
        harness::fill_value(&mut self.value, self.model.id(idx), version, VALUE_BYTES);
        self.model.set(idx, version, true);
        self.put_bytes += (KEY_BYTES + VALUE_BYTES) as u64;
        let request = Request::Put {
            key: key(self.model.thread, idx).to_vec(),
            value: self.value.clone(),
            durable: true,
        };
        let id = self.model.id(idx);
        (request, Expect { idx, id, version })
    }

    /// Closed loop through `lss-client`: keep `depth` requests in flight until the
    /// window's count is used up. Latency is send → matched reply.
    fn closed_loop(
        &mut self,
        addr: &str,
        kv: &KvStore,
        depth: usize,
        window: &Window,
    ) -> Result<Latencies, String> {
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut in_flight: HashMap<u64, (Instant, Expect)> = HashMap::new();
        let mut latencies = Latencies::default();
        loop {
            while in_flight.len() < depth && window.claim() {
                let (request, expect) =
                    self.next_request(|idx| in_flight.values().any(|(_, e)| e.idx == idx));
                let sent = Instant::now();
                let _op = trace::op("server.send");
                let corr = client.send(&request).map_err(|e| format!("send: {e}"))?;
                in_flight.insert(corr, (sent, expect));
            }
            if in_flight.is_empty() {
                return Ok(latencies);
            }
            let (corr, response) = {
                let _op = trace::op("server.recv");
                client.recv().map_err(|e| format!("recv: {e}"))?
            };
            let (sent, expect) = in_flight
                .remove(&corr)
                .ok_or("reply to an unknown request")?;
            latencies.push(sent);
            let ok = reply_ok(
                self.durable_puts,
                expect.id,
                expect.version,
                &response,
                &mut self.scratch,
            );
            self.failed += !ok as u64;
            // Seen only after the reply: an ack that arrived before the power failed
            // followed a sync that did, too.
            if self.durable_puts && self.probe.as_ref().is_some_and(|p| p.power_is_cut()) {
                self.unsettled
                    .entry(expect.idx)
                    .or_insert(expect.version - 1);
            }
            if window.done() {
                window.sample_free_segments(kv.store().free_segments());
            }
        }
    }

    /// After the crash: a PUT acked after the power failed leaves its key at any
    /// version from the one before it to the last one sent. Take the one `kv` has.
    fn settle(&mut self, kv: &KvStore) {
        for (idx, before) in std::mem::take(&mut self.unsettled) {
            let last = self.model.live_version(idx).unwrap_or(before);
            let got = kv.get(&key(self.model.thread, idx)).ok().flatten();
            let id = self.model.id(idx);
            let kept = (before..=last).find(|&version| {
                got.as_deref()
                    .is_some_and(|got| harness::value_is(got, id, version, &mut self.scratch))
            });
            // Anything else stays at the model's version and is counted as lost.
            if let Some(version) = kept {
                self.model.set(idx, version, true);
            }
        }
    }

    /// Open loop at `rate` requests per second for `seconds`, spoken at the wire level
    /// (`lss_server::protocol`) so that sending never waits for a reply: one thread
    /// sends each request when it is due, another matches the replies.
    fn open_loop(&mut self, addr: &str, rate: f64, seconds: f64) -> Result<OpenLoop, String> {
        let total = ((rate * seconds) as u64).max(1);
        let interval_ns = (1e9 / rate) as u64;
        let mut socket = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        socket
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let replies = socket
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        let (announce, announced) = mpsc::channel::<(u64, u64, Expect)>();
        let received = AtomicU64::new(0);
        let start = Instant::now();
        let durable_puts = self.durable_puts;

        let (result, sender) = std::thread::scope(|scope| {
            let received = &received;
            let receiver = scope.spawn(move || {
                let mut reader = BufReader::new(replies);
                let mut pending: HashMap<u64, (u64, Expect)> = HashMap::new();
                let mut result = OpenLoop::default();
                let mut scratch = Vec::new();
                while received.load(Ordering::SeqCst) < total {
                    let frame = protocol::read_frame(&mut reader, protocol::MAX_FRAME_BYTES)
                        .map_err(|e| format!("read reply: {e:?}"))?
                        .ok_or("server closed the connection")?;
                    let now_ns = start.elapsed().as_nanos() as u64;
                    // A request is announced before it is written to the socket.
                    pending.extend(announced.try_iter().map(|(corr, due, e)| (corr, (due, e))));
                    let (due_ns, expect) = pending
                        .remove(&frame.corr_id)
                        .ok_or("reply to an unknown request")?;
                    result.latencies.push_ns(now_ns.saturating_sub(due_ns));
                    let ok = Response::decode(frame.opcode, &frame.payload).is_ok_and(|r| {
                        reply_ok(durable_puts, expect.id, expect.version, &r, &mut scratch)
                    });
                    result.failed += !ok as u64;
                    received.fetch_add(1, Ordering::SeqCst);
                }
                Ok::<OpenLoop, String>(result)
            });

            // The sender: this thread.
            let mut recent: VecDeque<u64> = VecDeque::new();
            let mut sender = (0u64, 0u64); // (late sends, worst lag in ns)
            let mut payload = Vec::new();
            'sending: for n in 0..total {
                let due_ns = n * interval_ns;
                loop {
                    let now_ns = start.elapsed().as_nanos() as u64;
                    let ahead = due_ns.saturating_sub(now_ns);
                    let backlog = n - received.load(Ordering::SeqCst);
                    if ahead == 0 && backlog < OPEN_LOOP_IN_FLIGHT {
                        break;
                    }
                    if receiver.is_finished() {
                        break 'sending; // it failed; its error is reported below
                    }
                    if ahead > 200_000 {
                        std::thread::sleep(Duration::from_nanos(ahead - 100_000));
                    } else {
                        std::thread::yield_now();
                    }
                }
                let (request, expect) = self.next_request(|idx| recent.contains(&idx));
                recent.push_back(expect.idx);
                if recent.len() as u64 > OPEN_LOOP_IN_FLIGHT {
                    recent.pop_front();
                }
                let corr = n + 1;
                let lag_ns = (start.elapsed().as_nanos() as u64).saturating_sub(due_ns);
                sender.0 += (lag_ns > LATE_NS) as u64;
                sender.1 = sender.1.max(lag_ns);
                payload.clear();
                request.encode_payload(&mut payload);
                let sent = announce
                    .send((corr, due_ns, expect))
                    .map_err(|_| "receiver gone".to_string())
                    .and_then(|()| {
                        protocol::write_frame(&mut socket, request.opcode(), corr, &payload)
                            .map_err(|e| format!("send: {e}"))
                    });
                if sent.is_err() {
                    break;
                }
            }
            let result = receiver
                .join()
                .map_err(|_| "open-loop receiver panicked".to_string());
            (result, sender)
        });
        let mut result = result??;
        result.sent = total;
        result.late = sender.0;
        result.max_lag_ns = sender.1;
        result.seconds = start.elapsed().as_secs_f64();
        Ok(result)
    }
}

/// True if `response` is the right answer: the PUT's ack, or the GET's value at the
/// version the model had when the request was made.
fn reply_ok(
    durable_puts: bool,
    id: u64,
    version: u32,
    response: &Response,
    scratch: &mut Vec<u8>,
) -> bool {
    match response {
        Response::Get(Some(value)) if !durable_puts => {
            harness::value_is(value, id, version, scratch)
        }
        Response::Put => durable_puts,
        _ => false,
    }
}

/// What one connection measured in one open-loop window.
#[derive(Default)]
struct OpenLoop {
    latencies: Latencies,
    sent: u64,
    failed: u64,
    late: u64,
    max_lag_ns: u64,
    seconds: f64,
}

/// Both connections' open-loop windows at one rate, merged.
fn open_window(
    conns: &mut [Conn],
    addr: &str,
    rate: f64,
    seconds: f64,
) -> Result<OpenLoop, String> {
    let per_connection = rate / conns.len() as f64;
    let results: Vec<Result<OpenLoop, String>> = std::thread::scope(|scope| {
        let running: Vec<_> = conns
            .iter_mut()
            .map(|conn| scope.spawn(move || conn.open_loop(addr, per_connection, seconds)))
            .collect();
        running
            .into_iter()
            .map(|r| {
                r.join()
                    .unwrap_or_else(|_| Err("open-loop thread panicked".into()))
            })
            .collect()
    });
    let mut all = OpenLoop::default();
    for one in results {
        let one = one?;
        all.latencies.merge(one.latencies);
        all.sent += one.sent;
        all.failed += one.failed;
        all.late += one.late;
        all.max_lag_ns = all.max_lag_ns.max(one.max_lag_ns);
        all.seconds = all.seconds.max(one.seconds);
    }
    all.latencies.sort();
    Ok(all)
}

/// A closed-loop window over the first `connections` of `conns`.
fn closed_window(
    conns: &mut [Conn],
    addr: &str,
    kv: &KvStore,
    connections: usize,
    depth: usize,
    window: Window,
) -> Result<(Window, Latencies), String> {
    let results: Vec<Result<Latencies, String>> = std::thread::scope(|scope| {
        let running: Vec<_> = conns[..connections]
            .iter_mut()
            .map(|conn| {
                let window = &window;
                scope.spawn(move || conn.closed_loop(addr, kv, depth, window))
            })
            .collect();
        running
            .into_iter()
            .map(|r| {
                r.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut latencies = Latencies::default();
    for one in results {
        latencies.merge(one?);
    }
    latencies.sort();
    Ok((window, latencies))
}

/// The numbers of the `STATS` opcode's `server` section this benchmark uses.
fn server_stats(addr: &str) -> Result<[f64; 4], String> {
    let json = Client::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("STATS: {e}"))?;
    let doc = serde_json::parse(&json).map_err(|e| format!("STATS document: {e}"))?;
    let server = doc
        .get_field("server")
        .ok_or("STATS has no server section")?;
    let field = |name: &str| match server.get_field(name) {
        Some(Value::UInt(n)) => Ok(*n as f64),
        _ => Err(format!("STATS server.{name} missing")),
    };
    Ok([
        field("replies")?,
        field("socket_flushes")?,
        field("store_errors")?,
        field("protocol_errors")?,
    ])
}

pub fn run(p: &Params, durable_puts: bool) -> Result<Outcome, String> {
    let shape = if durable_puts { &PUT_SHAPE } else { &GET_SHAPE };
    let mut out = Outcome::default();
    let config = p.store_config();
    let keys = p.scaled(KEYS, 400) / CONNECTIONS as u64;

    let ((server, kv, probe), setup_s) = p.repeat_setup(|| {
        let (store, probe) = harness::create_store(p)?;
        let kv = KvStore::open_with(store, harness::kv_options())
            .map_err(|e| format!("open kv: {e}"))?;
        let mut value = Vec::new();
        for thread in 0..CONNECTIONS {
            let model = Model::preloaded(thread, keys);
            for idx in 0..keys {
                harness::fill_value(&mut value, model.id(idx), 1, VALUE_BYTES);
                kv.put(&key(thread, idx), &value)
                    .map_err(|e| format!("preload: {e}"))?;
            }
        }
        kv.flush().map_err(|e| format!("preload flush: {e}"))?;
        let kv = Arc::new(kv);
        let server = Server::start(Arc::clone(&kv), "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("start server: {e}"))?;
        Ok((server, kv, probe))
    })?;
    out.set("setup_s", setup_s);
    let addr = server.local_addr().to_string();
    let mut conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|t| Conn::new(t, keys, shape, p.seed, probe.clone()))
        .collect();

    let warmup = Params::plain_window(p.scaled(shape.warmup_ops, 100));
    closed_window(&mut conns, &addr, &kv, CONNECTIONS, DEPTH, warmup)?;
    // Untraced, the closed loop has the whole of `--seconds`; the traced pass gives
    // half of it to the two open-loop windows.
    let closed_share = if p.traced { CLOSED_SHARE } else { 1.0 };
    let ops = p.window_ops(shape.closed_ops_per_second, closed_share);
    conns.iter_mut().for_each(|c| c.put_bytes = 0);
    let store_before = kv.store().stats();
    let kv_before = kv.stats();
    let server_before = server_stats(&addr)?;
    let device_before = probe.as_ref().map(|probe| probe.start_window());

    let (window, closed) =
        closed_window(&mut conns, &addr, &kv, CONNECTIONS, DEPTH, p.window(ops))?;
    let kv_after_closed = kv.stats();
    out.note(format!(
        "closed loop: {ops} requests in {:.2} s ({CONNECTIONS} connections × depth {DEPTH}); slices {:.3?} s",
        window.elapsed_s(),
        window.slice_seconds()
    ));
    out.set("ops_s", window.ops_s());
    out.set("p50_us", closed.us(0.50));

    // Spans are recorded in every second slice of the closed loop only: the latency
    // limits below are held against a system that records none.
    let open_loops = if p.traced {
        let hi = open_window(&mut conns, &addr, shape.rate_hi, p.seconds * HI_SHARE)?;
        let lo = open_window(&mut conns, &addr, shape.rate_lo, p.seconds * LO_SHARE)?;
        for (name, rate, w) in [("hi", shape.rate_hi, &hi), ("lo", shape.rate_lo, &lo)] {
            out.note(format!(
                "open loop {name}: {rate} req/s for {:.2} s, {} sent, p50 {:.1} us, p99 {:.1} us, p99.9 {:.1} us, {} late, worst lag {:.3} ms",
                w.seconds,
                w.sent,
                w.latencies.us(0.50),
                w.latencies.us(0.99),
                w.latencies.us(0.999),
                w.late,
                w.max_lag_ns as f64 / 1e6
            ));
        }
        Some((hi, lo))
    } else {
        None
    };
    let store_after = kv.store().stats();
    let kv_after = kv.stats();
    let open_sent = open_loops.as_ref().map_or(0, |(hi, lo)| hi.sent + lo.sent);
    let open_failed = open_loops
        .as_ref()
        .map_or(0, |(hi, lo)| hi.failed + lo.failed);
    let measured_ops = ops + open_sent;

    // A window that writes nothing has no amplification of its own: report the
    // preload's, which is what this store's device holds.
    let (amp_before, payload_bytes) = if durable_puts {
        (&store_before, conns.iter().map(|c| c.put_bytes).sum())
    } else {
        (
            &lss_core::StoreStats::default(),
            keys * CONNECTIONS as u64 * (KEY_BYTES + VALUE_BYTES) as u64,
        )
    };
    layers::amplification(
        &mut out,
        &config,
        amp_before,
        &store_after,
        payload_bytes,
        window.mean_free_segments(),
        keys * CONNECTIONS as u64 * (KEY_BYTES + VALUE_BYTES) as u64,
    );

    if let (Some(probe), Some(device_before), Some((hi, lo))) = (&probe, device_before, &open_loops)
    {
        out.set("trace.overhead_frac", closed.tracing_overhead());
        let flips = (kv_after.superblock_commits - kv_before.superblock_commits) as f64;
        layers::device(&mut out, probe, &device_before, measured_ops, flips);
        layers::store_and_cleaner(&mut out, &config, &store_before, &store_after, measured_ops);
        layers::kv(&mut out, &kv_before, &kv_after);
        let server_after = server_stats(&addr)?;
        let d = |i: usize| server_after[i] - server_before[i];
        out.set(
            "server.replies_per_flush",
            if d(1) > 0.0 { d(0) / d(1) } else { 0.0 },
        );
        out.set("server.store_errors", d(2));
        out.set("server.protocol_errors", d(3));
        let closed_flips =
            (kv_after_closed.superblock_commits - kv_before.superblock_commits) as f64;
        if closed_flips > 0.0 {
            out.set("server.ops_per_flip", ops as f64 / closed_flips);
        }
        out.set("loadgen.closed_p99_us", closed.us(0.99));
        out.set("loadgen.rate_hi_p50_us", hi.latencies.us(0.50));
        out.set("loadgen.rate_hi_p99_us", hi.latencies.us(0.99));
        out.set("loadgen.rate_hi_p999_us", hi.latencies.us(0.999));
        out.set("loadgen.rate_lo_p99_us", lo.latencies.us(0.99));
        out.set(
            "loadgen.late_frac",
            (hi.late + lo.late) as f64 / (hi.sent + lo.sent) as f64,
        );
        out.set(
            "loadgen.max_lag_ms",
            hi.max_lag_ns.max(lo.max_lag_ns) as f64 / 1e6,
        );
        let rate_ok =
            |w: &OpenLoop| (w.failed == 0 && w.latencies.us(0.99) <= shape.p99_limit_us) as u64;
        out.set("loadgen.rates_ok", (rate_ok(hi) + rate_ok(lo)) as f64);
        layer_tax(p, shape, &mut conns, &addr, &kv, &mut out)?;

        // Everything is measured. Commit, then keep pre-images through one more burst
        // of requests, so the crash below has unsynced writes to undo.
        kv.flush()
            .map_err(|e| format!("flush before the crash burst: {e}"))?;
        probe.capture_preimages(harness::power_cut_at_write(p));
        let burst = Params::plain_window(p.scaled(shape.crash_ops, 20));
        closed_window(&mut conns, &addr, &kv, CONNECTIONS, DEPTH, burst)?;
    }

    out.attempted = conns.iter().map(|c| c.attempted).sum();
    out.failed = conns.iter().map(|c| c.failed).sum::<u64>() + open_failed;
    server.shutdown();
    drop(server);
    let reopened = if let Some(probe) = &probe {
        // Crash: every PUT acked before the power failed was acked as durable, so
        // none may be lost when the writes no sync covered by then are undone.
        drop(kv);
        let discarded = harness::discard_unsynced_writes(p, probe)?;
        out.set("recovery.crash_discarded_segments", discarded as f64);
        harness::recover_kv(p)?
    } else {
        kv.flush().map_err(|e| format!("final flush: {e}"))?;
        drop(kv);
        let (reopened, reopen_s) = p.repeat_reopen(|| {
            let kv = harness::recover_kv(p)?;
            kv.get(&key(0, 0)).map_err(|e| format!("first read: {e}"))?;
            Ok(kv)
        })?;
        out.set("reopen_s", reopen_s);
        reopened
    };
    conns.iter_mut().for_each(|c| c.settle(&reopened));
    let wrong: u64 = conns.iter().map(|c| c.model.wrong_keys(&reopened)).sum();
    if p.traced {
        out.set("recovery.crash_lost_writes", wrong as f64);
    }
    out.attempted += keys * CONNECTIONS as u64;
    out.failed += wrong;
    out.set("peak_rss_mb", harness::peak_rss_mb());
    Ok(out)
}

/// Traced pass only. The server layer's cost as a subtraction: the same operation,
/// one at a time, through one connection and directly on `server.kv()` against the
/// same warm store; and what pipelining buys on one connection.
fn layer_tax(
    p: &Params,
    shape: &Shape,
    conns: &mut [Conn],
    addr: &str,
    kv: &KvStore,
    out: &mut Outcome,
) -> Result<(), String> {
    let ops = p.scaled(shape.tax_ops, 50) / 5 * 5;
    let (depth1, through_socket) = closed_window(conns, addr, kv, 1, 1, Params::plain_window(ops))?;
    let (depth8, _) = closed_window(conns, addr, kv, 1, DEPTH, Params::plain_window(ops * 4))?;
    out.set("server.pipeline_speedup", depth8.ops_s() / depth1.ops_s());

    let conn = &mut conns[0];
    let mut direct = Latencies::default();
    for _ in 0..ops {
        let (request, expect) = conn.next_request(|_| false);
        let start = Instant::now();
        let ok = match request {
            Request::Get { key } => matches!(kv.get(&key), Ok(got)
                if conn.model.matches(expect.idx, got.as_deref(), &mut conn.scratch)),
            Request::Put { key, value, .. } => {
                kv.put(&key, &value).and_then(|()| kv.flush()).is_ok()
            }
            _ => false,
        };
        direct.push(start);
        conn.failed += !ok as u64;
    }
    // Medians: one slow fdatasync must not decide the sign of a subtraction.
    direct.sort();
    let (socket_us, direct_us) = (through_socket.us(0.5), direct.us(0.5));
    let name = if shape.durable_puts {
        "server.put_tax_us"
    } else {
        "server.get_tax_us"
    };
    out.set(name, socket_us - direct_us);
    out.set("server.tax_share", (socket_us - direct_us) / socket_us);
    out.note(format!(
        "one connection, depth 1: median {socket_us:.1} us per request through the socket, {direct_us:.1} us called directly"
    ));
    Ok(())
}
