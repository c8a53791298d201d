//! `lss-server` — the operator binary. Opens (or creates) a store on a file-backed
//! device and serves it over TCP until killed. Full operator guide, knob table and
//! tuning cookbook: **docs/OPERATIONS.md**.
//!
//! ```text
//! lss-server [--addr HOST:PORT] [--device PATH | --mem] [--segments N]
//!            [--segment-bytes N] [--group-commit-us N]
//! ```
//!
//! Durability contract: every write the server has OK-acked as durable is covered
//! by a committed index epoch (PROTOCOL.md §5.2), so killing the process — even
//! with SIGKILL — never loses an acked write; restart with the same `--device`
//! arguments to recover.

use lss_btree::kv::{KvOptions, KvStore};
use lss_core::device::{FileDevice, MemDevice, SegmentDevice};
use lss_core::{LogStore, StoreConfig};
use lss_server::{Server, ServerConfig};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    addr: String,
    device: Option<String>,
    segments: usize,
    segment_bytes: usize,
    group_commit_us: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".into(),
        device: None,
        segments: 1024,
        segment_bytes: 2 << 20,
        group_commit_us: 200,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--device" => args.device = Some(value("--device")?),
            "--mem" => args.device = None,
            "--segments" => {
                args.segments = value("--segments")?.parse().map_err(|e| format!("{e}"))?
            }
            "--segment-bytes" => {
                args.segment_bytes = value("--segment-bytes")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--group-commit-us" => {
                args.group_commit_us = value("--group-commit-us")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--help" | "-h" => {
                return Err(
                    "usage: lss-server [--addr HOST:PORT] [--device PATH | --mem] \
                     [--segments N] [--segment-bytes N] [--group-commit-us N]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    // Store knobs come from the environment (LSS_WRITE_STREAMS & co — the complete
    // inventory is the docs/OPERATIONS.md environment table).
    let mut config = StoreConfig::paper_default()
        .with_num_segments(args.segments)
        .with_env_overrides();
    config.segment_bytes = args.segment_bytes;
    // An existing device file is *recovered* (scan + replay); a fresh file or the
    // in-memory device opens empty.
    let open = |device: Box<dyn SegmentDevice>, fresh: bool| {
        if fresh {
            LogStore::open_with_device(config.clone(), device)
        } else {
            LogStore::recover_with_device(config.clone(), device)
        }
    };
    let store = match &args.device {
        None => open(
            Box::new(MemDevice::new(args.segment_bytes, args.segments)),
            true,
        ),
        Some(path) => {
            let exists = Path::new(path).exists();
            let device = if exists {
                FileDevice::open(path, args.segment_bytes, args.segments)
            } else {
                FileDevice::create(path, args.segment_bytes, args.segments)
            };
            match device {
                Ok(dev) => open(Box::new(dev), !exists),
                Err(e) => {
                    eprintln!("lss-server: cannot open device {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let store = match store {
        Ok(store) => store,
        Err(e) => {
            eprintln!("lss-server: store recovery failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let kv_opts = KvOptions {
        group_commit_window_us: args.group_commit_us,
        ..KvOptions::default()
    };
    let kv = match KvStore::open_with(store, kv_opts) {
        Ok(kv) => Arc::new(kv),
        Err(e) => {
            eprintln!("lss-server: KV layer failed to open: {e}");
            return ExitCode::FAILURE;
        }
    };

    let server = match Server::start(kv, args.addr.as_str(), ServerConfig::default()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("lss-server: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "lss-server listening on {} (group-commit window {} us, {})",
        server.local_addr(),
        args.group_commit_us,
        match &args.device {
            Some(path) => format!("device {path}"),
            None => "in-memory device (data is lost on exit)".into(),
        },
    );

    // Serve until killed: acked writes are durable at every instant (see above),
    // so there is no shutdown ceremony an operator must wait for.
    loop {
        std::thread::park();
    }
}
