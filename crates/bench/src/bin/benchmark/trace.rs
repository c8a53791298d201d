//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span is `(name, start_ns, end_ns, parent, op_id)`; its layer is the part of the
//! name before the first dot (`store.put` → `store`). Spans nest per thread: the span
//! open on a thread when another begins there is its parent, and the outermost open
//! span is the operation (`op_id`). A span begun on a thread with nothing open — a
//! server worker, a `gc_read_pool` reader — hangs off that thread's `background` root
//! (`parent` = the root's id, `op_id` = 0).
//!
//! Totals per name (count, inclusive time, self time = duration minus the time its
//! children cover) are kept for every span; the raw spans are kept only up to
//! [`RAW_SPANS_PER_THREAD`] per thread, which bounds memory and the trace file.
//! With tracing off ([`set_enabled`]`(false)`, the default) [`span`] costs one relaxed
//! load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Raw spans kept per thread for the trace file (totals cover every span).
const RAW_SPANS_PER_THREAD: usize = 100_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static THREADS: Mutex<Vec<Arc<Mutex<Recorded>>>> = Mutex::new(Vec::new());

#[derive(Clone, Copy)]
struct RawSpan {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    id: u64,
    parent: u64,
    op_id: u64,
}

struct OpenSpan {
    name: &'static str,
    is_op: bool,
    start_ns: u64,
    id: u64,
    child_ns: u64,
}

/// Count, inclusive and self nanoseconds of every span with one name.
#[derive(Default, Clone, Copy)]
pub struct Total {
    pub count: u64,
    pub incl_ns: u64,
    pub self_ns: u64,
}

/// What a thread has finished recording; shared with whoever collects the totals.
#[derive(Default)]
struct Recorded {
    thread: u64,
    /// Few names per thread, so a scan beats a map; literals compare by address first.
    totals: Vec<(&'static str, Total)>,
    raw: Vec<RawSpan>,
}

/// A thread's own state: the spans open on it. Only finishing a span touches the
/// shared (locked) half.
struct ThreadTrace {
    /// Span ids are `thread << 40 | n`; `n = 0` is the thread's background root.
    thread: u64,
    next: u64,
    open: Vec<OpenSpan>,
    recorded: Arc<Mutex<Recorded>>,
}

thread_local! {
    static LOCAL: RefCell<Option<ThreadTrace>> = const { RefCell::new(None) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn with_local<R>(f: impl FnOnce(&mut ThreadTrace) -> R) -> R {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        f(slot.get_or_insert_with(|| {
            let mut threads = THREADS.lock().expect("trace registry poisoned");
            let thread = threads.len() as u64 + 1;
            let recorded = Arc::new(Mutex::new(Recorded {
                thread,
                ..Recorded::default()
            }));
            threads.push(Arc::clone(&recorded));
            ThreadTrace {
                thread,
                next: 0,
                open: Vec::new(),
                recorded,
            }
        }))
    })
}

/// Turn span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// True while spans are being recorded.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Begin an operation at the workload's entry point; it ends when the guard drops.
#[inline]
pub fn op(name: &'static str) -> SpanGuard {
    begin(name, true)
}

/// Begin a span inside a layer (device call, cleaning cycle): a child of whatever is
/// open on this thread, else of the thread's background root.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    begin(name, false)
}

#[inline]
fn begin(name: &'static str, is_op: bool) -> SpanGuard {
    if !enabled() {
        return SpanGuard { live: false };
    }
    let start_ns = now_ns();
    with_local(|t| {
        t.next += 1;
        let id = t.thread << 40 | t.next;
        t.open.push(OpenSpan {
            name,
            is_op,
            start_ns,
            id,
            child_ns: 0,
        });
    });
    SpanGuard { live: true }
}

/// Ends its span on drop.
pub struct SpanGuard {
    live: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let end_ns = now_ns();
        with_local(|t| {
            let Some(done) = t.open.pop() else { return };
            let dur = end_ns.saturating_sub(done.start_ns);
            let (parent, op_id) = if let Some(parent) = t.open.last_mut() {
                parent.child_ns += dur;
                (parent.id, t.open[0].id)
            } else if done.is_op {
                (0, done.id)
            } else {
                (t.thread << 40, 0)
            };
            let mut recorded = t.recorded.lock().expect("thread trace poisoned");
            let known = recorded
                .totals
                .iter()
                .position(|(name, _)| std::ptr::eq(*name, done.name) || *name == done.name);
            let slot = known.unwrap_or_else(|| {
                recorded.totals.push((done.name, Total::default()));
                recorded.totals.len() - 1
            });
            let total = &mut recorded.totals[slot].1;
            total.count += 1;
            total.incl_ns += dur;
            total.self_ns += dur.saturating_sub(done.child_ns);
            if recorded.raw.len() < RAW_SPANS_PER_THREAD {
                recorded.raw.push(RawSpan {
                    name: done.name,
                    start_ns: done.start_ns,
                    end_ns,
                    id: done.id,
                    parent,
                    op_id,
                });
            }
        });
    }
}

/// Begin a span whose end arrives as a separate event (a callback, not a scope).
/// Returns whether a span was opened; only then may [`end_detached`] be called.
pub fn begin_detached(name: &'static str) -> bool {
    let guard = span(name);
    let live = guard.live;
    std::mem::forget(guard);
    live
}

/// End the span [`begin_detached`] opened on this thread.
pub fn end_detached() {
    drop(SpanGuard { live: true });
}

/// Totals per span name over every thread, merged.
pub fn totals() -> BTreeMap<&'static str, Total> {
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for t in THREADS.lock().expect("trace registry poisoned").iter() {
        for (name, total) in &t.lock().expect("thread trace poisoned").totals {
            let sum = out.entry(name).or_default();
            sum.count += total.count;
            sum.incl_ns += total.incl_ns;
            sum.self_ns += total.self_ns;
        }
    }
    out
}

/// Span count, inclusive seconds and self seconds of one layer (every span name
/// starting `layer.`).
pub fn layer_totals(totals: &BTreeMap<&'static str, Total>, layer: &str) -> (u64, f64, f64) {
    let of_layer = totals
        .iter()
        .filter(|(name, _)| name.split('.').next() == Some(layer));
    let (mut count, mut incl, mut own) = (0, 0, 0);
    for (_, t) in of_layer {
        count += t.count;
        incl += t.incl_ns;
        own += t.self_ns;
    }
    (count, incl as f64 / 1e9, own as f64 / 1e9)
}

/// Write the kept raw spans as JSON lines, one background root per thread first.
pub fn write_jsonl(path: &Path) -> std::io::Result<u64> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut written = 0u64;
    for t in THREADS.lock().expect("trace registry poisoned").iter() {
        let t = t.lock().expect("thread trace poisoned");
        writeln!(
            out,
            "{{\"name\":\"background\",\"id\":{},\"thread\":{},\"parent\":0,\"op_id\":0}}",
            t.thread << 40,
            t.thread
        )?;
        for s in &t.raw {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"op_id\":{},\"thread\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id, s.parent, s.op_id, t.thread
            )?;
            written += 1;
        }
    }
    out.flush()?;
    Ok(written)
}
