//! The write-behind worker: one thread per store that appends the sort-buffer batches
//! writers hand it, and runs the cleaning those appends need, off the writers' thread.
//!
//! A `put` buffers its page and returns. When its stream's filling batch reaches the
//! drain threshold, the writer freezes the batch (O(1), see [`crate::write_buffer`]) and
//! queues a *drain job* for the stream. The worker runs jobs in hand-off order: it drains
//! the frozen batch at the tick it was frozen at, escalates to cleaning cycles if the
//! drain runs out of segments, and then runs the writer's paced check
//! ([`write_path::ensure_headroom`]) at the next put's tick. A *pace job* runs that check
//! alone; the first put after a `flush` queues one, at its own tick. With one writer,
//! every store mutation therefore happens in the order, and at the ticks, that it would
//! have had inline.
//!
//! * **Backpressure.** A stream holds at most one frozen batch and one filling batch: a
//!   writer whose filling batch reaches the threshold while the stream's frozen batch is
//!   still queued waits for it ([`crate::StoreStats::write_behind_waits`]).
//! * **Errors.** A job's error is kept and returned once, by the next `put`, `delete` or
//!   `flush`; a writer blocked on backpressure wakes with it. The batch stays buffered and
//!   readable, and the next drain of the stream (a writer's retry or a flush) appends it.
//!   A panic in a job is re-raised the same way, on the caller's thread.
//! * **Flush.** A flush takes the lock a running job holds, so it waits out at most that
//!   job, and runs every job still queued itself, in order, before it drains what is
//!   left: it never waits for the queue.
//! * **Lifetime.** The worker is spawned at the first hand-off and joined when the store
//!   is dropped (or turned back into its device); jobs still queued then are abandoned,
//!   exactly as a crash abandons buffered writes.

use super::{write_path, StoreCore};
use crate::error::{Error, Result};
use crate::stats::AtomicStats;
use crate::types::UpdateTick;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One unit of write-behind work.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Job {
    /// Drain this stream's frozen batch, then pace at the tick after the batch's.
    Drain(usize),
    /// Pace at this tick (queued by the first put after a flush).
    Pace(UpdateTick),
}

/// What a failed job left for the next caller.
enum Failure {
    Error(Error),
    Panic(Box<dyn Any + Send>),
}

struct Queue {
    jobs: VecDeque<Job>,
    /// Per stream: a drain job of it is queued or running.
    handed_off: Box<[bool]>,
    failure: Option<Failure>,
    shutdown: bool,
}

/// The per-store write-behind state: the job queue, the worker thread and the deferred
/// failure.
pub(crate) struct WriteBehind {
    queue: Mutex<Queue>,
    /// Wakes the worker (a job, or shutdown) and blocked writers (a job done).
    wake: Condvar,
    /// Held while a job runs, by the worker or by a flush running queued jobs itself.
    running: Mutex<()>,
    /// Mirrors `queue.failure.is_some()`, so a put checks it without the queue lock.
    failed: AtomicBool,
    /// Set by a flush: the next put queues a pace job.
    pace_owed: AtomicBool,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl WriteBehind {
    pub(crate) fn new(streams: usize) -> Self {
        Self {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                handed_off: vec![false; streams].into(),
                failure: None,
                shutdown: false,
            }),
            wake: Condvar::new(),
            running: Mutex::new(()),
            failed: AtomicBool::new(false),
            pace_owed: AtomicBool::new(false),
            worker: Mutex::new(None),
        }
    }

    /// Return the failure a background job left, once (a panic is re-raised here).
    pub(crate) fn take_failure(&self) -> Result<()> {
        if !self.failed.load(Ordering::Acquire) {
            return Ok(());
        }
        self.deliver(&mut self.queue.lock())
    }

    /// Take the deferred failure out of the queue (held by the caller).
    fn deliver(&self, queue: &mut Queue) -> Result<()> {
        self.failed.store(false, Ordering::Release);
        match queue.failure.take() {
            None => Ok(()),
            Some(Failure::Error(e)) => Err(e),
            Some(Failure::Panic(payload)) => std::panic::resume_unwind(payload),
        }
    }

    /// Ask for a pace job at the next put (a flush changed the free pool outside a job).
    pub(crate) fn owe_pacing(&self) {
        self.pace_owed.store(true, Ordering::Relaxed);
    }

    /// Queue the pace job a flush owes, if it does.
    pub(crate) fn pay_pacing(&self, store: &Arc<StoreCore>, unow: UpdateTick) -> Result<()> {
        if !self.pace_owed.load(Ordering::Relaxed) || !self.pace_owed.swap(false, Ordering::Relaxed)
        {
            return Ok(());
        }
        self.start_worker(store)?;
        self.queue.lock().jobs.push_back(Job::Pace(unow));
        self.wake.notify_all();
        Ok(())
    }

    /// Hand stream `s`'s filling batch to the worker, if it is still full once the
    /// stream's previous batch is out of the way (waiting for that is the backpressure).
    pub(crate) fn hand_off(&self, store: &Arc<StoreCore>, s: usize) -> Result<()> {
        self.start_worker(store)?;
        let stream = &store.streams()[s];
        let mut queue = self.queue.lock();
        let mut waited = false;
        loop {
            self.deliver(&mut queue)?;
            if queue.handed_off[s] {
                if !waited {
                    waited = true;
                    AtomicStats::bump(&store.atomic_stats().write_behind_waits);
                }
                self.wake.wait(&mut queue);
                continue;
            }
            let mut buffer = stream.buffer.write();
            // A batch still frozen with no job for it is what a failed job left: queue
            // it again, and wait for it before freezing the next one.
            let retry = buffer.frozen_tick().is_some();
            let handing_off =
                retry || (write_path::should_drain(store, &buffer) && buffer.freeze(store.unow()));
            drop(buffer);
            if !handing_off {
                return Ok(());
            }
            queue.handed_off[s] = true;
            queue.jobs.push_back(Job::Drain(s));
            AtomicStats::bump(&store.atomic_stats().write_behind_jobs);
            self.wake.notify_all();
            if !retry {
                return Ok(());
            }
        }
    }

    /// Wait out the running job, if any, and run the jobs queued now on this thread, in
    /// order. Returns the running lock, so that no job starts until the caller (a flush
    /// or a checkpoint) is done. A job's error is the caller's; the jobs after it stay
    /// queued.
    pub(crate) fn run_queued<'a>(&'a self, store: &StoreCore) -> Result<MutexGuard<'a, ()>> {
        let running = self.running.lock();
        // Only these: jobs queued meanwhile wait, or a flush could chase its writers.
        let queued = self.queue.lock().jobs.len();
        for _ in 0..queued {
            let Some(job) = self.queue.lock().jobs.pop_front() else {
                break;
            };
            let result =
                std::panic::catch_unwind(AssertUnwindSafe(|| write_path::run_job(store, job)));
            self.finish(job, None);
            result.unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
        }
        Ok(running)
    }

    /// A job is done: its stream may hand off again, and its failure, if any, is kept
    /// for the next caller (the first one, should several pile up).
    fn finish(&self, job: Job, failure: Option<Failure>) {
        let mut queue = self.queue.lock();
        if let Job::Drain(s) = job {
            queue.handed_off[s] = false;
        }
        if failure.is_some() && queue.failure.is_none() {
            queue.failure = failure;
            self.failed.store(true, Ordering::Release);
        }
        self.wake.notify_all();
    }

    fn start_worker(&self, store: &Arc<StoreCore>) -> Result<()> {
        let mut worker = self.worker.lock();
        if worker.is_none() {
            let store = Arc::clone(store);
            *worker = Some(
                std::thread::Builder::new()
                    .name("lss-write-behind".into())
                    .spawn(move || work(&store))?,
            );
        }
        Ok(())
    }

    /// Stop the worker after the job it is running, if any, and join it.
    pub(crate) fn stop(&self) {
        self.queue.lock().shutdown = true;
        self.wake.notify_all();
        if let Some(worker) = self.worker.lock().take() {
            if let Err(panic) = worker.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }
}

/// The worker thread's loop: run jobs in hand-off order until the store stops it.
fn work(store: &StoreCore) {
    let wb = &store.write_behind;
    loop {
        {
            let mut queue = wb.queue.lock();
            while queue.jobs.is_empty() && !queue.shutdown {
                wb.wake.wait(&mut queue);
            }
            if queue.shutdown {
                return;
            }
        }
        let _running = wb.running.lock();
        // A flush may have run the job while this thread waited for the lock.
        let Some(job) = wb.queue.lock().jobs.pop_front() else {
            continue;
        };
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| write_path::run_job(store, job)));
        wb.finish(
            job,
            match result {
                Ok(Ok(())) => None,
                Ok(Err(e)) => Some(Failure::Error(e)),
                Err(panic) => Some(Failure::Panic(panic)),
            },
        );
    }
}
