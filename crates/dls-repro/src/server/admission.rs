//! Two-level admission control for the campaign service.
//!
//! Level one is a bounded set of *worker slots*: at most `workers` cold
//! campaigns execute concurrently (each may still use its own internal
//! campaign threads). Level two is a bounded *wait queue* in front of those
//! slots: up to `queue_depth` requests block until a slot frees. Anything
//! beyond that is **shed** immediately — the server answers HTTP 429
//! rather than accumulating unbounded work, so a burst degrades into fast
//! explicit rejections instead of a latency collapse.
//!
//! A queued request may also carry a **deadline**: once it passes, the
//! request leaves the queue with [`Admit::Expired`] instead of waiting for
//! a slot that can no longer help it (the server answers HTTP 504).
//!
//! Time spent waiting in the queue is observed into the
//! `serve.queue_wait_ms` histogram (immediate grants and sheds never
//! entered the queue, so they record nothing), and
//! [`Admission::retry_after_secs`] derives a `Retry-After` hint from the
//! *current* queue depth, so a shed client backs off proportionally to how
//! far behind the server actually is.
//!
//! Cache hits and coalesced duplicate requests never enter admission at
//! all; only cold computations consume slots.

use crate::runner::CancelFlag;
use dls_telemetry::Telemetry;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Longest single wait of a queued request before it re-checks the cancel
/// flag, which is polled rather than signalled.
const QUEUE_POLL: Duration = Duration::from_millis(20);

/// Outcome of an admission attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Admit {
    /// A worker slot was acquired; run the computation, then call
    /// [`Admission::release`].
    Granted,
    /// Both the worker slots and the wait queue are full: shed the request.
    Shed,
    /// The server began shutting down while the request was queued.
    Cancelled,
    /// The request's deadline passed while it was queued.
    Expired,
}

#[derive(Debug, Default)]
struct AdmissionState {
    running: usize,
    queued: usize,
}

/// The admission controller; see the module docs for the contract.
#[derive(Debug)]
pub struct Admission {
    workers: usize,
    queue_depth: usize,
    state: Mutex<AdmissionState>,
    freed: Condvar,
    telemetry: Telemetry,
}

impl Admission {
    /// A controller with `workers` slots and a `queue_depth`-deep queue.
    /// `workers` is clamped to at least 1.
    pub fn new(workers: usize, queue_depth: usize) -> Admission {
        Admission {
            workers: workers.max(1),
            queue_depth,
            state: Mutex::new(AdmissionState::default()),
            freed: Condvar::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches the telemetry registry queue-wait times are observed into.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Admission {
        self.telemetry = telemetry;
        self
    }

    /// Tries to acquire a worker slot, waiting in the bounded queue if all
    /// slots are busy. Polls `cancel` so a queued request unblocks promptly
    /// on shutdown, and `deadline` so a request whose budget ran out stops
    /// occupying a queue slot it can no longer use.
    pub fn admit(&self, cancel: &CancelFlag, deadline: Option<Instant>) -> Admit {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.running < self.workers {
            state.running += 1;
            return Admit::Granted;
        }
        if state.queued >= self.queue_depth {
            return Admit::Shed;
        }
        state.queued += 1;
        let entered = Instant::now();
        let outcome = loop {
            // Never sleep past the deadline: a request expires on time, not
            // at the next poll.
            let wait = deadline.map_or(QUEUE_POLL, |d| {
                d.saturating_duration_since(Instant::now()).min(QUEUE_POLL)
            });
            let (next, _timeout) =
                self.freed.wait_timeout(state, wait).unwrap_or_else(|e| e.into_inner());
            state = next;
            if cancel.is_cancelled() {
                state.queued -= 1;
                break Admit::Cancelled;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                state.queued -= 1;
                break Admit::Expired;
            }
            if state.running < self.workers {
                state.queued -= 1;
                state.running += 1;
                break Admit::Granted;
            }
        };
        drop(state);
        self.telemetry
            .observe_secs("serve.queue_wait_ms", entered.elapsed().as_secs_f64() * 1_000.0);
        outcome
    }

    /// Returns a previously granted worker slot and wakes one queued waiter.
    pub fn release(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.running = state.running.saturating_sub(1);
        drop(state);
        self.freed.notify_all();
    }

    /// Current `(running, queued)` occupancy, for telemetry gauges.
    pub fn depth(&self) -> (usize, usize) {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        (state.running, state.queued)
    }

    /// A `Retry-After` hint (seconds) derived from the current queue depth:
    /// one second of backoff per request already ahead in line, floored at
    /// one — an empty queue means "try again right away", a deep one tells
    /// the client to wait out the backlog instead of hammering.
    pub fn retry_after_secs(&self) -> u64 {
        let (_, queued) = self.depth();
        (queued as u64).saturating_add(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn grants_up_to_workers_then_queues_then_sheds() {
        let adm = Admission::new(2, 1);
        let cancel = CancelFlag::new();
        assert_eq!(adm.admit(&cancel, None), Admit::Granted);
        assert_eq!(adm.admit(&cancel, None), Admit::Granted);
        assert_eq!(adm.depth(), (2, 0));

        // Third request queues; release a slot from another thread so it
        // is eventually granted.
        let adm = Arc::new(adm);
        let waiter = {
            let adm = Arc::clone(&adm);
            let cancel = cancel.clone();
            std::thread::spawn(move || adm.admit(&cancel, None))
        };
        // Wait until the waiter is actually queued, then shed a fourth.
        while adm.depth().1 == 0 {
            std::thread::yield_now();
        }
        assert_eq!(adm.admit(&cancel, None), Admit::Shed, "queue of 1 is full");
        adm.release();
        assert_eq!(waiter.join().unwrap(), Admit::Granted);
        assert_eq!(adm.depth(), (2, 0));
    }

    #[test]
    fn queued_requests_unblock_on_cancel() {
        let adm = Arc::new(Admission::new(1, 4));
        let cancel = CancelFlag::new();
        assert_eq!(adm.admit(&cancel, None), Admit::Granted);
        let waiter = {
            let adm = Arc::clone(&adm);
            let cancel = cancel.clone();
            std::thread::spawn(move || adm.admit(&cancel, None))
        };
        while adm.depth().1 == 0 {
            std::thread::yield_now();
        }
        cancel.cancel();
        assert_eq!(waiter.join().unwrap(), Admit::Cancelled);
        assert_eq!(adm.depth(), (1, 0));
    }

    #[test]
    fn zero_queue_depth_sheds_immediately_when_busy() {
        let adm = Admission::new(1, 0);
        let cancel = CancelFlag::new();
        assert_eq!(adm.admit(&cancel, None), Admit::Granted);
        assert_eq!(adm.admit(&cancel, None), Admit::Shed);
        adm.release();
        assert_eq!(adm.admit(&cancel, None), Admit::Granted);
    }

    #[test]
    fn queued_requests_expire_at_their_deadline() {
        let adm = Admission::new(1, 4).with_telemetry(Telemetry::enabled());
        let cancel = CancelFlag::new();
        assert_eq!(adm.admit(&cancel, None), Admit::Granted, "slot is now held");
        let deadline = Instant::now() + Duration::from_millis(40);
        // The slot is never released, so the only exit is the deadline.
        assert_eq!(adm.admit(&cancel, Some(deadline)), Admit::Expired);
        assert_eq!(adm.depth(), (1, 0), "expired request left the queue");
        // The wait was observed into the queue-wait histogram, in ms.
        let h = adm.telemetry.snapshot();
        let h = h.histogram("serve.queue_wait_ms").expect("queue wait observed");
        assert_eq!(h.count, 1);
        assert!(h.min >= 20.0, "waited at least one poll interval: {}", h.min);
    }

    #[test]
    fn a_deadline_shorter_than_the_poll_bounds_the_queue_wait() {
        let adm = Admission::new(1, 4).with_telemetry(Telemetry::enabled());
        let cancel = CancelFlag::new();
        assert_eq!(adm.admit(&cancel, None), Admit::Granted, "slot is now held");
        let deadline = Instant::now() + Duration::from_millis(5);
        assert_eq!(adm.admit(&cancel, Some(deadline)), Admit::Expired);
        let h = adm.telemetry.snapshot();
        let h = h.histogram("serve.queue_wait_ms").expect("queue wait observed");
        assert_eq!(h.count, 1);
        assert!(h.min < 20.0, "expired at its 5 ms deadline, not the 20 ms poll: {}", h.min);
    }

    #[test]
    fn immediate_grants_do_not_observe_queue_wait() {
        let adm = Admission::new(2, 2).with_telemetry(Telemetry::enabled());
        let cancel = CancelFlag::new();
        assert_eq!(adm.admit(&cancel, None), Admit::Granted);
        assert!(
            adm.telemetry.snapshot().histogram("serve.queue_wait_ms").is_none(),
            "an immediate grant never entered the queue"
        );
    }

    #[test]
    fn retry_after_tracks_queue_depth() {
        let adm = Arc::new(Admission::new(1, 4));
        let cancel = CancelFlag::new();
        assert_eq!(adm.retry_after_secs(), 1, "empty queue suggests an immediate retry");
        assert_eq!(adm.admit(&cancel, None), Admit::Granted);
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let adm = Arc::clone(&adm);
                let cancel = cancel.clone();
                std::thread::spawn(move || adm.admit(&cancel, None))
            })
            .collect();
        while adm.depth().1 < 2 {
            std::thread::yield_now();
        }
        assert_eq!(adm.retry_after_secs(), 3, "two queued requests push the hint out");
        cancel.cancel();
        for w in waiters {
            assert_eq!(w.join().unwrap(), Admit::Cancelled);
        }
    }
}
