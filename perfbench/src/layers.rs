//! Per-layer accounting for the traced runs.
//!
//! Every timed call the traced passes make into a layer's public
//! functions goes through [`LayerClock::time`], which adds the call's wall
//! time and a call count to that layer. Worker threads share one clock, so
//! the sums are per-thread busy time added over threads. Nothing inside
//! the program is instrumented: the spans sit around the calls, in this
//! package's own code.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The layers the traced passes time directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `dls-workload`: task-time generation.
    Workload,
    /// `dls-core`: chunk calculation (timed in a separate replay phase).
    Core,
    /// `dls-msgsim` over `dls-des`: the MSG simulator.
    Msgsim,
    /// `dls-hagerup`: the batched direct oracle.
    Hagerup,
    /// `dls-repro::journal`: checkpoint records and flushes.
    Journal,
    /// `dls-repro::artifacts` / `journal::write_artifact`: CSV writes.
    Artifacts,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 6] = [
        Layer::Workload,
        Layer::Core,
        Layer::Msgsim,
        Layer::Hagerup,
        Layer::Journal,
        Layer::Artifacts,
    ];

    /// The metric prefix of this layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Workload => "workload",
            Layer::Core => "core",
            Layer::Msgsim => "msgsim",
            Layer::Hagerup => "hagerup",
            Layer::Journal => "journal",
            Layer::Artifacts => "artifacts",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Busy time, call count and work items of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Time inside the layer's calls, summed over threads, seconds.
    pub busy_s: f64,
    /// Calls into the layer.
    pub calls: u64,
    /// Work items the calls processed (tasks, chunks, events, records).
    pub items: u64,
}

/// Thread-safe per-layer accumulators.
///
/// `slow` is the attribution self-test's hook: when set, every timed call
/// into that layer is followed, inside the timed span, by a busy wait as
/// long as the call took, so the layer's time doubles (as if its code ran
/// at half speed) while its outputs stay the same. A busy wait rather than
/// a sleep, because a sleep cannot be shorter than the scheduler's tick
/// and many calls take microseconds.
#[derive(Debug, Default)]
pub struct LayerClock {
    nanos: [AtomicU64; 6],
    calls: [AtomicU64; 6],
    items: [AtomicU64; 6],
    slow: Option<Layer>,
}

impl LayerClock {
    /// A clock that doubles the time of calls into `slow`, if given.
    pub fn new(slow: Option<Layer>) -> LayerClock {
        LayerClock { slow, ..LayerClock::default() }
    }

    /// Times `f` as one call into `layer`.
    pub fn time<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        if self.slow == Some(layer) {
            let took = start.elapsed();
            while start.elapsed() < 2 * took {
                std::hint::spin_loop();
            }
        }
        self.add(layer, start.elapsed());
        out
    }

    /// Adds one call of `elapsed` to `layer`.
    pub fn add(&self, layer: Layer, elapsed: Duration) {
        let i = layer.index();
        self.nanos[i].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.calls[i].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` work items for `layer`.
    pub fn add_items(&self, layer: Layer, n: u64) {
        self.items[layer.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// The totals of `layer` so far.
    pub fn totals(&self, layer: Layer) -> LayerTotals {
        let i = layer.index();
        LayerTotals {
            busy_s: self.nanos[i].load(Ordering::Relaxed) as f64 * 1e-9,
            calls: self.calls[i].load(Ordering::Relaxed),
            items: self.items[i].load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_layer_doubles_only_its_own_time() {
        let clock = LayerClock::new(Some(Layer::Msgsim));
        let work = || std::thread::sleep(Duration::from_millis(20));
        clock.time(Layer::Msgsim, work);
        clock.time(Layer::Hagerup, work);
        let slowed = clock.totals(Layer::Msgsim).busy_s;
        let plain = clock.totals(Layer::Hagerup).busy_s;
        assert!(slowed >= 0.039, "slowed call took {slowed}s");
        assert!(plain < 0.039, "unslowed call took {plain}s");
        assert_eq!(clock.totals(Layer::Msgsim).calls, 1);
    }
}
