//! Hot-path microbenches for the slab-indexed event queue.
//!
//! The PR-5 queue overhaul keeps the binary heap holding small `Copy`
//! nodes while event payloads live in a slab. These benches pin the costs
//! that refactor targets: timer push/pop at realistic pending-population
//! depths (a campaign holds roughly one pending event per PE, so 1k and
//! 16k bracket the paper grid and a far larger deployment), the
//! master/worker event mix whose constant-delay messages ride the FIFO
//! delivery lanes, and the pure chunk-stream computation of the
//! techniques whose decisions feed those events.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dls_core::{LoopSetup, Technique};
use dls_des::{Actor, ActorId, Ctx, Engine, SimTime};
use std::time::Duration;

/// Holds the pending-event population at a constant depth: `on_start`
/// arms `depth` timers, then every firing re-arms one timer, so each
/// processed event is exactly one pop plus one push against a heap of
/// `depth` entries.
struct DepthHolder {
    depth: u32,
    ops_left: u32,
}

impl Actor<()> for DepthHolder {
    fn on_message(&mut self, _from: ActorId, _m: (), _ctx: &mut Ctx<'_, ()>) {}

    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        for k in 0..self.depth {
            ctx.set_timer(SimTime::from_nanos(1_000 + k as u64), k as u64);
        }
    }

    fn on_timer(&mut self, key: u64, ctx: &mut Ctx<'_, ()>) {
        if self.ops_left == 0 {
            ctx.stop();
            return;
        }
        self.ops_left -= 1;
        // Push far enough ahead that the population never drains.
        ctx.set_timer(SimTime::from_nanos(1_000_000 + self.depth as u64), key);
    }
}

fn queue_depth(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath_queue_depth");
    g.sample_size(20).measurement_time(Duration::from_secs(3));

    let ops = 100_000u32;
    for depth in [1_024u32, 16_384] {
        g.throughput(Throughput::Elements(ops as u64));
        g.bench_with_input(BenchmarkId::new("push_pop", depth), &depth, |b, &depth| {
            b.iter(|| {
                let mut eng = Engine::new();
                eng.add_actor(Box::new(DepthHolder { depth, ops_left: ops }));
                let (_, stats) = eng.run();
                stats.events
            })
        });
    }
    g.finish();
}

/// Master side of the Fig 6 event mix: answers each request with one work
/// message until `chunks_left` runs out. Actor 0.
struct MixMaster {
    chunks_left: u32,
}

impl Actor<()> for MixMaster {
    fn on_message(&mut self, from: ActorId, _m: (), ctx: &mut Ctx<'_, ()>) {
        if self.chunks_left > 0 {
            self.chunks_left -= 1;
            ctx.send(from, SimTime::from_nanos(1), ());
        }
    }
}

/// Worker side: request, compute for a varied time (a timer), request
/// again. Every message takes 1 ns, as with `LinkSpec::negligible()`.
struct MixWorker {
    rounds: u64,
}

impl Actor<()> for MixWorker {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        ctx.send(0, SimTime::from_nanos(1), ());
    }

    fn on_message(&mut self, _from: ActorId, _m: (), ctx: &mut Ctx<'_, ()>) {
        // A fixed hash of (worker, round) spreads chunk times over
        // 1–100 µs, so the timers keep the heap about one entry per worker.
        self.rounds += 1;
        let h = (ctx.self_id() as u64 ^ (self.rounds << 20)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ctx.set_timer(SimTime::from_nanos(1_000 + (h >> 40) % 99_000), 0);
    }

    fn on_timer(&mut self, _key: u64, ctx: &mut Ctx<'_, ()>) {
        ctx.send(0, SimTime::from_nanos(1), ());
    }
}

fn master_worker_mix(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath_queue_depth");
    g.sample_size(20).measurement_time(Duration::from_secs(3));

    let (workers, chunks) = (1_024usize, 100_000u32);
    // Per chunk: request delivery, work delivery, compute timer; plus the
    // final unanswered request of each worker.
    let events = 3 * chunks as u64 + workers as u64;
    g.throughput(Throughput::Elements(events));
    g.bench_with_input(BenchmarkId::new("master_worker_mix", workers), &workers, |b, &workers| {
        b.iter(|| {
            let mut eng = Engine::new();
            eng.add_actor(Box::new(MixMaster { chunks_left: chunks }));
            for _ in 0..workers {
                eng.add_actor(Box::new(MixWorker { rounds: 0 }));
            }
            let (_, stats) = eng.run();
            assert_eq!(stats.events, events);
            stats.events
        })
    });
    g.finish();
}

fn chunk_stream(c: &mut Criterion) {
    let setup = LoopSetup::new(100_000, 16).with_moments(1.0, 1.0).with_overhead(0.5);
    let mut g = c.benchmark_group("hotpath_chunk_stream");
    g.sample_size(20).measurement_time(Duration::from_secs(3));
    for t in [Technique::Gss { min_chunk: 1 }, Technique::Fac2, Technique::Bold] {
        g.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, &t| {
            b.iter(|| {
                let mut sched = t.build(&setup).unwrap();
                let mut pe = 0usize;
                let mut total = 0u64;
                loop {
                    let chunk = sched.next_chunk(pe);
                    if chunk == 0 {
                        break;
                    }
                    total += chunk;
                    sched.record_completion(pe, chunk, chunk as f64);
                    pe = (pe + 1) % 16;
                }
                total
            })
        });
    }
    g.finish();
}

criterion_group!(benches, queue_depth, master_worker_mix, chunk_stream);
criterion_main!(benches);
