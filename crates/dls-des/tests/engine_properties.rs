//! Property tests for the event engine's ordering guarantees.

use dls_des::{Actor, ActorId, Ctx, DeliveryMeta, Engine, Interceptor, SimTime, TimerId, Verdict};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Schedules an arbitrary set of timers on start, then records the
/// (time, key) order in which they fire.
struct Scheduler {
    delays: Vec<u64>,
    fired: Rc<RefCell<Vec<(SimTime, u64)>>>,
}

impl Actor<()> for Scheduler {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        for (key, &d) in self.delays.iter().enumerate() {
            ctx.set_timer(SimTime::from_nanos(d), key as u64);
        }
    }
    fn on_message(&mut self, _f: ActorId, _m: (), _c: &mut Ctx<'_, ()>) {}
    fn on_timer(&mut self, key: u64, ctx: &mut Ctx<'_, ()>) {
        self.fired.borrow_mut().push((ctx.now(), key));
    }
}

/// A forwarding chain: actor i sends to i+1 with a per-hop delay.
struct Chain {
    next: Option<ActorId>,
    delay: u64,
    received_at: Option<SimTime>,
}

impl Actor<u64> for Chain {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        if ctx.self_id() == 0 {
            if let Some(n) = self.next {
                ctx.send(n, SimTime::from_nanos(self.delay), 1);
            }
        }
    }
    fn on_message(&mut self, _f: ActorId, hop: u64, ctx: &mut Ctx<'_, u64>) {
        self.received_at = Some(ctx.now());
        if let Some(n) = self.next {
            ctx.send(n, SimTime::from_nanos(self.delay), hop + 1);
        }
    }
}

/// What became of one issued send or timer.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    /// Still queued; must fire at this time.
    Pending(SimTime),
    Fired,
    /// Dropped by the interceptor or cancelled before it fired.
    Gone,
}

/// State shared by every actor and the interceptor of one ordering run.
///
/// Every send and timer gets the next global issue index when its actor
/// issues it. The engine drains commands in issue order right after each
/// callback, so issue order is the engine's sequence order.
struct Ledger {
    script: Vec<u64>,
    pos: usize,
    fates: Vec<Fate>,
    /// Sends issued but not yet shown to the interceptor, oldest first.
    unjudged: VecDeque<u64>,
    fired: Vec<(SimTime, u64)>,
}

impl Ledger {
    fn next_word(&mut self) -> Option<u64> {
        let w = self.script.get(self.pos).copied();
        self.pos += 1;
        w
    }

    fn issue(&mut self, at: SimTime) -> u64 {
        self.fates.push(Fate::Pending(at));
        self.fates.len() as u64 - 1
    }
}

/// Delay drawn from a script word: a small repeated set (rides the lanes)
/// or a wide range (many distinct values, so the lanes run out and
/// deliveries spill into the heap).
fn draw_delay(w: u64) -> SimTime {
    SimTime::from_nanos(if w & 1 == 0 {
        [0, 1, 3][(w >> 1) as usize % 3]
    } else {
        (w >> 3) % 10_000
    })
}

/// Each callback follows the script: up to three sends, timers, cancellable
/// timers or cancellations. Messages and timer keys carry issue indices.
struct Issuer {
    ledger: Rc<RefCell<Ledger>>,
    actors: usize,
    handles: Vec<(u64, TimerId)>,
}

impl Issuer {
    fn act(&mut self, ctx: &mut Ctx<'_, u64>) {
        let mut ledger = self.ledger.borrow_mut();
        let Some(count) = ledger.next_word() else { return };
        for _ in 0..count % 4 {
            let Some(w) = ledger.next_word() else { return };
            let delay = draw_delay(w >> 8);
            let at = ctx.now().saturating_add(delay);
            match w % 8 {
                0..=3 => {
                    let issue = ledger.issue(at);
                    ledger.unjudged.push_back(issue);
                    ctx.send((w >> 3) as usize % self.actors, delay, issue);
                }
                4 | 5 => {
                    let issue = ledger.issue(at);
                    ctx.set_timer(delay, issue);
                }
                6 => {
                    let issue = ledger.issue(at);
                    self.handles.push((issue, ctx.set_cancellable_timer(delay, issue)));
                }
                _ if !self.handles.is_empty() => {
                    let (issue, id) =
                        self.handles.swap_remove((w >> 3) as usize % self.handles.len());
                    ctx.cancel_timer(id);
                    let fate = &mut ledger.fates[issue as usize];
                    if matches!(fate, Fate::Pending(_)) {
                        *fate = Fate::Gone;
                    }
                }
                _ => {}
            }
        }
    }

    fn dispatched(&mut self, issue: u64, ctx: &mut Ctx<'_, u64>) {
        {
            let mut ledger = self.ledger.borrow_mut();
            let fate = &mut ledger.fates[issue as usize];
            assert_eq!(*fate, Fate::Pending(ctx.now()), "event {issue} fired out of place");
            *fate = Fate::Fired;
            ledger.fired.push((ctx.now(), issue));
        }
        self.act(ctx);
    }
}

impl Actor<u64> for Issuer {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        // Seed several events per actor so a run rarely dies out early.
        for _ in 0..4 {
            self.act(ctx);
        }
    }
    fn on_message(&mut self, _from: ActorId, issue: u64, ctx: &mut Ctx<'_, u64>) {
        self.dispatched(issue, ctx);
    }
    fn on_timer(&mut self, issue: u64, ctx: &mut Ctx<'_, u64>) {
        self.dispatched(issue, ctx);
    }
}

/// Drops one send in eight and delays one in eight by 2 or 7 ns, keyed by
/// issue index so the verdicts are known to the ledger.
struct Judge {
    ledger: Rc<RefCell<Ledger>>,
}

impl Interceptor for Judge {
    fn intercept(&mut self, meta: &DeliveryMeta) -> Verdict {
        let mut ledger = self.ledger.borrow_mut();
        let issue = ledger.unjudged.pop_front().expect("every send is judged once");
        let fate = &mut ledger.fates[issue as usize];
        assert_eq!(*fate, Fate::Pending(meta.deliver_at));
        let h = issue.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58;
        match h % 8 {
            0 => {
                *fate = Fate::Gone;
                Verdict::Drop
            }
            1 => {
                let extra = SimTime::from_nanos([2, 7][(h / 8) as usize % 2]);
                *fate = Fate::Pending(meta.deliver_at.saturating_add(extra));
                Verdict::Delay(extra)
            }
            _ => Verdict::Deliver,
        }
    }
}

proptest! {
    /// Dispatch order is `(time, issue index)` for any mix of lane-riding
    /// and heap-bound sends, timers, cancellations and interceptor
    /// verdicts, and every surviving event fires exactly once at its time.
    #[test]
    fn dispatch_is_sorted_by_time_then_issue(
        script in proptest::collection::vec(any::<u64>(), 64..400),
        actors in 1usize..5,
        hooked in 0u8..2,
    ) {
        let ledger = Rc::new(RefCell::new(Ledger {
            script,
            pos: 0,
            fates: Vec::new(),
            unjudged: VecDeque::new(),
            fired: Vec::new(),
        }));
        let mut eng = Engine::new();
        for _ in 0..actors {
            eng.add_actor(Box::new(Issuer { ledger: Rc::clone(&ledger), actors, handles: vec![] }));
        }
        if hooked == 1 {
            eng.set_interceptor(Box::new(Judge { ledger: Rc::clone(&ledger) }));
        }
        let (_, stats) = eng.run();
        let ledger = ledger.borrow();
        prop_assert!(ledger.fired.windows(2).all(|w| w[0] < w[1]), "{:?}", ledger.fired);
        // A second firing would have failed the `Pending` check in
        // `dispatched`; a surviving event left unfired is caught here.
        prop_assert!(ledger.fates.iter().all(|f| !matches!(f, Fate::Pending(_))));
        prop_assert_eq!(stats.events, ledger.fired.len() as u64);
    }

    /// Timers fire in non-decreasing time order, ties in scheduling order,
    /// and every timer fires exactly once.
    #[test]
    fn timers_fire_sorted(delays in proptest::collection::vec(0u64..1_000, 1..64)) {
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut eng = Engine::new();
        eng.add_actor(Box::new(Scheduler { delays: delays.clone(), fired: Rc::clone(&fired) }));
        let (_, stats) = eng.run();
        prop_assert_eq!(stats.events, delays.len() as u64);
        let max = delays.iter().copied().max().unwrap();
        prop_assert_eq!(stats.end_time, SimTime::from_nanos(max));
        // Keys are issued in index order, so sorting by (delay, key) is the
        // exact expected firing sequence, ties included.
        let mut expected: Vec<(SimTime, u64)> =
            delays.iter().enumerate().map(|(k, &d)| (SimTime::from_nanos(d), k as u64)).collect();
        expected.sort();
        prop_assert_eq!(&*fired.borrow(), &expected);
    }

    /// A forwarding chain accumulates exactly the sum of hop delays.
    #[test]
    fn chain_latency_accumulates(
        hops in 1usize..50,
        delay in 1u64..10_000,
    ) {
        let mut eng = Engine::new();
        for i in 0..hops + 1 {
            let next = if i < hops { Some(i + 1) } else { None };
            eng.add_actor(Box::new(Chain { next, delay, received_at: None }));
        }
        let (_, stats) = eng.run();
        prop_assert_eq!(stats.events, hops as u64);
        prop_assert_eq!(stats.end_time, SimTime::from_nanos(delay * hops as u64));
    }

    /// SimTime seconds round trip within a nanosecond for the simulation's
    /// value range.
    #[test]
    fn simtime_round_trip(secs in 0.0f64..1e9) {
        let t = SimTime::from_secs_f64(secs);
        prop_assert!((t.as_secs_f64() - secs).abs() <= 1e-9 * secs.max(1.0));
    }

    /// Saturating arithmetic never panics and stays ordered.
    #[test]
    fn simtime_saturating_ops(a in any::<u64>(), b in any::<u64>()) {
        let x = SimTime::from_nanos(a);
        let y = SimTime::from_nanos(b);
        let sum = x.saturating_add(y);
        prop_assert!(sum >= x && sum >= y);
        let diff = x.saturating_sub(y);
        prop_assert!(diff <= x);
    }
}
