//! The engine's `(at, sched, seq)` order against the plain `(at, seq)`
//! order it refines.
//!
//! A reference heap delivers one entry at a time, smallest `(at, seq)`
//! first, with `seq` handed out as entries are scheduled — the textbook
//! FIFO event queue. On seeded random schedules the engine must deliver
//! in exactly the same order, while the world it drives also exercises
//! what the reference has no notion of: entries reserved now and filed
//! later *as of* their reservation, decoy entries that are cancelled
//! before they fire, and the `before_instant` hook. Schedules are dense
//! in same-instant chains and ties, stop mid-batch, and are driven by
//! `run_until` calls with random deadlines and resumes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use skywalker_sim::{DetRng, Engine, EntryKey, Scheduler, SimDuration, SimTime, World};

/// What delivering event `id` does, identically under both engines:
/// children as `(delay µs, defer)` and whether to stop the run.
fn plan(seed: u64, id: u64, budget_left: bool) -> (Vec<(u64, bool)>, bool) {
    let mut rng = DetRng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ id);
    let children = if budget_left { rng.below(4) } else { 0 };
    let kids = (0..children)
        .map(|_| {
            // Same-instant follow-ups and near ties dominate.
            let delay = match rng.below(10) {
                0..=3 => 0,
                4..=7 => rng.below(4),
                _ => rng.below(40),
            };
            (delay, delay > 0 && rng.chance(0.4))
        })
        .collect();
    (kids, rng.chance(0.02))
}

/// The reference: a `(at, seq)` min-heap delivering one entry at a time.
struct Reference {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    seq: u64,
    now: SimTime,
}

impl Reference {
    fn push(&mut self, at: SimTime, id: u64) {
        self.heap.push(Reverse((at, self.seq, id)));
        self.seq += 1;
    }

    /// Runs like `Engine::run_until`; returns `true` if a handler stopped.
    fn run_until(&mut self, w: &mut Ids, deadline: SimTime, log: &mut Vec<(SimTime, u64)>) -> bool {
        while let Some(&Reverse((at, _, id))) = self.heap.peek() {
            if at > deadline {
                return false;
            }
            self.heap.pop();
            self.now = at;
            log.push((at, id));
            let (kids, stop) = plan(w.seed, id, w.next < w.budget);
            for (delay, _) in kids {
                let child = w.fresh();
                self.push(at + SimDuration::from_micros(delay), child);
            }
            if stop {
                return true;
            }
        }
        false
    }
}

/// Event-id allocation shared by both sides: ids are handed out in
/// delivery order, so any divergence in order shows up in the ids too.
struct Ids {
    seed: u64,
    next: u64,
    budget: u64,
}

impl Ids {
    fn fresh(&mut self) -> u64 {
        self.next += 1;
        self.next
    }
}

/// The engine side: same plans, but some children are reserved now and
/// filed later as of now, and decoys are filed and cancelled around them.
struct Subject {
    ids: Ids,
    log: Vec<(SimTime, u64)>,
    /// Reserved keys not yet filed, with the child id they stand for.
    deferred: Vec<(EntryKey, u64)>,
    /// Decoys to cancel at the next opportunity.
    decoys: Vec<EntryKey>,
    hooks: Vec<SimTime>,
}

impl Subject {
    /// Files what was deferred and cancels pending decoys: runs at the
    /// start of every handler and every hook.
    fn settle(&mut self, sched: &mut Scheduler<u64>) {
        for (key, id) in self.deferred.drain(..) {
            sched.file_as_of(key, id);
        }
        for key in self.decoys.drain(..) {
            sched.cancel(key);
        }
    }
}

/// Decoys carry an id no real event has.
const DECOY: u64 = u64::MAX;

impl World for Subject {
    type Event = u64;

    fn handle(&mut self, now: SimTime, id: u64, sched: &mut Scheduler<u64>) {
        assert_ne!(id, DECOY, "a cancelled decoy was delivered");
        assert_eq!(
            self.hooks.last(),
            Some(&now),
            "no hook ran for instant {now}"
        );
        self.settle(sched);
        self.log.push((now, id));
        let (kids, stop) = plan(self.ids.seed, id, self.ids.next < self.ids.budget);
        // A child may be filed late only behind a plain entry no later
        // than itself, which keeps the engine from passing its instant
        // before the next handler or hook files it.
        let mut earliest_plain: Option<SimTime> = None;
        for (delay, defer) in kids {
            let child = self.ids.fresh();
            let at = now + SimDuration::from_micros(delay);
            if defer && earliest_plain.is_some_and(|p| p <= at) {
                let key = EntryKey {
                    at,
                    sched: now,
                    seq: sched.reserve_seq(),
                };
                self.deferred.push((key, child));
            } else {
                sched.at(at, child);
                earliest_plain = Some(earliest_plain.map_or(at, |p| p.min(at)));
            }
        }
        // A decoy sharing a real child's instant (possibly this one),
        // withdrawn at the next handler or hook.
        if let Some(at) = earliest_plain {
            self.decoys.push(sched.at(at, DECOY));
        }
        // A decoy far ahead, withdrawn at once: its instant must see no
        // hook, no delivery and no clock movement.
        let far = sched.after(SimDuration::from_micros(10_000 + id % 97), DECOY);
        sched.cancel(far);
        if stop {
            sched.stop();
        }
    }

    fn before_instant(&mut self, at: SimTime, sched: &mut Scheduler<u64>) {
        assert!(
            self.hooks.last().is_none_or(|h| *h < at),
            "hook out of order"
        );
        self.hooks.push(at);
        self.settle(sched);
    }
}

fn race(seed: u64) {
    let mut rng = DetRng::new(seed);
    let budget = 200 + rng.below(600);
    let mut reference = Reference {
        heap: BinaryHeap::new(),
        seq: 0,
        now: SimTime::ZERO,
    };
    let mut ref_ids = Ids {
        seed,
        next: 0,
        budget,
    };
    let mut engine: Engine<u64> = Engine::new();
    let mut subject = Subject {
        ids: Ids {
            seed,
            next: 0,
            budget,
        },
        log: Vec::new(),
        deferred: Vec::new(),
        decoys: Vec::new(),
        hooks: Vec::new(),
    };
    for _ in 0..1 + rng.below(12) {
        let at = SimTime::from_micros(rng.below(30));
        reference.push(at, ref_ids.fresh());
        engine.schedule(at, subject.ids.fresh());
    }
    let mut ref_log = Vec::new();
    let mut deadline = SimTime::ZERO;
    for round in 0.. {
        // Random deadlines, some repeated (a resume after a stop at the
        // same deadline), with an open-ended final pass.
        if rng.chance(0.7) {
            deadline += SimDuration::from_micros(rng.below(25));
        }
        if round > 200 {
            deadline = SimTime::MAX;
        }
        let stopped = reference.run_until(&mut ref_ids, deadline, &mut ref_log);
        let stats = engine.run_until(&mut subject, deadline);
        assert_eq!(
            stats.stopped_early, stopped,
            "seed {seed} round {round}: stop"
        );
        assert_eq!(subject.log, ref_log, "seed {seed} round {round}: order");
        assert_eq!(
            stats.delivered,
            ref_log.len() as u64,
            "seed {seed}: delivered"
        );
        if !ref_log.is_empty() {
            assert_eq!(stats.end_time, reference.now, "seed {seed}: clock");
        }
        if reference.heap.is_empty() {
            // Only withdrawn decoys may remain, and they are not pending.
            assert_eq!(engine.pending(), 0, "seed {seed}: pending after drain");
            break;
        }
        if subject.deferred.is_empty() {
            // Decoys not yet withdrawn are still pending.
            let pending = reference.heap.len() + subject.decoys.len();
            assert_eq!(engine.pending(), pending, "seed {seed}: pending");
        }
    }
    // Exactly one hook per instant that delivered something.
    let mut instants: Vec<SimTime> = subject.log.iter().map(|(t, _)| *t).collect();
    instants.dedup();
    assert_eq!(subject.hooks, instants, "seed {seed}: hooks");
}

#[test]
fn engine_order_matches_the_fifo_reference_on_random_schedules() {
    for seed in 0..400 {
        race(seed);
    }
}
