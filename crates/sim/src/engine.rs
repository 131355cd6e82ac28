//! The discrete-event simulation engine.
//!
//! The engine owns a priority queue of entries and repeatedly delivers the
//! earliest to a user-supplied [`World`]. Entries are ordered by their
//! [`EntryKey`]: the instant they fire, then the instant they were
//! scheduled at, then a sequence number handed out in scheduling order.
//! Because sequence numbers grow with scheduling time, that is the plain
//! "time, then FIFO" order; spelling out the scheduling instant lets a
//! world file an entry *as of* an earlier instant (see
//! [`Scheduler::file_as_of`]) and still have it sort exactly where it would
//! have sorted had it been scheduled then. This makes simulations fully
//! deterministic.
//!
//! The design is deliberately minimal: the engine knows nothing about LLM
//! serving. Higher layers (replicas, balancers, clients) define an event
//! enum and implement [`World::handle`].

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use crate::time::{SimDuration, SimTime};

/// A simulation world: owns all mutable state and reacts to events.
///
/// The engine calls [`World::handle`] for every delivered event; the handler
/// may schedule further events through the [`Scheduler`].
pub trait World {
    /// The event type delivered to this world.
    type Event;

    /// Handles one event occurring at virtual time `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);

    /// Runs once before the first delivery at each new instant `at`, with
    /// the clock still at the previous instant. Entries it files at `at`
    /// (typically [as of](Scheduler::file_as_of) an earlier instant) are
    /// ordered among the entries already pending there. It is not called
    /// for an instant whose entries are all cancelled, nor for one past a
    /// [`Engine::run_until`] deadline. The default does nothing.
    fn before_instant(&mut self, at: SimTime, sched: &mut Scheduler<Self::Event>) {
        let _ = (at, sched);
    }
}

/// Where an entry sorts in the engine's queue: by the instant it fires,
/// then the instant it was scheduled at, then its sequence number.
/// Returned by every scheduling call; hand it to [`Scheduler::cancel`] to
/// withdraw the entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntryKey {
    /// The instant the entry fires.
    pub at: SimTime,
    /// The instant the entry counts as scheduled at.
    pub sched: SimTime,
    /// Sequence number, handed out in scheduling order.
    pub seq: u64,
}

/// Interface handed to event handlers for scheduling future events.
///
/// Scheduling is append-only during a handler invocation; the engine drains
/// the buffer into its heap after the handler returns. This avoids exposing
/// the heap (and any iteration-order subtleties) to user code.
pub struct Scheduler<E> {
    now: SimTime,
    /// The next sequence number to hand out (the engine's counter, lent
    /// for the duration of one handler).
    seq: u64,
    buffered: Vec<Entry<E>>,
    cancelled: Vec<EntryKey>,
    stop_requested: bool,
}

impl<E> Scheduler<E> {
    /// `buffered` is handed in by the engine so its capacity can be
    /// recycled across handler invocations.
    fn with_buffer(now: SimTime, seq: u64, buffered: Vec<Entry<E>>) -> Self {
        debug_assert!(buffered.is_empty());
        Scheduler {
            now,
            seq,
            buffered,
            cancelled: Vec::new(),
            stop_requested: false,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` after the current instant.
    pub fn after(&mut self, delay: SimDuration, event: E) -> EntryKey {
        self.at(self.now + delay, event)
    }

    /// Schedules `event` at an absolute instant.
    ///
    /// Instants in the past are clamped to the current time, so the event is
    /// delivered next (never retroactively).
    pub fn at(&mut self, at: SimTime, event: E) -> EntryKey {
        let seq = self.reserve_seq();
        let key = EntryKey {
            at: at.max(self.now),
            sched: self.now,
            seq,
        };
        self.buffered.push(Entry { key, event });
        key
    }

    /// Takes the next sequence number without filing anything, exactly as
    /// scheduling an entry here would. A world that stands in for an
    /// entry it does not file yet reserves its number, and later files
    /// with [`Scheduler::file_as_of`].
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Files `event` under a key the world supplies: an entry that counts
    /// as scheduled at `key.sched` under a sequence number reserved at
    /// that instant, so it sorts exactly where an entry scheduled then
    /// would sort. `key.at` must not be before now, and an entry for the
    /// current instant may only be filed from [`World::before_instant`] —
    /// a handler running at `at` has already delivered entries such a key
    /// may sort ahead of.
    pub fn file_as_of(&mut self, key: EntryKey, event: E) -> EntryKey {
        debug_assert!(key.sched <= key.at, "an entry fires after it is scheduled");
        debug_assert!(key.at >= self.now, "entries never fire in the past");
        debug_assert!(key.seq < self.seq, "as-of entries reuse a reserved seq");
        self.buffered.push(Entry { key, event });
        key
    }

    /// Withdraws a pending entry. A cancelled entry is never delivered: it
    /// does not advance the clock, does not count as delivered, does not
    /// trigger [`World::before_instant`] and does not keep a run going.
    /// `key` must name an entry that is still pending.
    pub fn cancel(&mut self, key: EntryKey) {
        self.cancelled.push(key);
    }

    /// Requests that the engine stop after the current handler returns,
    /// leaving any remaining events undelivered.
    pub fn stop(&mut self) {
        self.stop_requested = true;
    }
}

struct Entry<E> {
    key: EntryKey,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest key.
        other.key.cmp(&self.key)
    }
}

/// Statistics about a finished (or paused) simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Number of events delivered.
    pub delivered: u64,
    /// Virtual time of the last delivered event.
    pub end_time: SimTime,
    /// True if the run ended because a handler called [`Scheduler::stop`].
    pub stopped_early: bool,
}

/// The discrete-event engine.
///
/// # Examples
///
/// ```
/// use skywalker_sim::{Engine, Scheduler, SimDuration, SimTime, World};
///
/// struct Counter(u64);
///
/// impl World for Counter {
///     type Event = ();
///
///     fn handle(&mut self, _now: SimTime, _ev: (), sched: &mut Scheduler<()>) {
///         self.0 += 1;
///         if self.0 < 10 {
///             sched.after(SimDuration::from_millis(1), ());
///         }
///     }
/// }
///
/// let mut engine = Engine::new();
/// engine.schedule(SimTime::ZERO, ());
/// let mut world = Counter(0);
/// let stats = engine.run(&mut world);
/// assert_eq!(world.0, 10);
/// assert_eq!(stats.delivered, 10);
/// assert_eq!(stats.end_time, SimTime::from_millis(9));
/// ```
pub struct Engine<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Same-instant run of entries drained from the heap in one go, kept
    /// in key order. Dense instants (dispatch storms, batch completions
    /// fanning out) deliver from here without touching the heap, and
    /// handler-scheduled events at the current instant append here
    /// directly — their keys are strictly larger than anything already
    /// drained, so FIFO order is preserved by construction.
    batch: VecDeque<Entry<E>>,
    /// Keys of cancelled entries still in the heap, smallest first. Heap
    /// pops come out in key order too, so a cancelled entry is recognised
    /// by comparing against the smallest of these.
    cancelled: BinaryHeap<Reverse<EntryKey>>,
    /// Recycled `Scheduler` buffer: handlers append into this vec, the
    /// engine drains it and keeps the capacity for the next handler.
    scratch: Vec<Entry<E>>,
    now: SimTime,
    /// The last instant [`World::before_instant`] ran for.
    hooked: Option<SimTime>,
    seq: u64,
    delivered: u64,
    peak_pending: usize,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an empty engine at time zero.
    pub fn new() -> Self {
        Engine {
            heap: BinaryHeap::new(),
            batch: VecDeque::new(),
            cancelled: BinaryHeap::new(),
            scratch: Vec::new(),
            now: SimTime::ZERO,
            hooked: None,
            seq: 0,
            delivered: 0,
            peak_pending: 0,
        }
    }

    /// The current virtual time (time of the last delivered event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events currently pending (cancelled entries excluded).
    pub fn pending(&self) -> usize {
        self.heap.len() + self.batch.len() - self.cancelled.len()
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// High-water mark of the pending-event count, observed just before
    /// each delivery (so the event being delivered counts). Capacity
    /// planning for paper-scale populations keys off this.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Schedules an event at an absolute instant before the run starts (or
    /// between runs). Instants before the current time are clamped.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let key = EntryKey {
            at: at.max(self.now),
            sched: self.now,
            seq: self.seq,
        };
        self.seq += 1;
        self.heap.push(Entry { key, event });
    }

    /// Schedules an event `delay` after the current instant.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Runs until the event queue is empty or a handler requests a stop.
    pub fn run<W: World<Event = E>>(&mut self, world: &mut W) -> RunStats {
        self.run_until(world, SimTime::MAX)
    }

    /// Runs until the queue empties, a handler requests a stop, or the next
    /// event would fire strictly after `deadline`.
    ///
    /// Events scheduled exactly at `deadline` are delivered. On return the
    /// engine clock is the time of the last delivered event (it does not
    /// jump to `deadline`), so interleaved `run_until` calls remain exact.
    pub fn run_until<W: World<Event = E>>(&mut self, world: &mut W, deadline: SimTime) -> RunStats {
        let mut stopped_early = false;
        loop {
            if self.batch.is_empty() {
                let Some(instant) = self.next_live_instant() else {
                    break;
                };
                if instant > deadline {
                    break;
                }
                if self.hooked != Some(instant) {
                    self.hooked = Some(instant);
                    let mut sched = self.lend_scheduler(instant);
                    world.before_instant(instant, &mut sched);
                    debug_assert!(!sched.stop_requested, "before_instant cannot stop a run");
                    self.absorb(sched, false);
                }
                // Refill: drain the entire run of entries at this instant
                // out of the heap at once. The heap pops them in key order,
                // so the batch is in key order by construction.
                while self.heap.peek().is_some_and(|e| e.key.at == instant) {
                    let e = self.heap.pop().expect("peeked entry must exist");
                    if !self.take_cancelled(&e.key) {
                        self.batch.push_back(e);
                    }
                }
                if self.batch.is_empty() {
                    continue;
                }
            }
            let depth = self.pending();
            if depth > self.peak_pending {
                self.peak_pending = depth;
            }
            let entry = self.batch.pop_front().expect("batch refilled above");
            debug_assert!(entry.key.at >= self.now, "event queue went backwards");
            self.now = entry.key.at;
            self.delivered += 1;

            let mut sched = self.lend_scheduler(self.now);
            world.handle(self.now, entry.event, &mut sched);
            let stop = sched.stop_requested;
            self.absorb(sched, true);
            if stop {
                // Undelivered batch entries go back to the heap so
                // `pending()` stays truthful and a resumed run picks them
                // up first (their keys still order them correctly).
                while let Some(e) = self.batch.pop_front() {
                    self.heap.push(e);
                }
                stopped_early = true;
                break;
            }
        }
        RunStats {
            delivered: self.delivered,
            end_time: self.now,
            stopped_early,
        }
    }

    /// The instant of the earliest entry that is not cancelled, dropping
    /// cancelled entries off the top of the heap on the way.
    fn next_live_instant(&mut self) -> Option<SimTime> {
        loop {
            let key = self.heap.peek()?.key;
            if !self.take_cancelled(&key) {
                return Some(key.at);
            }
            self.heap.pop();
        }
    }

    /// True (and forgets the cancellation) if `key` — the smallest key
    /// left in the heap — was cancelled.
    fn take_cancelled(&mut self, key: &EntryKey) -> bool {
        while let Some(Reverse(c)) = self.cancelled.peek() {
            match c.cmp(key) {
                Ordering::Less => {
                    // A key that is no longer pending was cancelled.
                    debug_assert!(false, "cancelled an entry that was not pending");
                    self.cancelled.pop();
                }
                Ordering::Equal => {
                    self.cancelled.pop();
                    return true;
                }
                Ordering::Greater => return false,
            }
        }
        false
    }

    fn lend_scheduler(&mut self, now: SimTime) -> Scheduler<E> {
        Scheduler::with_buffer(now, self.seq, std::mem::take(&mut self.scratch))
    }

    /// Takes back a lent scheduler: its entries join the queue, its
    /// cancellations are recorded, its sequence counter becomes ours.
    /// After a delivery (`live_instant`), entries for the current instant
    /// join the live batch; the hook's entries all go to the heap, which
    /// is drained right after it.
    fn absorb(&mut self, sched: Scheduler<E>, live_instant: bool) {
        self.seq = sched.seq;
        let mut buffered = sched.buffered;
        for e in buffered.drain(..) {
            if live_instant && e.key.at == self.now {
                // Same-instant follow-up: joins the live batch in key
                // order, which for a plain follow-up is the tail.
                if self.batch.back().is_none_or(|b| b.key < e.key) {
                    self.batch.push_back(e);
                } else {
                    let pos = self.batch.partition_point(|b| b.key < e.key);
                    self.batch.insert(pos, e);
                }
            } else {
                self.heap.push(e);
            }
        }
        self.scratch = buffered;
        for key in sched.cancelled {
            match self.batch.iter().position(|b| b.key == key) {
                Some(pos) => {
                    self.batch.remove(pos);
                }
                None => self.cancelled.push(Reverse(key)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Eq, Clone)]
    enum Ev {
        Tag(u32),
        Chain(u32),
        StopNow,
    }

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(u64, Ev)>,
    }

    impl World for Recorder {
        type Event = Ev;

        fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
            self.seen.push((now.as_micros(), ev.clone()));
            match ev {
                Ev::Chain(n) if n > 0 => {
                    sched.after(SimDuration::from_micros(10), Ev::Chain(n - 1));
                }
                Ev::StopNow => sched.stop(),
                _ => {}
            }
        }
    }

    #[test]
    fn delivers_in_time_order() {
        let mut engine = Engine::new();
        engine.schedule(SimTime::from_micros(30), Ev::Tag(3));
        engine.schedule(SimTime::from_micros(10), Ev::Tag(1));
        engine.schedule(SimTime::from_micros(20), Ev::Tag(2));
        let mut w = Recorder::default();
        engine.run(&mut w);
        let order: Vec<u64> = w.seen.iter().map(|(t, _)| *t).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn same_time_fifo() {
        let mut engine = Engine::new();
        for i in 0..100 {
            engine.schedule(SimTime::from_micros(5), Ev::Tag(i));
        }
        let mut w = Recorder::default();
        engine.run(&mut w);
        let tags: Vec<u32> = w
            .seen
            .iter()
            .map(|(_, e)| match e {
                Ev::Tag(i) => *i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn chained_scheduling_advances_clock() {
        let mut engine = Engine::new();
        engine.schedule(SimTime::ZERO, Ev::Chain(5));
        let mut w = Recorder::default();
        let stats = engine.run(&mut w);
        assert_eq!(stats.delivered, 6);
        assert_eq!(stats.end_time, SimTime::from_micros(50));
        assert!(!stats.stopped_early);
    }

    #[test]
    fn stop_leaves_queue() {
        let mut engine = Engine::new();
        engine.schedule(SimTime::from_micros(1), Ev::StopNow);
        engine.schedule(SimTime::from_micros(2), Ev::Tag(9));
        let mut w = Recorder::default();
        let stats = engine.run(&mut w);
        assert!(stats.stopped_early);
        assert_eq!(w.seen.len(), 1);
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    fn run_until_respects_deadline_inclusive() {
        let mut engine = Engine::new();
        engine.schedule(SimTime::from_micros(10), Ev::Tag(1));
        engine.schedule(SimTime::from_micros(20), Ev::Tag(2));
        engine.schedule(SimTime::from_micros(21), Ev::Tag(3));
        let mut w = Recorder::default();
        engine.run_until(&mut w, SimTime::from_micros(20));
        assert_eq!(w.seen.len(), 2);
        // Resume picks up the rest.
        engine.run(&mut w);
        assert_eq!(w.seen.len(), 3);
    }

    #[test]
    fn past_schedule_clamps_to_now() {
        let mut engine = Engine::new();
        engine.schedule(SimTime::from_micros(100), Ev::Tag(1));
        let mut w = Recorder::default();
        engine.run(&mut w);
        assert_eq!(engine.now(), SimTime::from_micros(100));
        engine.schedule(SimTime::from_micros(5), Ev::Tag(2));
        engine.run(&mut w);
        assert_eq!(w.seen.last().unwrap().0, 100);
    }

    #[test]
    fn scheduler_at_clamps_past() {
        struct W2;
        impl World for W2 {
            type Event = u32;
            fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
                if ev == 0 {
                    // Deliberately schedule in the past; must clamp.
                    sched.at(now - SimDuration::from_secs(1), 1);
                }
            }
        }
        let mut engine = Engine::new();
        engine.schedule(SimTime::from_secs(10), 0u32);
        let stats = engine.run(&mut W2);
        assert_eq!(stats.delivered, 2);
        assert_eq!(stats.end_time, SimTime::from_secs(10));
    }

    #[test]
    fn same_instant_followups_deliver_fifo_after_batch() {
        // A handler that schedules at the current instant: its event must
        // come after every event already scheduled at that instant,
        // exactly as the one-at-a-time heap loop delivered them.
        struct Log(std::rc::Rc<std::cell::RefCell<Vec<u32>>>);
        impl World for Log {
            type Event = u32;
            fn handle(&mut self, _now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
                self.0.borrow_mut().push(ev);
                if ev == 0 {
                    // Fires at the same instant: must land *after* 1 and 2.
                    sched.after(SimDuration::ZERO, 100);
                }
            }
        }
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut engine = Engine::new();
        for tag in [0u32, 1, 2] {
            engine.schedule(SimTime::from_micros(5), tag);
        }
        engine.run(&mut Log(seen.clone()));
        assert_eq!(*seen.borrow(), vec![0, 1, 2, 100]);
    }

    #[test]
    fn stop_mid_batch_returns_remnants_to_queue() {
        let mut engine = Engine::new();
        engine.schedule(SimTime::from_micros(1), Ev::StopNow);
        engine.schedule(SimTime::from_micros(1), Ev::Tag(7));
        engine.schedule(SimTime::from_micros(1), Ev::Tag(8));
        let mut w = Recorder::default();
        let stats = engine.run(&mut w);
        assert!(stats.stopped_early);
        assert_eq!(w.seen.len(), 1);
        assert_eq!(
            engine.pending(),
            2,
            "undelivered same-instant events survive"
        );
        // Resume delivers the remnants in their original order.
        engine.run(&mut w);
        let tags: Vec<&Ev> = w.seen.iter().map(|(_, e)| e).collect();
        assert_eq!(tags, vec![&Ev::StopNow, &Ev::Tag(7), &Ev::Tag(8)]);
    }

    #[test]
    fn peak_pending_tracks_high_water_mark() {
        let mut engine = Engine::new();
        for i in 0..10 {
            engine.schedule(SimTime::from_micros(i), Ev::Tag(i as u32));
        }
        let mut w = Recorder::default();
        engine.run(&mut w);
        assert_eq!(engine.peak_pending(), 10);
        assert_eq!(engine.pending(), 0);
    }

    /// Logs deliveries and hook calls; `plan` maps an event to what its
    /// handler does.
    struct Scripted {
        log: Vec<String>,
        plan: fn(SimTime, u32, &mut Scheduler<u32>),
        hook: fn(SimTime, &mut Scheduler<u32>),
    }

    impl World for Scripted {
        type Event = u32;

        fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
            self.log.push(format!("{}:{ev}", now.as_micros()));
            (self.plan)(now, ev, sched);
        }

        fn before_instant(&mut self, at: SimTime, sched: &mut Scheduler<u32>) {
            self.log.push(format!("hook@{}", at.as_micros()));
            (self.hook)(at, sched);
        }
    }

    fn scripted(
        plan: fn(SimTime, u32, &mut Scheduler<u32>),
        hook: fn(SimTime, &mut Scheduler<u32>),
    ) -> Scripted {
        Scripted {
            log: Vec::new(),
            plan,
            hook,
        }
    }

    #[test]
    fn as_of_entries_sort_where_their_scheduling_instant_puts_them() {
        // Event 1 at t=0 reserves a seq and files 99 for t=10 as of t=0;
        // event 2 at t=5 schedules 50 for t=10 the ordinary way. The as-of
        // entry was "scheduled" first, so it fires first — even though it
        // is filed at t=5 after 50 in the handler below.
        let mut engine = Engine::new();
        engine.schedule(SimTime::ZERO, 1);
        engine.schedule(SimTime::from_micros(5), 2);
        let mut w = scripted(
            |now, ev, sched| {
                if ev == 1 {
                    let seq = sched.reserve_seq();
                    // Parked in a thread-local until event 2 files it.
                    RESERVED.with(|r| r.set(Some((now, seq))));
                }
                if ev == 2 {
                    sched.at(SimTime::from_micros(10), 50);
                    let (sched_at, seq) = RESERVED.with(|r| r.get()).expect("reserved");
                    let key = EntryKey {
                        at: SimTime::from_micros(10),
                        sched: sched_at,
                        seq,
                    };
                    assert_eq!(sched.file_as_of(key, 99), key);
                }
            },
            |_, _| {},
        );
        engine.run(&mut w);
        assert_eq!(
            w.log,
            ["hook@0", "0:1", "hook@5", "5:2", "hook@10", "10:99", "10:50"]
        );
    }

    thread_local! {
        static RESERVED: std::cell::Cell<Option<(SimTime, u64)>> =
            const { std::cell::Cell::new(None) };
    }

    #[test]
    fn cancelled_entries_leave_no_trace() {
        // 7 is cancelled while pending: it is never delivered, never
        // counted, runs no hook at its instant, does not move the clock,
        // and does not keep the run from draining.
        let mut engine = Engine::new();
        engine.schedule(SimTime::ZERO, 1);
        let mut w = scripted(
            |_, ev, sched| {
                if ev == 1 {
                    let late = sched.at(SimTime::from_micros(30), 7);
                    let same = sched.at(SimTime::ZERO, 8);
                    sched.at(SimTime::from_micros(20), 2);
                    sched.cancel(late);
                    sched.cancel(same);
                }
            },
            |_, _| {},
        );
        let stats = engine.run(&mut w);
        assert_eq!(w.log, ["hook@0", "0:1", "hook@20", "20:2"]);
        assert_eq!(stats.delivered, 2);
        assert_eq!(stats.end_time, SimTime::from_micros(20));
        assert!(!stats.stopped_early);
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn cancelled_entries_are_invisible_to_deadline_runs() {
        // The cancelled 7 sits inside the first window: that window still
        // ends at t=0 with only 2 pending, and resuming delivers 2 alone.
        let mut engine = Engine::new();
        engine.schedule(SimTime::ZERO, 1);
        let mut w = scripted(
            |_, ev, sched| {
                if ev == 1 {
                    let doomed = sched.at(SimTime::from_micros(5), 7);
                    sched.at(SimTime::from_micros(50), 2);
                    sched.cancel(doomed);
                }
            },
            |_, _| {},
        );
        let stats = engine.run_until(&mut w, SimTime::from_micros(10));
        assert_eq!((stats.delivered, stats.end_time), (1, SimTime::ZERO));
        assert_eq!(engine.pending(), 1);
        let stats = engine.run(&mut w);
        assert_eq!(stats.delivered, 2);
        assert_eq!(w.log, ["hook@0", "0:1", "hook@50", "50:2"]);
    }

    #[test]
    fn hook_runs_once_per_instant_before_its_first_delivery() {
        // Three entries at t=4, one at t=9; handlers add same-instant
        // follow-ups; the hook files an entry at its instant as of t=0,
        // which sorts ahead of everything scheduled later.
        let mut engine = Engine::new();
        engine.schedule(SimTime::ZERO, 1);
        let mut w = scripted(
            |now, ev, sched| {
                if ev == 1 {
                    sched.at(SimTime::from_micros(4), 2);
                    sched.at(SimTime::from_micros(4), 3);
                    sched.at(SimTime::from_micros(9), 4);
                    RESERVED.with(|r| r.set(Some((now, sched.reserve_seq()))));
                }
                if ev == 2 {
                    sched.at(now, 5);
                }
            },
            |at, sched| {
                if at == SimTime::from_micros(9) {
                    let (sched_at, seq) = RESERVED.with(|r| r.get()).expect("reserved");
                    sched.file_as_of(
                        EntryKey {
                            at,
                            sched: sched_at,
                            seq,
                        },
                        6,
                    );
                }
            },
        );
        engine.run(&mut w);
        assert_eq!(
            w.log,
            ["hook@0", "0:1", "hook@4", "4:2", "4:3", "4:5", "hook@9", "9:4", "9:6"]
        );
    }

    #[test]
    fn hook_is_not_rerun_when_a_stopped_instant_resumes() {
        let mut engine = Engine::new();
        engine.schedule(SimTime::from_micros(3), 1);
        engine.schedule(SimTime::from_micros(3), 2);
        let mut w = scripted(
            |_, ev, sched| {
                if ev == 1 {
                    sched.stop();
                }
            },
            |_, _| {},
        );
        engine.run(&mut w);
        engine.run(&mut w);
        assert_eq!(w.log, ["hook@3", "3:1", "3:2"]);
    }

    #[test]
    fn determinism_same_ordering_across_runs() {
        fn trace() -> Vec<(u64, Ev)> {
            let mut engine = Engine::new();
            for i in 0..50 {
                engine.schedule(SimTime::from_micros((i * 7) % 13), Ev::Tag(i as u32));
            }
            let mut w = Recorder::default();
            engine.run(&mut w);
            w.seen
        }
        assert_eq!(trace(), trace());
    }
}
