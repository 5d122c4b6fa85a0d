//! Conservative parallel execution of one simulation across shards.
//!
//! This is the engine half of the parallel DES design (the world half
//! lives in `edm-topo`): a single logical simulation is partitioned into
//! *logical processes* (shards), each owning a disjoint slice of the
//! mutable world state and its own calendar [`EventQueue`]. Shards run
//! in lockstep over *conservative windows* in the Chandy–Misra–Bryant
//! style:
//!
//! 1. Every shard processes its local events with `time < window_end`,
//!    appending any cross-shard [`Envelope`]s to an outbox instead of
//!    scheduling them directly.
//! 2. At the window barrier, envelopes are routed to their recipients'
//!    mailboxes and each shard merges its inbox **deterministically** by
//!    `(time, ord, source shard, source index)` — the same `(time, ord)`
//!    key the sequential queue sorts by, so a merged event lands in
//!    exactly the tie position it would occupy in a single-queue run.
//! 3. The next window start is the global minimum pending-event time;
//!    the window end is bounded by the *lookahead* (the minimum latency
//!    of any cross-shard edge) and never crosses a *cut* (a time at
//!    which replicated global state changes, e.g. a fault).
//!
//! Correctness rests on one invariant the caller must guarantee: **every
//! cross-shard envelope is timestamped at least `lookahead` after the
//! event that emitted it.** A window never extends more than `lookahead`
//! past its start, so an envelope sent during window *k* is always
//! delivered at barrier *k+1* before its receiver can reach its
//! timestamp — no shard ever receives an event in its past.
//!
//! Envelopes timestamped *before* the barrier are state-sync records
//! (e.g. delivery credits replicated to every shard): [`ShardWorld::receive`]
//! applies them immediately, in the same deterministic order.
//!
//! With one shard the driver degenerates to the plain sequential loop —
//! no threads, no barriers, no mailboxes.
//!
//! Events at [`Time::MAX`] are treated as "never" and are not
//! dispatched (the workspace-wide infinity-sentinel convention).

use crate::engine::EventQueue;
use crate::time::{Duration, Time};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Where an [`Envelope`] is delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recipient {
    /// One specific shard (never the sender itself — intra-shard events
    /// are scheduled locally, not mailed).
    Shard(u32),
    /// Every shard except the sender (state-sync records).
    Broadcast,
}

/// A cross-shard message with its deterministic delivery key.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Recipient shard(s).
    pub to: Recipient,
    /// Delivery timestamp. Event envelopes must be at least the
    /// lookahead after the emitting event; state-sync envelopes may be
    /// timestamped in the (window-local) past and are applied at the
    /// barrier.
    pub at: Time,
    /// Content-derived order key — must match the key the event would
    /// carry in a sequential run ([`EventQueue::schedule_ordered`]).
    pub ord: u64,
    /// Payload.
    pub msg: M,
}

/// One logical process of a sharded simulation.
pub trait ShardWorld: Send {
    /// Local event type.
    type Event: Send;
    /// Cross-shard message type. `Clone` because broadcasts fan out.
    type Msg: Send + Clone;

    /// Handles one local event; follow-ups are scheduled through `q`
    /// (with content-derived order keys) and cross-shard effects are
    /// appended to the world's outbox.
    fn handle(&mut self, now: Time, ev: Self::Event, q: &mut EventQueue<Self::Event>);

    /// Moves every envelope emitted since the last drain into `sink`.
    fn drain_outbox(&mut self, sink: &mut Vec<Envelope<Self::Msg>>);

    /// Delivers one inbound envelope: schedule it as a local event
    /// (`q.schedule_ordered(at, ord, ..)`) or apply it as state sync.
    /// Called only at window barriers, in `(at, ord, src, idx)` order.
    fn receive(&mut self, at: Time, ord: u64, msg: Self::Msg, q: &mut EventQueue<Self::Event>);
}

/// Static parameters of one sharded run.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Conservative window bound: the minimum timestamp distance of any
    /// cross-shard envelope from its emitting event. Must be positive;
    /// use [`Duration::MAX`] when shards cannot exchange events at all.
    pub lookahead: Duration,
    /// Sorted times that windows must not cross: instants at which every
    /// shard mutates replicated global state (fault injection). A cut at
    /// `t` forces a barrier at `t`, so state-sync envelopes from before
    /// `t` are applied everywhere before any shard processes `t`.
    pub cuts: Vec<Time>,
}

/// A routed envelope waiting in a mailbox.
struct Routed<M> {
    at: Time,
    ord: u64,
    src: u32,
    idx: u64,
    msg: M,
}

/// `u64` encoding of "no pending events".
const NONE_PS: u64 = u64::MAX;

fn peek_ps<E>(q: &EventQueue<E>) -> u64 {
    q.peek_time().map_or(NONE_PS, |t| t.as_ps())
}

/// End of the window starting at `w`: at most `lookahead` long, never
/// crossing a cut.
fn window_end(w: Time, config: &ShardedConfig) -> Time {
    let cap = w.checked_add(config.lookahead).unwrap_or(Time::MAX);
    match config.cuts.iter().find(|&&c| c > w) {
        Some(&c) => cap.min(c),
        None => cap,
    }
}

/// Runs a sharded simulation to completion and returns the worlds.
///
/// `shards[i]` is logical process `i` with its pre-seeded event queue.
/// With a single shard this is a plain sequential event loop; otherwise
/// one OS thread per shard runs the conservative window protocol.
///
/// # Panics
///
/// Panics if `shards` is empty, `lookahead` is zero, `cuts` is not
/// sorted, or a shard mails an envelope to itself. A lookahead
/// violation (an event envelope timestamped in its receiver's past — a
/// bug in the caller's partitioning) surfaces as the causality panic
/// when the mis-scheduled event is popped — as does, for any shard
/// count, a world scheduling an event into its own past.
pub fn run_sharded<W: ShardWorld>(
    shards: Vec<(W, EventQueue<W::Event>)>,
    config: &ShardedConfig,
) -> Vec<W> {
    assert!(!shards.is_empty(), "need at least one shard");
    assert!(
        config.lookahead > Duration::ZERO,
        "conservative windows need positive lookahead"
    );
    assert!(
        config.cuts.windows(2).all(|w| w[0] <= w[1]),
        "cuts must be sorted"
    );
    let n = shards.len();
    if n == 1 {
        return vec![run_single(shards.into_iter().next().expect("one shard"))];
    }

    let barrier = SpinBarrier::new(n);
    let mailboxes: Vec<Mutex<Vec<Routed<W::Msg>>>> =
        (0..n).map(|_| Mutex::new(Vec::new())).collect();
    let next_times: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(NONE_PS)).collect();

    let mut worlds: Vec<Option<W>> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .enumerate()
            .map(|(me, (world, queue))| {
                let barrier = &barrier;
                let mailboxes = &mailboxes;
                let next_times = &next_times;
                scope.spawn(move || {
                    run_shard_thread(
                        me as u32, world, queue, config, barrier, mailboxes, next_times,
                    )
                })
            })
            .collect();
        for h in handles {
            worlds.push(Some(h.join().expect("shard thread panicked")));
        }
    });
    worlds.into_iter().map(|w| w.expect("joined")).collect()
}

/// The degenerate one-shard run: a plain sequential loop, the whole run
/// being one window. Its outbox envelopes must all be broadcasts (state
/// sync with no other recipient) and are dropped at the window's end.
fn run_single<W: ShardWorld>((mut world, mut queue): (W, EventQueue<W::Event>)) -> W {
    let mut now = Time::ZERO;
    while let Some((at, ev)) = queue.pop() {
        if at == Time::MAX {
            break; // every event left is at `Time::MAX` too
        }
        assert!(at >= now, "causality violation: {at} after {now}");
        now = at;
        world.handle(at, ev, &mut queue);
    }
    let mut outbox = Vec::new();
    world.drain_outbox(&mut outbox);
    for env in outbox {
        assert!(
            matches!(env.to, Recipient::Broadcast),
            "single-shard run mailed an envelope to {:?}",
            env.to
        );
    }
    world
}

/// The per-thread window protocol (see the module docs).
#[allow(clippy::too_many_arguments)]
fn run_shard_thread<W: ShardWorld>(
    me: u32,
    mut world: W,
    mut queue: EventQueue<W::Event>,
    config: &ShardedConfig,
    barrier: &SpinBarrier,
    mailboxes: &[Mutex<Vec<Routed<W::Msg>>>],
    next_times: &[AtomicU64],
) -> W {
    let mut outbox: Vec<Envelope<W::Msg>> = Vec::new();
    let mut sent: u64 = 0; // per-shard envelope index (FIFO tie-break)
    let mut now = Time::ZERO; // monotonicity check only

    // Establish the first window start from the global minimum seed time.
    next_times[me as usize].store(peek_ps(&queue), Ordering::Release);
    barrier.wait();
    let global_min = |times: &[AtomicU64]| {
        times
            .iter()
            .map(|t| t.load(Ordering::Acquire))
            .min()
            .expect("at least one shard")
    };
    let mut w_start_ps = global_min(next_times);

    while w_start_ps != NONE_PS {
        let w_start = Time::from_ps(w_start_ps);
        let w_end = window_end(w_start, config);

        // 1. Process this shard's slice of the window.
        while let Some(t) = queue.peek_time() {
            if t >= w_end || t == Time::MAX {
                break;
            }
            let (at, ev) = queue.pop().expect("peeked");
            assert!(at >= now, "causality violation: {at} after {now}");
            now = at;
            world.handle(at, ev, &mut queue);
        }

        // 2. Route outbound envelopes into recipient mailboxes.
        world.drain_outbox(&mut outbox);
        for env in outbox.drain(..) {
            let idx = sent;
            sent += 1;
            match env.to {
                Recipient::Shard(to) => {
                    assert_ne!(to, me, "shard {me} mailed an envelope to itself");
                    mailboxes[to as usize]
                        .lock()
                        .expect("mailbox")
                        .push(Routed {
                            at: env.at,
                            ord: env.ord,
                            src: me,
                            idx,
                            msg: env.msg,
                        });
                }
                Recipient::Broadcast => {
                    for (to, mbox) in mailboxes.iter().enumerate() {
                        if to == me as usize {
                            continue;
                        }
                        mbox.lock().expect("mailbox").push(Routed {
                            at: env.at,
                            ord: env.ord,
                            src: me,
                            idx,
                            msg: env.msg.clone(),
                        });
                    }
                }
            }
        }
        barrier.wait(); // every mailbox now holds this window's full traffic

        // 3. Merge the inbox deterministically and publish the next
        //    pending-event time.
        let mut inbox = std::mem::take(&mut *mailboxes[me as usize].lock().expect("mailbox"));
        inbox.sort_unstable_by_key(|r| (r.at, r.ord, r.src, r.idx));
        for r in inbox {
            // Envelopes timestamped before `now` are either state-sync
            // records (fine) or lookahead violations; the generic engine
            // cannot tell them apart here, but a violation that schedules
            // an event in the receiver's past trips the causality panic
            // at pop time below.
            world.receive(r.at, r.ord, r.msg, &mut queue);
        }
        next_times[me as usize].store(peek_ps(&queue), Ordering::Release);
        barrier.wait();

        // 4. All shards see the same published times, so they compute
        //    the same next window (or all stop together).
        w_start_ps = global_min(next_times);
    }
    world
}

/// A sense-reversing barrier that spins briefly, then yields.
///
/// Window barriers fire at simulation-window frequency (often well under
/// a microsecond of work per shard per window), so parking-lot style OS
/// blocking would dominate; pure spinning, on the other hand, melts down
/// when shards outnumber cores. A short spin followed by
/// `thread::yield_now` handles both regimes — and when the thread count
/// already exceeds the machine's parallelism the spin phase is skipped
/// entirely (a waiting spinner can only burn the timeslice the arriving
/// thread needs).
struct SpinBarrier {
    n: usize,
    spin: u32,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        SpinBarrier {
            n,
            spin: if n <= cores { 128 } else { 0 },
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == gen {
            spins += 1;
            if spins < self.spin {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring world: shard `i` owns counter `i`; a `Tick(k)` event adds
    /// `k` to the counter and forwards `Tick(k-1)` to the next shard
    /// `delay` later. `Sync` broadcasts replicate a tally to every shard
    /// at the emitting timestamp.
    struct Ring {
        me: u32,
        n: u32,
        delay: Duration,
        counter: u64,
        tally: u64,
        log: Vec<(Time, u64)>,
        outbox: Vec<Envelope<RingMsg>>,
    }

    #[derive(Debug, Clone, Copy)]
    enum RingMsg {
        Tick(u64),
        Sync(u64),
    }

    impl ShardWorld for Ring {
        type Event = u64; // k
        type Msg = RingMsg;

        fn handle(&mut self, now: Time, k: u64, q: &mut EventQueue<u64>) {
            self.counter += k;
            self.log.push((now, k));
            self.outbox.push(Envelope {
                to: Recipient::Broadcast,
                at: now,
                ord: 1 << 32 | k,
                msg: RingMsg::Sync(k),
            });
            self.tally += k;
            if k > 0 {
                let to = (self.me + 1) % self.n;
                if to == self.me {
                    // Own-shard hop: schedule locally, exactly as a real
                    // world does for intra-shard traffic.
                    q.schedule_ordered(now + self.delay, k - 1, k - 1);
                } else {
                    self.outbox.push(Envelope {
                        to: Recipient::Shard(to),
                        at: now + self.delay,
                        ord: k - 1,
                        msg: RingMsg::Tick(k - 1),
                    });
                }
            }
        }

        fn drain_outbox(&mut self, sink: &mut Vec<Envelope<RingMsg>>) {
            sink.append(&mut self.outbox);
        }

        fn receive(&mut self, at: Time, ord: u64, msg: RingMsg, q: &mut EventQueue<u64>) {
            match msg {
                RingMsg::Tick(k) => q.schedule_ordered(at, ord, k),
                RingMsg::Sync(k) => self.tally += k,
            }
        }
    }

    fn ring(n: u32, delay: Duration) -> Vec<(Ring, EventQueue<u64>)> {
        (0..n)
            .map(|me| {
                let mut q = EventQueue::new();
                if me == 0 {
                    q.schedule_ordered(Time::from_ns(5), 40, 40u64);
                }
                (
                    Ring {
                        me,
                        n,
                        delay,
                        counter: 0,
                        tally: 0,
                        log: Vec::new(),
                        outbox: Vec::new(),
                    },
                    q,
                )
            })
            .collect()
    }

    #[test]
    fn ring_token_passes_across_shards() {
        // 40 + 39 + ... + 0 distributed round-robin over 4 shards; the
        // lookahead equals the forwarding delay, so every window carries
        // exactly one hop.
        let delay = Duration::from_ns(7);
        let cfg = ShardedConfig {
            lookahead: delay,
            cuts: vec![],
        };
        let worlds = run_sharded(ring(4, delay), &cfg);
        let grand: u64 = worlds.iter().map(|w| w.counter).sum();
        assert_eq!(grand, (0..=40).sum::<u64>());
        // Shard 0 got k = 40, 36, 32, ...
        assert_eq!(worlds[0].counter, (0..=40).filter(|k| k % 4 == 0).sum());
        // Broadcast syncs replicated the full tally everywhere.
        for w in &worlds {
            assert_eq!(w.tally, grand, "shard {} tally", w.me);
        }
        // Timestamps advance one delay per hop.
        assert_eq!(worlds[1].log[0].0, Time::from_ns(5) + delay);
    }

    #[test]
    fn cuts_only_add_barriers() {
        let delay = Duration::from_ns(7);
        let no_cuts = ShardedConfig {
            lookahead: delay,
            cuts: vec![],
        };
        let cuts = ShardedConfig {
            lookahead: delay,
            cuts: (1..100).map(|i| Time::from_ns(3 * i)).collect(),
        };
        let a = run_sharded(ring(3, delay), &no_cuts);
        let b = run_sharded(ring(3, delay), &cuts);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.counter, y.counter);
            assert_eq!(x.log, y.log);
            assert_eq!(x.tally, y.tally);
        }
    }

    #[test]
    fn single_shard_is_sequential() {
        let delay = Duration::from_ns(7);
        let cfg = ShardedConfig {
            lookahead: delay,
            cuts: vec![],
        };
        let worlds = run_sharded(ring(1, delay), &cfg);
        assert_eq!(worlds[0].counter, (0..=40).sum::<u64>());
        assert_eq!(worlds[0].log.len(), 41);
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let delay = Duration::from_ns(4);
        let cfg = ShardedConfig {
            lookahead: delay,
            cuts: vec![Time::from_ns(20), Time::from_ns(90)],
        };
        let merged_log = |n: u32| {
            let mut log: Vec<(Time, u64)> = run_sharded(ring(n, delay), &cfg)
                .into_iter()
                .flat_map(|w| w.log)
                .collect();
            log.sort_unstable();
            log
        };
        let reference = merged_log(1);
        for n in 2..=4 {
            assert_eq!(merged_log(n), reference, "{n} shards diverged");
        }
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn single_shard_rejects_scheduling_into_the_past() {
        /// Its first event schedules a follow-up before itself.
        struct Backwards;
        impl ShardWorld for Backwards {
            type Event = bool;
            type Msg = ();
            fn handle(&mut self, _now: Time, first: bool, q: &mut EventQueue<bool>) {
                if first {
                    q.schedule_ordered(Time::ZERO, 0, false);
                }
            }
            fn drain_outbox(&mut self, _sink: &mut Vec<Envelope<()>>) {}
            fn receive(&mut self, _at: Time, _ord: u64, _msg: (), _q: &mut EventQueue<bool>) {}
        }
        let mut q = EventQueue::new();
        q.schedule_ordered(Time::from_ns(10), 0, true);
        let cfg = ShardedConfig {
            lookahead: Duration::from_ns(1),
            cuts: vec![],
        };
        let _ = run_sharded(vec![(Backwards, q)], &cfg);
    }

    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn zero_lookahead_rejected() {
        let cfg = ShardedConfig {
            lookahead: Duration::ZERO,
            cuts: vec![],
        };
        let _ = run_sharded(ring(2, Duration::from_ns(1)), &cfg);
    }
}
