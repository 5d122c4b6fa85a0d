//! Property-based tests for the scheduler: the ordered list behaves like
//! a reference sorted model, PIM always emits valid maximal matchings,
//! the grant engine conserves bytes and never double-books a port, pairs
//! stay FIFO, the demand-sparse `poll` is equivalent to a dense
//! reference implementation on randomized notify/poll scripts, polling
//! only at the reported wake-ups grants exactly what polling at every
//! busy-timer expiry grants, and every grant carries its message's tag.

use edm_sched::scheduler::{
    CancelOutcome, Grant, Notification, Policy, Scheduler, SchedulerConfig,
};
use edm_sched::{OrderedList, PimConfig, PimRunner};
use edm_sim::{Bandwidth, Time};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// The pre-sparse scheduler, kept as an executable specification: dense
/// O(ports) scans per poll, per-poll allocations, `HashMap` pair state.
/// The production scheduler must produce bit-identical `PollResult`s.
mod reference {
    use edm_sched::scheduler::{
        Grant, Notification, NotifyError, Policy, PollResult, SchedulerConfig,
    };
    use edm_sched::OrderedList;
    use edm_sim::{Duration, Time};
    use std::collections::{HashMap, VecDeque};

    /// Demand-row depth offered to PIM (matches the production constant).
    const PIM_ROW_DEPTH: usize = 64;

    /// A frozen copy of the pre-refactor dense priority-PIM loop. It must
    /// NOT call into the production `PimRunner` (whose dense `run` now
    /// delegates to the rewritten sparse core) — sharing it would let a
    /// matching bug cancel out of the equivalence test. Returns the
    /// matched pairs and the iteration count.
    ///
    /// The per-source priority encoder of the original always resolves
    /// rank 0 of the sorted request array, i.e. the smallest
    /// `(priority, dest)` proposal wins.
    fn dense_pim(
        ports: usize,
        demand: &[Vec<(u64, usize)>],
        src_free: &[bool],
        dst_free: &[bool],
    ) -> (Vec<(usize, usize)>, usize) {
        let mut src_avail = src_free.to_vec();
        let mut dst_avail = dst_free.to_vec();
        let mut pairs = Vec::new();
        let mut iterations = 0usize;
        let mut active: Vec<usize> = (0..ports)
            .filter(|&d| dst_avail[d] && !demand[d].is_empty())
            .collect();
        loop {
            let mut proposals: Vec<Vec<(u64, usize)>> = vec![Vec::new(); ports];
            let mut proposed_srcs = Vec::new();
            let mut next_active = Vec::new();
            for &d in &active {
                if let Some(&(prio, s)) = demand[d].iter().find(|&&(_, s)| src_avail[s]) {
                    if proposals[s].is_empty() {
                        proposed_srcs.push(s);
                    }
                    proposals[s].push((prio, d));
                    next_active.push(d);
                }
            }
            if next_active.is_empty() {
                break;
            }
            active = next_active;
            iterations += 1;
            for &s in &proposed_srcs {
                let mut reqs = std::mem::take(&mut proposals[s]);
                reqs.sort_unstable();
                let (_, d) = reqs[0];
                src_avail[s] = false;
                dst_avail[d] = false;
                pairs.push((s, d));
            }
            active.retain(|&d| dst_avail[d]);
        }
        (pairs, iterations)
    }

    pub struct DenseScheduler {
        config: SchedulerConfig,
        queues: Vec<OrderedList<QueuedMsg>>,
        src_busy_until: Vec<Time>,
        dst_busy_until: Vec<Time>,
        active_per_pair: HashMap<(u16, u16), u32>,
        head_in_queue: HashMap<(u16, u16), bool>,
        pair_waiting: HashMap<(u16, u16), VecDeque<QueuedMsg>>,
    }

    #[derive(Debug, Clone, Copy)]
    struct QueuedMsg {
        src: u16,
        msg_id: u8,
        tag: u32,
        remaining: u32,
        notified_at: Time,
    }

    impl DenseScheduler {
        pub fn new(config: SchedulerConfig) -> Self {
            DenseScheduler {
                queues: (0..config.ports).map(|_| OrderedList::new()).collect(),
                src_busy_until: vec![Time::ZERO; config.ports],
                dst_busy_until: vec![Time::ZERO; config.ports],
                active_per_pair: HashMap::new(),
                head_in_queue: HashMap::new(),
                pair_waiting: HashMap::new(),
                config,
            }
        }

        pub fn pending_messages(&self) -> usize {
            self.queues.iter().map(|q| q.len()).sum()
        }

        fn priority_key(&self, msg: &QueuedMsg) -> u64 {
            match self.config.policy {
                Policy::Fcfs => msg.notified_at.as_ps(),
                Policy::Srpt => msg.remaining as u64,
            }
        }

        pub fn notify(&mut self, now: Time, n: Notification) -> Result<(), NotifyError> {
            if n.src as usize >= self.config.ports {
                return Err(NotifyError::BadPort { port: n.src });
            }
            if n.dest as usize >= self.config.ports {
                return Err(NotifyError::BadPort { port: n.dest });
            }
            if n.size_bytes == 0 {
                return Err(NotifyError::EmptyMessage);
            }
            let pair = (n.src, n.dest);
            let active = self.active_per_pair.entry(pair).or_insert(0);
            if *active as usize >= self.config.max_active_per_pair {
                return Err(NotifyError::PairLimitReached {
                    limit: self.config.max_active_per_pair,
                });
            }
            *active += 1;
            let msg = QueuedMsg {
                src: n.src,
                msg_id: n.msg_id,
                tag: n.tag,
                remaining: n.size_bytes,
                notified_at: now,
            };
            if *self.head_in_queue.entry(pair).or_insert(false) {
                self.pair_waiting.entry(pair).or_default().push_back(msg);
            } else {
                self.head_in_queue.insert(pair, true);
                let key = self.priority_key(&msg);
                self.queues[n.dest as usize].insert(key, msg);
            }
            Ok(())
        }

        pub fn poll(&mut self, now: Time) -> PollResult {
            let src_free: Vec<bool> = self.src_busy_until.iter().map(|&t| t <= now).collect();
            let dst_free: Vec<bool> = self.dst_busy_until.iter().map(|&t| t <= now).collect();
            let mut demand: Vec<Vec<(u64, usize)>> = vec![Vec::new(); self.config.ports];
            for (d, row) in demand.iter_mut().enumerate() {
                if !dst_free[d] {
                    continue;
                }
                row.extend(
                    self.queues[d]
                        .iter()
                        .map(|(k, m)| (k, m.src as usize))
                        .take(PIM_ROW_DEPTH),
                );
            }
            let (matched_pairs, iterations) =
                dense_pim(self.config.ports, &demand, &src_free, &dst_free);
            let mut grants = Vec::with_capacity(matched_pairs.len());
            for &(s, d) in &matched_pairs {
                let (_, mut msg) = self.queues[d]
                    .remove_first(|m| m.src as usize == s)
                    .expect("matched edge must exist");
                let l = msg.remaining.min(self.config.chunk_bytes);
                msg.remaining -= l;
                let remaining_after = msg.remaining;
                if msg.remaining > 0 {
                    let key = self.priority_key(&msg);
                    self.queues[d].insert(key, msg);
                } else {
                    let pair = (msg.src, d as u16);
                    *self.active_per_pair.get_mut(&pair).unwrap() -= 1;
                    match self.pair_waiting.entry(pair).or_default().pop_front() {
                        Some(next) => {
                            let key = self.priority_key(&next);
                            self.queues[d].insert(key, next);
                        }
                        None => {
                            self.head_in_queue.insert(pair, false);
                        }
                    }
                }
                let busy = self.config.link.tx_time_bytes(l as u64);
                self.src_busy_until[s] = now + busy;
                self.dst_busy_until[d] = now + busy;
                grants.push(Grant {
                    src: s as u16,
                    dest: d as u16,
                    msg_id: msg.msg_id,
                    tag: msg.tag,
                    chunk_bytes: l,
                    remaining_after,
                    issued_at: now,
                });
            }
            // Earliest instant a pair PIM can see (the first
            // PIM_ROW_DEPTH entries of any queue) has both ports free.
            let next_wakeup = self
                .queues
                .iter()
                .enumerate()
                .flat_map(|(d, q)| {
                    q.iter()
                        .take(PIM_ROW_DEPTH)
                        .map(move |(_, m)| (m.src as usize, d))
                })
                .map(|(s, d)| self.src_busy_until[s].max(self.dst_busy_until[d]))
                .min();
            PollResult {
                grants,
                pim_iterations: iterations,
                sched_latency: Duration::from_ps(iterations as u64 * 3 * self.config.clock.as_ps()),
                next_wakeup,
            }
        }
    }
}

/// A notify script: `(gap before it in ns, src, dst, size)`, with
/// `src != dst` forced when it is resolved.
type Script = [(u64, u16, u16, u32)];

/// Resolves a script entry into its arrival time and notification.
fn script_notifications(ports: usize, script: &Script) -> Vec<(Time, Notification)> {
    let mut now = Time::ZERO;
    let mut msg_id = 0u8;
    script
        .iter()
        .map(|&(dt, src, dst, size)| {
            now += edm_sim::Duration::from_ns(dt);
            let src = src % ports as u16;
            let dst = dst % ports as u16;
            let dst = if src == dst {
                (dst + 1) % ports as u16
            } else {
                dst
            };
            msg_id = msg_id.wrapping_add(1);
            (now, Notification::new(src, dst, msg_id, size))
        })
        .collect()
}

/// Drives a scheduler the pre-exact way: a round after every instant's
/// notifies and at every busy-timer expiry. Returns every grant.
fn grants_polling_every_expiry(
    cfg: SchedulerConfig,
    script: &[(Time, Notification)],
) -> Vec<Grant> {
    let mut s = Scheduler::new(cfg);
    let mut expiries = BTreeSet::new();
    let mut grants = Vec::new();
    let mut i = 0;
    loop {
        let next_notify = script.get(i).map(|&(at, _)| at);
        let next_expiry = expiries.first().copied();
        let Some(now) = next_notify.into_iter().chain(next_expiry).min() else {
            break;
        };
        // Same-instant notifies all land before the round, as demand
        // events order before polls in the simulator.
        while let Some(&(at, n)) = script.get(i).filter(|&&(at, _)| at == now) {
            let _ = s.notify(at, n);
            i += 1;
        }
        expiries.retain(|&t| t > now);
        let r = s.poll(now);
        for g in &r.grants {
            expiries.insert(now + cfg.link.tx_time_bytes(g.chunk_bytes as u64));
        }
        grants.extend(r.grants);
    }
    assert_eq!(
        s.pending_messages(),
        0,
        "expiry polling drains every message"
    );
    grants
}

/// Drives a scheduler by the exact rule: a round only at the reported
/// `next_wakeup` and at a freshly notified pair's `servable_at`. Returns
/// every grant and whether every round granted.
fn grants_polling_exact_wakeups(
    cfg: SchedulerConfig,
    script: &[(Time, Notification)],
) -> (Vec<Grant>, bool) {
    let mut s = Scheduler::new(cfg);
    let mut poll_at: Option<Time> = None;
    let mut grants = Vec::new();
    let mut every_round_grants = true;
    let mut i = 0;
    loop {
        let next_notify = script.get(i).map(|&(at, _)| at);
        let Some(now) = next_notify.into_iter().chain(poll_at).min() else {
            break;
        };
        if next_notify == Some(now) {
            let (_, n) = script[i];
            i += 1;
            if s.notify(now, n).is_ok() {
                let at = s.servable_at(now, n.src, n.dest);
                poll_at = Some(poll_at.map_or(at, |t| t.min(at)));
            }
            continue;
        }
        let r = s.poll(now);
        every_round_grants &= !r.grants.is_empty();
        poll_at = r.next_wakeup;
        grants.extend(r.grants);
    }
    assert_eq!(
        s.pending_messages(),
        0,
        "exact polling drains every message"
    );
    (grants, every_round_grants)
}

proptest! {
    /// OrderedList pops in exactly the order of a reference stable sort.
    #[test]
    fn ordered_list_matches_reference(ops in proptest::collection::vec((0u64..100, any::<u16>()), 1..200)) {
        let mut list = OrderedList::new();
        let mut reference: Vec<(u64, usize, u16)> = Vec::new();
        for (i, &(k, v)) in ops.iter().enumerate() {
            list.insert(k, v);
            reference.push((k, i, v));
        }
        reference.sort_by_key(|&(k, i, _)| (k, i));
        for &(k, _, v) in &reference {
            let (got_k, got_v) = list.pop().expect("same length");
            prop_assert_eq!((got_k, got_v), (k, v));
        }
        prop_assert!(list.is_empty());
    }

    /// PIM output is always a valid matching (no port appears twice) and
    /// maximal (no leftover edge between two unmatched, free ports).
    #[test]
    fn pim_valid_and_maximal(
        ports in 2usize..24,
        edges in proptest::collection::vec((0usize..24, 0usize..24, 0u64..1000), 0..80),
        busy_bits in any::<u32>(),
    ) {
        let mut demand = vec![Vec::new(); ports];
        for &(d, s, prio) in &edges {
            let (d, s) = (d % ports, s % ports);
            demand[d].push((prio, s));
        }
        for row in demand.iter_mut() {
            row.sort_unstable();
        }
        let src_free: Vec<bool> = (0..ports).map(|i| busy_bits & (1 << i) == 0).collect();
        let dst_free: Vec<bool> = (0..ports).map(|i| busy_bits & (1 << (i + 8)) == 0 || i >= 24).collect();
        let mut pim = PimRunner::new(PimConfig::for_ports(ports));
        let m = pim.run(&demand, &src_free, &dst_free);

        let mut srcs = HashSet::new();
        let mut dsts = HashSet::new();
        for &(s, d) in &m.pairs {
            prop_assert!(src_free[s], "matched busy source {s}");
            prop_assert!(dst_free[d], "matched busy dest {d}");
            prop_assert!(srcs.insert(s), "source {s} matched twice");
            prop_assert!(dsts.insert(d), "dest {d} matched twice");
            prop_assert!(
                demand[d].iter().any(|&(_, ss)| ss == s),
                "matched edge {s}->{d} not in demand"
            );
        }
        // Maximality.
        for (d, row) in demand.iter().enumerate() {
            if !dst_free[d] || dsts.contains(&d) {
                continue;
            }
            for &(_, s) in row {
                prop_assert!(
                    !src_free[s] || srcs.contains(&s),
                    "edge {s}->{d} left unmatched though both free"
                );
            }
        }
        prop_assert_eq!(m.cycles, m.iterations as u64 * 3);
    }

    /// The grant engine conserves bytes exactly: total granted equals the
    /// total notified, every grant respects the chunk cap, and no port is
    /// granted twice in one poll round.
    #[test]
    fn scheduler_conserves_bytes(
        msgs in proptest::collection::vec((0u16..8, 0u16..8, 1u32..5000), 1..40),
        chunk in prop::sample::select(vec![64u32, 128, 256, 512]),
        srpt in any::<bool>(),
    ) {
        let mut s = Scheduler::new(SchedulerConfig {
            ports: 8,
            chunk_bytes: chunk,
            link: Bandwidth::from_gbps(100),
            policy: if srpt { Policy::Srpt } else { Policy::Fcfs },
            max_active_per_pair: usize::MAX, // admit everything
            clock: edm_sched::ASIC_CLOCK,
        });
        let mut expected = 0u64;
        for (i, &(src, dst, size)) in msgs.iter().enumerate() {
            let dst = if src == dst { (dst + 1) % 8 } else { dst };
            s.notify(Time::from_ns(i as u64), Notification::new(src, dst, i as u8, size))
                .expect("admitted");
            expected += size as u64;
        }
        let mut now = Time::from_ns(msgs.len() as u64);
        let mut rounds = 0;
        loop {
            let r = s.poll(now);
            let mut srcs = HashSet::new();
            let mut dsts = HashSet::new();
            for g in &r.grants {
                prop_assert!(g.chunk_bytes <= chunk);
                prop_assert!(g.chunk_bytes > 0);
                prop_assert!(srcs.insert(g.src), "src granted twice in a round");
                prop_assert!(dsts.insert(g.dest), "dst granted twice in a round");
            }
            match r.next_wakeup {
                Some(t) => now = t,
                None => break,
            }
            rounds += 1;
            prop_assert!(rounds < 100_000, "scheduler failed to drain");
        }
        prop_assert_eq!(s.bytes_granted(), expected);
        prop_assert_eq!(s.pending_messages(), 0);
    }

    /// The demand-sparse scheduler is observationally equivalent to the
    /// dense reference: on any monotone script of notifies and polls, both
    /// produce identical notify results and bit-identical `PollResult`s
    /// (grants with order, iteration counts, latency, next wakeup).
    #[test]
    fn sparse_poll_equivalent_to_dense_reference(
        ports in 2usize..12,
        script in proptest::collection::vec(
            (any::<bool>(), 0u16..12, 0u16..12, 1u32..2048, 0u64..60),
            1..100,
        ),
        chunk in prop::sample::select(vec![64u32, 256]),
        srpt in any::<bool>(),
        x in 1usize..4,
    ) {
        let cfg = SchedulerConfig {
            ports,
            chunk_bytes: chunk,
            link: Bandwidth::from_gbps(100),
            policy: if srpt { Policy::Srpt } else { Policy::Fcfs },
            max_active_per_pair: x,
            clock: edm_sched::ASIC_CLOCK,
        };
        let mut sparse = Scheduler::new(cfg);
        let mut dense = reference::DenseScheduler::new(cfg);
        let mut now = Time::ZERO;
        let mut msg_id = 0u8;
        let mut tag = 0u32;
        for &(is_poll, src, dst, size, dt) in &script {
            now += edm_sim::Duration::from_ns(dt);
            if is_poll {
                let a = sparse.poll(now);
                let b = dense.poll(now);
                prop_assert_eq!(&a.grants, &b.grants);
                prop_assert_eq!(a.pim_iterations, b.pim_iterations);
                prop_assert_eq!(a.sched_latency, b.sched_latency);
                prop_assert_eq!(a.next_wakeup, b.next_wakeup);
            } else {
                let src = src % ports as u16;
                let dst = dst % ports as u16;
                let dst = if src == dst { (dst + 1) % ports as u16 } else { dst };
                let n = Notification::new(src, dst, msg_id, size).with_tag(tag);
                msg_id = msg_id.wrapping_add(1);
                tag += 1;
                prop_assert_eq!(sparse.notify(now, n), dense.notify(now, n));
            }
            prop_assert_eq!(sparse.pending_messages(), dense.pending_messages());
        }
        // Drain both to the end and compare the tail too.
        let mut rounds = 0;
        loop {
            let a = sparse.poll(now);
            let b = dense.poll(now);
            prop_assert_eq!(&a.grants, &b.grants);
            prop_assert_eq!(a.next_wakeup, b.next_wakeup);
            match a.next_wakeup {
                Some(t) => now = t,
                None => break,
            }
            rounds += 1;
            prop_assert!(rounds < 100_000, "drain did not converge");
        }
        prop_assert_eq!(sparse.pending_messages(), 0);
    }

    /// Polling only when a grant is possible loses nothing: a scheduler
    /// polled at its `next_wakeup` and at `servable_at` after each admitted
    /// notify issues exactly the grants (`issued_at` included) of one
    /// polled at every busy-timer expiry and after every notify, and every
    /// one of its rounds grants.
    #[test]
    fn exact_wakeups_match_polling_at_every_expiry(
        ports in 2usize..12,
        script in proptest::collection::vec(
            (0u64..60, 0u16..12, 0u16..12, 1u32..2048),
            1..100,
        ),
        chunk in prop::sample::select(vec![64u32, 256]),
        srpt in any::<bool>(),
        x in 1usize..4,
    ) {
        let cfg = SchedulerConfig {
            ports,
            chunk_bytes: chunk,
            link: Bandwidth::from_gbps(100),
            policy: if srpt { Policy::Srpt } else { Policy::Fcfs },
            max_active_per_pair: x,
            clock: edm_sched::ASIC_CLOCK,
        };
        let script = script_notifications(ports, &script);
        let expected = grants_polling_every_expiry(cfg, &script);
        let (exact, every_round_grants) = grants_polling_exact_wakeups(cfg, &script);
        prop_assert_eq!(exact, expected);
        prop_assert!(every_round_grants, "a round at an exact wake-up granted nothing");
    }

    /// Within one (src, dest) pair, messages are granted strictly in
    /// notification order (§3.1.1 property 5): each pair's grant stream
    /// starts message k only after message k-1 delivered its final chunk,
    /// regardless of policy or message sizes.
    #[test]
    fn per_pair_grants_are_fifo(
        msgs in proptest::collection::vec((0u16..6, 0u16..6, 1u32..3000), 1..60),
        srpt in any::<bool>(),
    ) {
        let ports = 6;
        let mut s = Scheduler::new(SchedulerConfig {
            ports,
            chunk_bytes: 256,
            link: Bandwidth::from_gbps(100),
            policy: if srpt { Policy::Srpt } else { Policy::Fcfs },
            max_active_per_pair: usize::MAX,
            clock: edm_sched::ASIC_CLOCK,
        });
        // Per-pair msg_id allocation in notification order.
        let mut next_id = std::collections::HashMap::new();
        for (i, &(src, dst, size)) in msgs.iter().enumerate() {
            let dst = if src == dst { (dst + 1) % ports as u16 } else { dst };
            let id = next_id.entry((src, dst)).or_insert(0u8);
            s.notify(Time::from_ns(i as u64), Notification::new(src, dst, *id, size))
                .expect("admitted");
            *id = id.wrapping_add(1);
        }
        // Drain, checking each pair's grant stream: chunks of message k
        // are contiguous and followed by message k+1.
        let mut now = Time::from_ns(msgs.len() as u64);
        let mut expect_id: std::collections::HashMap<(u16, u16), u8> =
            std::collections::HashMap::new();
        let mut rounds = 0;
        loop {
            let r = s.poll(now);
            for g in &r.grants {
                let cur = expect_id.entry((g.src, g.dest)).or_insert(0);
                prop_assert_eq!(
                    g.msg_id, *cur,
                    "pair ({}, {}) granted message {} while {} is in flight",
                    g.src, g.dest, g.msg_id, *cur
                );
                if g.is_final() {
                    *cur = cur.wrapping_add(1);
                }
            }
            match r.next_wakeup {
                Some(t) => now = t,
                None => break,
            }
            rounds += 1;
            prop_assert!(rounds < 100_000, "scheduler failed to drain");
        }
        // Every notified message completed, in order.
        for (pair, id) in next_id {
            prop_assert_eq!(expect_id.get(&pair).copied(), Some(id));
        }
    }

    /// The X bound is enforced exactly: the (X+1)-th concurrent
    /// notification for one pair is rejected, all others admitted.
    #[test]
    fn pair_limit_exact(x in 1usize..6, extra in 1usize..5) {
        let mut s = Scheduler::new(SchedulerConfig {
            ports: 4,
            chunk_bytes: 256,
            link: Bandwidth::from_gbps(100),
            policy: Policy::Srpt,
            max_active_per_pair: x,
            clock: edm_sched::ASIC_CLOCK,
        });
        for i in 0..x {
            prop_assert!(s
                .notify(Time::ZERO, Notification::new(0, 1, i as u8, 64))
                .is_ok());
        }
        for i in 0..extra {
            prop_assert!(s
                .notify(Time::ZERO, Notification::new(0, 1, (x + i) as u8, 64))
                .is_err());
        }
        // A different pair is unaffected.
        prop_assert!(s.notify(Time::ZERO, Notification::new(2, 3, 0, 64)).is_ok());
    }

    /// Every grant carries the tag its message was notified with. All
    /// messages share one msg_id, so only the tag tells same-pair
    /// messages apart: the model tracks each pair's admitted tags in
    /// notification order (head, then waiters), and a grant on a pair
    /// must name its head. Cancels by tag hit the head or a waiter, and
    /// a cancelled tag is never granted again.
    #[test]
    fn grant_tags_follow_their_message(
        x in 1usize..4,
        srpt in any::<bool>(),
        script in proptest::collection::vec(
            (0u8..3, 0u16..3, 0u16..3, 1u32..700, 0u64..40),
            1..120,
        ),
    ) {
        let ports = 3;
        let cfg = SchedulerConfig {
            ports,
            chunk_bytes: 256,
            link: Bandwidth::from_gbps(100),
            policy: if srpt { Policy::Srpt } else { Policy::Fcfs },
            max_active_per_pair: x,
            clock: edm_sched::ASIC_CLOCK,
        };
        let mut s = Scheduler::new(cfg);
        // Per pair: admitted, not fully granted tags with their
        // remaining bytes, in grant order.
        let mut pairs: HashMap<(u16, u16), VecDeque<(u32, u32)>> = HashMap::new();
        let mut cancelled = HashSet::new();
        let mut next_tag = 0u32;
        let mut now = Time::ZERO;
        let check = |grants: &[Grant],
                         pairs: &mut HashMap<(u16, u16), VecDeque<(u32, u32)>>,
                         cancelled: &HashSet<u32>|
         -> Result<(), TestCaseError> {
            for g in grants {
                prop_assert!(!cancelled.contains(&g.tag), "cancelled tag {} granted", g.tag);
                let queue = pairs.entry((g.src, g.dest)).or_default();
                let head = queue.front_mut().expect("grant on a pair with demand");
                prop_assert_eq!(g.tag, head.0, "grant names a message other than the head");
                prop_assert_eq!(g.remaining_after, head.1 - g.chunk_bytes);
                head.1 -= g.chunk_bytes;
                if g.is_final() {
                    queue.pop_front();
                }
            }
            Ok(())
        };
        for &(op, src, dst, size, dt) in &script {
            now += edm_sim::Duration::from_ns(dt);
            let src = src % ports as u16;
            let dst = dst % ports as u16;
            let dst = if src == dst { (src + 1) % ports as u16 } else { dst };
            match op {
                0 => {
                    let tag = next_tag;
                    next_tag += 1;
                    let n = Notification::new(src, dst, 0, size).with_tag(tag);
                    let admitted = s.notify(now, n).is_ok();
                    let queue = pairs.entry((src, dst)).or_default();
                    prop_assert_eq!(admitted, queue.len() < x, "X bound");
                    if admitted {
                        queue.push_back((tag, size));
                    }
                }
                1 => {
                    // Cancel a live tag of the pair (head or waiter), or
                    // an already finished or cancelled one.
                    let queue = pairs.entry((src, dst)).or_default();
                    let live = (size as usize) % (queue.len() + 1);
                    let target = match queue.get(live) {
                        Some(&(tag, _)) => tag,
                        None => size % next_tag.max(1),
                    };
                    let outcome = s.cancel_where(src, dst, |id, tag| {
                        assert_eq!(id, 0);
                        tag == target
                    });
                    match queue.iter().position(|&(tag, _)| tag == target) {
                        Some(i) => {
                            let (_, remaining) = queue.remove(i).expect("present");
                            prop_assert_eq!(outcome, CancelOutcome::Cancelled { remaining });
                            cancelled.insert(target);
                        }
                        None => prop_assert_eq!(outcome, CancelOutcome::NotQueued),
                    }
                }
                _ => {
                    let r = s.poll(now);
                    check(&r.grants, &mut pairs, &cancelled)?;
                }
            }
            // Each pair's count covers its head and waiters; only heads
            // are queued.
            for (&(a, b), queue) in &pairs {
                prop_assert_eq!(s.active_for_pair(a, b), queue.len(), "pair ({}, {})", a, b);
            }
            let heads = pairs.values().filter(|q| !q.is_empty()).count();
            prop_assert_eq!(s.pending_messages(), heads);
        }
        // Drain: every surviving tag is granted to completion.
        let mut rounds = 0;
        loop {
            let r = s.poll(now);
            check(&r.grants, &mut pairs, &cancelled)?;
            match r.next_wakeup {
                Some(t) => now = t,
                None => break,
            }
            rounds += 1;
            prop_assert!(rounds < 100_000, "drain did not converge");
        }
        prop_assert!(pairs.values().all(|q| q.is_empty()), "a live tag was never granted");
        prop_assert_eq!(s.pending_messages(), 0);
    }
}
