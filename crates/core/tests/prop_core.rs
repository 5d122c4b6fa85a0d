//! Property-based tests for the core fabric: message codec round-trips,
//! end-to-end data integrity over the testbed, and simulator invariants.

use edm_core::message::MemOp;
use edm_core::sim::{
    ClusterConfig, DomainGrant, DomainOffer, EdmProtocol, FabricProtocol, Flow, FlowKind,
    SwitchDomain,
};
use edm_core::testbed::{Fabric, TestbedConfig};
use edm_memory::rmw::RmwOp;
use edm_sched::SchedulerConfig;
use edm_sim::Time;
use proptest::prelude::*;
use std::collections::HashMap;

/// Ports of the domain the churn property drives: three ports give six
/// pairs, so same-pair waiters and backlogs are common.
const DOMAIN_PORTS: u16 = 3;

/// What a churn script did to its offers.
struct ChurnLog {
    /// `(token, bytes)` per completion, in completion order.
    completed: Vec<(u64, u32)>,
    /// Tokens whose cancel succeeded.
    cancelled: Vec<u64>,
    /// `(src, dst, bytes)` per offer; the token is the index.
    offers: Vec<(u16, u16, u32)>,
}

/// Folds a requested poll instant into the earliest pending one.
fn want(poll_at: &mut Option<Time>, at: Option<Time>) {
    if let Some(t) = at {
        *poll_at = Some(poll_at.map_or(t, |p| p.min(t)));
    }
}

/// Runs the pending scheduling round, if any, no earlier than `now`;
/// its grants join `in_flight`.
fn poll(
    dom: &mut SwitchDomain,
    now: &mut Time,
    poll_at: &mut Option<Time>,
    in_flight: &mut Vec<DomainGrant>,
) {
    if let Some(t) = poll_at.take() {
        *now = (*now).max(t);
        let (grants, _, next) = dom.poll(*now);
        in_flight.extend_from_slice(grants);
        *poll_at = next;
    }
}

/// Drives one [`SwitchDomain`] through a script of offers, cancels,
/// scheduling rounds and chunk deliveries, then drains it. Rounds run at
/// the instants the domain asks for; each pair's chunks are delivered in
/// grant order, with pairs interleaved by the script.
fn run_domain_churn(x: usize, batch: bool, script: &[(u8, u16, u16, u32)]) -> ChurnLog {
    let mut dom = SwitchDomain::new(
        SchedulerConfig::default_for_ports(DOMAIN_PORTS as usize),
        batch,
    );
    let mut log = ChurnLog {
        completed: Vec::new(),
        cancelled: Vec::new(),
        offers: Vec::new(),
    };
    let mut in_flight: Vec<DomainGrant> = Vec::new();
    let mut now = Time::ZERO;
    let mut poll_at: Option<Time> = None;
    for &(op, a, b, size) in script {
        now += edm_sim::Duration::from_ns(a as u64 % 7);
        match op % 4 {
            0 => {
                let src = a % DOMAIN_PORTS;
                let dst = (src + 1 + b % (DOMAIN_PORTS - 1)) % DOMAIN_PORTS;
                let token = log.offers.len() as u64;
                log.offers.push((src, dst, size));
                let at = dom.offer(
                    now,
                    DomainOffer {
                        src,
                        dst,
                        bytes: size,
                        limit: x,
                        batch_key: 0,
                        token,
                    },
                );
                want(&mut poll_at, at);
            }
            1 if !log.offers.is_empty() => {
                let token = b as u64 % log.offers.len() as u64;
                let (src, dst, _) = log.offers[token as usize];
                if dom.cancel(now, src, dst, token) {
                    log.cancelled.push(token);
                    want(&mut poll_at, Some(now));
                }
            }
            2 => poll(&mut dom, &mut now, &mut poll_at, &mut in_flight),
            _ => {
                // Deliver the oldest in-flight chunk of some pair.
                if let Some(g) = in_flight.get(b as usize % in_flight.len().max(1)).copied() {
                    let i = in_flight
                        .iter()
                        .position(|f| (f.src, f.dst) == (g.src, g.dst))
                        .expect("present");
                    let g = in_flight.remove(i);
                    let at = dom.deliver(now, g.slot, g.chunk_bytes, |t, b| {
                        log.completed.push((t, b))
                    });
                    want(&mut poll_at, at);
                }
            }
        }
    }
    // Drain: deliver everything in flight, poll whenever asked.
    loop {
        for g in std::mem::take(&mut in_flight) {
            let at = dom.deliver(now, g.slot, g.chunk_bytes, |t, b| {
                log.completed.push((t, b))
            });
            want(&mut poll_at, at);
        }
        if poll_at.is_none() {
            break;
        }
        poll(&mut dom, &mut now, &mut poll_at, &mut in_flight);
    }
    assert!(!dom.has_demand(), "demand left after the drain");
    assert_eq!(dom.msg_slots_live(), 0, "the message slab drains to empty");
    log
}

proptest! {
    /// MemOp serialization round-trips for arbitrary field values.
    #[test]
    fn memop_roundtrip(
        addr in any::<u64>(),
        len in 1u32..1_000_000,
        data in proptest::collection::vec(any::<u8>(), 0..512),
        operand in any::<u64>(),
    ) {
        for op in [
            MemOp::Read { addr, len },
            MemOp::Write { addr, data: data.clone() },
            MemOp::Rmw { addr, op: RmwOp::FetchAdd(operand) },
            MemOp::Rmw {
                addr,
                op: RmwOp::CompareAndSwap { expected: operand, desired: !operand },
            },
            MemOp::ReadResponse { data: data.clone() },
        ] {
            let bytes = op.to_bytes();
            prop_assert_eq!(MemOp::from_bytes(&bytes).expect("roundtrip"), op);
            // Truncation of the serialized form must error, not panic or
            // succeed wrongly.
            if bytes.len() > 1 {
                prop_assert!(MemOp::from_bytes(&bytes[..bytes.len() - 1]).is_err());
            }
        }
    }

    /// Arbitrary remote writes followed by reads over the functional
    /// testbed return exactly the written bytes (data integrity through
    /// chunking, scheduling, and the switch).
    #[test]
    fn testbed_write_read_integrity(
        addr in 0u64..1_000_000,
        data in proptest::collection::vec(any::<u8>(), 1..2048),
    ) {
        let mut f = Fabric::new(TestbedConfig::default());
        let len = data.len() as u32;
        let w = f.write(Time::ZERO, 0, 1, addr, data.clone());
        let r = f.read(Time::from_us(50), 0, 1, addr, len);
        f.run();
        prop_assert!(f.completion(w).is_some());
        prop_assert_eq!(&f.completion(r).expect("read done").data, &data);
    }

    /// Every flow offered to the EDM cluster simulator completes, after
    /// its arrival, with byte-conservation implied by completion.
    #[test]
    fn edm_sim_all_flows_complete(
        specs in proptest::collection::vec((0usize..8, 8usize..16, 1u32..4096, 0u64..10_000, any::<bool>()), 1..40)
    ) {
        let cluster = ClusterConfig { nodes: 16, ..ClusterConfig::default() };
        let flows: Vec<Flow> = specs
            .iter()
            .enumerate()
            .map(|(id, &(src, dst, size, at, is_write))| Flow {
                id,
                src,
                dst,
                size,
                arrival: Time::from_ns(at),
                kind: if is_write { FlowKind::Write } else { FlowKind::Read },
            })
            .collect();
        let result = EdmProtocol::default().simulate(&cluster, &flows);
        prop_assert_eq!(result.outcomes.len(), flows.len());
        for o in &result.outcomes {
            prop_assert!(o.completed > o.flow.arrival, "completion before arrival");
            // Nothing can beat pure serialization of its own bytes.
            let floor = cluster.link.tx_time_bytes(o.flow.size as u64);
            prop_assert!(o.mct() >= floor, "MCT below serialization floor");
        }
    }

    /// The testbed's unloaded latency is insensitive to payload content
    /// and deterministic across runs (bit-for-bit reproducibility).
    #[test]
    fn testbed_deterministic(fill in any::<u8>()) {
        let run = |fill: u8| {
            let mut f = Fabric::new(TestbedConfig::default());
            f.seed_memory(1, 0x100, &[fill; 64]);
            let id = f.read(Time::ZERO, 0, 1, 0x100, 64);
            f.run();
            f.completion(id).expect("done").latency()
        };
        let a = run(fill);
        let b = run(fill);
        let c = run(fill.wrapping_add(1));
        prop_assert_eq!(a, b, "same input must reproduce exactly");
        prop_assert_eq!(a, c, "latency must not depend on payload bits");
    }

    /// A switch domain under random offers, cancels and deliveries keeps
    /// its books: every offer either completes exactly once, with its own
    /// bytes, or was cancelled and never completes; completions within a
    /// pair arrive in offer order; and the message slab drains to empty.
    #[test]
    fn domain_churn_completes_or_cancels_every_offer(
        x in 1usize..4,
        batch in any::<bool>(),
        script in proptest::collection::vec(
            (0u8..4, any::<u16>(), any::<u16>(), 1u32..1200),
            1..120,
        ),
    ) {
        let log = run_domain_churn(x, batch, &script);
        let mut times = HashMap::new();
        for &(token, bytes) in &log.completed {
            *times.entry(token).or_insert(0) += 1;
            prop_assert_eq!(bytes, log.offers[token as usize].2, "token {} bytes", token);
        }
        for token in 0..log.offers.len() as u64 {
            let completed = times.get(&token).copied().unwrap_or(0);
            let cancelled = log.cancelled.iter().filter(|&&t| t == token).count();
            prop_assert_eq!(
                completed + cancelled, 1,
                "token {} completed {} times, cancelled {} times", token, completed, cancelled
            );
        }
        let mut last: HashMap<(u16, u16), u64> = HashMap::new();
        for &(token, _) in &log.completed {
            let (src, dst, _) = log.offers[token as usize];
            if let Some(&prev) = last.get(&(src, dst)) {
                prop_assert!(prev < token, "pair ({}, {}): {} after {}", src, dst, token, prev);
            }
            last.insert((src, dst), token);
        }
    }
}
