//! Multi-switch fabric sweep: leaf–spine size × oversubscription ×
//! background-IP fraction, on rack-aware memory traffic.
//!
//! For every point the harness reports the normalized mean/p99 MCT
//! (each flow normalized by its own locality's unloaded latency), the
//! reroute/failure counters, and the harness-side per-flow simulation
//! cost; the footer compares that cost against the legacy single-switch
//! path at equal load (the ISSUE 3 acceptance gate is ≤ 2×).
//!
//! Run: `cargo run --release -p edm-bench --bin topo_sweep`
//!
//! Optional env: `EDM_FLOWS` (default 2000), `EDM_LOAD` (default 0.6),
//! `EDM_LOCAL` (default 0.5, fraction of rack-local requests),
//! `EDM_SHARDS` (default 1: sequential engine; > 1 runs every point on
//! the sharded conservative engine — bit-identical results — and the
//! footer reports the sequential-vs-sharded A/B on the non-blocking
//! fabric).

use edm_bench::{env_knob, par_sweep, scenarios};
use edm_core::sim::{ClusterConfig, EdmProtocol, FabricProtocol, Flow, FlowKind};
use edm_sim::{Duration, Time};
use edm_topo::{IpTraffic, LeafSpine, TopoEdm, TopoEdmConfig, Topology};
use edm_workloads::SyntheticWorkload;

/// Per-(kind × locality) unloaded probes for normalization.
struct SoloTable {
    local_w: Duration,
    local_r: Duration,
    remote_w: Duration,
    remote_r: Duration,
}

impl SoloTable {
    fn measure(proto: &TopoEdm, topo: &Topology, spec: &LeafSpine) -> SoloTable {
        let half = spec.nodes_per_leaf / 2;
        let probe = |dst: usize, kind: FlowKind| {
            let f = Flow {
                id: 0,
                src: 0,
                dst,
                size: 64,
                arrival: Time::ZERO,
                kind,
            };
            proto.solo_mct(topo, &f).expect("pristine fabric routes")
        };
        SoloTable {
            local_w: probe(half, FlowKind::Write),
            local_r: probe(half, FlowKind::Read),
            remote_w: probe(spec.nodes_per_leaf + half, FlowKind::Write),
            remote_r: probe(spec.nodes_per_leaf + half, FlowKind::Read),
        }
    }

    fn solo(&self, spec: &LeafSpine, f: &Flow) -> Duration {
        let local = f.src / spec.nodes_per_leaf == f.dst / spec.nodes_per_leaf;
        match (local, f.kind) {
            (true, FlowKind::Write) => self.local_w,
            (true, FlowKind::Read) => self.local_r,
            (false, FlowKind::Write) => self.remote_w,
            (false, FlowKind::Read) => self.remote_r,
        }
    }
}

fn main() {
    let count: usize = env_knob("EDM_FLOWS", 2000);
    let load: f64 = env_knob("EDM_LOAD", 0.6);
    let local: f64 = env_knob("EDM_LOCAL", 0.5);
    let shards: usize = env_knob("EDM_SHARDS", 1);

    println!(
        "Leaf-spine sweep: 288 nodes (4 leaves x 72), 2 spines, load {load}, \
         {:.0}% rack-local, {count} flows, {} engine",
        local * 100.0,
        if shards > 1 {
            format!("{shards}-shard")
        } else {
            "sequential".to_string()
        }
    );
    println!();
    println!(
        "{:<22} {:>10} {:>10} {:>8} {:>8} {:>10} {:>12}",
        "oversub / IP load", "norm mean", "norm p99", "reroute", "failed", "IP frames", "us/flow"
    );

    let flows = scenarios::rack_flows_288(load, local, count);
    let points: Vec<(usize, f64)> = [1usize, 2, 4]
        .iter()
        .flat_map(|&o| [0.0, 0.25, 0.5].iter().map(move |&ip| (o, ip)))
        .collect();
    let rows = par_sweep(points.clone(), |(oversub, ip)| {
        let spec = scenarios::leaf_spine_288_spec(oversub);
        let topo = scenarios::leaf_spine_288(oversub);
        let proto = TopoEdm::new(TopoEdmConfig {
            ip: IpTraffic::load(ip),
            ..TopoEdmConfig::default()
        });
        let solos = SoloTable::measure(&proto, &topo, &spec);
        let t0 = std::time::Instant::now();
        let result = if shards > 1 {
            proto.simulate_sharded(&topo, &flows, shards)
        } else {
            proto.simulate(&topo, &flows)
        };
        let wall = t0.elapsed();
        let mut norm = result.normalized_mct(|f| solos.solo(&spec, f));
        format!(
            "{:<22} {:>10.3} {:>10.3} {:>8} {:>8} {:>10} {:>9.2} us",
            format!("{oversub}:1 / ip {:.2}", ip),
            norm.mean(),
            norm.percentile(99.0),
            result.reroutes,
            result.failed(),
            result.ip_frames,
            wall.as_secs_f64() * 1e6 / flows.len() as f64,
        )
    });
    for row in rows {
        println!("{row}");
    }

    // Footer: harness cost vs the legacy single-switch path at equal
    // load (best of 5 to shed scheduler/turbo noise).
    let best_of = |f: &mut dyn FnMut() -> usize| -> f64 {
        let mut best = f64::INFINITY;
        let mut n = 1;
        for _ in 0..5 {
            let t0 = std::time::Instant::now();
            n = f();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best * 1e6 / n as f64
    };
    let legacy_flows = SyntheticWorkload::paper_default(load, 0.5, count).generate(42);
    let cluster = ClusterConfig::default();
    let legacy_per_flow = best_of(&mut || {
        EdmProtocol::default()
            .simulate(&cluster, &legacy_flows)
            .outcomes
            .len()
    });
    let big_cluster = ClusterConfig {
        nodes: 288,
        ..ClusterConfig::default()
    };
    let big_legacy_per_flow = best_of(&mut || {
        EdmProtocol::default()
            .simulate(&big_cluster, &flows)
            .outcomes
            .len()
    });
    let topo = scenarios::leaf_spine_288(1);
    let proto = TopoEdm::default();
    let topo_per_flow = best_of(&mut || proto.simulate(&topo, &flows).outcomes.len());
    let events = proto.simulate(&topo, &flows).events;
    if shards > 1 {
        let par_per_flow =
            best_of(&mut || proto.simulate_sharded(&topo, &flows, shards).outcomes.len());
        println!();
        println!(
            "parallel DES A/B (non-blocking fabric): sequential {topo_per_flow:.2} us/flow, \
             {shards} shards {par_per_flow:.2} us/flow ({:.2}x speedup)",
            topo_per_flow / par_per_flow
        );
    }
    let one_switch = edm_topo::cluster_topology(&cluster);
    let framework_per_flow =
        best_of(&mut || proto.simulate(&one_switch, &legacy_flows).outcomes.len());
    println!();
    println!(
        "per-flow cost, same 288-node workload: single-switch path \
         {big_legacy_per_flow:.2} us, leaf-spine {topo_per_flow:.2} us \
         ({:.2}x; acceptance gate <= 2x at equal load), {:.1} events/flow",
        topo_per_flow / big_legacy_per_flow,
        events as f64 / flows.len() as f64,
    );
    println!(
        "reference: legacy 144n at the same load {legacy_per_flow:.2} us/flow; \
         topo framework on the same 1-switch cluster {framework_per_flow:.2} us/flow"
    );
    println!();
    println!(
        "expected shape: at 1:1 the fabric adds only per-hop latency \
         (norm mean close to the single-switch curve); oversubscription \
         concentrates cross-rack traffic on fewer trunks and inflates the \
         tail; background IP costs little with preemption (one 66-bit \
         block per crossing)."
    );
}
