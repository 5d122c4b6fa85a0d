//! Machine-readable performance baselines: times the hot-path benchmark
//! set with `std::time::Instant` and emits `BENCH_<group>.json` files so
//! future PRs can diff numbers instead of eyeballing criterion output.
//!
//! Run:
//!   `cargo run --release -p edm-bench --bin bench_json [-- --out DIR]`
//!
//! Optional env: `EDM_BENCH_ITERS` (samples per benchmark, default 20)
//! and `EDM_MEM_FLOWS` (scale of the `mem` group's streaming run,
//! default 50,000 — the committed `BENCH_mem.json` comes from the
//! dedicated `million_flows` binary at full 1M scale). The `app` group
//! likewise runs at smoke scale here; the committed `BENCH_app.json`
//! comes from the `app_sweep` binary at the full grid.
//!
//! Each `BENCH_<group>.json` holds `{"group", "unit", "results": [{"name",
//! "min_ns", "mean_ns", "iters"}]}` — minima are the regression-tracking
//! signal (means absorb machine noise). `BENCH_mem.json` (group `mem`)
//! instead reports the streaming-lifecycle memory benchmark: peak RSS,
//! active-flow high-water marks, and streamed-vs-exact tail percentiles.

use edm_baselines::prelude::*;
use edm_bench::hold;
use edm_bench::scenarios;
use edm_core::sim::{ClusterConfig, EdmProtocol, FabricProtocol};
use edm_sched::scheduler::{Scheduler, SchedulerConfig};
use edm_sim::{BinaryHeapEventQueue, Duration, EventQueue, Time};
use edm_topo::{IpTraffic, TopoEdm, TopoEdmConfig};
use std::hint::black_box;
use std::time::Instant;

/// One measured benchmark.
struct Entry {
    name: String,
    min_ns: f64,
    mean_ns: f64,
    iters: usize,
}

/// Runs `f` for `iters` samples (after one warm-up) and aggregates the
/// per-sample nanoseconds it returns — so setup inside `f` can be excluded
/// from its own timing.
fn measure<F: FnMut() -> f64>(name: &str, iters: usize, mut f: F) -> Entry {
    f(); // warm-up: page in code and data
    let mut min = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..iters {
        let ns = f();
        min = min.min(ns);
        total += ns;
    }
    Entry {
        name: name.to_string(),
        min_ns: min,
        mean_ns: total / iters as f64,
        iters,
    }
}

/// Times one call of `f`, returning elapsed nanoseconds.
fn timed<R, F: FnOnce() -> R>(f: F) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_nanos() as f64
}

fn write_group(dir: &std::path::Path, group: &str, entries: &[Entry]) {
    let mut json = String::new();
    json.push_str(&format!(
        "{{\n  \"group\": \"{group}\",\n  \"unit\": \"ns_per_iter\",\n  \"results\": [\n"
    ));
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"min_ns\": {:.1}, \"mean_ns\": {:.1}, \"iters\": {}}}{comma}\n",
            e.name, e.min_ns, e.mean_ns, e.iters
        ));
    }
    json.push_str("  ]\n}\n");
    let path = dir.join(format!("BENCH_{group}.json"));
    std::fs::write(&path, json).expect("write baseline file");
    println!("wrote {}", path.display());
}

fn fig8_group(iters: usize) -> Vec<Entry> {
    let cluster = ClusterConfig::default();
    let w500 = scenarios::fig8_flows(500);
    let mut out = Vec::new();
    out.push(measure("fig8/simulate_500_flows/EDM", iters, || {
        timed(|| {
            EdmProtocol::default()
                .simulate(&cluster, &w500)
                .outcomes
                .len()
        })
    }));
    out.push(measure("fig8/simulate_500_flows/IRD", iters, || {
        timed(|| {
            IrdProtocol::default()
                .simulate(&cluster, &w500)
                .outcomes
                .len()
        })
    }));
    out.push(measure("fig8/simulate_500_flows/DCTCP", iters, || {
        timed(|| {
            QueueFabric::new(QueueConfig::dctcp())
                .simulate(&cluster, &w500)
                .outcomes
                .len()
        })
    }));
    out.push(measure("fig8/simulate_500_flows/CXL", iters, || {
        timed(|| {
            CxlProtocol::default()
                .simulate(&cluster, &w500)
                .outcomes
                .len()
        })
    }));
    // The demand-sparse regime: ports ≫ active flows.
    for flows in [2usize, 16] {
        let w = scenarios::sparse_flows(flows);
        out.push(measure(
            &format!("fig8/simulate_{flows}_flows/EDM"),
            iters,
            || timed(|| EdmProtocol::default().simulate(&cluster, &w).outcomes.len()),
        ));
    }
    out
}

fn sched_group(iters: usize) -> Vec<Entry> {
    let mut out = Vec::new();
    // Dense grant round: 200 random notifications over 144 ports (the
    // criterion `sched/grant_round_144_ports` scenario; setup excluded).
    out.push(measure("sched/grant_round_144_ports", iters, || {
        let mut s = scenarios::grant_round_scheduler();
        timed(|| s.poll(Time::ZERO).grants.len())
    }));
    // Steady-state sparse polls: k disjoint single-chunk flows per round,
    // amortized over an inner batch so timer overhead stays negligible.
    const BATCH: u32 = 64;
    for &(ports, flows) in &[(144usize, 2usize), (144, 16), (512, 2), (512, 16)] {
        let mut s = Scheduler::new(SchedulerConfig::default_for_ports(ports));
        let mut now = Time::ZERO;
        let step = Duration::from_ns(100);
        out.push(measure(
            &format!("sched/sparse_poll/{ports}_ports_{flows}_flows"),
            iters,
            || {
                let ns = timed(|| {
                    for _ in 0..BATCH {
                        black_box(scenarios::sparse_poll_round(&mut s, now, flows));
                        now += step;
                    }
                });
                ns / BATCH as f64
            },
        ));
    }
    out
}

/// Per-op nanoseconds of the shared hold-model loop ([`edm_bench::hold`],
/// the same workload the `sim/event_queue` criterion group times) at a
/// steady queue size `n`.
fn hold_entry<Q: hold::Queue>(name: &str, n: usize, iters: usize) -> Entry {
    const HOLD_OPS: usize = 4_096;
    let (mut q, mut rng) = hold::prefill::<Q>(n);
    measure(name, iters, move || {
        let ns = timed(|| black_box(hold::run(&mut q, &mut rng, HOLD_OPS)));
        ns / HOLD_OPS as f64
    })
}

fn sim_group(iters: usize) -> Vec<Entry> {
    let mut out = Vec::new();
    for &n in &[1_024usize, 16_384] {
        out.push(hold_entry::<EventQueue<u64>>(
            &format!("sim/event_queue/calendar_hold/{n}"),
            n,
            iters,
        ));
        out.push(hold_entry::<BinaryHeapEventQueue<u64>>(
            &format!("sim/event_queue/binary_heap_hold/{n}"),
            n,
            iters,
        ));
    }
    out
}

fn topo_group(iters: usize) -> Vec<Entry> {
    let mut out = Vec::new();
    // Degenerate 1-switch fabric on the fig8 scenario: the framework
    // overhead against `fig8/simulate_500_flows/EDM` (bit-identical
    // results, pinned by proptest).
    let cluster = ClusterConfig::default();
    let one = edm_topo::cluster_topology(&cluster);
    let w500 = scenarios::fig8_flows(500);
    out.push(measure("topo/single_switch_144/500_flows", iters, || {
        timed(|| TopoEdm::default().simulate(&one, &w500).delivered())
    }));
    // 288 nodes as 4 leaves × 72 with 2 spines, rack-aware traffic at
    // load 0.6 with 50% rack-local requests.
    let flows = scenarios::rack_flows_288(0.6, 0.5, 500);
    for (name, oversub, ip) in [
        ("topo/leaf_spine_288/500_flows", 1usize, 0.0),
        ("topo/leaf_spine_288_oversub4/500_flows", 4, 0.0),
        ("topo/leaf_spine_288_ip25/500_flows", 1, 0.25),
    ] {
        let topo = scenarios::leaf_spine_288(oversub);
        let proto = TopoEdm::new(TopoEdmConfig {
            ip: IpTraffic::load(ip),
            ..TopoEdmConfig::default()
        });
        out.push(measure(name, iters, || {
            timed(|| proto.simulate(&topo, &flows).delivered())
        }));
    }
    // The acceptance comparison's denominator: the single-switch path on
    // the same 288-node workload (leaf-spine must stay within 2×).
    let big = ClusterConfig {
        nodes: 288,
        ..ClusterConfig::default()
    };
    out.push(measure(
        "topo/single_switch_288_same_workload/500_flows",
        iters,
        || timed(|| EdmProtocol::default().simulate(&big, &flows).outcomes.len()),
    ));
    out
}

/// Parallel conservative DES: the 288-node leaf–spine acceptance
/// workload, sequential vs sharded. The first entry is the sequential
/// baseline, then one entry per shard count.
fn par_group(iters: usize) -> Vec<Entry> {
    let topo = scenarios::leaf_spine_288(1);
    let flows = scenarios::rack_flows_288(0.6, 0.5, 2000);
    let proto = TopoEdm::default();
    let mut out = vec![measure("par/leaf_spine_288_2000/sequential", iters, || {
        timed(|| proto.simulate(&topo, &flows).delivered())
    })];
    for shards in [2usize, 4] {
        out.push(measure(
            &format!("par/leaf_spine_288_2000/shards_{shards}"),
            iters,
            || timed(|| proto.simulate_sharded(&topo, &flows, shards).delivered()),
        ));
    }
    out
}

/// Writes `BENCH_par.json`: plain `ns_per_iter` rows (schema-compatible
/// with every other group, so min-merging tools stay correct) plus a
/// separate typed `speedup_vs_sequential` map of unit-less ratios
/// (sequential time / sharded time; ≤ 1 on a single-core machine, the
/// ≥ 2x acceptance target needs real cores).
fn write_par_group(dir: &std::path::Path, entries: &[Entry]) {
    let seq = &entries[0];
    let mut json = String::new();
    json.push_str("{\n  \"group\": \"par\",\n  \"unit\": \"ns_per_iter\",\n  \"results\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"min_ns\": {:.1}, \"mean_ns\": {:.1}, \"iters\": {}}}{comma}\n",
            e.name, e.min_ns, e.mean_ns, e.iters
        ));
    }
    json.push_str("  ],\n  \"speedup_vs_sequential\": {\n");
    let shard_rows: Vec<&Entry> = entries[1..].iter().collect();
    for (i, e) in shard_rows.iter().enumerate() {
        let comma = if i + 1 < shard_rows.len() { "," } else { "" };
        let label = e.name.rsplit('/').next().expect("named entry");
        json.push_str(&format!(
            "    \"{label}\": {{\"min\": {:.3}, \"mean\": {:.3}}}{comma}\n",
            seq.min_ns / e.min_ns,
            seq.mean_ns / e.mean_ns
        ));
    }
    json.push_str("  }\n}\n");
    let path = dir.join("BENCH_par.json");
    std::fs::write(&path, json).expect("write baseline file");
    println!("wrote {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let iters: usize = edm_bench::env_knob("EDM_BENCH_ITERS", 20);

    write_group(&out_dir, "sim", &sim_group(iters));
    write_group(&out_dir, "fig8", &fig8_group(iters));
    write_group(&out_dir, "sched", &sched_group(iters));
    write_group(&out_dir, "topo", &topo_group(iters));
    write_par_group(&out_dir, &par_group(iters));
    let mem_flows: usize = edm_bench::env_knob("EDM_MEM_FLOWS", 50_000);
    edm_bench::mem::measure(mem_flows, 1).write(&out_dir);
    // The app group at smoke scale (the committed BENCH_app.json comes
    // from the dedicated `app_sweep` binary at the full grid).
    edm_bench::app::measure(edm_bench::app::AppScale::smoke()).write(&out_dir);
}
