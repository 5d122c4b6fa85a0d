//! Chaos campaign: seeded fault/repair schedules against the streamed
//! 288-node leaf–spine fabric, across load points.
//!
//! Four scenarios — single-link flaps, a spine kill with revival,
//! rolling rack outages, and correlated optics degradation — each derive
//! a deterministic schedule from the workload's arrival span and a seed
//! (see [`edm_bench::faults`]). Every (scenario, load) point streams its
//! flows with bounded retries, folding outcomes into windowed
//! [`Availability`] counters, and reports recovery time after the first
//! incident, goodput-under-failure, and the failed/retried/re-admitted
//! tallies. Points run sequentially so the process peak RSS bounds the
//! resident footprint of a single streamed fault run.
//!
//! Run:
//!   `cargo run --release -p edm-bench --bin chaos_sweep [-- --out DIR]`
//!
//! Env:
//!   `EDM_FLOWS` — flows per point (default 50,000)
//!   `EDM_SHARDS` — shard count (default 1, sequential)
//!   `EDM_SEED` — schedule seed (default 42)
//!   `EDM_RSS_CEILING_MB` — optional gate: exit non-zero if the process
//!   peak RSS (`VmHWM`) exceeds this many MB after the campaign
//!
//! Writes `BENCH_faults.json` into `--out DIR` (default `.`).

use edm_bench::mem::peak_rss_kb;
use edm_bench::{env_knob, env_knob_opt, faults, row, scenarios};
use edm_sim::{Availability, Duration, Time};
use edm_topo::{FaultEvent, FlowStatus, TopoEdm, TopoEdmConfig, Topology};

struct Point {
    scenario: &'static str,
    load: f64,
    delivered: u64,
    failed: u64,
    reroutes: u64,
    retried: u64,
    readmitted: u64,
    active_hwm: usize,
    goodput_bytes: u64,
    availability: f64,
    recovery: Option<Duration>,
}

/// Streams one (scenario, load) point and folds its outcomes.
fn run_point(
    topo: &Topology,
    scenario: &'static str,
    load: f64,
    flows: usize,
    shards: usize,
    schedule: Vec<FaultEvent>,
) -> Point {
    let incident = faults::first_incident(&schedule).expect("chaos schedules inject faults");
    let wl = scenarios::rack_workload_288(load, 0.5, flows);
    let proto = TopoEdm::new(TopoEdmConfig {
        faults: schedule,
        max_retries: 3,
        ..TopoEdmConfig::default()
    });
    let mut avail = Availability::new(Duration::from_us(10));
    let mut goodput_bytes = 0u64;
    let sink = |o: edm_topo::TopoOutcome| match o.status {
        FlowStatus::Delivered(at) => {
            avail.record_delivery(at);
            goodput_bytes += o.flow.size as u64;
        }
        FlowStatus::Failed(at) => avail.record_failure(at),
    };
    let stats = if shards > 1 {
        proto.simulate_sharded_streamed(topo, wl.source(42), sink, shards)
    } else {
        proto.simulate_streamed(topo, wl.source(42), sink)
    };
    Point {
        scenario,
        load,
        delivered: stats.delivered,
        failed: stats.failed,
        reroutes: stats.reroutes,
        retried: stats.retried,
        readmitted: stats.readmitted,
        active_hwm: stats.active_high_water,
        goodput_bytes,
        availability: avail.availability(),
        recovery: avail.recovery_after(incident),
    }
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

    let flows: usize = env_knob("EDM_FLOWS", 50_000);
    let shards: usize = env_knob("EDM_SHARDS", 1);
    let seed: u64 = env_knob("EDM_SEED", 42);
    let ceiling_mb: Option<u64> = env_knob_opt("EDM_RSS_CEILING_MB");

    let topo = scenarios::leaf_spine_288(1);
    println!(
        "chaos_sweep: 288-node leaf-spine, {flows} flows per point on \
         {shards} shard(s), seed {seed}\n"
    );

    let loads = [0.4, 0.7];
    let mut points = Vec::new();
    for &load in &loads {
        // The schedule anchors to this load's own arrival span so every
        // incident lands mid-stream.
        let span = scenarios::rack_workload_288(load, 0.5, flows)
            .source(42)
            .last()
            .expect("non-empty workload")
            .arrival
            .saturating_since(Time::ZERO);
        let schedules: [(&'static str, Vec<FaultEvent>); 4] = [
            (
                "link_flaps",
                faults::single_link_flaps(&topo, span, 3, seed),
            ),
            (
                "spine_kill_revive",
                faults::spine_kill_revive(&topo, span, seed),
            ),
            ("rolling_racks", faults::rolling_rack_outages(&topo, span)),
            (
                "correlated_degrade",
                faults::correlated_degradation(&topo, span, Duration::from_us(1), seed),
            ),
        ];
        for (name, schedule) in schedules {
            points.push(run_point(&topo, name, load, flows, shards, schedule));
        }
    }

    row(
        "",
        &[
            "load",
            "delivered",
            "failed",
            "reroutes",
            "retried",
            "readmit",
            "avail",
            "recovery",
        ]
        .map(String::from),
    );
    for p in &points {
        row(
            p.scenario,
            &[
                format!("{:.1}", p.load),
                p.delivered.to_string(),
                p.failed.to_string(),
                p.reroutes.to_string(),
                p.retried.to_string(),
                p.readmitted.to_string(),
                format!("{:.4}", p.availability),
                p.recovery
                    .map(edm_bench::ns)
                    .unwrap_or_else(|| "none".into()),
            ],
        );
    }

    let rss_kb = peak_rss_kb();
    let mut json = String::from("{\n  \"group\": \"faults\",\n");
    json.push_str(&format!(
        "  \"flows_per_point\": {flows},\n  \"shards\": {shards},\n  \"seed\": {seed},\n"
    ));
    json.push_str(&format!(
        "  \"peak_rss_kb\": {},\n  \"points\": [\n",
        rss_kb
            .map(|v| v.to_string())
            .unwrap_or_else(|| "null".into())
    ));
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"load\": {:.1}, \"delivered\": {}, \
             \"failed\": {}, \"reroutes\": {}, \"retried\": {}, \
             \"readmitted\": {}, \"active_flow_hwm\": {}, \
             \"goodput_bytes\": {}, \"availability\": {:.4}, \
             \"recovery_us\": {}}}{}\n",
            p.scenario,
            p.load,
            p.delivered,
            p.failed,
            p.reroutes,
            p.retried,
            p.readmitted,
            p.active_hwm,
            p.goodput_bytes,
            p.availability,
            p.recovery
                .map(|d| format!("{:.2}", d.as_ns_f64() / 1000.0))
                .unwrap_or_else(|| "null".into()),
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let path = out_dir.join("BENCH_faults.json");
    std::fs::write(&path, &json).expect("write campaign file");
    println!("\nwrote {}", path.display());

    if let Some(mb) = ceiling_mb {
        let peak_kb = rss_kb.expect("RSS gate needs procfs");
        if peak_kb > mb * 1024 {
            eprintln!(
                "FAIL: peak RSS {:.1} MB exceeds EDM_RSS_CEILING_MB={mb}",
                peak_kb as f64 / 1024.0
            );
            std::process::exit(1);
        }
        println!(
            "RSS gate: peak {:.1} MB within {mb} MB ceiling",
            peak_kb as f64 / 1024.0
        );
    }
}
