//! Regenerates **Figure 8b**: mean message completion time (MCT) on
//! heavy-tailed disaggregated-application traces, normalized by the ideal
//! (solo) completion time per message, for all seven protocols.
//!
//! Run: `cargo run --release -p edm-bench --bin fig8b`
//!
//! Optional env: `EDM_FLOWS` (default 3000), `EDM_SEED` (default 42),
//! `EDM_LOAD` (default 0.8).

use edm_baselines::prelude::*;
use edm_bench::{env_knob, SoloCurve};
use edm_core::sim::{ClusterConfig, EdmProtocol, FlowKind};
use edm_sim::{Bandwidth, Summary};
use edm_workloads::AppTrace;

fn main() {
    let count: usize = env_knob("EDM_FLOWS", 3000);
    let seed: u64 = env_knob("EDM_SEED", 42);
    let load: f64 = env_knob("EDM_LOAD", 0.8);
    let cluster = ClusterConfig::default();
    let link = Bandwidth::from_gbps(100);

    println!("Figure 8b: normalized mean MCT on application traces (load {load})");
    println!();
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "application", "EDM", "IRD", "pFabric", "PFC", "DCTCP", "CXL", "Fastpass"
    );

    // One thread per (application, protocol) point: each point is an
    // independent simulation, so they fan out across cores. Each app's
    // trace is generated once and shared by its seven protocol points.
    let apps = AppTrace::all();
    let n_protocols = all_protocols().len();
    let traces: Vec<_> = apps
        .iter()
        .map(|app| app.generate(cluster.nodes, link, load, count, seed))
        .collect();
    let points: Vec<(usize, usize)> = (0..apps.len())
        .flat_map(|ai| (0..n_protocols).map(move |pi| (ai, pi)))
        .collect();
    let cells = edm_bench::par_sweep(points, |(ai, pi)| {
        let app = &apps[ai];
        let flows = &traces[ai];
        let max_size = app.cdf().max_value() as u32;
        let mut protocol = all_protocols().swap_remove(pi);
        let protocol = protocol.as_mut();
        let write_curve = SoloCurve::measure(protocol, &cluster, FlowKind::Write, max_size);
        let read_curve = SoloCurve::measure(protocol, &cluster, FlowKind::Read, max_size);
        let solo = |f: &edm_core::sim::Flow| {
            let ns = match f.kind {
                FlowKind::Write => write_curve.solo_ns(f.size),
                FlowKind::Read => read_curve.solo_ns(f.size),
            };
            edm_sim::Duration::from_ns_f64(ns)
        };
        let norm = if protocol.name() == "EDM" {
            // The EDM point streams the trace through the lazy-admission
            // path (bit-identical to the materialized run), retiring
            // flows as they complete instead of retaining every outcome.
            let mut norm = Summary::new();
            EdmProtocol::default().simulate_streamed(&cluster, flows.iter().copied(), |o| {
                norm.record(o.mct().ratio(solo(&o.flow)));
            });
            norm
        } else {
            protocol.simulate(&cluster, flows).normalized_mct(solo)
        };
        format!("{:.2}", norm.mean())
    });
    for (ai, app) in apps.iter().enumerate() {
        print!("{:<22}", app.name());
        for c in &cells[ai * n_protocols..(ai + 1) * n_protocols] {
            print!(" {c:>9}");
        }
        println!();
    }
    println!();
    println!(
        "paper shape: EDM 1.26-1.47x ideal (best); CXL and Fastpass \
         degrade most (HOL blocking / control bottleneck), with CXL MCT up \
         to ~8x EDM's."
    );
}
