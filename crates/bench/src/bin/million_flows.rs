//! Streaming-lifecycle memory benchmark: a million-flow multi-switch run
//! in bounded RSS.
//!
//! Drives the 288-node leaf–spine fabric with rack-aware traffic pulled
//! lazily from a streaming [`FlowSource`], folding per-flow MCTs into a
//! ~30 KB log-bucketed histogram as flows retire — so resident memory
//! tracks the *active*-flow population while the total flow count scales
//! to millions. A baseline run at a tenth of the scale demonstrates the
//! flatness (10× the flows, same high-water marks) and pins the streamed
//! tail percentiles to an exact retained-sample oracle.
//!
//! Run:
//!   `cargo run --release -p edm-bench --bin million_flows [-- --out DIR]`
//!
//! Env:
//!   `EDM_FLOWS` — total flows for the full run (default 1,000,000)
//!   `EDM_SHARDS` — shard count for both runs (default 1, sequential)
//!   `EDM_FAULTS` — set to `1` to inject a mid-run spine flap (down at
//!   half the baseline arrival span, back up at three quarters) into
//!   both runs, so the flatness and RSS gates also cover the fault path
//!   `EDM_RSS_CEILING_MB` — optional gate: exit non-zero if the process
//!   peak RSS (`VmHWM`) exceeds this many MB after the full run
//!
//! Writes `BENCH_mem.json` into `--out DIR` (default `.`).
//!
//! [`FlowSource`]: edm_workloads::FlowSource

use edm_bench::{env_knob, env_knob_opt, mem, row};
use edm_sim::LogHistogram;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    let flows: usize = env_knob("EDM_FLOWS", 1_000_000);
    let shards: usize = env_knob("EDM_SHARDS", 1);
    let with_faults = env_knob::<usize>("EDM_FAULTS", 0) != 0;
    let ceiling_mb: Option<u64> = env_knob_opt("EDM_RSS_CEILING_MB");

    let faults = if with_faults {
        let topo = edm_bench::scenarios::leaf_spine_288(1);
        edm_bench::faults::mid_run_spine_flap(&topo, mem::baseline_span(flows))
    } else {
        Vec::new()
    };
    println!(
        "million_flows: 288-node leaf-spine, rack-aware load 0.6, \
         {flows} flows streamed on {shards} shard(s){}\n",
        if with_faults {
            " with a mid-run spine flap"
        } else {
            ""
        }
    );
    let report = mem::measure_with(flows, shards, &faults);

    let fmt_rss = |kb: Option<u64>| {
        kb.map(|v| format!("{:.1} MB", v as f64 / 1024.0))
            .unwrap_or_else(|| "n/a".into())
    };
    row(
        "",
        &["flows", "active_hwm", "msg_slots", "peak_rss"].map(String::from),
    );
    for (label, run) in [("baseline", &report.baseline), ("full", &report.full)] {
        row(
            label,
            &[
                run.flows.to_string(),
                run.stats.active_high_water.to_string(),
                run.stats.msg_slots_high_water.to_string(),
                fmt_rss(run.peak_rss_kb),
            ],
        );
    }
    println!(
        "\nfull run: {} delivered, {} failed, {} retried, {} readmitted, {} events",
        report.full.stats.delivered,
        report.full.stats.failed,
        report.full.stats.retried,
        report.full.stats.readmitted,
        report.full.stats.events
    );
    println!(
        "streamed MCT: p50 {:.1} ns, p99 {:.1} ns, p99.9 {:.1} ns, p99.99 {:.1} ns",
        report.full.percentile_ns(50.0),
        report.full.percentile_ns(99.0),
        report.full.percentile_ns(99.9),
        report.full.percentile_ns(99.99),
    );
    println!(
        "accuracy (baseline scale): exact p99 {:.1} ns vs streamed {:.1} ns \
         (bound {:.2}%)",
        report.exact_ns[1],
        report.streamed_ns[1],
        LogHistogram::MAX_RELATIVE_ERROR * 100.0
    );

    report.write(&out_dir);

    if let Some(mb) = ceiling_mb {
        let peak_kb = report.full.peak_rss_kb.expect("RSS gate needs procfs");
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
