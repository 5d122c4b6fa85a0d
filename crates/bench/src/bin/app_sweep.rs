//! Closed-loop application sweep: tenant-driven YCSB over the 288-node
//! leaf–spine, EDM vs CXL-over-Ethernet, plus the EDAN-style slowdown
//! grid → `BENCH_app.json`.
//!
//! Run:
//!   `cargo run --release -p edm-bench --bin app_sweep [-- --out DIR]`
//!
//! Env:
//!   `EDM_APP_TENANTS` — closed-loop tenants (default 24)
//!   `EDM_APP_OPS` — ops per tenant (default 200)
//!   `EDM_APP_SHARDS` — shard count per run (default 1, sequential;
//!   any value produces bit-identical results, pinned by `prop_app`)
//!   `EDM_APP_GRID` — `full` (default: 5 MLPs × 3 splits × 2 loads) or
//!   `smoke` (3 × 2 × 1 at reduced tenant/op counts, for CI)
//!   `EDM_RSS_CEILING_MB` — optional gate: exit non-zero if process
//!   peak RSS exceeds this many MB after the sweep
//!
//! The sweep *asserts* the acceptance envelope before writing: every op
//! completes (healthy fabric), residency stays inside the summed MLP
//! windows (O(active ops) memory), and EDM beats CXL-oE on both median
//! latency and sustained rate on the identical topology.

use edm_bench::app::{measure, AppScale};
use edm_bench::{env_knob, env_knob_opt, row};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    let smoke = std::env::var("EDM_APP_GRID").is_ok_and(|v| v == "smoke");
    let base = if smoke {
        AppScale::smoke()
    } else {
        AppScale::full()
    };
    let scale = AppScale {
        tenants: env_knob("EDM_APP_TENANTS", base.tenants),
        ops_per_tenant: env_knob("EDM_APP_OPS", base.ops_per_tenant),
        shards: env_knob("EDM_APP_SHARDS", base.shards),
        ..base
    };
    let ceiling_mb: Option<u64> = env_knob_opt("EDM_RSS_CEILING_MB");

    println!(
        "app_sweep: 288-node leaf-spine, {} YCSB-B tenants x {} ops, {} shard(s), {} grid\n",
        scale.tenants,
        scale.ops_per_tenant,
        scale.shards,
        if scale.full_grid { "full" } else { "smoke" }
    );
    let report = measure(scale);

    row(
        "transport",
        &["p50", "p99", "ops/s", "failed", "hwm"].map(String::from),
    );
    for p in &report.comparison {
        row(
            &p.label,
            &[
                format!("{:.0} ns", p.p50_ns),
                format!("{:.0} ns", p.p99_ns),
                format!("{:.2e}", p.ops_per_sec),
                p.failed.to_string(),
                p.ops_high_water.to_string(),
            ],
        );
    }
    println!();
    row(
        "grid point",
        &["slowdown", "p50", "ops/s"].map(String::from),
    );
    for g in &report.grid {
        row(
            &g.point.label,
            &[
                format!("{:.3}", g.slowdown),
                format!("{:.0} ns", g.point.p50_ns),
                format!("{:.2e}", g.point.ops_per_sec),
            ],
        );
    }

    // Acceptance envelope. The window bound is per run: tenants x mlp.
    let expected = scale.tenants as u64 * scale.ops_per_tenant;
    for p in &report.comparison {
        assert_eq!(
            p.completed, expected,
            "{}: every op must complete on a healthy fabric",
            p.label
        );
        assert_eq!(p.failed, 0, "{}: no op may fail", p.label);
    }
    let edm = report.edm();
    let cxl = report.cxl();
    assert!(
        edm.ops_high_water <= scale.tenants * 4,
        "residency exceeds the MLP windows"
    );
    assert!(
        edm.p50_ns < cxl.p50_ns,
        "EDM median {} ns must beat CXL-oE {} ns on the same fabric",
        edm.p50_ns,
        cxl.p50_ns
    );
    assert!(
        edm.ops_per_sec > cxl.ops_per_sec,
        "EDM rate {:.2e} must beat CXL-oE {:.2e} on the same fabric",
        edm.ops_per_sec,
        cxl.ops_per_sec
    );
    for g in &report.grid {
        assert_eq!(g.point.completed, expected, "{}: incomplete", g.point.label);
        assert!(
            g.point.ops_high_water <= scale.tenants * g.mlp as usize,
            "{}: residency exceeds the MLP windows",
            g.point.label
        );
        assert!(
            g.slowdown > 0.99,
            "{}: remote serving cannot beat all-local ({:.3})",
            g.point.label,
            g.slowdown
        );
    }
    println!(
        "\nenvelope ok: EDM beats CXL-oE ({:.0} vs {:.0} ns p50, {:.2e} vs {:.2e} ops/s)",
        edm.p50_ns, cxl.p50_ns, edm.ops_per_sec, cxl.ops_per_sec
    );

    report.write(&out_dir);

    if let Some(mb) = ceiling_mb {
        let peak_kb = report.peak_rss_kb.expect("RSS gate needs procfs");
        if peak_kb > mb * 1024 {
            eprintln!(
                "FAIL: peak RSS {:.1} MB exceeds ceiling {mb} MB",
                peak_kb as f64 / 1024.0
            );
            std::process::exit(1);
        }
        println!(
            "peak RSS {:.1} MB within ceiling {mb} MB",
            peak_kb as f64 / 1024.0
        );
    }
}
