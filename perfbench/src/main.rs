//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <f>]
//! ```
//!
//! Builds one workload's inputs from `--seed`, simulates them back to
//! back for `--seconds` of host time, checks every run's outputs, and
//! prints one JSON result as the last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `--scale` multiplies the workload's flow or op count
//! (default 1; the benchmark's own test runs at a reduced scale). See
//! `README.md` in this directory for the workloads, the metrics and
//! what each one predicts.

mod program;
mod reference;
mod trace;

use program::{Inputs, SimOutput};
use reference::Reference;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::Trace;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Rack-aware 64 B flows streamed over the 288-node leaf–spine.
    LeafspineStream,
    /// [`Workload::LeafspineStream`] on the 2-shard parallel engine.
    LeafspineStream2Shard,
    /// Closed-loop YCSB-B tenants against the memory tier.
    AppYcsbB,
}

const WORKLOADS: [(&str, Workload); 3] = [
    ("leafspine_stream", Workload::LeafspineStream),
    ("leafspine_stream_2shard", Workload::LeafspineStream2Shard),
    ("app_ycsb_b", Workload::AppYcsbB),
];

/// A run sets up at least `MIN_SETUPS` times and for at least
/// `SETUP_SECONDS`; `setup_s` is the median.
const MIN_SETUPS: usize = 11;
/// See [`MIN_SETUPS`].
const SETUP_SECONDS: f64 = 0.5;
/// Fewest simulations a run makes (per side of a traced run), however
/// short `--seconds` is.
const MIN_REPS: usize = 3;
/// Samples per isolated probe; each probe reports their median.
const PROBE_SAMPLES: usize = 201;

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut name, mut seed, mut seconds, mut trace, mut scale) = (None, None, None, None, 1.0);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--scale" => scale = value.parse::<f64>().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, w)| w)
        .ok_or(format!("unknown workload {name}"))?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    if !(scale.is_finite() && scale > 0.0 && scale <= 1.0) {
        return Err(format!("--scale must be in (0, 1], got {scale}"));
    }
    Ok(Args {
        name,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// `VmHWM` of this process in MB, or `None` off procfs.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The git revision of the checkout the benchmark was built from, read
/// from `.git` without running git; `"unknown"` outside a git checkout.
fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(r)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Conservation checks on one simulation's outputs.
fn check(inputs: &Inputs, out: &SimOutput) -> Result<(), String> {
    let requested = inputs.requested();
    if out.admitted != requested {
        return Err(format!(
            "admitted {} != requested {requested}",
            out.admitted
        ));
    }
    if out.completed + out.failed != out.admitted {
        return Err(format!(
            "completed {} + failed {} != admitted {}",
            out.completed, out.failed, out.admitted
        ));
    }
    // Flow runs: the sink saw every terminal outcome. App runs: every
    // completed op has a latency sample.
    let expect_sunk = if out.app.is_some() {
        out.completed
    } else {
        out.admitted
    };
    if out.sunk != expect_sunk || out.latency.count() != out.completed {
        return Err(format!(
            "sink saw {} outcomes and {} latencies for {} completions",
            out.sunk,
            out.latency.count(),
            out.completed
        ));
    }
    Ok(())
}

/// A metric line of the result: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn ns(x: u64) -> f64 {
    x as f64 / 1e3
}

/// Simulated latency of one run's completions, in ns.
struct SimLatency {
    /// Whether the values are exact (retained samples) or read from the
    /// log histogram (within 1/64 above the exact value).
    exact: bool,
    mean: f64,
    /// p50, p99, p99.9 and p99.99.
    percentiles: [f64; 4],
}

const PERCENTILES: [f64; 4] = [50.0, 99.0, 99.9, 99.99];

impl SimLatency {
    fn new(out: &SimOutput, exact: Option<edm_sim::Summary>) -> Self {
        match exact {
            Some(mut s) => {
                // Percentiles sort the samples, so the mean sums them in
                // sorted order and its last digits do not depend on the
                // order in which the shards sank the outcomes.
                let percentiles = PERCENTILES.map(|p| s.percentile(p));
                SimLatency {
                    exact: true,
                    mean: s.mean(),
                    percentiles,
                }
            }
            None => SimLatency {
                exact: false,
                mean: out.latency.mean() / 1e3,
                percentiles: PERCENTILES.map(|p| ns(out.latency.percentile(p))),
            },
        }
    }
}

/// End-to-end metrics. `host` scales host times to the nominal host
/// speed (see [`reference`]).
fn end_to_end(
    host: f64,
    setup_s: &[f64],
    walls: &[f64],
    rss_mb: f64,
    out: &SimOutput,
    lat: &SimLatency,
    requested: u64,
) -> Vec<Metric> {
    // The mean, like the reference time it is scaled by, weighs each
    // stretch of host speed by the time the run spent in it.
    let wall = mean(walls) * host;
    vec![
        ("completions_per_s", out.completed as f64 / wall, "1/s"),
        ("wall_s", wall, "s"),
        ("setup_s", median(setup_s) * host, "s"),
        ("peak_rss_mb", rss_mb, "MB"),
        (
            "completed_share",
            out.completed as f64 / requested as f64,
            "share",
        ),
        ("sim_mean_ns", lat.mean, "ns"),
        ("sim_p99_ns", lat.percentiles[1], "ns"),
        (
            "sim_completions_per_us",
            out.completed as f64 / (out.makespan_ps as f64 / 1e6),
            "1/us",
        ),
    ]
}

/// Per-layer metrics; `host` scales host times as in [`end_to_end`].
fn per_layer(
    host: f64,
    trace: &Trace,
    untraced: &[f64],
    traced: &[f64],
    out: &SimOutput,
    inputs: &Inputs,
) -> Vec<Metric> {
    let shards = program::shards(inputs) as f64;
    let requested = inputs.requested() as f64;
    let sims = trace.spans("simulate");
    let med = |f: &dyn Fn(&trace::Span) -> f64| median(&sims.iter().map(f).collect::<Vec<_>>());
    // Engine time: the simulate call minus the source and sink time on
    // its critical path. Every shard replays the source concurrently, so
    // one shard's share of the summed source time covers the wall; the
    // sink runs in shard 0 only.
    let engine_ns =
        |s: &trace::Span| s.ns() as f64 - s.source.ns as f64 / shards - s.sink.ns as f64;
    let completions = out.completed as f64;
    let gen = trace.spans("setup.inputs");
    let app = out.app.unwrap_or(program::AppCounters {
        flows: 0,
        ops_hwm: 0,
        rows: (0, 0, 0),
    });
    let per_op = |x: u64| {
        if out.app.is_some() {
            x as f64 / completions
        } else {
            0.0
        }
    };
    vec![
        (
            "workloads.source_ns_per_flow",
            med(&|s| s.source.ns as f64 / requested) * host,
            "ns",
        ),
        (
            "workloads.source_share",
            med(&|s| s.source.ns as f64 / shards / s.ns() as f64),
            "share",
        ),
        (
            "workloads.gen_s",
            median(&gen.iter().map(|s| s.ns() as f64 / 1e9).collect::<Vec<_>>()) * host,
            "s",
        ),
        (
            "stats.sink_ns_per_outcome",
            med(&|s| s.sink.ns as f64 / s.sink.calls.max(1) as f64) * host,
            "ns",
        ),
        (
            "stats.sink_share",
            med(&|s| s.sink.ns as f64 / s.ns() as f64),
            "share",
        ),
        ("topo.engine_s", med(&|s| engine_ns(s) / 1e9) * host, "s"),
        (
            "topo.engine_share",
            med(&|s| engine_ns(s) / s.ns() as f64),
            "share",
        ),
        (
            "topo.ns_per_event",
            med(&|s| engine_ns(s) / out.events as f64) * host,
            "ns",
        ),
        ("topo.events", out.events as f64, "count"),
        (
            "topo.events_per_completion",
            out.events as f64 / completions,
            "ratio",
        ),
        ("topo.active_hwm", out.active_hwm as f64, "count"),
        ("topo.msg_slots_hwm", out.msg_slots_hwm as f64, "count"),
        ("app.events_per_op", per_op(out.events), "ratio"),
        ("app.flows_per_op", per_op(app.flows), "ratio"),
        ("app.ops_hwm", app.ops_hwm as f64, "count"),
        ("memory.row_hits", app.rows.0 as f64, "count"),
        ("memory.row_misses", app.rows.1 as f64, "count"),
        ("memory.row_conflicts", app.rows.2 as f64, "count"),
        (
            "sched.sparse_poll_ns",
            median(&program::probe_sparse_poll(PROBE_SAMPLES)) * host,
            "ns",
        ),
        (
            "sched.grant_round_ns",
            median(&program::probe_grant_round(PROBE_SAMPLES)) * host,
            "ns",
        ),
        (
            "sim.queue_hold_ns",
            median(&program::probe_queue_hold(PROBE_SAMPLES)) * host,
            "ns",
        ),
        (
            "trace.overhead_share",
            median(traced) / median(untraced) - 1.0,
            "share",
        ),
    ]
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--scale <f>]",
                WORKLOADS.map(|(n, _)| n).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let trace = Trace::default();
    let traced = args.trace.then_some(&trace);
    let root = traced.map(|t| t.open("run", None));
    let mut reference = Reference::default();
    let mut reference_s = vec![reference.time()];

    let mut setup_s = Vec::new();
    let mut inputs = None;
    let setups = Instant::now();
    while setup_s.len() < MIN_SETUPS || setups.elapsed().as_secs_f64() < SETUP_SECONDS {
        // Free the previous inputs first, so that two sets are never
        // resident at once.
        drop(inputs.take());
        let span = traced.map(|t| (t, t.open("setup", root)));
        let start = Instant::now();
        inputs = Some(program::setup(args.workload, args.seed, args.scale, span));
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some((t, id)) = span {
            t.close(id);
        }
    }
    let inputs = inputs.expect("MIN_SETUPS > 0");

    // Simulate back to back until the budget is spent; a traced run
    // alternates untraced and traced simulations so host drift hits both
    // sides alike.
    let mut errors = Vec::new();
    let mut first: Option<SimOutput> = None;
    let mut verify = |out: SimOutput| match &first {
        None => {
            if let Err(e) = check(&inputs, &out) {
                errors.push(e);
            }
            first = Some(out);
        }
        Some(f) if *f != out => errors.push("a repeated simulation diverged".into()),
        Some(_) => {}
    };
    let (mut untraced, mut traced_walls) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while untraced.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        reference_s.push(reference.time());
        let t0 = Instant::now();
        let out = program::simulate(&inputs, None);
        untraced.push(t0.elapsed().as_secs_f64());
        verify(out);
        if let Some(t) = traced {
            let t0 = Instant::now();
            let out = program::simulate(&inputs, Some((t, root.expect("traced runs have a root"))));
            traced_walls.push(t0.elapsed().as_secs_f64());
            verify(out);
        }
    }
    // Read the memory high-water mark before the exact pass, whose
    // retained samples are the benchmark's own.
    let rss_mb = peak_rss_mb().unwrap_or(f64::NAN);
    let host = reference::NOMINAL_S / mean(&reference_s);
    let (lat, metrics) = match traced {
        None => {
            let (again, exact) = program::simulate_exact(&inputs);
            verify(again);
            let out = first.as_ref().expect("at least one simulation");
            let lat = SimLatency::new(out, exact);
            let m = end_to_end(
                host,
                &setup_s,
                &untraced,
                rss_mb,
                out,
                &lat,
                inputs.requested(),
            );
            (lat, m)
        }
        Some(t) => {
            t.close(root.expect("traced runs have a root"));
            let out = first.as_ref().expect("at least one simulation");
            let m = per_layer(host, t, &untraced, &traced_walls, out, &inputs);
            (SimLatency::new(out, None), m)
        }
    };
    let out = first.expect("at least one simulation");

    let beyond_p9999 = out.completed - (out.completed as f64 * 0.9999).ceil() as u64;
    let mut record = String::new();
    let _ = write!(
        record,
        "{{\"record\": \"perfbench\", \"workload\": \"{}\", \"seed\": {}, \"scale\": {}, \
         \"trace\": {}, \"git_rev\": \"{}\", \"nproc\": {}, \"profile\": \"{}\", \
         \"rustc\": \"{}\", \"simulations\": {}, \"requested\": {}, \"latency_samples\": {}, \
         \"samples_beyond_p9999\": {}, \"sim_latency_exact\": {}, \"sim_mean_ns\": {}, \
         \"sim_p50_ns\": {}, \"sim_p99_ns\": {}, \"sim_p999_ns\": {}, \"sim_p9999_ns\": {}, \
         \"sim_makespan_ps\": {}, \"events\": {}, \"timer_floor_ns\": {}, \"host_factor\": {}, \"reference_s\": [{}], \
         \"wall_s\": [{}], \
         \"setups\": {}, \"setup_s_min_median_max\": [{}, {}, {}]}}",
        args.name,
        args.seed,
        args.scale,
        u8::from(args.trace),
        git_rev(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC"),
        untraced.len() + traced_walls.len(),
        inputs.requested(),
        out.latency.count(),
        beyond_p9999,
        lat.exact,
        json_num(lat.mean),
        json_num(lat.percentiles[0]),
        json_num(lat.percentiles[1]),
        json_num(lat.percentiles[2]),
        json_num(lat.percentiles[3]),
        out.makespan_ps,
        out.events,
        if args.trace {
            json_num(trace::timer_floor_ns())
        } else {
            "null".into()
        },
        json_num(host),
        reference_s
            .iter()
            .map(|&x| json_num(x))
            .collect::<Vec<_>>()
            .join(", "),
        untraced
            .iter()
            .map(|&x| json_num(x))
            .collect::<Vec<_>>()
            .join(", "),
        setup_s.len(),
        json_num(setup_s.iter().copied().fold(f64::INFINITY, f64::min)),
        json_num(median(&setup_s)),
        json_num(setup_s.iter().copied().fold(0.0, f64::max)),
    );
    println!("{record}");
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace_{}_seed{}.json", args.name, args.seed));
        if let Err(e) = trace.write(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    let attempted = inputs.requested() * (untraced.len() + traced_walls.len()) as u64;
    let failed = out.failed * (untraced.len() + traced_walls.len()) as u64;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        body.join(", ")
    );
    ExitCode::SUCCESS
}
