//! Every call the benchmark makes into the simulator.
//!
//! Setup, the `simulate_*` entry points and the isolated layer probes
//! all live in this one file, so a change to the program's public entry
//! points (such as collapsing the `TopoEdm::simulate_*` family) is an
//! edit here and nowhere else.

use crate::trace::{Timed, Trace};
use crate::Workload;
use edm_bench::app::{paper_app, AppScale};
use edm_bench::{hold, scenarios};
use edm_core::sim::Flow;
use edm_sched::scheduler::{Scheduler, SchedulerConfig};
use edm_sim::{Duration, EventQueue, LogHistogram, Summary, Time};
use edm_topo::{
    AppConfig, AppTransport, FlowStatus, TopoEdm, TopoEdmConfig, TopoOutcome, TopoStreamStats,
    Topology,
};
use edm_workloads::RackAwareWorkload;
use std::hint::black_box;
use std::time::Instant;

/// Flows per `leafspine_stream*` run at scale 1.
pub const LEAFSPINE_FLOWS: f64 = 500_000.0;
/// YCSB tenants of `app_ycsb_b`.
pub const APP_TENANTS: usize = 24;
/// Ops per tenant of `app_ycsb_b` at scale 1.
pub const APP_OPS_PER_TENANT: f64 = 5_000.0;

/// The generated inputs of one workload, ready to simulate.
pub enum Inputs {
    /// An open-loop flow workload.
    Flows(FlowInputs),
    /// The closed-loop application workload.
    App(AppInputs),
}

/// Inputs of an open-loop flow workload.
pub struct FlowInputs {
    topo: Topology,
    proto: TopoEdm,
    /// Streamed lazily from `workload.source(seed)`.
    workload: RackAwareWorkload,
    seed: u64,
    shards: usize,
    /// Flows the source emits.
    requested: u64,
}

/// Inputs of the closed-loop application workload.
pub struct AppInputs {
    topo: Topology,
    proto: TopoEdm,
    app: AppConfig,
    /// Ops the tenants issue in total.
    requested: u64,
}

impl Inputs {
    /// Ops or flows the run is asked to complete.
    pub fn requested(&self) -> u64 {
        match self {
            Inputs::Flows(f) => f.requested,
            Inputs::App(a) => a.requested,
        }
    }
}

fn scaled(n: f64, scale: f64) -> usize {
    ((n * scale).round() as usize).max(1)
}

/// Runs `f` as a span named `name` under `parent` when traced.
fn span<T>(trace: Option<(&Trace, usize)>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = trace.map(|(t, parent)| (t, t.open(name, Some(parent))));
    let out = f();
    if let Some((t, id)) = id {
        t.close(id);
    }
    out
}

/// Builds the topology, generates the inputs from `seed` and constructs
/// the config. When traced, input generation is a `setup.inputs` span.
pub fn setup(w: Workload, seed: u64, scale: f64, trace: Option<(&Trace, usize)>) -> Inputs {
    match w {
        Workload::LeafspineStream | Workload::LeafspineStream2Shard => {
            let count = scaled(LEAFSPINE_FLOWS, scale);
            let wl = span(trace, "setup.inputs", || {
                scenarios::rack_workload_288(0.6, 0.5, count)
            });
            Inputs::Flows(FlowInputs {
                topo: scenarios::leaf_spine_288(1),
                proto: TopoEdm::new(TopoEdmConfig::default()),
                workload: wl,
                seed,
                shards: if w == Workload::LeafspineStream { 1 } else { 2 },
                requested: count as u64,
            })
        }
        Workload::AppYcsbB => {
            let ops = scaled(APP_OPS_PER_TENANT, scale) as u64;
            let app = span(trace, "setup.inputs", || {
                let scale = AppScale {
                    tenants: APP_TENANTS,
                    ops_per_tenant: ops,
                    shards: 1,
                    full_grid: false,
                };
                AppConfig {
                    seed,
                    ..paper_app(scale, AppTransport::Edm, 4, 0.0, Duration::ZERO)
                }
            });
            Inputs::App(AppInputs {
                topo: scenarios::leaf_spine_288(1),
                proto: TopoEdm::default(),
                requested: ops * APP_TENANTS as u64,
                app,
            })
        }
    }
}

/// What one simulation produced. Everything here is simulated, so two
/// runs of the same inputs must produce equal values.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutput {
    /// Flows admitted or ops issued.
    pub admitted: u64,
    /// Flows delivered or ops completed.
    pub completed: u64,
    /// Flows or ops that failed.
    pub failed: u64,
    /// Outcomes the sink received (flow workloads; ops completed on the
    /// app workload).
    pub sunk: u64,
    /// Flow completion time or op latency of every completion, in ps.
    pub latency: LogHistogram,
    /// Simulated time of the last completion, in ps.
    pub makespan_ps: u64,
    /// Simulation events dispatched.
    pub events: u64,
    /// Peak concurrently-resident flow entries.
    pub active_hwm: u64,
    /// Peak message-slot slab size summed over every switch.
    pub msg_slots_hwm: u64,
    /// App-tier counters (app workload only).
    pub app: Option<AppCounters>,
}

/// App-tier and memory-tier counters of a closed-loop run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppCounters {
    /// Fabric flows admitted (request and response legs).
    pub flows: u64,
    /// Peak concurrently-outstanding ops.
    pub ops_hwm: u64,
    /// DRAM row-buffer hits, misses and conflicts over all memory nodes.
    pub rows: (u64, u64, u64),
}

/// The outcome sink: MCTs into a log histogram plus terminal counts.
#[derive(Default)]
struct Recorder {
    latency: LogHistogram,
    makespan_ps: u64,
    sunk: u64,
}

impl Recorder {
    fn record(&mut self, o: TopoOutcome) {
        self.sunk += 1;
        if let (Some(mct), FlowStatus::Delivered(at)) = (o.mct(), o.status) {
            self.latency.record_duration(mct);
            self.makespan_ps = self.makespan_ps.max(at.as_ps());
        }
    }

    fn finish(self, s: TopoStreamStats) -> SimOutput {
        SimOutput {
            admitted: s.admitted,
            completed: s.delivered,
            failed: s.failed,
            sunk: self.sunk,
            latency: self.latency,
            makespan_ps: self.makespan_ps,
            events: s.events,
            active_hwm: s.active_high_water as u64,
            msg_slots_hwm: s.msg_slots_high_water as u64,
            app: None,
        }
    }
}

/// Runs one simulation of `inputs`. With `trace`, the `simulate_*` call
/// is a `simulate` span under `parent`, and every source `next()` and
/// sink call is timed into the trace's shared layers.
pub fn simulate(inputs: &Inputs, trace: Option<(&Trace, usize)>) -> SimOutput {
    span(trace, "simulate", || {
        run(inputs, Sink::Plain(trace.map(|(t, _)| t)))
    })
}

/// Runs one simulation of `inputs` that also keeps every flow's MCT in
/// a retained [`Summary`] for exact percentiles. The app workload only
/// exposes its latency histogram, so it returns no summary.
pub fn simulate_exact(inputs: &Inputs) -> (SimOutput, Option<Summary>) {
    let mut exact = Summary::new();
    let out = run(inputs, Sink::Exact(&mut exact));
    let exact = matches!(inputs, Inputs::Flows(_)).then_some(exact);
    (out, exact)
}

/// What the outcome sink does besides recording into the histogram.
enum Sink<'a> {
    /// Nothing, or time every source and sink call into the trace.
    Plain(Option<&'a Trace>),
    /// Also retain every MCT.
    Exact(&'a mut Summary),
}

fn run(inputs: &Inputs, sink: Sink) -> SimOutput {
    match inputs {
        Inputs::Flows(f) => stream(f, sink),
        Inputs::App(a) => {
            let r = a.proto.simulate_app(&a.topo, &a.app);
            SimOutput {
                admitted: r.ops_issued,
                completed: r.ops_completed,
                failed: r.ops_failed,
                sunk: r.lat.count(),
                makespan_ps: r.makespan.as_ps(),
                events: r.fabric.events,
                active_hwm: r.fabric.active_high_water as u64,
                msg_slots_hwm: r.fabric.msg_slots_high_water as u64,
                app: Some(AppCounters {
                    flows: r.fabric.admitted,
                    ops_hwm: r.ops_high_water as u64,
                    rows: r.dram_rows,
                }),
                latency: r.lat,
            }
        }
    }
}

fn stream(f: &FlowInputs, sink: Sink) -> SimOutput {
    let source = f.workload.source(f.seed);
    let mut rec = Recorder::default();
    let stats = match sink {
        Sink::Plain(None) => simulate_streamed(f, source, |o| rec.record(o)),
        Sink::Plain(Some(t)) => simulate_streamed(f, Timed::new(source, &t.source), |o| {
            let start = Instant::now();
            rec.record(o);
            t.sink.add(start);
        }),
        Sink::Exact(exact) => simulate_streamed(f, source, |o| {
            rec.record(o);
            if let Some(mct) = o.mct() {
                exact.record_duration(mct);
            }
        }),
    };
    rec.finish(stats)
}

fn simulate_streamed<I, F>(f: &FlowInputs, source: I, sink: F) -> TopoStreamStats
where
    I: Iterator<Item = Flow> + Clone + Send,
    F: FnMut(TopoOutcome) + Send,
{
    if f.shards > 1 {
        f.proto
            .simulate_sharded_streamed(&f.topo, source, sink, f.shards)
    } else {
        f.proto.simulate_streamed(&f.topo, source, sink)
    }
}

/// Shards the workload's engine runs on.
pub fn shards(inputs: &Inputs) -> usize {
    match inputs {
        Inputs::Flows(f) => f.shards,
        Inputs::App(_) => 1,
    }
}

/// Isolated probe: nanoseconds per steady-state sparse poll round on a
/// 144-port scheduler with 16 disjoint single-chunk flows, one sample per
/// batch of 64 rounds (the `BENCH_sched` `sparse_poll/144_ports_16_flows`
/// loop).
pub fn probe_sparse_poll(samples: usize) -> Vec<f64> {
    const BATCH: usize = 64;
    let mut s = Scheduler::new(SchedulerConfig::default_for_ports(144));
    let mut now = Time::ZERO;
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..BATCH {
                black_box(scenarios::sparse_poll_round(&mut s, now, 16));
                now += Duration::from_ns(100);
            }
            start.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect()
}

/// Isolated probe: nanoseconds for one dense grant round (200
/// notifications on 144 ports, the `BENCH_sched` `grant_round_144_ports`
/// setup), one sample per round. Loading the scheduler is not timed.
pub fn probe_grant_round(samples: usize) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let mut s = scenarios::grant_round_scheduler();
            let start = Instant::now();
            black_box(s.poll(Time::ZERO).grants.len());
            start.elapsed().as_nanos() as f64
        })
        .collect()
}

/// Isolated probe: nanoseconds per pop+schedule pair on a calendar
/// `EventQueue` held at 16384 events, one sample per 4096 pairs (the
/// `BENCH_sim` `calendar_hold/16384` loop).
pub fn probe_queue_hold(samples: usize) -> Vec<f64> {
    const OPS: usize = 4_096;
    let (mut q, mut rng) = hold::prefill::<EventQueue<u64>>(16_384);
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            black_box(hold::run(&mut q, &mut rng, OPS));
            start.elapsed().as_nanos() as f64 / OPS as f64
        })
        .collect()
}
