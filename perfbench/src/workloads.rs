//! The three workloads and the telemetry probe's plan: what each one
//! runs, how one run is driven through its layer's public entry point,
//! and which paper rows it covers.
//!
//! A workload is a [`Plan`]: groups of run specs, one group per
//! `Executor::sweep` call. Every run draws its seed from
//! [`derive_seed_at`] keyed by the benchmark seed and a stream named the
//! way the `repro` experiments name theirs, so at the default seed
//! (`ROOT_SEED`) the runs are exactly the ones `repro` makes.

use edison_core::experiments::mapred;
use edison_core::paper;
use edison_core::RunBudget;
use edison_mapreduce::engine::{
    run_job_checked, run_job_profiled_checked, ClusterSetup, JobOutcome,
};
use edison_mapreduce::jobs::{self, JobProfile, Tune};
use edison_simcore::time::{SimDuration, SimTime};
use edison_simcore::{EngineProfile, KindStats};
use edison_simfault::FaultPlan;
use edison_simguard::GuardConfig;
use edison_simrun::{derive_seed_at, SimError, ROOT_SEED};
use edison_simtel::Telemetry;
use edison_web::httperf::{self, concurrency_sweep, HttperfResult, RunOpts, CALLS_PER_CONN};
use edison_web::scenario::DEFAULT_RETRY_BUDGET;
use edison_web::stack::{self, GenMode, Metrics, StackConfig};
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};
use std::fmt;

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 180 httperf points behind Figures 4–9.
    WebSweeps,
    /// The `overload_sweep` lanes past their knees, guards off and on,
    /// with and without a crash/restart, over derived seed replicas.
    WebOverload,
    /// The Table 8 matrix over three derived seeds.
    MapreduceMatrix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WebSweeps,
        Workload::WebOverload,
        Workload::MapreduceMatrix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WebSweeps => "web_sweeps",
            Workload::WebOverload => "web_overload",
            Workload::MapreduceMatrix => "mapreduce_matrix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One planned simulation run.
pub enum Spec {
    /// One httperf point (`httperf::run_point`).
    Point {
        scenario: WebScenario,
        mix: WorkloadMix,
        conc: f64,
        opts: RunOpts,
    },
    /// One web stack run (`stack::run*`).
    Stack(StackConfig),
    /// One MapReduce job (`mapreduce::engine::run_job*`).
    Job {
        profile: JobProfile,
        setup: ClusterSetup,
    },
}

/// The runs of one `Executor::sweep` call.
pub struct Group {
    pub name: String,
    pub specs: Vec<Spec>,
}

/// Everything a workload runs, built before the first simulation call.
pub struct Plan {
    pub groups: Vec<Group>,
}

impl Plan {
    pub fn runs(&self) -> usize {
        self.groups.iter().map(|g| g.specs.len()).sum()
    }
}

/// The result of one run, as its entry point returns it.
pub enum Out {
    Point(HttperfResult),
    Stack(Box<Metrics>),
    Job(JobOutcome),
}

impl fmt::Debug for Out {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Out::Point(r) => r.fmt(f),
            Out::Stack(m) => m.fmt(f),
            Out::Job(o) => o.fmt(f),
        }
    }
}

/// Build a workload's plan from the benchmark seed.
pub fn plan(w: Workload, seed: u64) -> Result<Plan, SimError> {
    let groups = match w {
        Workload::WebSweeps => web_sweeps(seed)?,
        Workload::WebOverload => web_overload(seed)?,
        Workload::MapreduceMatrix => mapreduce_matrix(seed)?,
    };
    Ok(Plan { groups })
}

fn stack_cfg(
    platform: Platform,
    scale: ClusterScale,
    conc: f64,
    seed: u64,
) -> Result<StackConfig, SimError> {
    let scenario = WebScenario::table6_or_err(platform, scale)?;
    let gen = GenMode::Httperf {
        connections_per_sec: conc,
        calls_per_conn: CALLS_PER_CONN,
    };
    let mut cfg = StackConfig::new(scenario, WorkloadMix::lightest(), gen, seed);
    // `repro`'s quick windows, as every web run here uses
    let b = RunBudget::quick();
    cfg.warmup = SimDuration::from_secs(b.web_warmup_s);
    cfg.measure = SimDuration::from_secs(b.web_measure_s);
    Ok(cfg)
}

/// The sweep stream id `repro` uses for one (scenario, mix) sweep.
fn stream_id(s: &WebScenario, mix: WorkloadMix) -> String {
    format!(
        "web:{} {:?}:img{:.0}%:hit{:.0}%",
        s.web_servers,
        s.platform,
        100.0 * mix.image_fraction,
        100.0 * mix.cache_hit_ratio
    )
}

/// Figures 4–9: all six Table 6 scenarios × {lightest, 20 % images}, and
/// the full clusters × the four cache/image mixes, each over 8…2048 conn/s.
fn web_sweeps(seed: u64) -> Result<Vec<Group>, SimError> {
    let scale_rows = [
        (Platform::Edison, ClusterScale::Full),
        (Platform::Edison, ClusterScale::Half),
        (Platform::Edison, ClusterScale::Quarter),
        (Platform::Edison, ClusterScale::Eighth),
        (Platform::Dell, ClusterScale::Full),
        (Platform::Dell, ClusterScale::Half),
    ];
    let full = [
        (Platform::Edison, ClusterScale::Full),
        (Platform::Dell, ClusterScale::Full),
    ];
    let mixes = [
        WorkloadMix::hit(0.77),
        WorkloadMix::hit(0.60),
        WorkloadMix::img6(),
        WorkloadMix::img10(),
    ];
    let mut sweeps = Vec::new();
    sweeps.extend(scale_rows.iter().map(|&r| (r, WorkloadMix::lightest())));
    sweeps.extend(
        mixes
            .iter()
            .flat_map(|&mix| full.iter().map(move |&r| (r, mix))),
    );
    sweeps.extend(scale_rows.iter().map(|&r| (r, WorkloadMix::img20())));
    let b = RunBudget::quick();
    sweeps
        .into_iter()
        .map(|((platform, scale), mix)| {
            let scenario = WebScenario::table6_or_err(platform, scale)?;
            let name = stream_id(&scenario, mix);
            let specs = (0..)
                .zip(concurrency_sweep())
                .map(|(i, conc)| Spec::Point {
                    scenario: scenario.clone(),
                    mix,
                    conc,
                    opts: RunOpts {
                        seed: derive_seed_at(seed, &name, i),
                        warmup_s: b.web_warmup_s,
                        measure_s: b.web_measure_s,
                        ..RunOpts::default()
                    },
                })
                .collect();
            Ok(Group { name, specs })
        })
        .collect()
}

/// The `overload_sweep` lanes: pinned guards-off knee (conn/s) and seed
/// replicas per pass (5 × 8 + 8 × 8 = 104 runs). A Dell Half run costs
/// ~4× an Edison Eighth one; with equal replicas `run_ms_p50` would sit
/// in the gap between the two lanes' run costs, so the Dell lane gets
/// more and both run-time percentiles land among its runs.
const LANES: [(Platform, ClusterScale, f64, usize); 2] = [
    (Platform::Edison, ClusterScale::Eighth, 130.0, 5),
    (Platform::Dell, ClusterScale::Half, 768.0, 8),
];
/// `overload_sweep`'s rungs (multiples of the knee); this workload runs
/// the two past the knee.
const RUNGS: [f64; 4] = [0.5, 1.0, 1.5, 2.0];
const PAST_KNEE: [usize; 2] = [2, 3];

/// The overload lanes at 1.5× and 2× their knees, guards off and on,
/// each fault-free and with web node 0 crashing as the window opens and
/// restarting 3 s later under a retry budget. The fault-free guarded arm
/// sizes its admission bucket to the knee, as `overload_sweep` does; the
/// crashed one runs the reference guard without a bucket, as
/// `fault_sweep --guard` does, so admitted work queues behind the crash
/// and the shed and brownout paths run. Every variant of a rung shares
/// its seed. One sweep per seed replica; replica 0 draws the seeds
/// `overload_sweep` uses.
fn web_overload(seed: u64) -> Result<Vec<Group>, SimError> {
    let replicas = LANES.iter().map(|l| l.3).max().unwrap_or(0);
    (0..replicas)
        .map(|r| {
            Ok(Group {
                name: format!("overload_sweep:r{r}"),
                specs: overload_replica(seed, r)?,
            })
        })
        .collect()
}

fn overload_replica(seed: u64, r: usize) -> Result<Vec<Spec>, SimError> {
    let mut specs = Vec::new();
    for (li, &(platform, scale, knee, replicas)) in LANES.iter().enumerate() {
        if r >= replicas {
            continue;
        }
        for ri in PAST_KNEE {
            let rung = li * RUNGS.len() + ri;
            let rung_seed =
                derive_seed_at(seed, "overload_sweep", r * LANES.len() * RUNGS.len() + rung);
            for guarded in [false, true] {
                for crash in [false, true] {
                    let mut cfg = stack_cfg(platform, scale, knee * RUNGS[ri], rung_seed)?;
                    if guarded {
                        cfg.guard = GuardConfig::web_defaults();
                    }
                    if guarded && !crash {
                        cfg.guard.admit_rate = knee;
                        cfg.guard.admit_burst = knee * 0.5;
                    }
                    if crash {
                        cfg.fault_plan = FaultPlan::new().crash_restart(
                            0,
                            SimTime::from_secs(2),
                            SimDuration::from_secs(3),
                        );
                        cfg.retry_budget = DEFAULT_RETRY_BUDGET;
                    }
                    specs.push(Spec::Stack(cfg));
                }
            }
        }
    }
    Ok(specs)
}

const MR_JOBS: [&str; 6] = [
    "wordcount",
    "wordcount2",
    "logcount",
    "logcount2",
    "pi",
    "terasort",
];
const MR_CLUSTERS: [(Tune, usize); 6] = [
    (Tune::Edison, 35),
    (Tune::Edison, 17),
    (Tune::Edison, 8),
    (Tune::Edison, 4),
    (Tune::Dell, 2),
    (Tune::Dell, 1),
];
/// Table 8 cells per replica.
pub const MR_CELLS: usize = MR_JOBS.len() * MR_CLUSTERS.len();
/// Seed replicas of the matrix per pass: 3 × 36 = 108 runs.
const MR_REPLICAS: usize = 3;
const MIB: u64 = 1024 * 1024;

fn cluster_label(tune: Tune, n: usize) -> String {
    match tune {
        Tune::Edison => format!("edison-{n}"),
        Tune::Dell => format!("dell-{n}"),
    }
}

fn cluster_base(tune: Tune, n: usize) -> ClusterSetup {
    match tune {
        Tune::Edison => ClusterSetup::edison(n),
        Tune::Dell => ClusterSetup::dell(n),
    }
}

/// One Table 8 cell with the paper's per-size retuning, copied from
/// `edison_core::experiments::mapred`, whose helpers are crate-private:
/// terasort uses 64 MB blocks on both platforms; the combined-input jobs
/// raise the block size on smaller clusters and re-split to one map per
/// vcore (pi keeps its total sample count). [`mr_cells_drifted`] keeps the
/// copy in step.
fn mr_cell(job: &str, tune: Tune, n: usize, seed: u64) -> Result<Spec, SimError> {
    let mut setup = cluster_base(tune, n);
    if job == "terasort" {
        setup = setup.with_block(64 * MIB);
    }
    if matches!(job, "wordcount2" | "logcount2") {
        let split = 1024 * MIB / (2 * n as u64).max(1);
        let block = split.max(setup.block_bytes);
        setup = setup.with_block(block);
    }
    setup.seed = seed;
    let mut profile = jobs::by_name(job, tune)?;
    if matches!(job, "wordcount2" | "logcount2" | "pi") {
        let vcores = match tune {
            Tune::Edison => 2 * n as u32,
            Tune::Dell => 12 * n as u32,
        };
        profile = profile.with_map_tasks(vcores.max(1));
    }
    Ok(Spec::Job { profile, setup })
}

/// Table 8: 6 jobs × edison-35/17/8/4, dell-2/1, one sweep per seed
/// replica (replica 0 is `repro table8 --full` at the default seed).
fn mapreduce_matrix(seed: u64) -> Result<Vec<Group>, SimError> {
    (0..MR_REPLICAS)
        .map(|r| {
            let mut specs = Vec::new();
            for job in MR_JOBS {
                for (tune, n) in MR_CLUSTERS {
                    let stream = format!("mr:{job}:{}", cluster_label(tune, n));
                    specs.push(mr_cell(job, tune, n, derive_seed_at(seed, &stream, r))?);
                }
            }
            Ok(Group {
                name: format!("mr:table8:r{r}"),
                specs,
            })
        })
        .collect()
}

/// Table 8 cells whose output here differs from `repro`'s own
/// `mapred::run_cell` at the default seed, where replica 0 is meant to be
/// exactly `repro`'s run: a change to `mapred`'s retuning that
/// [`mr_cell`] does not follow shows up as drift.
pub fn mr_cells_drifted() -> Result<usize, SimError> {
    let mut drifted = 0;
    for job in MR_JOBS {
        for (tune, n) in MR_CLUSTERS {
            let label = cluster_label(tune, n);
            let want = mapred::run_cell(job, &label, &cluster_base(tune, n))?;
            let seed = derive_seed_at(ROOT_SEED, &format!("mr:{job}:{label}"), 0);
            let got = run_off(&mr_cell(job, tune, n, seed)?)?;
            drifted += usize::from(format!("{got:?}") != format!("{want:?}"));
        }
    }
    Ok(drifted)
}

/// Below-knee load ramps on the smallest Edison tiers and the smallest
/// Dell tier: (platform, scale, top conn/s, about 80 % of the Edison
/// knees and a third of Dell Half's). Each ramp has [`TRACED_STEPS`]
/// evenly spaced points up to its top, every point with its own seed, so
/// run costs form a continuum and the run-time percentiles do not hinge
/// on one point's cost.
const TRACED_RAMPS: [(Platform, ClusterScale, f64); 3] = [
    (Platform::Edison, ClusterScale::Eighth, 105.0),
    (Platform::Edison, ClusterScale::Quarter, 210.0),
    (Platform::Dell, ClusterScale::Half, 280.0),
];
/// Points per ramp: 3 × 35 = 105 runs.
const TRACED_STEPS: usize = 35;

/// The telemetry probe's plan: the ramps, in one group, run on one worker
/// outside the executor, each untraced, traced and profiled with exports.
pub fn traced_web(seed: u64) -> Result<Plan, SimError> {
    let points = TRACED_RAMPS.iter().flat_map(|&(platform, scale, top)| {
        (1..=TRACED_STEPS).map(move |k| (platform, scale, top * k as f64 / TRACED_STEPS as f64))
    });
    let specs = (0..)
        .zip(points)
        .map(|(i, (platform, scale, conc))| {
            stack_cfg(platform, scale, conc, derive_seed_at(seed, "traced_web", i)).map(Spec::Stack)
        })
        .collect::<Result<_, _>>()?;
    Ok(Plan {
        groups: vec![Group {
            name: "traced_web".into(),
            specs,
        }],
    })
}

/// Run one spec with telemetry off.
pub fn run_off(spec: &Spec) -> Result<Out, SimError> {
    Ok(match spec {
        Spec::Point {
            scenario,
            mix,
            conc,
            opts,
        } => Out::Point(httperf::run_point(scenario, *mix, *conc, opts.clone())),
        Spec::Stack(cfg) => Out::Stack(Box::new(stack::run(cfg.clone()).metrics)),
        Spec::Job { profile, setup } => Out::Job(run_job_checked(profile, setup)?),
    })
}

/// Run one spec into an enabled sink (`Telemetry::on()`, no profiling).
/// Only web stack runs have a traced variant here.
pub fn run_traced(cfg: &StackConfig) -> (Out, Telemetry) {
    let mut world = stack::run_traced(cfg.clone(), Telemetry::on());
    let tel = world.take_telemetry();
    (Out::Stack(Box::new(world.metrics)), tel)
}

/// Run one spec under `Telemetry::profiled()`: the output, its engine
/// profile and the sink the run recorded into.
pub fn run_profiled(spec: &Spec) -> Result<(Out, EngineProfile, Telemetry), SimError> {
    Ok(match spec {
        Spec::Point {
            scenario,
            mix,
            conc,
            opts,
        } => {
            let (r, tel) = httperf::run_point_traced(
                scenario,
                *mix,
                *conc,
                opts.clone(),
                Telemetry::profiled(),
            );
            (Out::Point(r), profile_from_telemetry(&tel), tel)
        }
        Spec::Stack(cfg) => {
            let (mut world, profile) = stack::run_profiled(cfg.clone(), Telemetry::profiled());
            let tel = world.take_telemetry();
            (Out::Stack(Box::new(world.metrics)), profile, tel)
        }
        Spec::Job { profile, setup } => {
            let (o, tel, p) = run_job_profiled_checked(profile, setup, Telemetry::profiled())?;
            (Out::Job(o), p, tel)
        }
    })
}

/// `httperf::run_point_traced` keeps the engine profile only as the
/// `profile_*` metrics it records; read the totals back from them. The
/// per-kind split is not needed here, so every event lands under "web".
fn profile_from_telemetry(tel: &Telemetry) -> EngineProfile {
    let mut p = EngineProfile::default();
    let mut events = 0;
    for (name, _, v) in tel.registry.counters() {
        match name {
            "profile_events_total" => events += v,
            "profile_heap_pushes_total" => p.heap_pushes += v,
            "profile_heap_pops_total" => p.heap_pops += v,
            _ => {}
        }
    }
    for (name, _, v) in tel.registry.gauges() {
        match name {
            // a u64 high-water mark, exact below 2^53
            "profile_heap_depth_max" => p.heap_depth_hwm = p.heap_depth_hwm.max(v as u64),
            "profile_end_seconds" => p.end = SimTime::from_secs_f64(v),
            _ => {}
        }
    }
    p.kinds.insert(
        "web",
        KindStats {
            dispatched: events,
            ..KindStats::default()
        },
    );
    p
}

/// Export a run's sink three ways (Chrome trace, Prometheus, CSV);
/// returns the bytes written.
pub fn export(tel: &Telemetry) -> usize {
    let trace = tel.chrome_trace_json();
    let prom = tel.prometheus_text();
    let csv = edison_core::export::telemetry_csv(tel);
    std::hint::black_box(trace.len() + prom.len() + csv.len())
}

/// Deterministic per-layer tallies of one pass's outputs.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub requests_completed: u64,
    pub request_errors: u64,
    pub retries: u64,
    pub failovers: u64,
    pub admitted: u64,
    pub lb_rejected: u64,
    pub shed: u64,
    pub degraded: u64,
    pub breaker_trips: u64,
    pub faults_injected: u64,
    pub recovery_s_sum: f64,
    pub recoveries: u64,
    pub energy_j: f64,
    pub jobs: u64,
    pub job_sim_s: f64,
    pub tasks: u64,
    pub task_attempts: u64,
}

impl Tally {
    pub fn add(&mut self, spec: &Spec, out: &Out) {
        match out {
            Out::Point(r) => {
                let window = match spec {
                    Spec::Point { opts, .. } => opts.measure_s as f64,
                    _ => unreachable!("a Point output comes from a Point spec"),
                };
                // requests_per_sec is completed / window, so this is exact
                self.requests_completed += (r.requests_per_sec * window).round() as u64;
                self.request_errors += r.server_errors + r.client_errors;
                self.retries += r.retries;
                self.failovers += r.failovers;
                if r.mean_recovery_s > 0.0 {
                    self.recovery_s_sum += r.mean_recovery_s;
                    self.recoveries += 1;
                }
                self.energy_j += r.energy_j;
            }
            Out::Stack(m) => {
                self.requests_completed += m.completed;
                self.request_errors += m.server_errors + m.client_errors;
                self.retries += m.retries;
                self.failovers += m.failovers;
                self.admitted += m.guard.admitted;
                self.lb_rejected += m.guard.lb_rejected;
                self.shed += m.guard.shed;
                self.degraded += m.guard.degraded;
                self.breaker_trips += m.guard.breaker_trips;
                self.faults_injected += m.faults_injected;
                self.recovery_s_sum += m.recovery_s.samples().iter().sum::<f64>();
                self.recoveries += m.recovery_s.len() as u64;
                self.energy_j += m.energy_j;
            }
            Out::Job(o) => {
                let tasks = match spec {
                    Spec::Job { profile, .. } => {
                        u64::from(profile.map_tasks + profile.reduce_tasks)
                    }
                    _ => unreachable!("a Job output comes from a Job spec"),
                };
                self.jobs += 1;
                self.job_sim_s += o.finish_time_s;
                self.tasks += tasks;
                self.task_attempts +=
                    tasks + u64::from(o.speculative_copies) + u64::from(o.task_reexecs);
                self.energy_j += o.energy_j;
            }
        }
    }
}

/// |simulated / paper − 1| for every `edison_core::paper` row the
/// workload covers, from one pass's outputs (`outs[g][i]` is run `i` of
/// group `g`). Empty for workloads that cover none.
pub fn paper_errors(w: Workload, plan: &Plan, outs: &[Vec<&Out>]) -> Vec<f64> {
    let err = |sim: f64, paper: f64| (sim / paper - 1.0).abs();
    match w {
        Workload::WebSweeps => {
            // the peak shown point of a sweep: Figures 4–9 drop points
            // whose server-error rate reaches 2 %
            let peak = |name: &str| -> Option<&HttperfResult> {
                let g = plan.groups.iter().position(|g| g.name == name)?;
                outs[g]
                    .iter()
                    .filter_map(|o| match *o {
                        Out::Point(r) if r.error_rate < 0.02 => Some(r),
                        _ => None,
                    })
                    .max_by(|a, b| a.requests_per_sec.total_cmp(&b.requests_per_sec))
            };
            let (Some(e), Some(d), Some(e20), Some(d20)) = (
                peak("web:24 Edison:img0%:hit93%"),
                peak("web:2 Dell:img0%:hit93%"),
                peak("web:24 Edison:img20%:hit93%"),
                peak("web:2 Dell:img20%:hit93%"),
            ) else {
                return Vec::new();
            };
            vec![
                err(e.requests_per_sec, paper::WEB_PEAK_RPS),
                err(d.requests_per_sec, paper::WEB_PEAK_RPS),
                // the §5.1.2 cluster power at peak, as fig04_07 compares it
                err(e.mean_power_w, 57.0),
                err(d.mean_power_w, 190.0),
                err(
                    e.requests_per_joule / d.requests_per_joule,
                    paper::WEB_EFFICIENCY_GAIN,
                ),
                err(e20.requests_per_sec, 0.85 * paper::WEB_PEAK_RPS),
                err(d20.requests_per_sec, 0.85 * paper::WEB_PEAK_RPS),
            ]
        }
        Workload::MapreduceMatrix => {
            let mut v = Vec::new();
            let cells = MR_JOBS
                .iter()
                .flat_map(|job| MR_CLUSTERS.iter().map(move |&(t, n)| (job, t, n)));
            for ((job, tune, n), out) in cells.zip(&outs[0]) {
                let (Out::Job(o), Some(cell)) =
                    (*out, paper::table8_cell(job, &cluster_label(tune, n)))
                else {
                    continue;
                };
                v.push(err(o.finish_time_s, cell.seconds));
                v.push(err(o.energy_j, cell.joules));
            }
            v
        }
        Workload::WebOverload => Vec::new(),
    }
}
