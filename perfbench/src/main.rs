//! perfbench: the repository benchmark (see README.md).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <web_sweeps|web_overload|mapreduce_matrix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, with telemetry off in
//! every timed run. `--trace 1` is the separate traced run that gives the
//! per-layer metrics. Either way every output is checked (same digest
//! across passes, at 1 and at `nproc` workers, with telemetry off and
//! profiled), each metric is printed on its own line with its unit, and
//! the last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod chain;
mod measure;
mod spans;
mod workloads;

use edison_bench::{alloc_counts, CountingAlloc};
use edison_simcore::EngineProfile;
use edison_simrun::{merge_profiles, Executor, ROOT_SEED};
use edison_simtel::Telemetry;
use edison_web::httperf::CALLS_PER_CONN;
use measure::{median, now_ns, quantile, secs, Digest};
use spans::{worker_id, Span, Trace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Read as _;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use workloads::{Out, Plan, Spec, Tally, Workload};

/// The process allocator: the system allocator, or, once the traced run
/// switches counting on, `edison_bench::CountingAlloc`. The end-to-end
/// run leaves counting off, because CountingAlloc's shared counters cost
/// 6–11 % of `wall_s` when two workers allocate at once.
struct Alloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

#[global_allocator]
static ALLOC: Alloc = Alloc;

// SAFETY: every call forwards to `System` or to `CountingAlloc`, which
// forwards to `System` verbatim after bumping its counters. Both paths
// hand out and take back the same `System` blocks, so a block may be
// freed or resized on either path whatever `COUNTING` was when it was
// allocated.
unsafe impl GlobalAlloc for Alloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAlloc.alloc(layout)
        } else {
            System.alloc(layout)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAlloc.realloc(ptr, layout, new_size)
        } else {
            System.realloc(ptr, layout, new_size)
        }
    }
}

const USAGE: &str = "usage: perfbench --workload <web_sweeps|web_overload|mapreduce_matrix> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The default seed is `repro`'s root seed, so default-seed runs are the
/// runs `repro` makes; README.md names the held-out seed.
const DEFAULT_SEED: u64 = ROOT_SEED;
/// Fresh processes the end-to-end run times set-up in, besides its own;
/// `setup_s` is the median of all of them.
const SETUP_REPS: usize = 20;
/// The flag that makes a process only set up, print its set-up time in
/// ns and exit: how the end-to-end run times set-up in a fresh process.
const SETUP_ONLY: &str = "--setup-only";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    let mut setup_only = false;
    while let Some(flag) = it.next() {
        if flag == SETUP_ONLY {
            setup_only = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload '{val}'"))?)
            }
            "--seed" => {
                seed = val
                    .parse()
                    .map_err(|_| format!("--seed: '{val}' is not a u64"))?
            }
            "--seconds" => {
                seconds = val
                    .parse()
                    .map_err(|_| format!("--seconds: '{val}' is not a number"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(format!("--seconds: {seconds} is outside 0..=600"));
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: '{val}' is not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        setup_only,
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    measure::start_clock();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    if args.setup_only {
        return match setup(&args, jobs) {
            Ok(_) => {
                println!("{}", now_ns());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let report = if args.trace {
        per_layer(&args, jobs)
    } else {
        end_to_end(&args, jobs)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let w = args.workload.name();
    for m in &report.metrics {
        println!("{w} {:<28} {:>16} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// A JSON number; a non-finite value (never expected) prints as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Everything before the first simulation call: the plan (scenario
/// tables, configs, derived seeds) and the executor. The executor spawns
/// its workers inside each `Executor::sweep` call, so that cost is part
/// of every pass, not of set-up.
fn setup(args: &Args, jobs: usize) -> Result<(Plan, Executor), String> {
    let plan = workloads::plan(args.workload, args.seed).map_err(|e| e.to_string())?;
    Ok((plan, Executor::new(jobs)))
}

/// Set-up time of one fresh process of this program, in seconds from the
/// start of its `main` to where its first `Executor::sweep` call would
/// be, so one-time work (lazy statics, first-touch tables) counts every
/// time. The process is waited for.
fn setup_in_fresh_process(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed"])
        .arg(args.seed.to_string())
        .arg(SETUP_ONLY)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning a set-up process: {e}"))?;
    let mut out = String::new();
    let read = child.stdout.take().map(|mut o| o.read_to_string(&mut out));
    let status = child
        .wait()
        .map_err(|e| format!("waiting for a set-up process: {e}"))?;
    match (read, out.trim().parse::<u64>()) {
        (Some(Ok(_)), Ok(ns)) if status.success() => Ok(secs(ns)),
        _ => Err(format!("a set-up process failed ({status})")),
    }
}

/// One finished run.
struct Run {
    /// `Ok(None)` once the output was digested and dropped.
    out: Result<Option<Out>, String>,
    profile: Option<EngineProfile>,
    start: u64,
    end: u64,
    worker: usize,
}

impl Run {
    fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Drive one spec through its layer's entry point, telemetry off or
/// under `Telemetry::profiled()`.
fn drive(spec: &Spec, profiled: bool) -> Run {
    let worker = worker_id();
    let start = now_ns();
    let res = if profiled {
        workloads::run_profiled(spec).map(|(o, p, _)| (o, Some(p)))
    } else {
        workloads::run_off(spec).map(|o| (o, None))
    };
    let end = now_ns();
    match res {
        Ok((out, profile)) => Run {
            out: Ok(Some(out)),
            profile,
            start,
            end,
            worker,
        },
        Err(e) => Run {
            out: Err(e.to_string()),
            profile: None,
            start,
            end,
            worker,
        },
    }
}

/// One pass over a plan: every run once.
struct Pass {
    groups: Vec<Vec<Run>>,
    start: u64,
    end: u64,
    allocs: u64,
    /// One digest per run, in input order; a failed run digests its error.
    digests: Vec<Digest>,
}

impl Pass {
    fn new(groups: Vec<Vec<Run>>, start: u64, end: u64, allocs: u64) -> Pass {
        let digests = groups
            .iter()
            .flatten()
            .map(|r| {
                let mut d = Digest::default();
                match &r.out {
                    Ok(o) => d.add(o),
                    Err(e) => d.add(e),
                }
                d
            })
            .collect();
        Pass {
            groups,
            start,
            end,
            allocs,
            digests,
        }
    }

    /// Drop the outputs, keeping digests, timings and profiles, so memory
    /// stays flat however many passes run.
    fn drop_outputs(&mut self) {
        for r in self.groups.iter_mut().flatten() {
            if let Ok(out) = &mut r.out {
                *out = None;
            }
        }
    }

    fn runs(&self) -> impl Iterator<Item = &Run> {
        self.groups.iter().flatten()
    }

    fn ns(&self) -> u64 {
        self.end - self.start
    }

    fn failed(&self) -> usize {
        self.runs().filter(|r| r.out.is_err()).count()
    }

    /// The engine profiles of a profiled pass, folded in input order,
    /// and the simulated seconds they cover (summed per run: the fold
    /// keeps only the latest end).
    fn profile(&self) -> (EngineProfile, f64) {
        let sim_s = self
            .runs()
            .filter_map(|r| r.profile.as_ref())
            .map(|p| p.sim_seconds())
            .sum();
        (
            merge_profiles(self.runs().filter_map(|r| r.profile.clone())),
            sim_s,
        )
    }

    fn tally(&self, plan: &Plan) -> Tally {
        let mut t = Tally::default();
        let specs = plan.groups.iter().flat_map(|g| &g.specs);
        for (spec, r) in specs.zip(self.runs()) {
            if let Ok(Some(out)) = &r.out {
                t.add(spec, out);
            }
        }
        t
    }

    /// Outputs grouped like the plan; `None` if any run failed.
    fn outs(&self) -> Option<Vec<Vec<&Out>>> {
        self.groups
            .iter()
            .map(|g| g.iter().map(|r| r.out.as_ref().ok()?.as_ref()).collect())
            .collect()
    }
}

/// The layer a workload's run spans belong to.
fn run_layer(w: Workload) -> &'static str {
    if w == Workload::MapreduceMatrix {
        "mapreduce"
    } else {
        "web"
    }
}

/// One pass through `Executor::sweep`, one sweep per group. With a trace,
/// records the workload span, a span per sweep and a span per run.
fn executor_pass(
    w: Workload,
    plan: &Plan,
    exec: &Executor,
    profiled: bool,
    mut trace: Option<&mut Trace>,
    pass_no: usize,
) -> Pass {
    let pool = exec.jobs() as u64;
    let a0 = alloc_counts().allocs;
    let start = now_ns();
    let root = trace.as_deref_mut().map(|t| {
        let name = format!("{}#{pass_no}", w.name());
        t.push(Span {
            layer: "harness",
            name,
            id: 0,
            parent: None,
            width: pool,
            start,
            end: start,
            worker: worker_id(),
        })
    });
    let mut groups = Vec::with_capacity(plan.groups.len());
    let mut first_id = (pass_no * plan.runs()) as u64;
    for g in &plan.groups {
        let s0 = now_ns();
        let res = exec.sweep(
            &g.name,
            &g.specs,
            &mut Telemetry::off(),
            |i, _| i.to_string(),
            |_, spec| drive(spec, profiled),
        );
        let s1 = now_ns();
        let runs: Vec<Run> = res.unwrap_or_else(|e| {
            g.specs
                .iter()
                .map(|_| Run {
                    out: Err(e.to_string()),
                    profile: None,
                    start: s0,
                    end: s0,
                    worker: 0,
                })
                .collect()
        });
        if let Some(t) = trace.as_deref_mut() {
            let sweep = Span {
                layer: "simrun",
                name: g.name.clone(),
                id: first_id,
                parent: root,
                width: pool,
                start: s0,
                end: s1,
                worker: worker_id(),
            };
            let parent = Some(t.push(sweep));
            for (id, r) in (first_id..).zip(&runs) {
                let layer = run_layer(w);
                let span = Span {
                    layer,
                    name: "run".into(),
                    id,
                    parent,
                    width: 1,
                    start: r.start,
                    end: r.end,
                    worker: r.worker,
                };
                t.push(span);
            }
        }
        first_id += g.specs.len() as u64;
        groups.push(runs);
    }
    let end = now_ns();
    if let (Some(t), Some(root)) = (trace, root) {
        t.close(root, end);
    }
    Pass::new(groups, start, end, alloc_counts().allocs - a0)
}

/// Host cost of the telemetry probe's variants over the same runs.
#[derive(Default)]
struct VariantCost {
    untraced_ns: u64,
    traced_ns: u64,
    profiled_ns: u64,
    export_ns: u64,
    untraced_allocs: u64,
    traced_allocs: u64,
    export_bytes: usize,
    /// Runs whose untraced or traced output differs from the profiled one.
    mismatched: usize,
}

/// The telemetry probe: one pass over `plan` on this thread, each point
/// run untraced, traced, then under `Telemetry::profiled()` and exported
/// three ways; all three variants are timed and their outputs compared.
/// Span ids start after `pass_no` passes of the plan.
fn traced_pass(plan: &Plan, trace: &mut Trace, pass_no: usize, cost: &mut VariantCost) -> Pass {
    let me = worker_id();
    let a0 = alloc_counts().allocs;
    let start = now_ns();
    let root = trace.push(Span {
        layer: "harness",
        name: "traced_web".into(),
        id: 0,
        parent: None,
        width: 1,
        start,
        end: start,
        worker: me,
    });
    let span = |t: &mut Trace, layer, name: &str, id, start, end| {
        t.push(Span {
            layer,
            name: name.to_string(),
            id,
            parent: Some(root),
            width: 1,
            start,
            end,
            worker: me,
        });
    };
    let mut runs = Vec::new();
    let specs = plan.groups.iter().flat_map(|g| &g.specs);
    for (id, spec) in ((pass_no * plan.runs()) as u64..).zip(specs) {
        let mut others = Vec::new();
        if let Spec::Stack(cfg) = spec {
            let (n0, c0) = (now_ns(), alloc_counts().allocs);
            let untraced = workloads::run_off(spec);
            let (n1, c1) = (now_ns(), alloc_counts().allocs);
            let (traced, tel) = workloads::run_traced(cfg);
            let (n2, c2) = (now_ns(), alloc_counts().allocs);
            drop(tel);
            span(trace, "web", "run:untraced", id, n0, n1);
            span(trace, "web", "run:traced", id, n1, n2);
            cost.untraced_ns += n1 - n0;
            cost.traced_ns += n2 - n1;
            cost.untraced_allocs += c1 - c0;
            cost.traced_allocs += c2 - c1;
            others.push(untraced.map_err(|e| e.to_string()));
            others.push(Ok(traced));
        }
        let t0 = now_ns();
        let res = workloads::run_profiled(spec);
        let t1 = now_ns();
        let run = match res {
            Ok((out, profile, tel)) => {
                let bytes = workloads::export(&tel);
                let t2 = now_ns();
                span(trace, "web", "run:profiled", id, t0, t1);
                span(trace, "simtel", "export", id, t1, t2);
                cost.profiled_ns += t1 - t0;
                cost.export_ns += t2 - t1;
                cost.export_bytes += bytes;
                Run {
                    out: Ok(Some(out)),
                    profile: Some(profile),
                    start: t0,
                    end: t1,
                    worker: me,
                }
            }
            Err(e) => Run {
                out: Err(e.to_string()),
                profile: None,
                start: t0,
                end: t1,
                worker: me,
            },
        };
        let mut want = Digest::default();
        match &run.out {
            Ok(o) => want.add(o),
            Err(e) => want.add(e),
        }
        for o in others {
            let mut d = Digest::default();
            match &o {
                Ok(o) => d.add(&Some(o)),
                Err(e) => d.add(e),
            }
            cost.mismatched += usize::from(d != want);
        }
        runs.push(run);
    }
    let end = now_ns();
    trace.close(root, end);
    Pass::new(vec![runs], start, end, alloc_counts().allocs - a0)
}

/// Passes of the workload: the whole number of them that comes closest to
/// `--seconds` (at least one). Every plan has at least 100 runs, so
/// `run_ms_p90` has ≥ 10 samples above it after one pass.
fn timed_passes(
    args: &Args,
    plan: &Plan,
    exec: &Executor,
    mut trace: Option<&mut Trace>,
) -> Vec<Pass> {
    let begin = now_ns();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let n = passes.len();
        let pass = executor_pass(args.workload, plan, exec, false, trace.as_deref_mut(), n);
        passes.push(pass);
        if n > 0 {
            passes[n].drop_outputs();
        }
        let last = passes[n].ns();
        if secs(now_ns() - begin + last / 2) >= args.seconds {
            return passes;
        }
    }
}

/// Runs whose digest differs from the reference pass's, over `passes`.
fn mismatches(reference: &[Digest], passes: &[&Pass]) -> usize {
    passes
        .iter()
        .map(|p| {
            p.digests
                .iter()
                .zip(reference)
                .filter(|(a, b)| a != b)
                .count()
        })
        .sum()
}

/// The output check: every timed pass against the first, and the profiled
/// check pass against the first. On `mapreduce_matrix` the copied Table 8
/// retuning is also checked against `repro`'s own cells. Returns
/// (attempted, failed, digest of the first pass).
fn check(w: Workload, passes: &[Pass], profiled: &Pass) -> Result<(usize, usize, Digest), String> {
    let reference = &passes[0].digests;
    let all: Vec<&Pass> = passes.iter().chain(std::iter::once(profiled)).collect();
    let mut attempted = all.iter().map(|p| p.runs().count()).sum();
    let failed_runs: usize = all.iter().map(|p| p.failed()).sum();
    let mut failed = failed_runs + mismatches(reference, &all[1..]);
    if w == Workload::MapreduceMatrix {
        attempted += workloads::MR_CELLS;
        failed += workloads::mr_cells_drifted().map_err(|e| e.to_string())?;
    }
    let mut total = Digest::default();
    for d in reference {
        total.add(d);
    }
    Ok((attempted, failed, total))
}

fn end_to_end(args: &Args, jobs: usize) -> Result<Report, String> {
    // set-up is timed from the start of `main`, here and in fresh processes
    let (plan, exec) = setup(args, jobs)?;
    let mut setup_s = vec![secs(now_ns())];
    let passes = timed_passes(args, &plan, &exec, None);
    let peak_rss_mb = measure::peak_rss_mb();
    for _ in 0..SETUP_REPS {
        setup_s.push(setup_in_fresh_process(args)?);
    }

    // The check pass runs profiled at nproc width: it also yields the
    // event counts.
    let check_pass = executor_pass(args.workload, &plan, &exec, true, None, passes.len());
    let (attempted, failed, digest) = check(args.workload, &passes, &check_pass)?;
    let (profile, sim_s) = check_pass.profile();

    let walls: Vec<f64> = passes.iter().map(|p| secs(p.ns())).collect();
    let run_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.runs())
        .map(|r| r.ns() as f64 / 1e6)
        .collect();
    let wall_s = median(&walls);
    let paper = passes[0]
        .outs()
        .map(|o| workloads::paper_errors(args.workload, &plan, &o))
        .unwrap_or_default();
    eprintln!(
        "{}: seed {} setup_s samples {} passes {} runs/pass {} run_ms samples {} events/pass {} \
         digest {digest} fail_frac {}/{attempted} paper_err_p50 {} ({} rows)",
        args.workload.name(),
        args.seed,
        setup_s.len(),
        passes.len(),
        plan.runs(),
        run_ms.len(),
        profile.events(),
        failed,
        if paper.is_empty() {
            "n/a".to_string()
        } else {
            median(&paper).to_string()
        },
        paper.len(),
    );
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            Metric {
                name: "wall_s",
                value: wall_s,
                unit: "s",
            },
            Metric {
                name: "events_per_s",
                value: profile.events() as f64 / wall_s,
                unit: "1/s",
            },
            Metric {
                name: "sim_s_per_wall_s",
                value: sim_s / wall_s,
                unit: "sim_s/s",
            },
            Metric {
                name: "run_ms_p50",
                value: quantile(&run_ms, 0.5),
                unit: "ms",
            },
            Metric {
                name: "run_ms_p90",
                value: quantile(&run_ms, 0.9),
                unit: "ms",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb,
                unit: "MiB",
            },
            Metric {
                name: "setup_s",
                value: median(&setup_s),
                unit: "s",
            },
        ],
    })
}

/// Self-time shares of the workload's host time, and the per-layer
/// costs that come with them.
#[derive(Default)]
struct Layers {
    harness: f64,
    web: f64,
    mapreduce: f64,
    simtel: f64,
    simprof: f64,
    simrun_idle: f64,
    simrun_busy: f64,
    /// Host ns per pass inside the world model with telemetry off.
    model_ns: f64,
    export_frac: f64,
    trace_overhead: f64,
    prof_overhead: f64,
    core_allocs_per_event: f64,
    tel_allocs_per_event: f64,
}

fn share(ns: f64, total: f64) -> f64 {
    if total > 0.0 {
        ns / total
    } else {
        0.0
    }
}

/// Shares from the span tree of executor passes, in worker time: the
/// pool's capacity over every pass is `jobs × pass wall`.
fn executor_layers(
    trace: &Trace,
    passes: &[Pass],
    jobs: usize,
    allocs: u64,
    events: f64,
) -> Layers {
    let selfs = trace.self_ns();
    let layer = |l: &str| selfs.get(l).copied().unwrap_or(0.0);
    let total: f64 = passes.iter().map(|p| (jobs as u64 * p.ns()) as f64).sum();
    let run_ns: f64 = passes
        .iter()
        .flat_map(Pass::runs)
        .map(|r| r.ns() as f64)
        .sum();
    let n = passes.len() as f64;
    Layers {
        harness: share(layer("harness"), total),
        web: share(layer("web"), total),
        mapreduce: share(layer("mapreduce"), total),
        simrun_idle: share(layer("simrun"), total),
        simrun_busy: share(run_ns, run_ns + layer("simrun")),
        model_ns: run_ns / n,
        core_allocs_per_event: allocs as f64 / (events * n),
        ..Layers::default()
    }
}

/// Shares of the telemetry probe's profiled, exported runs, split by
/// difference over the same runs: simtel is what tracing adds to the
/// untraced run plus the exports, simprof what profiling adds on top of
/// tracing. The untraced and traced variants run beside the profiled
/// ones only to split their time.
fn variant_layers(c: &VariantCost, pass: &Pass, events: f64) -> Layers {
    let (u, t, p, e) = (
        c.untraced_ns as f64,
        c.traced_ns as f64,
        c.profiled_ns as f64,
        c.export_ns as f64,
    );
    let gaps = (pass.ns() as f64 - u - t - p - e).max(0.0);
    let total = p + e + gaps;
    Layers {
        simtel: share((t - u).max(0.0) + e, total),
        simprof: share((p - t).max(0.0), total),
        export_frac: share(e, total),
        trace_overhead: (t - u) / u,
        prof_overhead: (p - t) / t,
        tel_allocs_per_event: (c.traced_allocs as f64 - c.untraced_allocs as f64) / events,
        ..Layers::default()
    }
}

fn per_layer(args: &Args, jobs: usize) -> Result<Report, String> {
    COUNTING.store(true, Ordering::Relaxed);
    let w = args.workload;
    let mut trace = Trace::default();
    let (plan, exec) = setup(args, jobs)?;
    let setup_end = now_ns();
    let passes = timed_passes(args, &plan, &exec, Some(&mut trace));

    // Deterministic counts come from a profiled check pass on one worker.
    let check_pass = executor_pass(w, &plan, &Executor::serial(), true, None, passes.len());
    let (mut attempted, mut failed, digest) = check(w, &passes, &check_pass)?;
    let (profile, _) = check_pass.profile();
    let events = profile.events() as f64;
    let run_depths: Vec<f64> = check_pass
        .runs()
        .filter_map(|r| r.profile.as_ref())
        .map(|p| p.heap_depth_hwm as f64)
        .collect();
    let tally = passes[0].tally(&plan);
    let paper = passes[0]
        .outs()
        .map(|o| workloads::paper_errors(w, &plan, &o))
        .unwrap_or_default();
    let allocs: u64 = passes.iter().map(|p| p.allocs).sum();
    let mut l = executor_layers(&trace, &passes, exec.jobs(), allocs, events);
    let mut export_bytes = 0.0;
    if w == Workload::WebSweeps {
        // The telemetry probe: every workload runs telemetry off, so
        // web_sweeps' traced run also plays the below-knee traced_web plan
        // once, untraced, traced and profiled with exports, and reports
        // the simtel and simprof metrics from it.
        let probe = workloads::traced_web(args.seed).map_err(|e| e.to_string())?;
        let mut pc = VariantCost::default();
        let pass = traced_pass(&probe, &mut trace, passes.len() + 1, &mut pc);
        let v = variant_layers(&pc, &pass, pass.profile().0.events() as f64);
        l.simtel = v.simtel;
        l.simprof = v.simprof;
        l.export_frac = v.export_frac;
        l.trace_overhead = v.trace_overhead;
        l.prof_overhead = v.prof_overhead;
        l.tel_allocs_per_event = v.tel_allocs_per_event;
        export_bytes = pc.export_bytes as f64;
        attempted += 3 * pass.runs().count();
        failed += pass.failed() + pc.mismatched;
    }
    trace.push(Span {
        layer: "harness",
        name: "setup".into(),
        id: 0,
        parent: None,
        width: 1,
        start: 0,
        end: setup_end,
        worker: worker_id(),
    });

    let spans_path = format!("perfbench/out/{}-seed{}.trace.json", w.name(), args.seed);
    if let Err(e) = std::fs::create_dir_all("perfbench/out")
        .and_then(|_| std::fs::write(&spans_path, trace.chrome_json()))
    {
        eprintln!("perfbench: could not write {spans_path}: {e}");
    }
    eprintln!(
        "{}: seed {} passes {} digest {digest} fail_frac {failed}/{attempted} spans {spans_path}",
        w.name(),
        args.seed,
        passes.len()
    );

    let t = &tally;
    let frac = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    let runs_failed: usize = passes.iter().map(Pass::failed).sum();
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            Metric {
                name: "simcore.events",
                value: events,
                unit: "count",
            },
            Metric {
                name: "simcore.heap_pushes",
                value: profile.heap_pushes as f64,
                unit: "count",
            },
            Metric {
                name: "simcore.heap_depth_max",
                value: profile.heap_depth_hwm as f64,
                unit: "count",
            },
            Metric {
                name: "simcore.heap_depth_p50",
                value: median(&run_depths),
                unit: "count",
            },
            Metric {
                name: "simcore.allocs_per_event",
                value: l.core_allocs_per_event,
                unit: "allocs/event",
            },
            Metric {
                name: "simcore.chain_ns_shallow",
                value: chain::chain_ns(chain::SHALLOW_DEPTH),
                unit: "ns",
            },
            Metric {
                name: "simcore.chain_ns_deep",
                value: chain::chain_ns(chain::DEEP_DEPTH),
                unit: "ns",
            },
            Metric {
                name: "model.busy_s",
                value: l.model_ns * 1e-9,
                unit: "s",
            },
            Metric {
                name: "model.ns_per_event",
                value: l.model_ns / events,
                unit: "ns",
            },
            Metric {
                name: "harness.self_frac",
                value: l.harness,
                unit: "frac",
            },
            Metric {
                name: "web.busy_frac",
                value: l.web,
                unit: "frac",
            },
            Metric {
                name: "web.requests_completed",
                value: t.requests_completed as f64,
                unit: "count",
            },
            Metric {
                name: "web.completed_frac",
                value: frac(
                    t.requests_completed,
                    t.requests_completed + t.request_errors,
                ),
                unit: "frac",
            },
            Metric {
                name: "web.retries",
                value: t.retries as f64,
                unit: "count",
            },
            Metric {
                name: "web.failovers",
                value: t.failovers as f64,
                unit: "count",
            },
            Metric {
                name: "mapreduce.busy_frac",
                value: l.mapreduce,
                unit: "frac",
            },
            Metric {
                name: "mapreduce.jobs",
                value: t.jobs as f64,
                unit: "count",
            },
            Metric {
                name: "mapreduce.sim_s",
                value: t.job_sim_s,
                unit: "sim_s",
            },
            Metric {
                name: "mapreduce.useful_attempt_frac",
                value: frac(t.tasks, t.task_attempts),
                unit: "frac",
            },
            Metric {
                name: "simtel.self_frac",
                value: l.simtel,
                unit: "frac",
            },
            Metric {
                name: "simtel.trace_overhead_frac",
                value: l.trace_overhead,
                unit: "frac",
            },
            Metric {
                name: "simtel.allocs_per_event",
                value: l.tel_allocs_per_event,
                unit: "allocs/event",
            },
            Metric {
                name: "simtel.export_frac",
                value: l.export_frac,
                unit: "frac",
            },
            Metric {
                name: "simtel.export_bytes",
                value: export_bytes,
                unit: "bytes",
            },
            Metric {
                name: "simprof.self_frac",
                value: l.simprof,
                unit: "frac",
            },
            Metric {
                name: "simprof.overhead_frac",
                value: l.prof_overhead,
                unit: "frac",
            },
            Metric {
                name: "simrun.busy_frac",
                value: l.simrun_busy,
                unit: "frac",
            },
            Metric {
                name: "simrun.idle_frac",
                value: l.simrun_idle,
                unit: "frac",
            },
            Metric {
                name: "simrun.runs",
                value: plan.runs() as f64,
                unit: "count",
            },
            Metric {
                name: "simrun.runs_failed",
                value: runs_failed as f64,
                unit: "count",
            },
            Metric {
                name: "simguard.admitted",
                value: t.admitted as f64,
                unit: "count",
            },
            // requests the guard refused, at the LB (counted per connection,
            // so scaled to requests as overload_sweep does) or after
            // admission, over the requests that reached it
            Metric {
                name: "simguard.shed_frac",
                value: {
                    let lb = t.lb_rejected as f64 * CALLS_PER_CONN;
                    let offered = t.admitted as f64 + lb;
                    if offered > 0.0 {
                        (t.shed as f64 + lb) / offered
                    } else {
                        0.0
                    }
                },
                unit: "frac",
            },
            Metric {
                name: "simguard.degraded_frac",
                value: frac(t.degraded, t.admitted),
                unit: "frac",
            },
            Metric {
                name: "simguard.breaker_trips",
                value: t.breaker_trips as f64,
                unit: "count",
            },
            Metric {
                name: "simfault.faults_injected",
                value: t.faults_injected as f64,
                unit: "count",
            },
            Metric {
                name: "simfault.recovery_s_mean",
                value: if t.recoveries > 0 {
                    t.recovery_s_sum / t.recoveries as f64
                } else {
                    0.0
                },
                unit: "sim_s",
            },
            Metric {
                name: "hw.energy_j",
                value: t.energy_j,
                unit: "sim_J",
            },
            Metric {
                name: "hw.requests_per_j",
                // 0 on mapreduce_matrix, which serves no requests
                value: t.requests_completed as f64 / t.energy_j,
                unit: "1/sim_J",
            },
            Metric {
                name: "hw.paper_err_p50",
                value: median(&paper),
                unit: "frac",
            },
        ],
    })
}
