//! perfbench — the repository's benchmark: in-process sweeps with both
//! engines, STP versus bitwise simulation, and the sweep daemon under a
//! closed loop, each timed from outside through the public API and each
//! output checked by exhaustive simulation.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload arith|control --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.  A traced run
//! also writes `.perfbench/trace-<workload>-<seed>.json` (Chrome trace
//! events).  End-to-end times are calibrated by the yardstick (see
//! `yardstick.rs`).  See `perfbench/README.md` for what each metric
//! measures.

mod check;
mod daemon;
mod inputs;
mod probes;
mod report;
mod sim;
mod sweep;
mod trace;
mod yardstick;

use std::os::raw::c_int;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use inputs::{Inputs, Workload};
use report::{median, sum_of_medians, sum_of_minima, tail, Metrics, Tally};
use trace::Tracer;
use yardstick::{Sample, Yardstick};

/// Set-ups per untraced run, spread over it; `setup_s` is their calibrated
/// median.
const SETUPS: usize = 3;
/// Shares of `--seconds` given to sweeps (with the simulation batches
/// between them) and to the daemon's load windows.
const SWEEP_SHARE: f64 = 0.75;
const DAEMON_SHARE: f64 = 0.25;
/// Simulation batches run after each circuit's sweeps.
const SIM_BATCHES_PER_SWEEP: usize = 4;
/// Cycles of an untraced run; each gives every phase its share once.
const CYCLES: usize = 4;
/// Daemon jobs re-run in process for the overhead ratio.
const OVERHEAD_JOBS: usize = 8;
/// Daemon circuits the checkpoint probe captures from.
const CHECKPOINT_JOBS: usize = 2;
/// Where sockets and traces go, relative to the working directory.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload arith|control --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |key: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == key)
            .ok_or_else(|| format!("missing {key}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{key} needs a value"))
    };
    let workload = value("--workload")?;
    let args = Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    };
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(OUT_DIR);
    if let Err(err) = std::fs::create_dir_all(out_dir) {
        eprintln!("perfbench: creating {OUT_DIR}: {err}");
        return ExitCode::FAILURE;
    }
    match pin_to_current_cpu() {
        Ok(cpu) => println!("perfbench: running on CPU {cpu} only"),
        Err(err) => eprintln!("perfbench: not pinned to one CPU: {err}"),
    }
    let yardstick = Yardstick::new();
    let tracer = Tracer::new(args.trace);
    let mut tally = Tally::default();
    let run = tracer.span_with("run", 0, || {
        format!("{} seed {}", args.workload.name(), args.seed)
    });

    let mut setup_s = Vec::new();
    let mut timed_setup = || -> Result<Inputs, String> {
        yardstick.measure();
        let at = yardstick.now();
        let start = Instant::now();
        let built = inputs::setup(args.workload, args.seed, &tracer, run.id())?;
        setup_s.push(Sample {
            secs: start.elapsed().as_secs_f64(),
            at,
        });
        Ok(built)
    };
    let inputs = match timed_setup() {
        Ok(inputs) => inputs,
        Err(err) => {
            eprintln!("perfbench: setup failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perfbench: {} seed {}: {} sweep circuits, {} simulated circuits, {} daemon jobs prepared",
        args.workload.name(),
        args.seed,
        inputs.sweep.len(),
        inputs.sim.len(),
        inputs.jobs.len()
    );

    // The phases take turns in cycles, so each circuit's samples and the
    // daemon's load windows are spread over the whole run.
    let cycles = if args.trace { 1 } else { CYCLES };
    let slice = |share: f64| Duration::from_secs_f64(args.seconds * share / cycles as f64);
    let mut sweeps = sweep::Sweeps::new(&inputs.sweep);
    let mut sims = sim::Sims::new(&inputs.sim, args.seed, &tracer, run.id());
    let socket = out_dir.join(format!("sweepd-{}.sock", std::process::id()));
    let mut service = match daemon::Daemon::start(&inputs.jobs, &socket) {
        Ok(service) => Some(service),
        Err(err) => {
            tally.fail(err);
            None
        }
    };
    let mut turn = 0;
    for cycle in 0..cycles {
        // The other set-ups are timed between cycles, so a slow stretch of
        // the machine does not meet all of them.
        if !args.trace && cycle > 0 && cycle % (CYCLES / (SETUPS - 1)) == 0 {
            if let Err(err) = timed_setup() {
                tally.fail(format!("repeated setup: {err}"));
            }
        }
        let cycle_span = tracer.span("cycle", run.id());
        // The circuits take turns across cycles, and simulation batches go
        // between the sweeps, so every circuit's samples of both phases are
        // spread over the whole run.  The last cycle goes on until every
        // circuit has been swept; a traced run sweeps each circuit once
        // plainly and once traced.
        let sweep_slice = if args.trace {
            Duration::ZERO
        } else {
            slice(SWEEP_SHARE)
        };
        let start = Instant::now();
        loop {
            yardstick.measure();
            let at = yardstick.now();
            sweeps.sweep(
                turn % sweeps.len(),
                at,
                &tracer,
                cycle_span.id(),
                &mut tally,
            );
            turn += 1;
            for _ in 0..SIM_BATCHES_PER_SWEEP {
                sims.next_batch(at, &tracer, cycle_span.id(), &mut tally);
            }
            let last = cycle + 1 == cycles;
            if start.elapsed() >= sweep_slice && (!last || turn >= sweeps.len()) {
                break;
            }
        }
        if let Some(service) = service.as_mut() {
            service.window(
                slice(DAEMON_SHARE),
                &yardstick,
                &tracer,
                cycle_span.id(),
                &mut tally,
            );
        }
    }
    if !args.trace {
        if let Err(err) = timed_setup() {
            tally.fail(format!("repeated setup: {err}"));
        }
    }
    sweeps.check(&tracer, run.id(), &mut tally);
    let completed = match service {
        Some(service) => service.finish(&tracer, run.id(), &mut tally),
        None => Vec::new(),
    };
    let samples: Vec<Sample> = completed.iter().map(|c| c.latency()).collect();
    let latencies: Vec<f64> = samples.iter().map(|&s| yardstick.calibrated(s)).collect();
    let (tail_s, tail_pct) = tail(&latencies);
    println!(
        "perfbench: daemon: {} jobs from {} closed-loop clients; tail = p{tail_pct:.1} ({} samples beyond)",
        latencies.len(),
        daemon::CLIENTS,
        latencies.len().saturating_sub(1).min(10)
    );
    if latencies.is_empty() {
        tally.fail("no daemon job completed");
    }

    let mut metrics = Metrics::default();
    if args.trace {
        per_layer(
            &inputs,
            &sweeps.runs,
            &sims,
            &completed,
            &tracer,
            run.id(),
            &mut tally,
            &mut metrics,
        );
    } else {
        print_wall_times(&sweeps.runs, &sims, &samples, &yardstick);
        let calibrated = |samples: &[Vec<Sample>]| sum_of_medians(&yardstick.calibrate(samples));
        metrics.add("setup_s", calibrated(&[setup_s]), "s");
        metrics.add("stp.sweep_s", calibrated(&sweeps.runs[0].times), "s");
        metrics.add("fraig.sweep_s", calibrated(&sweeps.runs[1].times), "s");
        metrics.add("stp.ands_after", sweeps.runs[0].ands_after as f64, "count");
        metrics.add(
            "fraig.ands_after",
            sweeps.runs[1].ands_after as f64,
            "count",
        );
        metrics.add("sim.stp_s", calibrated(&sims.stp), "s");
        metrics.add("sim.aig_s", calibrated(&sims.aig), "s");
        metrics.add("daemon.job_p50_s", median(&latencies), "s");
        metrics.add("daemon.job_tail_s", tail_s, "s");
        // Little's law for a closed loop without think time: each client
        // always has one job in flight, so the service completes
        // clients / mean latency jobs per second.  Unlike jobs counted per
        // wall second, this leaves out the drain at the end of each window.
        let mean_latency = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
        metrics.add(
            "daemon.jobs_per_s",
            daemon::CLIENTS as f64 / mean_latency,
            "1/s",
        );
        match peak_rss_mb() {
            Some(mb) => metrics.add("peak_rss_mb", mb, "MB"),
            None => {
                tally.fail("reading the peak resident set size");
                metrics.add("peak_rss_mb", 0.0, "MB");
            }
        }
    }

    drop(run);
    if args.trace {
        let path = out_dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
        match tracer.write_chrome(&path) {
            Ok(()) => println!(
                "perfbench: wrote {} trace events to {}",
                tracer.num_events(),
                path.display()
            ),
            Err(err) => tally.fail(format!("writing {}: {err}", path.display())),
        }
    }
    println!("{}", metrics.result_line(&tally));
    ExitCode::SUCCESS
}

/// Prints the uncalibrated figures behind the end-to-end metrics: the sum
/// of each circuit's fastest wall time, the median job latency, and the
/// yardstick's median against its reference time.
fn print_wall_times(
    sweeps: &[sweep::EngineRuns; 2],
    sims: &sim::Sims,
    jobs: &[Sample],
    yardstick: &Yardstick,
) {
    let wall: Vec<f64> = jobs.iter().map(|s| s.secs).collect();
    let fewest = |samples: &[Vec<Sample>]| samples.iter().map(Vec::len).min();
    println!(
        "perfbench: samples per circuit: sweeps {}, simulation {}",
        fewest(&sweeps[0].times).unwrap_or(0),
        fewest(&sims.stp).unwrap_or(0)
    );
    println!(
        "perfbench: wall seconds (fastest sample per circuit): stp.sweep {:.4}, fraig.sweep {:.4}, \
         sim.stp {:.5}, sim.aig {:.5}; daemon job median {:.4}; yardstick median {:.5} s \
         against {} s",
        sum_of_minima(&sweeps[0].times),
        sum_of_minima(&sweeps[1].times),
        sum_of_minima(&sims.stp),
        sum_of_minima(&sims.aig),
        median(&wall),
        yardstick.median(),
        yardstick::REFERENCE_S
    );
}

/// The traced run's per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    inputs: &Inputs,
    sweeps: &[sweep::EngineRuns; 2],
    sims: &sim::Sims,
    completed: &[daemon::Completed],
    tracer: &Tracer,
    parent: u64,
    tally: &mut Tally,
    metrics: &mut Metrics,
) {
    let layers = probes::candidate_layers(&inputs.sweep, tracer, parent, tally);
    metrics.add("satsolver.encode_s", layers.encode_s, "s");
    metrics.add("satsolver.solve_s", layers.solve_s, "s");
    metrics.add("satsolver.calls", layers.calls as f64, "count");
    metrics.add("satsolver.sat", layers.sat as f64, "count");
    metrics.add("satsolver.unsat", layers.unsat as f64, "count");
    metrics.add("satsolver.undet", layers.undet as f64, "count");
    metrics.add("satsolver.conflicts", layers.conflicts as f64, "count");
    metrics.add("satsolver.decisions", layers.decisions as f64, "count");
    metrics.add(
        "satsolver.propagations",
        layers.propagations as f64,
        "count",
    );

    for (runs, names) in sweeps.iter().zip([SESSION_STP, SESSION_FRAIG]) {
        let sum =
            |f: &dyn Fn(&stp_sweep::SweepReport) -> f64| runs.reports.iter().map(f).sum::<f64>();
        let sim_s = sum(&|r| r.simulation_time.as_secs_f64());
        let sat_s = sum(&|r| r.sat_time.as_secs_f64());
        let total_s = sum(&|r| r.total_time.as_secs_f64());
        let values = [
            sum(&|r| r.sat_calls_total as f64),
            sum(&|r| r.merges as f64),
            sum(&|r| r.constants as f64),
            sum(&|r| r.disproved_by_simulation as f64),
            sum(&|r| r.proved_by_simulation as f64),
            sum(&|r| r.resim_nodes as f64),
            sim_s,
            sat_s,
            total_s - sim_s - sat_s,
        ];
        for ((name, unit), value) in names.iter().zip(values) {
            metrics.add(name, value, unit);
        }
    }

    metrics.add("window.build_s", layers.window_build_s, "s");
    metrics.add("window.compare_s", layers.window_compare_s, "s");
    let decided = if layers.window_pairs > 0 {
        layers.window_decided as f64 / layers.window_pairs as f64
    } else {
        0.0
    };
    metrics.add("window.decided_ratio", decided, "ratio");
    metrics.add("equiv.build_s", layers.equiv_build_s, "s");
    metrics.add("equiv.classes", layers.classes as f64, "count");
    metrics.add("equiv.candidates", layers.candidates as f64, "count");
    metrics.add("patterns.sat_guided_s", layers.sat_guided_s, "s");

    let stp_s = sum_of_minima(&sims.stp);
    let aig_s = sum_of_minima(&sims.aig);
    metrics.add("stp_sim.build_s", sims.stp_build_s, "s");
    metrics.add("stp_sim.simulate_s", stp_s, "s");
    metrics.add(
        "stp_sim.gwords_per_s",
        sims.stp_words / stp_s / 1e9,
        "Gword/s",
    );
    metrics.add("bitsim.aig_sim_s", aig_s, "s");
    metrics.add(
        "bitsim.gwords_per_s",
        sims.aig_words / aig_s / 1e9,
        "Gword/s",
    );

    let checkpoint_jobs = &inputs.jobs[..CHECKPOINT_JOBS.min(inputs.jobs.len())];
    let checkpoints = probes::checkpoint_layer(checkpoint_jobs, tracer, parent, tally);
    metrics.add("checkpoint.bytes", median(&checkpoints.bytes), "B");
    metrics.add(
        "checkpoint.encode_mb_per_s",
        checkpoints.encode_mb_per_s,
        "MB/s",
    );
    metrics.add(
        "checkpoint.decode_mb_per_s",
        checkpoints.decode_mb_per_s,
        "MB/s",
    );
    metrics.add("checkpoint.resume_s", median(&checkpoints.resume_s), "s");

    metrics.add("netlist.aiger_read_s", inputs.aiger_read_s, "s");
    metrics.add("netlist.aiger_write_s", inputs.aiger_write_s, "s");
    metrics.add("netlist.lutmap_s", inputs.lutmap_s, "s");

    let submit: Vec<f64> = completed.iter().map(|c| c.submit_s).collect();
    let fetch: Vec<f64> = completed.iter().filter_map(|c| c.fetch_s).collect();
    let slices: Vec<f64> = completed
        .iter()
        .filter_map(|c| c.slices)
        .map(|s| s as f64)
        .collect();
    let first: Vec<&daemon::Completed> = completed.iter().take(OVERHEAD_JOBS).collect();
    let first_jobs: Vec<&inputs::Job> = first.iter().map(|c| &inputs.jobs[c.job]).collect();
    let in_process = probes::in_process_times(&first_jobs, tracer, parent, tally);
    let overhead: Vec<f64> = first
        .iter()
        .zip(in_process)
        .filter_map(|(c, t)| t.map(|t| c.latency_s / t))
        .collect();
    metrics.add("daemon.submit_s", median(&submit), "s");
    metrics.add("daemon.fetch_s", median(&fetch), "s");
    metrics.add(
        "daemon.slices_per_job",
        slices.iter().sum::<f64>() / slices.len().max(1) as f64,
        "count",
    );
    metrics.add("daemon.overhead", median(&overhead), "ratio");

    let untraced: f64 = sweeps.iter().map(|r| sum_of_minima(&r.times)).sum();
    let traced: f64 = sweeps.iter().map(|r| sum_of_minima(&r.traced_times)).sum();
    metrics.add("trace.overhead", traced / untraced, "ratio");
}

const SESSION_STP: [(&str, &str); 9] = [
    ("session.stp.sat_calls", "count"),
    ("session.stp.merges", "count"),
    ("session.stp.constants", "count"),
    ("session.stp.disproved_by_sim", "count"),
    ("session.stp.proved_by_sim", "count"),
    ("session.stp.resim_nodes", "count"),
    ("session.stp.sim_time_s", "s"),
    ("session.stp.sat_time_s", "s"),
    ("session.stp.other_s", "s"),
];

const SESSION_FRAIG: [(&str, &str); 9] = [
    ("session.fraig.sat_calls", "count"),
    ("session.fraig.merges", "count"),
    ("session.fraig.constants", "count"),
    ("session.fraig.disproved_by_sim", "count"),
    ("session.fraig.proved_by_sim", "count"),
    ("session.fraig.resim_nodes", "count"),
    ("session.fraig.sim_time_s", "s"),
    ("session.fraig.sat_time_s", "s"),
    ("session.fraig.other_s", "s"),
];

/// Keeps the calling thread, and every thread it starts later, on the CPU
/// it runs on now.  The yardstick is timed on the main and client threads,
/// the daemon's jobs run on its worker threads; on one CPU, both are timed
/// at that CPU's speed.
fn pin_to_current_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getcpu() -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    }
    const MAX_CPUS: usize = 1024;
    // SAFETY: takes no arguments and only reads the calling thread's state.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu)
        .ok()
        .filter(|&cpu| cpu < MAX_CPUS)
        .ok_or_else(|| format!("sched_getcpu returned {cpu}"))?;
    let mut mask = [0u64; MAX_CPUS / 64];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` outlives the call and its size is passed with it;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    Ok(cpu)
}

/// The process's peak resident set size (`VmHWM`) in megabytes.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
