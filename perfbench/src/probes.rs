//! Per-layer probes of the traced run: each drives one layer through its
//! public functions on the workload's own inputs and times it from outside.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use bitsim::AigSimulator;
use netlist::{Aig, Lit};
use satsolver::{CircuitSat, EquivOutcome};
use stp_sweep::equiv::EquivClasses;
use stp_sweep::patterns::{sat_guided_patterns, PatternGenConfig};
use stp_sweep::window::WindowIndex;
use stp_sweep::{Engine, Observer, SweepCheckpoint, SweepConfig, Sweeper};

use crate::inputs::{Circuit, Job};
use crate::report::Tally;
use crate::trace::Tracer;

/// Initial candidate pairs replayed per circuit, in class order; bounds
/// the traced run on circuits with many candidates.
const REPLAY_PAIRS: usize = 400;

/// The initial-candidate layers: SAT-guided patterns, class building,
/// window comparison and the SAT solver, summed over the circuits.
#[derive(Default)]
pub struct CandidateLayers {
    pub sat_guided_s: f64,
    pub equiv_build_s: f64,
    pub classes: u64,
    pub candidates: u64,
    pub window_build_s: f64,
    pub window_compare_s: f64,
    pub window_pairs: u64,
    pub window_decided: u64,
    pub encode_s: f64,
    pub solve_s: f64,
    pub calls: u64,
    pub sat: u64,
    pub unsat: u64,
    pub undet: u64,
    pub conflicts: u64,
    pub decisions: u64,
    pub propagations: u64,
}

/// Builds each circuit's initial candidate classes the way the STP engine
/// does, compares every pair through the window index, and replays the
/// pairs on one incremental `CircuitSat` per circuit, timing encoding
/// (`lit_to_sat`) apart from search (`prove_equivalent`).
pub fn candidate_layers(
    circuits: &[Circuit],
    tracer: &Tracer,
    parent: u64,
    tally: &mut Tally,
) -> CandidateLayers {
    let mut out = CandidateLayers::default();
    let config = SweepConfig::paper();
    for circuit in circuits {
        let span = tracer.span_with("probe.candidates", parent, || circuit.name.clone());
        let probed = catch_unwind(AssertUnwindSafe(|| {
            probe_circuit(&circuit.aig, &config, tracer, span.id(), &mut out)
        }));
        match probed {
            Ok(()) => tally.ok(),
            Err(_) => tally.fail(format!("candidate probe of {} panicked", circuit.name)),
        }
    }
    out
}

fn probe_circuit(
    aig: &Aig,
    config: &SweepConfig,
    tracer: &Tracer,
    parent: u64,
    out: &mut CandidateLayers,
) {
    let gen_config = PatternGenConfig {
        num_random: config.num_initial_patterns,
        seed: config.seed,
        conflict_limit: config.conflict_limit.min(2_000),
        ..PatternGenConfig::default()
    };
    let patterns = {
        let _s = tracer.span("patterns.sat_guided", parent);
        let mut sat = CircuitSat::new(aig);
        let start = Instant::now();
        let (patterns, _) = sat_guided_patterns(aig, &mut sat, &gen_config);
        out.sat_guided_s += start.elapsed().as_secs_f64();
        patterns
    };
    let state = AigSimulator::new(aig).run(&patterns);
    let classes = {
        let _s = tracer.span("equiv.build", parent);
        let start = Instant::now();
        let classes =
            EquivClasses::from_node_signatures(aig.and_ids().map(|id| (id, state.signature(id))));
        out.equiv_build_s += start.elapsed().as_secs_f64();
        classes
    };
    out.classes += classes.classes().len() as u64;
    out.candidates += classes.num_candidates() as u64;
    let pairs: Vec<(usize, usize, bool)> = classes
        .classes()
        .iter()
        .flat_map(|class| {
            let rep = class.representative();
            class.members()[1..]
                .iter()
                .zip(&class.phases()[1..])
                .map(move |(&member, &phase)| (member, rep, phase))
        })
        .collect();

    let windows = {
        let _s = tracer.span("window.build", parent);
        let start = Instant::now();
        let windows = WindowIndex::build(aig, config.window_limit);
        out.window_build_s += start.elapsed().as_secs_f64();
        windows
    };
    {
        let _s = tracer.span("window.compare", parent);
        let start = Instant::now();
        let decided = pairs
            .iter()
            .filter(|&&(member, rep, phase)| windows.compare(aig, member, rep, phase).is_some())
            .count();
        out.window_compare_s += start.elapsed().as_secs_f64();
        out.window_pairs += pairs.len() as u64;
        out.window_decided += decided as u64;
    }

    let _s = tracer.span("satsolver.replay", parent);
    let mut sat = CircuitSat::new(aig);
    for &(member, rep, phase) in pairs.iter().take(REPLAY_PAIRS) {
        let a = Lit::positive(member);
        let b = Lit::new(rep, phase);
        let start = Instant::now();
        sat.lit_to_sat(a);
        sat.lit_to_sat(b);
        let encoded = Instant::now();
        let outcome = sat.prove_equivalent(a, b, config.conflict_limit);
        out.solve_s += encoded.elapsed().as_secs_f64();
        out.encode_s += encoded.duration_since(start).as_secs_f64();
        out.calls += 1;
        match outcome {
            EquivOutcome::Equivalent => out.unsat += 1,
            EquivOutcome::CounterExample(_) => out.sat += 1,
            EquivOutcome::Undetermined => out.undet += 1,
        }
    }
    let stats = sat.solver_stats();
    out.conflicts += stats.conflicts;
    out.decisions += stats.decisions;
    out.propagations += stats.propagations;
}

/// Checkpoint codec and resume, on checkpoints captured in process from
/// the daemon's circuits.
#[derive(Default)]
pub struct CheckpointLayer {
    pub bytes: Vec<f64>,
    pub encode_mb_per_s: f64,
    pub decode_mb_per_s: f64,
    pub resume_s: Vec<f64>,
}

/// Checkpoints captured per sweep; each can be several megabytes.
const CHECKPOINTS_PER_SWEEP: usize = 4;
/// Committed candidates between captured checkpoints.
const CHECKPOINT_EVERY: usize = 40;

struct Capture(Vec<Vec<u8>>);

impl Observer for Capture {
    fn on_checkpoint(&mut self, _checkpoint: &SweepCheckpoint, encoded: &[u8]) {
        if self.0.len() < CHECKPOINTS_PER_SWEEP {
            self.0.push(encoded.to_vec());
        }
    }
}

pub fn checkpoint_layer(
    jobs: &[Job],
    tracer: &Tracer,
    parent: u64,
    tally: &mut Tally,
) -> CheckpointLayer {
    let mut out = CheckpointLayer::default();
    let (mut total_bytes, mut encode_s, mut decode_s) = (0.0, 0.0, 0.0);
    for job in jobs {
        let span = tracer.span_with("probe.checkpoint", parent, || job.name.clone());
        let probed = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
            let mut capture = Capture(Vec::new());
            {
                let _s = tracer.span("checkpoint.capture", span.id());
                Sweeper::new(Engine::Stp)
                    .config(SweepConfig::paper().checkpoint_every(CHECKPOINT_EVERY))
                    .observer(&mut capture)
                    .run(&job.aig)
                    .map_err(|e| e.to_string())?;
            }
            for encoded in &capture.0 {
                let _s = tracer.span("checkpoint.roundtrip", span.id());
                let start = Instant::now();
                let checkpoint = SweepCheckpoint::decode(encoded).map_err(|e| e.to_string())?;
                let decoded = Instant::now();
                let reencoded = checkpoint.encode();
                let encoded_at = Instant::now();
                Sweeper::new(Engine::Stp)
                    .resume_from(&job.aig, &checkpoint)
                    .map_err(|e| e.to_string())?;
                out.resume_s.push(encoded_at.elapsed().as_secs_f64());
                decode_s += decoded.duration_since(start).as_secs_f64();
                encode_s += encoded_at.duration_since(decoded).as_secs_f64();
                total_bytes += encoded.len() as f64;
                out.bytes.push(encoded.len() as f64);
                if reencoded != *encoded {
                    return Err("re-encoding a decoded checkpoint changed its bytes".into());
                }
            }
            if capture.0.is_empty() {
                return Err("no checkpoint was captured".into());
            }
            Ok(())
        }));
        match probed {
            Ok(Ok(())) => tally.ok(),
            Ok(Err(err)) => tally.fail(format!("checkpoint probe of {}: {err}", job.name)),
            Err(_) => tally.fail(format!("checkpoint probe of {} panicked", job.name)),
        }
    }
    let mb = total_bytes / 1e6;
    out.encode_mb_per_s = if encode_s > 0.0 { mb / encode_s } else { 0.0 };
    out.decode_mb_per_s = if decode_s > 0.0 { mb / decode_s } else { 0.0 };
    out
}

/// In-process wall time of the STP sweep of each job, for the daemon's
/// overhead ratio.
pub fn in_process_times(
    jobs: &[&Job],
    tracer: &Tracer,
    parent: u64,
    tally: &mut Tally,
) -> Vec<Option<f64>> {
    jobs.iter()
        .map(|job| {
            let _s = tracer.span_with("probe.in_process", parent, || job.name.clone());
            let start = Instant::now();
            let swept = catch_unwind(AssertUnwindSafe(|| {
                Sweeper::new(Engine::Stp)
                    .config(SweepConfig::paper())
                    .run(&job.aig)
            }));
            let secs = start.elapsed().as_secs_f64();
            match swept {
                Ok(Ok(_)) => {
                    tally.ok();
                    Some(secs)
                }
                _ => {
                    tally.fail(format!("in-process sweep of {}", job.name));
                    None
                }
            }
        })
        .collect()
}
