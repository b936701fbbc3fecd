//! The paper's Table I path: STP simulation of the 6-LUT mapping against
//! bitwise AIG simulation, over seeded batches of 2^16 patterns.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use bitsim::{AigSimulator, PatternSet, Signature};
use stp_sweep::stp_sim::StpSimulator;

use crate::inputs::{mix, SimCircuit};
use crate::report::Tally;
use crate::trace::Tracer;
use crate::yardstick::Sample;

const BATCH_PATTERNS: usize = 1 << 16;

/// Simulations of one workload, accumulated round by round.
pub struct Sims<'a> {
    circuits: &'a [SimCircuit],
    simulators: Vec<StpSimulator<'a>>,
    seed: u64,
    /// Batches simulated so far; the next batch goes to circuit
    /// `batches % circuits.len()`.
    batches: u64,
    /// Per circuit, one sample per batch.
    pub stp: Vec<Vec<Sample>>,
    pub aig: Vec<Vec<Sample>>,
    /// Summed `StpSimulator::new` time over the circuits.
    pub stp_build_s: f64,
    /// Signature words one batch writes, per simulator, summed over circuits.
    pub stp_words: f64,
    pub aig_words: f64,
}

impl<'a> Sims<'a> {
    pub fn new(circuits: &'a [SimCircuit], seed: u64, tracer: &Tracer, parent: u64) -> Self {
        let words = (BATCH_PATTERNS / 64) as f64;
        let mut stp_build_s = 0.0;
        let simulators = circuits
            .iter()
            .map(|c| {
                let _s = tracer.span_with("stp_sim.build", parent, || c.name.to_string());
                let start = Instant::now();
                let sim = StpSimulator::new(&c.net);
                stp_build_s += start.elapsed().as_secs_f64();
                sim
            })
            .collect();
        Sims {
            circuits,
            simulators,
            seed,
            batches: 0,
            stp: vec![Vec::new(); circuits.len()],
            aig: vec![Vec::new(); circuits.len()],
            stp_build_s,
            stp_words: circuits
                .iter()
                .map(|c| c.net.num_nodes() as f64 * words)
                .sum(),
            aig_words: circuits
                .iter()
                .map(|c| c.aig.num_nodes() as f64 * words)
                .sum(),
        }
    }

    /// Simulates the next circuit in turn on a fresh seeded batch with
    /// both simulators and cross-checks every output signature; `at` is
    /// the time on the yardstick's clock.
    pub fn next_batch(&mut self, at: f64, tracer: &Tracer, parent: u64, tally: &mut Tally) {
        let ci = (self.batches % self.circuits.len() as u64) as usize;
        let circuit = &self.circuits[ci];
        let batch_seed = mix(self.seed, self.batches);
        self.batches += 1;
        let patterns =
            match PatternSet::random(circuit.aig.num_inputs(), BATCH_PATTERNS, batch_seed) {
                Ok(patterns) => patterns,
                Err(err) => {
                    tally.fail(format!("patterns for {}: {err}", circuit.name));
                    return;
                }
            };
        let batch = tracer.span_with("simulate.batch", parent, || circuit.name.to_string());
        let simulator = &self.simulators[ci];
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (expected, aig_s) = {
                let _s = tracer.span("bitsim.aig_sim", batch.id());
                let start = Instant::now();
                let state = AigSimulator::new(&circuit.aig).run(&patterns);
                let secs = start.elapsed().as_secs_f64();
                let outputs: Vec<Signature> = (0..circuit.aig.num_outputs())
                    .map(|o| state.output_signature(&circuit.aig, o))
                    .collect();
                (outputs, secs)
            };
            let _s = tracer.span("stp_sim.simulate", batch.id());
            let start = Instant::now();
            let state = simulator.simulate_all(&patterns);
            let stp_s = start.elapsed().as_secs_f64();
            let agree = expected
                .iter()
                .enumerate()
                .all(|(o, sig)| state.output_signature(&circuit.net, o) == *sig);
            (aig_s, stp_s, agree)
        }));
        match outcome {
            Ok((aig_s, stp_s, agree)) => {
                tally.ok();
                self.aig[ci].push(Sample { secs: aig_s, at });
                self.stp[ci].push(Sample { secs: stp_s, at });
                if !agree {
                    tally.fail_check(format!("STP and AIG outputs of {} differ", circuit.name));
                }
            }
            Err(_) => tally.fail(format!("simulation of {} panicked", circuit.name)),
        }
    }
}
