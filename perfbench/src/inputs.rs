//! The workloads and their seeded inputs.
//!
//! Every input comes from `workloads` generators; the workload seed only
//! picks the redundancy-injection seeds, so two runs with one seed see the
//! same networks.  The program under test sees nothing but these networks
//! (and, for the daemon, their AIGER bytes).

use std::collections::HashSet;
use std::time::Instant;

use netlist::{
    canonical_fingerprint, lutmap, read_aiger_bytes, write_aiger_string, Aig, LutNetwork,
};
use workloads::generators as gen;
use workloads::{epfl_suite, inject_redundancy, Scale};

use crate::check::MAX_EXHAUSTIVE_INPUTS;
use crate::trace::Tracer;

/// Injected-redundancy variants of each sweep base circuit.
const SWEEP_VARIANTS: u64 = 2;
/// Daemon jobs generated per run; the closed loop stops early if it runs
/// out, so this bounds a run however fast the daemon gets.
const JOB_POOL: usize = 120;
/// LUT size of the simulated networks (the paper's Table I uses 6-LUTs).
const LUT_SIZE: usize = 6;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Arith,
    Control,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "arith" => Some(Workload::Arith),
            "control" => Some(Workload::Control),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Arith => "arith",
            Workload::Control => "control",
        }
    }

    /// Base circuits of the in-process sweeps and the share of AND nodes
    /// re-implemented as redundant duplicates.
    fn sweep_bases(self) -> (Vec<(&'static str, Aig)>, f64) {
        match self {
            Workload::Arith => (
                vec![
                    ("poly8x3", gen::polynomial_datapath(8, 3)),
                    ("hyp8", gen::hypotenuse(8)),
                    ("div10", gen::restoring_divider(10)),
                    ("sqrt8", gen::restoring_sqrt(8)),
                    ("mul8", gen::array_multiplier(8)),
                ],
                0.10,
            ),
            Workload::Control => (
                vec![
                    ("ctl600", gen::random_control(20, 600, 24, 0xC600)),
                    ("ctl800", gen::random_control(20, 800, 24, 0xC800)),
                    ("ctl1000", gen::random_control(20, 1000, 24, 0xC1000)),
                    ("ctl1200", gen::random_control(20, 1200, 24, 0xC1200)),
                    ("ctl1400", gen::random_control(20, 1400, 24, 0xC1400)),
                ],
                0.15,
            ),
        }
    }

    /// Base circuit of the daemon jobs and its redundancy share.  One base
    /// per workload keeps the latency distribution single-peaked; the
    /// injection seed still makes every job a distinct network.
    fn job_base(self) -> (&'static str, Aig, f64) {
        match self {
            Workload::Arith => ("mul8", gen::array_multiplier(8), 0.30),
            Workload::Control => ("ctl600", gen::random_control(20, 600, 24, 0xE600), 0.30),
        }
    }

    /// Which half of the EPFL-analog suite is simulated.
    fn epfl_arithmetic(self) -> bool {
        self == Workload::Arith
    }
}

/// One network to sweep in process.
pub struct Circuit {
    pub name: String,
    pub aig: Aig,
}

/// One network to simulate, with its 6-LUT mapping.
pub struct SimCircuit {
    pub name: &'static str,
    pub aig: Aig,
    pub net: LutNetwork,
}

/// One daemon job: the AIGER bytes a client submits and the network the
/// daemon parses from them.
pub struct Job {
    pub name: String,
    pub aig: Aig,
    pub aiger: Vec<u8>,
}

pub struct Inputs {
    pub sweep: Vec<Circuit>,
    pub sim: Vec<SimCircuit>,
    pub jobs: Vec<Job>,
    /// Time spent in `netlist` while setting up, for the per-layer metrics.
    pub aiger_write_s: f64,
    pub aiger_read_s: f64,
    pub lutmap_s: f64,
}

/// SplitMix64 of `a` combined with `b`: independent sub-seeds per input.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds every input of one run of `workload`.
pub fn setup(
    workload: Workload,
    seed: u64,
    tracer: &Tracer,
    parent: u64,
) -> Result<Inputs, String> {
    let span = tracer.span("setup", parent);

    let sweep = {
        let _s = tracer.span("setup.sweep_inputs", span.id());
        let (bases, fraction) = workload.sweep_bases();
        let mut circuits = Vec::new();
        for variant in 0..SWEEP_VARIANTS {
            for (index, (name, base)) in bases.iter().enumerate() {
                let sub = mix(seed, (variant << 8) | index as u64);
                circuits.push(Circuit {
                    name: format!("{name}#{variant}"),
                    aig: inject_redundancy(base, fraction, sub),
                });
            }
        }
        circuits
    };

    let mut lutmap_s = 0.0;
    let sim = {
        let _s = tracer.span("setup.sim_inputs", span.id());
        let mut circuits = Vec::new();
        for bench in epfl_suite(Scale::Large) {
            if bench.arithmetic != workload.epfl_arithmetic() {
                continue;
            }
            let start = Instant::now();
            let net = lutmap::map_to_luts(&bench.aig, LUT_SIZE);
            lutmap_s += start.elapsed().as_secs_f64();
            circuits.push(SimCircuit {
                name: bench.name,
                aig: bench.aig,
                net,
            });
        }
        circuits
    };

    let (mut aiger_write_s, mut aiger_read_s) = (0.0, 0.0);
    let jobs = {
        let _s = tracer.span("setup.jobs", span.id());
        let (name, base, fraction) = workload.job_base();
        let mut fingerprints = HashSet::new();
        let mut jobs = Vec::with_capacity(JOB_POOL);
        let mut attempt = 0u64;
        while jobs.len() < JOB_POOL {
            // A repeated canonical fingerprint would be adopted into the
            // earlier job by the daemon's dedup and measure nothing, so
            // collisions are skipped (deterministically).
            attempt += 1;
            if attempt > 4 * JOB_POOL as u64 {
                return Err("could not generate enough distinct daemon jobs".into());
            }
            let aig = inject_redundancy(&base, fraction, mix(seed ^ 0x5EED_D0B5, attempt));
            let start = Instant::now();
            let aiger = write_aiger_string(&aig).into_bytes();
            aiger_write_s += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let parsed = read_aiger_bytes(&aiger).map_err(|e| format!("AIGER round trip: {e}"))?;
            aiger_read_s += start.elapsed().as_secs_f64();
            if fingerprints.insert(canonical_fingerprint(&parsed)) {
                jobs.push(Job {
                    name: format!("{name}@{attempt}"),
                    aig: parsed,
                    aiger,
                });
            }
        }
        jobs
    };

    let too_wide = sweep
        .iter()
        .map(|c| (&c.name, &c.aig))
        .chain(jobs.iter().map(|j| (&j.name, &j.aig)))
        .find(|(_, aig)| aig.num_inputs() > MAX_EXHAUSTIVE_INPUTS);
    if let Some((name, aig)) = too_wide {
        return Err(format!(
            "{name} has {} inputs; outputs could not be checked",
            aig.num_inputs()
        ));
    }

    Ok(Inputs {
        sweep,
        sim,
        jobs,
        aiger_write_s,
        aiger_read_s,
        lutmap_s,
    })
}
