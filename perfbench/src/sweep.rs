//! In-process sweeps of the workload's circuits with both engines.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use netlist::{write_aiger_string, Aig};
use stp_sweep::{Engine, SweepConfig, SweepReport, SweepResult, Sweeper};

use crate::check;
use crate::inputs::Circuit;
use crate::report::Tally;
use crate::trace::{TraceObserver, Tracer};
use crate::yardstick::Sample;

const ENGINES: [Engine; 2] = [Engine::Stp, Engine::Baseline];

/// What one engine did over the workload's circuits.
#[derive(Default)]
pub struct EngineRuns {
    /// Wall time samples per circuit, one per turn.
    pub times: Vec<Vec<Sample>>,
    /// Traced runs only: the same sweeps with the observer and span on.
    pub traced_times: Vec<Vec<Sample>>,
    /// First-round report per circuit.
    pub reports: Vec<SweepReport>,
    /// Summed AND count of the swept networks.
    pub ands_after: usize,
}

/// One output per circuit and engine, checked once; later rounds must
/// reproduce it byte for byte.
struct Reference {
    aig: Aig,
    aiger: String,
}

/// Sweeps of one workload, accumulated round by round.
pub struct Sweeps<'a> {
    circuits: &'a [Circuit],
    pub runs: [EngineRuns; 2],
    references: Vec<[Option<Reference>; 2]>,
}

fn sweep_once(
    engine: Engine,
    aig: &Aig,
    tracer: Option<(&Tracer, u64)>,
) -> Result<(SweepResult, f64), String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut observer = tracer.map(|(t, parent)| TraceObserver::new(t, parent));
        let mut sweeper = Sweeper::new(engine).config(SweepConfig::paper());
        if let Some(observer) = observer.as_mut() {
            sweeper = sweeper.observer(observer);
        }
        let start = Instant::now();
        let result = sweeper.run(aig);
        (result, start.elapsed().as_secs_f64())
    }));
    match outcome {
        Ok((Ok(result), secs)) => Ok((result, secs)),
        Ok((Err(err), _)) => Err(err.to_string()),
        Err(_) => Err("panicked".into()),
    }
}

impl<'a> Sweeps<'a> {
    pub fn new(circuits: &'a [Circuit]) -> Self {
        let mut runs: [EngineRuns; 2] = Default::default();
        for r in runs.iter_mut() {
            r.times = vec![Vec::new(); circuits.len()];
            r.traced_times = vec![Vec::new(); circuits.len()];
        }
        Sweeps {
            circuits,
            runs,
            references: circuits.iter().map(|_| [None, None]).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.circuits.len()
    }

    /// Sweeps circuit `ci` once with each engine; `at` is the time on the
    /// yardstick's clock.  In a traced run each sweep is repeated with the
    /// trace observer attached.
    pub fn sweep(&mut self, ci: usize, at: f64, tracer: &Tracer, parent: u64, tally: &mut Tally) {
        let circuit = &self.circuits[ci];
        for (ei, &engine) in ENGINES.iter().enumerate() {
            let label = || format!("{}/{engine}", circuit.name);
            let plain = {
                let _s = tracer.span_with("sweep", parent, label);
                sweep_once(engine, &circuit.aig, None)
            };
            let traced = tracer.enabled().then(|| {
                let s = tracer.span_with("sweep.traced", parent, label);
                sweep_once(engine, &circuit.aig, Some((tracer, s.id())))
            });
            let run = &mut self.runs[ei];
            for (outcome, times) in [
                (Some(plain), &mut run.times[ci]),
                (traced, &mut run.traced_times[ci]),
            ] {
                let Some(outcome) = outcome else { continue };
                let (result, secs) = match outcome {
                    Ok(ok) => ok,
                    Err(err) => {
                        tally.fail(format!("{engine} sweep of {}: {err}", circuit.name));
                        continue;
                    }
                };
                tally.ok();
                times.push(Sample { secs, at });
                let aiger = write_aiger_string(&result.aig);
                match &self.references[ci][ei] {
                    None => {
                        run.ands_after += result.aig.num_ands();
                        run.reports.push(result.report);
                        self.references[ci][ei] = Some(Reference {
                            aig: result.aig,
                            aiger,
                        });
                    }
                    Some(reference) if reference.aiger != aiger => tally.fail_check(format!(
                        "{engine} sweep of {} is not deterministic",
                        circuit.name
                    )),
                    Some(_) => {}
                }
            }
        }
    }

    /// Checks every swept network against its input.
    pub fn check(&self, tracer: &Tracer, parent: u64, tally: &mut Tally) {
        let _s = tracer.span("sweep.check", parent);
        for (circuit, references) in self.circuits.iter().zip(&self.references) {
            for (engine, reference) in ENGINES.iter().zip(references) {
                if let Some(reference) = reference {
                    if let Err(err) = check::equivalent(&circuit.aig, &reference.aig) {
                        tally.fail_check(format!("{engine} sweep of {}: {err}", circuit.name));
                    }
                }
            }
        }
    }
}
