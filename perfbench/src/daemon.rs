//! The sweep service driven as a closed loop: an in-process `SweepService`
//! with the default `ServiceConfig`, served on a Unix socket, and client
//! threads that each submit a job, wait for its result, and submit the next.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use netlist::read_aiger_bytes;
use stp_sweep::Engine;
use sweepd::{serve, Endpoint, Preset, Priority, ServiceConfig, SweepClient, SweepService};

use crate::check;
use crate::inputs::Job;
use crate::report::Tally;
use crate::trace::Tracer;
use crate::yardstick::{Sample, Yardstick};

/// One client keeps one job in flight.  The benchmark runs on one CPU, so
/// a second job in flight would only share it with the first.
pub const CLIENTS: usize = 1;
/// A job slower than this counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// One finished job as its client saw it.
pub struct Completed {
    pub job: usize,
    pub latency_s: f64,
    /// When the client submitted it, on the yardstick's clock.
    pub at: f64,
    pub submit_s: f64,
    /// Traced runs only: a second fetch of the finished job, and its slices.
    pub fetch_s: Option<f64>,
    pub slices: Option<u64>,
    output: Vec<u8>,
}

impl Completed {
    pub fn latency(&self) -> Sample {
        Sample {
            secs: self.latency_s,
            at: self.at,
        }
    }
}

/// A running service, its server thread and the jobs sent to it so far.
pub struct Daemon<'a> {
    jobs: &'a [Job],
    socket: PathBuf,
    service: Arc<SweepService>,
    server: JoinHandle<io::Result<()>>,
    next: AtomicUsize,
    pub completed: Vec<Completed>,
}

impl<'a> Daemon<'a> {
    /// Starts the service and serves it on `socket`.
    pub fn start(jobs: &'a [Job], socket: &Path) -> Result<Self, String> {
        let service = Arc::new(
            SweepService::start(ServiceConfig::default())
                .map_err(|e| format!("starting the sweep service: {e}"))?,
        );
        let server = {
            let service = Arc::clone(&service);
            let endpoint = Endpoint::Unix(socket.to_path_buf());
            thread::spawn(move || serve(service, &endpoint))
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !socket.exists() {
            if server.is_finished() || Instant::now() > deadline {
                service.shutdown();
                let reason = match server.join() {
                    Ok(Err(err)) => err.to_string(),
                    _ => "timed out".into(),
                };
                return Err(format!("serving on {}: {reason}", socket.display()));
            }
            thread::sleep(Duration::from_millis(2));
        }
        Ok(Daemon {
            jobs,
            socket: socket.to_path_buf(),
            service,
            server,
            next: AtomicUsize::new(0),
            completed: Vec::new(),
        })
    }

    /// Runs the closed loop for `budget`: no job is submitted after it, and
    /// the window ends when the jobs in flight have finished.  Each client
    /// times the yardstick before each submission, while it has no job in
    /// flight.
    pub fn window(
        &mut self,
        budget: Duration,
        yardstick: &Yardstick,
        tracer: &Tracer,
        parent: u64,
        tally: &mut Tally,
    ) {
        let span = tracer.span("daemon.window", parent);
        let completed = Mutex::new(Vec::new());
        let errors = Mutex::new(Vec::new());
        let start = Instant::now();
        let (jobs, socket, next) = (self.jobs, &self.socket, &self.next);
        thread::scope(|scope| {
            for _ in 0..CLIENTS {
                scope.spawn(|| {
                    let client = SweepClient::unix(socket);
                    while start.elapsed() < budget {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(index) else { break };
                        yardstick.measure();
                        let at = yardstick.now();
                        let job_span =
                            tracer.span_with("daemon.job", span.id(), || job.name.clone());
                        match one_job(&client, index, job, at, tracer, job_span.id()) {
                            Ok(done) => {
                                completed
                                    .lock()
                                    .expect("no client panics holding the lock")
                                    .push(done);
                            }
                            Err(err) => errors
                                .lock()
                                .expect("no client panics holding the lock")
                                .push(format!("daemon job {}: {err}", job.name)),
                        }
                    }
                });
            }
        });
        self.completed.extend(
            completed
                .into_inner()
                .expect("no client panics holding the lock"),
        );
        for error in errors
            .into_inner()
            .expect("no client panics holding the lock")
        {
            tally.fail(error);
        }
    }

    /// Stops the server and the service, then checks every returned
    /// network against its input.
    pub fn finish(self, tracer: &Tracer, parent: u64, tally: &mut Tally) -> Vec<Completed> {
        if let Err(err) = SweepClient::unix(&self.socket).shutdown() {
            tally.fail(format!("stopping the server: {err}"));
        }
        // `serve` also returns once the service is shut down, so the join
        // cannot hang even if the shutdown request was lost.
        self.service.shutdown();
        match self.server.join() {
            Ok(Ok(())) => {}
            Ok(Err(err)) => tally.fail(format!("server: {err}")),
            Err(_) => tally.fail("the server thread panicked"),
        }

        let _check = tracer.span("daemon.check", parent);
        for done in &self.completed {
            tally.ok();
            let job = &self.jobs[done.job];
            let checked = read_aiger_bytes(&done.output)
                .map_err(|e| format!("unreadable AIGER: {e}"))
                .and_then(|swept| check::equivalent(&job.aig, &swept));
            if let Err(err) = checked {
                tally.fail_check(format!("daemon job {}: {err}", job.name));
            }
        }
        self.completed
    }
}

fn one_job(
    client: &SweepClient,
    index: usize,
    job: &Job,
    at: f64,
    tracer: &Tracer,
    parent: u64,
) -> Result<Completed, String> {
    let start = Instant::now();
    let (id, adopted) = {
        let _s = tracer.span("daemon.submit", parent);
        client
            .submit(Priority::Normal, Engine::Stp, Preset::Paper, &job.aiger)
            .map_err(|e| e.to_string())?
    };
    let submit_s = start.elapsed().as_secs_f64();
    if adopted {
        return Err("adopted into an earlier job".into());
    }
    let (output, _counters) = {
        let _s = tracer.span("daemon.wait_result", parent);
        client
            .wait_result(id, JOB_TIMEOUT)
            .map_err(|e| e.to_string())?
    };
    let latency_s = start.elapsed().as_secs_f64();
    let (fetch_s, slices) = if tracer.enabled() {
        let _s = tracer.span("daemon.fetch", parent);
        let start = Instant::now();
        client.fetch(id).map_err(|e| e.to_string())?;
        let fetch_s = start.elapsed().as_secs_f64();
        let info = client.status(id).map_err(|e| e.to_string())?;
        (Some(fetch_s), Some(info.slices))
    } else {
        (None, None)
    };
    Ok(Completed {
        job: index,
        latency_s,
        at,
        submit_s,
        fetch_s,
        slices,
        output,
    })
}
