//! Rounds: every round of a run executes the same seeded jobs, so rounds
//! differ only by host noise, and per-round statistics can be compared and
//! reduced across rounds.

use crate::benches::{stat_words, Job, JobResult, TranBench};
use crate::characterize::Characterize;
use crate::fingerprint::Fingerprint;
use crate::tally::Tally;
use std::time::Instant;

/// Batches of Monte-Carlo samples in one `characterize` round.
const CHARACTERIZE_BATCHES: usize = 16;

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Time of each job (ms).
    pub job_ms: Vec<f64>,
    /// Wall time of the round (ms).
    pub wall_ms: f64,
    /// Σ job busy time (ms).
    pub busy_ms: f64,
    /// Jobs that failed or gave a wrong answer.
    pub failed: usize,
    /// Characterization samples whose rigs failed outright.
    pub rig_failures: usize,
    /// Per-layer sums over the round's jobs (traced rounds only).
    pub layers: Tally,
    pub fingerprint: Fingerprint,
    /// Newton iterations of job 0 (transient workloads).
    pub job0_newton: usize,
}

/// The seeded inputs of a run, generated once before anything is timed:
/// the prepared jobs of a transient workload, or, for `characterize`, whose
/// samples `monte_carlo_on` draws itself, the seed alone.
#[derive(Debug)]
pub struct Inputs {
    pub seed: u64,
    pub jobs: Vec<Job>,
}

/// A workload as the runner sees it.
pub trait Workload {
    /// The inputs of every round of `seed`.
    fn inputs(&self, seed: u64) -> Inputs;
    /// The result of the first job, which set-up waits for; `Err` if it is
    /// wrong.
    fn first_result(&self, inputs: &Inputs) -> Result<(), String>;
    /// Runs one round of jobs, with the layer probes if `traced`.
    fn round(&self, inputs: &Inputs, traced: bool) -> Round;
    /// Threads running jobs.
    fn workers(&self) -> usize;
}

/// Times `f`, in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

impl Workload for TranBench {
    fn inputs(&self, seed: u64) -> Inputs {
        Inputs {
            seed,
            jobs: self.jobs(seed),
        }
    }

    fn first_result(&self, inputs: &Inputs) -> Result<(), String> {
        let job = inputs.jobs.first().ok_or("a round has no jobs")?;
        match self.run(job, false)?.ok {
            true => Ok(()),
            false => Err("job 0 failed its oracle".into()),
        }
    }

    fn round(&self, inputs: &Inputs, traced: bool) -> Round {
        let mut r = Round::default();
        for (index, job) in inputs.jobs.iter().enumerate() {
            let t0 = Instant::now();
            let job = self.run(job, traced).unwrap_or_else(|e| {
                eprintln!("perfbench: job {index}: {e}");
                JobResult {
                    ms: t0.elapsed().as_secs_f64() * 1e3,
                    ..JobResult::default()
                }
            });
            r.job_ms.push(job.ms);
            r.failed += usize::from(!job.ok);
            r.layers.absorb(&job.layers);
            r.fingerprint.push(1, stat_words(&job.stats), job.digest);
            if index == 0 {
                r.job0_newton = job.stats.newton_iterations;
            }
        }
        // One thread runs the jobs back to back; the oracle between them is
        // the benchmark's own work and stays out of the round's time.
        r.busy_ms = r.job_ms.iter().sum();
        r.wall_ms = r.busy_ms;
        r
    }

    fn workers(&self) -> usize {
        1
    }
}

impl Workload for Characterize {
    fn inputs(&self, seed: u64) -> Inputs {
        Inputs {
            seed,
            jobs: Vec::new(),
        }
    }

    fn first_result(&self, _inputs: &Inputs) -> Result<(), String> {
        // Set-up already measured the nominal model through both rigs.
        Ok(())
    }

    fn round(&self, inputs: &Inputs, traced: bool) -> Round {
        let mut r = Round::default();
        let t0 = Instant::now();
        for index in 0..CHARACTERIZE_BATCHES {
            let batch = self.batch(inputs.seed, index, traced);
            let (mut sweeps, mut accepts) = (0, 0);
            for s in &batch.samples {
                r.job_ms.push(s.ms);
                r.busy_ms += s.ms;
                r.failed += usize::from(!s.ok);
                r.rig_failures += usize::from(s.rig_failed);
                r.layers.absorb(&s.layers);
                sweeps += s.sweeps;
                accepts += s.accepts;
            }
            // Only sweeps and accepted points are observable inside rigs.
            r.fingerprint.push(
                batch.samples.len(),
                [sweeps, accepts, 0, 0, 0, sweeps],
                batch.digest(),
            );
        }
        r.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        r
    }

    fn workers(&self) -> usize {
        self.threads()
    }
}
