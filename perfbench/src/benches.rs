//! The transient workloads: the paper's Fig. 7 comparator bench around the
//! FAS model or the 11-MOS circuit. One job builds a fresh circuit from a
//! seeded stimulus, runs the 60 µs transient and checks the decisions.

use crate::oracle::{
    expected_decisions, wrong_decisions, Expected, STROBE_DELAY, STROBE_PERIOD, STROBE_WIDTH,
    SUPPLY, TSTOP,
};
use crate::probe::{Counters, TimedDevice, TimedModel};
use crate::tally::Tally;
use gabm_fas::CompiledModel;
use gabm_fasvm::FasBackend;
use gabm_models::{CmosComparator, ComparatorSpec};
use gabm_numeric::Rng;
use gabm_sim::analysis::tran::{TranResult, TranSpec};
use gabm_sim::circuit::{Circuit, NodeId};
use gabm_sim::devices::behavioral::BehavioralDevice;
use gabm_sim::devices::SourceWave;
use gabm_sim::options::SimStats;
use std::collections::BTreeMap;
use std::f64::consts::PI;
use std::sync::Arc;
use std::time::Instant;

/// Inputs closer than this to a threshold are not judged (V). The 11-MOS
/// comparator resolves 20 mV within the first 2 µs of a strobe.
const MARGIN: f64 = 0.05;

/// What one job produced.
#[derive(Debug, Clone, Default)]
pub struct JobResult {
    /// Time of the job (ms): circuit construction plus the transient. The
    /// oracle and the digest run after it.
    pub ms: f64,
    /// Every checked decision matched the oracle.
    pub ok: bool,
    /// Work counters of the analyses the job ran.
    pub stats: SimStats,
    /// Hash of the counters and the checked output samples.
    pub digest: u64,
    /// Per-layer times and counts (traced jobs only).
    pub layers: Tally,
}

/// FNV-1a over 64-bit words: a stable digest for fingerprints.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Coordinate in `[0, 1)` of sample `j` of `n` along dimension `dim` of a
/// seeded Latin hypercube: every seed draws different inputs, but each
/// round's set covers every dimension evenly, which narrows the
/// seed-to-seed spread of its cost.
pub fn latin(seed: u64, dim: u64, j: usize, n: usize) -> f64 {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(fnv([seed, dim]));
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    let jitter = Rng::split(fnv([seed, dim]), j as u64).uniform();
    (perm[j] as f64 + jitter) / n as f64
}

/// The counters every fingerprint covers, in a fixed order.
pub fn stat_words(s: &SimStats) -> [u64; 6] {
    [
        s.newton_iterations as u64,
        s.accepted_steps as u64,
        s.rejected_steps as u64,
        s.factorizations as u64,
        s.refactorizations as u64,
        s.device_evals as u64,
    ]
}

/// Differential stimulus of one comparator job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stimulus {
    /// Peak differential amplitude (V).
    pub amplitude: f64,
    /// Input frequency (Hz).
    pub freq: f64,
    /// Phase of the non-inverting input (rad).
    pub phase: f64,
}

impl Stimulus {
    /// The paper's Fig. 7 stimulus: 0.5 V differential at 50 kHz.
    pub const PAPER: Stimulus = Stimulus {
        amplitude: 0.5,
        freq: 50.0e3,
        phase: 0.0,
    };

    /// Job `index` of the `jobs` jobs of `seed`; job 0 is always the paper's
    /// stimulus. The frequency varies too: at 50 kHz every strobe window
    /// samples the same input phase, so one phase would leave nothing to
    /// check.
    pub fn of_job(seed: u64, index: usize, jobs: usize) -> Stimulus {
        if index == 0 {
            return Stimulus::PAPER;
        }
        let at = |dim, lo: f64, hi: f64| lo + (hi - lo) * latin(seed, dim, index - 1, jobs - 1);
        Stimulus {
            amplitude: at(0, 0.3, 0.7),
            freq: at(1, 30.0e3, 70.0e3),
            phase: at(2, 0.0, 2.0 * PI),
        }
    }

    fn diff(&self, t: f64) -> f64 {
        self.amplitude * (2.0 * PI * self.freq * t + self.phase).sin()
    }

    fn half(&self, phase: f64) -> SourceWave {
        SourceWave::Sine {
            offset: 0.0,
            ampl: self.amplitude / 2.0,
            freq: self.freq,
            delay: 0.0,
            phase,
        }
    }
}

/// One job, prepared before any timer starts: its stimulus and the
/// decisions the comparator must make.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub stim: Stimulus,
    pub expected: Vec<Expected>,
}

impl Job {
    pub fn new(stim: Stimulus) -> Job {
        Job {
            stim,
            expected: expected_decisions(|t| stim.diff(t), MARGIN),
        }
    }
}

fn strobe_wave() -> SourceWave {
    SourceWave::pulse(
        -SUPPLY,
        SUPPLY,
        STROBE_DELAY,
        50.0e-9,
        50.0e-9,
        STROBE_WIDTH,
        STROBE_PERIOD,
    )
}

fn supplies(ckt: &mut Circuit, vdd: NodeId, vss: NodeId) {
    ckt.add_vsource("VDD", vdd, Circuit::GROUND, SourceWave::dc(SUPPLY));
    ckt.add_vsource("VSS", vss, Circuit::GROUND, SourceWave::dc(-SUPPLY));
}

fn comparator_sources(
    ckt: &mut Circuit,
    stim: &Stimulus,
    inp: NodeId,
    inn: NodeId,
    strobe: NodeId,
) {
    ckt.add_vsource("VINP", inp, Circuit::GROUND, stim.half(stim.phase));
    ckt.add_vsource("VINN", inn, Circuit::GROUND, stim.half(stim.phase + PI));
    ckt.add_vsource("VSTB", strobe, Circuit::GROUND, strobe_wave());
}

/// Which transient workload a [`TranBench`] runs.
#[derive(Debug)]
pub enum TranBench {
    /// The Fig. 6 FAS comparator, compiled once in set-up.
    Fas(CompiledModel),
    /// The 11-MOS comparator.
    Cmos,
}

/// Builds the Fig. 7 bench around the FAS comparator. With `counters`, the
/// executor instance and the bridge device are wrapped in timing probes.
fn fas_circuit(
    model: &CompiledModel,
    stim: &Stimulus,
    counters: Option<&Arc<Counters>>,
) -> Result<(Circuit, NodeId), String> {
    let instance = FasBackend::default()
        .instantiate(model, &BTreeMap::new())
        .map_err(|e| e.to_string())?;
    let mut ckt = Circuit::new();
    let pins: Vec<NodeId> = ComparatorSpec::pin_order()
        .iter()
        .map(|p| ckt.node(p))
        .collect();
    match counters {
        None => ckt.add_behavioral("XCMP", &pins, instance),
        Some(c) => {
            let timed = Box::new(TimedModel::new(instance, Arc::clone(c)));
            let bridge = BehavioralDevice::new("XCMP", &pins, timed).map_err(|e| e.to_string())?;
            ckt.add_device(Box::new(TimedDevice::new(bridge, Arc::clone(c))))
        }
    }
    .map_err(|e| e.to_string())?;
    let [inp, inn, strobe, outp, outn, vdd, vss] = pins[..] else {
        unreachable!("the comparator model has seven pins")
    };
    supplies(&mut ckt, vdd, vss);
    comparator_sources(&mut ckt, stim, inp, inn, strobe);
    ckt.add_resistor("RLP", outp, Circuit::GROUND, 10.0e3)
        .map_err(|e| e.to_string())?;
    ckt.add_resistor("RLN", outn, Circuit::GROUND, 10.0e3)
        .map_err(|e| e.to_string())?;
    Ok((ckt, outp))
}

fn cmos_circuit(stim: &Stimulus) -> Result<(Circuit, NodeId), String> {
    let mut ckt = Circuit::new();
    let pins: Vec<NodeId> = CmosComparator::pin_order()
        .iter()
        .map(|p| ckt.node(p))
        .collect();
    CmosComparator::new()
        .instantiate(&mut ckt, "XCMP", &pins)
        .map_err(|e| e.to_string())?;
    let [inp, inn, strobe, out, vdd, vss] = pins[..] else {
        unreachable!("the CMOS comparator has six pins")
    };
    supplies(&mut ckt, vdd, vss);
    comparator_sources(&mut ckt, stim, inp, inn, strobe);
    ckt.add_resistor("RL", out, Circuit::GROUND, 10.0e3)
        .map_err(|e| e.to_string())?;
    Ok((ckt, out))
}

/// Checks one output against its expected decisions; returns the number
/// of wrong ones and feeds the sampled values into `words`.
fn judge(
    result: &TranResult,
    out: NodeId,
    expected: &[Expected],
    words: &mut Vec<u64>,
) -> Result<usize, String> {
    let wave = result.voltage_waveform(out).map_err(|e| e.to_string())?;
    let wrong = wrong_decisions(expected, |t| {
        let v = wave.value_at(t).ok();
        words.push(v.unwrap_or(f64::NAN).to_bits());
        v
    });
    Ok(wrong)
}

impl TranBench {
    /// Set-up work before the first job: compiles the FAS model through the
    /// default front end (card → diagram → FAS → compiled model).
    pub fn setup(workload: &str) -> Result<TranBench, String> {
        Ok(match workload {
            "comparator-fas" => {
                let spec = ComparatorSpec::default();
                spec.card().map_err(|e| e.to_string())?;
                TranBench::Fas(spec.model().map_err(|e| e.to_string())?)
            }
            "comparator-cmos" => TranBench::Cmos,
            other => return Err(format!("not a transient workload: {other}")),
        })
    }

    /// Jobs in one round: every round runs the same seeded jobs. Job cost
    /// varies up to 4x with the stimulus, so a round must be large for its
    /// cost to barely depend on the seed.
    pub fn round_jobs(&self) -> usize {
        match self {
            TranBench::Fas(_) => 200,
            TranBench::Cmos => 100,
        }
    }

    /// The jobs of one round of `seed`. Job 0 is the same at every seed, so
    /// set-up costs the same too.
    pub fn jobs(&self, seed: u64) -> Vec<Job> {
        let n = self.round_jobs();
        (0..n)
            .map(|index| Job::new(Stimulus::of_job(seed, index, n)))
            .collect()
    }

    /// Runs `job`; `traced` adds the layer probes. The job's time covers
    /// building the circuit and the transient; the oracle runs after it.
    pub fn run(&self, job: &Job, traced: bool) -> Result<JobResult, String> {
        let counters = traced.then(|| Arc::new(Counters::default()));
        let t0 = Instant::now();
        let (mut ckt, out) = match self {
            TranBench::Fas(model) => fas_circuit(model, &job.stim, counters.as_ref())?,
            TranBench::Cmos => cmos_circuit(&job.stim)?,
        };
        let t_built = Instant::now();
        let result = ckt.tran(&TranSpec::new(TSTOP)).map_err(|e| e.to_string())?;
        let t_solved = Instant::now();
        let mut words = stat_words(&result.stats).to_vec();
        let wrong = judge(&result, out, &job.expected, &mut words)?;
        let mut layers = Tally::default();
        if let Some(c) = &counters {
            layers.add_ms("sim.build_ms", t_built - t0);
            layers.add_ms("sim.tran_ms", t_solved - t_built);
            layers.add(
                "sim.bridge_stamp_ms",
                Counters::get(&c.stamp_ns) as f64 * 1e-6,
            );
            layers.add(
                "sim.bridge_stamp_calls",
                Counters::get(&c.stamp_calls) as f64,
            );
            layers.add("fas.eval_ms", Counters::get(&c.eval_ns) as f64 * 1e-6);
            layers.add("fas.eval_calls", Counters::get(&c.eval_calls) as f64);
            layers.add("fas.fd_eval_calls", Counters::get(&c.fd_eval_calls) as f64);
        }
        Ok(JobResult {
            ms: (t_solved - t0).as_secs_f64() * 1e3,
            ok: wrong == 0,
            stats: result.stats,
            digest: fnv(words),
            layers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_stimulus_keeps_its_newton_counts() {
        for (workload, newton) in [("comparator-fas", 518), ("comparator-cmos", 2033)] {
            let bench = TranBench::setup(workload).unwrap();
            let job = bench.run(&bench.jobs(9)[0], false).unwrap();
            assert!(job.ok, "{workload}");
            assert_eq!(job.stats.newton_iterations, newton, "{workload}");
        }
    }

    #[test]
    fn probes_do_not_change_results() {
        let bench = TranBench::setup("comparator-fas").unwrap();
        let job = &bench.jobs(3)[5];
        let plain = bench.run(job, false).unwrap();
        let traced = bench.run(job, true).unwrap();
        assert_eq!(plain.digest, traced.digest);
        assert_eq!(
            traced.layers.get("sim.bridge_stamp_calls"),
            plain.stats.device_evals as f64
        );
        assert!(traced.layers.get("fas.eval_calls") > 0.0);
    }

    #[test]
    fn seeded_inputs_cover_their_ranges() {
        let n = 40;
        let mut amps: Vec<f64> = (1..n)
            .map(|j| Stimulus::of_job(5, j, n).amplitude)
            .collect();
        amps.sort_by(f64::total_cmp);
        for (k, a) in amps.iter().enumerate() {
            // One draw per stratum of the Latin hypercube.
            let lo = 0.3 + 0.4 * k as f64 / (n - 1) as f64;
            assert!((lo..lo + 0.4 / (n - 1) as f64).contains(a), "{k}: {a}");
        }
        assert_eq!(Stimulus::of_job(5, 0, n), Stimulus::PAPER);
        assert_ne!(Stimulus::of_job(5, 1, n), Stimulus::of_job(6, 1, n));
    }
}
