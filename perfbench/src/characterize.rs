//! The §2.4 characterization workload: Monte-Carlo samples of the
//! comparator, each rebuilt through the whole front end and measured by two
//! extraction rigs, fanned out over a `gabm-par` pool.

use crate::benches::fnv;
use crate::probe::{Counters, ProbedDut};
use crate::tally::Tally;
use gabm_charac::monte_carlo::{monte_carlo_on, Scatter};
use gabm_charac::{rigs, Bias, CharacError, Dut, ThreadPool};
use gabm_codegen::{generate, Backend};
use gabm_core::check::check_diagram;
use gabm_fas::compile;
use gabm_fasvm::compile_program;
use gabm_models::dut::fas_dut;
use gabm_models::ComparatorSpec;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Samples per `monte_carlo_on` call; a job is one sample.
const BATCH: usize = 16;
/// Relative standard deviation of every scattered parameter.
const REL_SIGMA: f64 = 0.05;
/// A sample passes when each rig value lies within this relative band of
/// the nominal model's (uniform ±3σ scatter moves them by at most ~25 %).
const BAND: f64 = 0.5;
/// Largest acceptable supply current imbalance Σ i_pin (A).
const BALANCE_TOL: f64 = 1.0e-9;

/// Rig values of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RigValues {
    /// Strobe-to-decision delay (s).
    pub t_response: f64,
    /// Quiescent current into the vdd pin (A).
    pub i_vdd: f64,
    /// Σ of all pin currents (A).
    pub i_balance: f64,
}

impl RigValues {
    pub fn bits(&self) -> [u64; 3] {
        [
            self.t_response.to_bits(),
            self.i_vdd.to_bits(),
            self.i_balance.to_bits(),
        ]
    }

    /// The oracle: finite, balanced, and within [`BAND`] of `nominal`.
    pub fn plausible(&self, nominal: &RigValues) -> bool {
        let near = |x: f64, x0: f64| x.is_finite() && ((x - x0) / x0).abs() <= BAND;
        near(self.t_response, nominal.t_response)
            && near(self.i_vdd, nominal.i_vdd)
            && self.i_balance.abs() <= BALANCE_TOL
    }
}

/// Outcome of one sample.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    pub ok: bool,
    pub rig_failed: bool,
    pub values: Option<RigValues>,
    pub ms: f64,
    /// Newton sweeps and accepted points over both rigs (traced only).
    pub sweeps: u64,
    pub accepts: u64,
    pub layers: Tally,
}

/// Outcome of one batch.
#[derive(Debug, Clone)]
pub struct Batch {
    pub samples: Vec<Sample>,
    /// Bits of the Monte-Carlo distribution and failure count.
    pub distribution: [u64; 6],
}

impl Batch {
    /// Digest of the distribution and of every sample's rig values, in
    /// sorted order so it cannot depend on scheduling.
    pub fn digest(&self) -> u64 {
        let mut values: Vec<[u64; 3]> = self
            .samples
            .iter()
            .map(|s| s.values.map_or([u64::MAX; 3], |v| v.bits()))
            .collect();
        values.sort_unstable();
        fnv(self
            .distribution
            .into_iter()
            .chain(values.into_iter().flatten()))
    }
}

fn scatters() -> BTreeMap<String, Scatter> {
    let nominal = ComparatorSpec::default();
    [
        ("gain", nominal.gain),
        ("rin", nominal.rin),
        ("cin", nominal.cin),
        ("gout", nominal.gout),
        ("ilim", nominal.ilim),
        ("srise", nominal.slew_rise),
        ("sfall", nominal.slew_fall),
        ("gpol", nominal.gpol),
        ("iloss", nominal.iloss),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), Scatter::new(value, REL_SIGMA)))
    .collect()
}

fn spec_of(p: &BTreeMap<String, f64>) -> ComparatorSpec {
    ComparatorSpec {
        gain: p["gain"],
        rin: p["rin"],
        cin: p["cin"],
        gout: p["gout"],
        ilim: p["ilim"],
        slew_rise: p["srise"],
        slew_fall: p["sfall"],
        gpol: p["gpol"],
        iloss: p["iloss"],
        ..ComparatorSpec::default()
    }
}

fn rig_error(e: impl std::fmt::Display) -> CharacError {
    CharacError::BadRig(e.to_string())
}

/// Builds the model through the default front end: card → diagram → check
/// → FAS → compiled model → DUT.
fn build_dut(spec: &ComparatorSpec) -> Result<impl Dut, CharacError> {
    spec.card().map_err(rig_error)?;
    let model = spec.model().map_err(rig_error)?;
    fas_dut(model, BTreeMap::new()).map_err(rig_error)
}

fn response_time(dut: &dyn Dut) -> Result<f64, CharacError> {
    let bias = [
        ("inp", Bias::Voltage(0.3)),
        ("inn", Bias::Voltage(-0.3)),
        ("outp", Bias::Open),
        ("outn", Bias::Open),
        ("vdd", Bias::Voltage(2.5)),
        ("vss", Bias::Voltage(-2.5)),
    ];
    Ok(rigs::response_time(dut, "strobe", "outp", &bias, -1.0, 1.0, 1.0, 40.0e-6)?.value)
}

fn supply_currents(dut: &dyn Dut) -> Result<(f64, f64), CharacError> {
    let bias = [
        ("inp", Bias::Voltage(0.2)),
        ("inn", Bias::Voltage(-0.2)),
        ("strobe", Bias::Voltage(1.0)),
        ("vdd", Bias::Voltage(2.5)),
        ("vss", Bias::Voltage(-2.5)),
    ];
    let xs = rigs::supply_currents(dut, "vdd", "vss", &bias)?;
    let get = |name: &str| {
        xs.iter()
            .find(|x| x.name == name)
            .map(|x| x.value)
            .ok_or_else(|| CharacError::ExtractionFailed(format!("supply rig gave no {name}")))
    };
    Ok((get("i_vdd")?, get("i_balance")?))
}

/// Times the individual front-end calls that `ComparatorSpec::model`
/// chains, each once, outside any job's timed span.
pub fn frontend_calls(spec: &ComparatorSpec) -> Result<Tally, String> {
    let mut t = Tally::default();
    let t0 = Instant::now();
    let diagram = spec.diagram().map_err(|e| e.to_string())?;
    t.add_ms("core.diagram_ms", t0.elapsed());
    let t0 = Instant::now();
    let report = check_diagram(&diagram);
    t.add_ms("core.check_ms", t0.elapsed());
    if !report.is_consistent() {
        return Err("comparator diagram fails its check".into());
    }
    let t0 = Instant::now();
    let code = generate(&diagram, Backend::Fas).map_err(|e| e.to_string())?;
    t.add_ms("codegen.generate_ms", t0.elapsed());
    let t0 = Instant::now();
    let model = compile(&code.text).map_err(|e| e.to_string())?;
    t.add_ms("fas.compile_ms", t0.elapsed());
    let t0 = Instant::now();
    compile_program(&model).map_err(|e| e.to_string())?;
    t.add_ms("fasvm.compile_ms", t0.elapsed());
    Ok(t)
}

/// The workload state built in set-up.
pub struct Characterize {
    pool: ThreadPool,
    scatters: BTreeMap<String, Scatter>,
    nominal: RigValues,
}

impl Characterize {
    /// Set-up: the pool, plus the nominal model's rig values the oracle
    /// compares against.
    pub fn setup(workers: usize) -> Result<Characterize, String> {
        let pool = ThreadPool::new(workers);
        let dut = build_dut(&ComparatorSpec::default()).map_err(|e| e.to_string())?;
        let t_response = response_time(&dut).map_err(|e| e.to_string())?;
        let (i_vdd, i_balance) = supply_currents(&dut).map_err(|e| e.to_string())?;
        Ok(Characterize {
            pool,
            scatters: scatters(),
            nominal: RigValues {
                t_response,
                i_vdd,
                i_balance,
            },
        })
    }

    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    fn sample(&self, p: &BTreeMap<String, f64>, traced: bool) -> Sample {
        let spec = spec_of(p);
        let counters = Arc::new(Counters::default());
        let mut layers = Tally::default();
        let t0 = Instant::now();
        let mut run = || -> Result<RigValues, CharacError> {
            let dut = build_dut(&spec)?;
            let t_built = Instant::now();
            let probed = ProbedDut {
                inner: &dut,
                counters: Arc::clone(&counters),
            };
            let rig: &dyn Dut = if traced { &probed } else { &dut };
            let t_response = response_time(rig)?;
            let t_responded = Instant::now();
            let (i_vdd, i_balance) = supply_currents(rig)?;
            if traced {
                layers.add_ms("models.build_ms", t_built - t0);
                layers.add_ms("charac.response_time_ms", t_responded - t_built);
                layers.add_ms("charac.supply_currents_ms", t_responded.elapsed());
            }
            Ok(RigValues {
                t_response,
                i_vdd,
                i_balance,
            })
        };
        let values = run().ok();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if traced {
            // A front end that fails here has already failed the job.
            if let Ok(t) = frontend_calls(&spec) {
                layers.absorb(&t);
            }
        }
        Sample {
            ok: values.is_some_and(|v| v.plausible(&self.nominal)),
            rig_failed: values.is_none(),
            values,
            ms,
            sweeps: Counters::get(&counters.stamp_calls),
            accepts: Counters::get(&counters.accept_calls),
            layers,
        }
    }

    /// Runs batch `index` of `seed`: [`BATCH`] samples through
    /// `monte_carlo_on`, whose draws are a pure function of the batch seed.
    pub fn batch(&self, seed: u64, index: usize, traced: bool) -> Batch {
        let batch_seed = fnv([seed, index as u64]);
        let samples = Mutex::new(Vec::with_capacity(BATCH));
        let outcome = monte_carlo_on(&self.pool, &self.scatters, BATCH, batch_seed, |p| {
            let s = self.sample(p, traced);
            let value = s.values.map(|v| v.t_response);
            let ok = s.ok;
            samples.lock().expect("no sample panicked").push(s);
            match value {
                Some(t) if ok => Ok(t),
                _ => Err(CharacError::ExtractionFailed(
                    "sample outside its band".into(),
                )),
            }
        });
        let distribution = match outcome {
            Ok((d, failures)) => [
                d.n as u64,
                failures as u64,
                d.mean.to_bits(),
                d.std_dev.to_bits(),
                d.min.to_bits(),
                d.max.to_bits(),
            ],
            Err(_) => [0, BATCH as u64, 0, 0, 0, 0],
        };
        // Samples finish in scheduling order; ordering them by their
        // values makes sample `k` the same draw in every round.
        let mut samples = samples.into_inner().expect("no sample panicked");
        samples.sort_by_key(|s| s.values.map(|v| v.bits()));
        Batch {
            samples,
            distribution,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_identical_at_one_and_two_workers() {
        let one = Characterize::setup(1).unwrap();
        let two = Characterize::setup(2).unwrap();
        let (a, b) = (one.batch(7, 0, true), two.batch(7, 0, true));
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.distribution, b.distribution);
        let sum = |b: &Batch| -> (u64, u64) {
            b.samples
                .iter()
                .map(|s| (s.sweeps, s.accepts))
                .fold((0, 0), |x, y| (x.0 + y.0, x.1 + y.1))
        };
        assert_eq!(sum(&a), sum(&b));
        assert!(sum(&a).0 > 0);
        assert!(
            a.samples.iter().all(|s| s.ok),
            "every nominal-band sample passes"
        );
    }

    #[test]
    fn oracle_rejects_values_outside_the_band() {
        let nominal = RigValues {
            t_response: 1.0e-6,
            i_vdd: 2.0e-4,
            i_balance: 0.0,
        };
        assert!(nominal.plausible(&nominal));
        let slow = RigValues {
            t_response: 2.0e-6,
            ..nominal
        };
        let unbalanced = RigValues {
            i_balance: 1.0e-6,
            ..nominal
        };
        let nan = RigValues {
            i_vdd: f64::NAN,
            ..nominal
        };
        assert!(!slow.plausible(&nominal));
        assert!(!unbalanced.plausible(&nominal));
        assert!(!nan.plausible(&nominal));
    }
}
