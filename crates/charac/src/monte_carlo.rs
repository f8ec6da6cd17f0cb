//! Monte-Carlo characterization: parameter scatter → performance scatter.
//!
//! The paper's workflow attaches *sets of implementation-dependent
//! parameters* to each behavioural model (§1). Real implementations
//! scatter; this module samples parameter sets, re-runs an extraction per
//! sample, and reports the distribution — the statistical view a design
//! library needs before sign-off.
//!
//! Samples are independent, so the extraction runs fan out over a
//! [`ThreadPool`]. Sample `k`'s parameter set is drawn from its own RNG
//! stream, [`Rng::split(seed, k)`](Rng::split) — a pure function of
//! `(seed, k)` — so the distribution is **bitwise identical** at any thread
//! count, including the serial path.

use crate::CharacError;
use gabm_numeric::rng::Rng;
use gabm_par::ThreadPool;
use std::collections::BTreeMap;

/// A parameter scatter specification: nominal value and relative standard
/// deviation (uniform ±3σ sampling — bounded, no outliers).
#[derive(Debug, Clone, PartialEq)]
pub struct Scatter {
    /// Nominal value.
    pub nominal: f64,
    /// Relative standard deviation (e.g. 0.05 = 5 %).
    pub rel_sigma: f64,
}

impl Scatter {
    /// Creates a scatter spec.
    pub fn new(nominal: f64, rel_sigma: f64) -> Self {
        Scatter { nominal, rel_sigma }
    }
}

/// Distribution summary of one measured quantity over the samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    /// Number of successful samples.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (unbiased).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Distribution {
    fn from_samples(samples: &[f64]) -> Option<Distribution> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Some(Distribution {
            n,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        })
    }
}

/// Draws sample `k`'s parameter set. Pure in `(scatters, seed, k)`, which is
/// what makes the parallel fan-out deterministic.
fn draw_params(scatters: &BTreeMap<String, Scatter>, seed: u64, k: usize) -> BTreeMap<String, f64> {
    let mut rng = Rng::split(seed, k as u64);
    let mut params = BTreeMap::new();
    for (name, sc) in scatters {
        // Uniform over ±3σ: bounded support keeps rigs out of absurd
        // corners while matching the requested dispersion scale.
        let span = 3.0 * sc.rel_sigma * sc.nominal;
        let value = sc.nominal + rng.symmetric() * span;
        params.insert(name.clone(), value);
    }
    params
}

/// Runs a Monte-Carlo analysis on the global thread pool: `samples`
/// parameter sets are drawn from `scatters` (deterministic with `seed`) and
/// `measure` is invoked per set; its scalar result is aggregated into a
/// [`Distribution`].
///
/// `measure` failures are counted but excluded from the statistics (a
/// corner that fails to converge is itself a finding).
///
/// Returns the distribution and the number of failed samples. The result is
/// bitwise identical at any thread count (see [`monte_carlo_on`]).
///
/// # Errors
///
/// [`CharacError::BadRig`] if no sample succeeds or `samples == 0`.
pub fn monte_carlo(
    scatters: &BTreeMap<String, Scatter>,
    samples: usize,
    seed: u64,
    measure: impl Fn(&BTreeMap<String, f64>) -> Result<f64, CharacError> + Sync,
) -> Result<(Distribution, usize), CharacError> {
    monte_carlo_on(gabm_par::global(), scatters, samples, seed, measure)
}

/// [`monte_carlo`] on an explicit pool (e.g. for thread-scaling benchmarks).
///
/// Sample `k` is measured against parameters drawn from the split stream
/// `Rng::split(seed, k)` and results are aggregated in sample order, so the
/// outcome does not depend on `pool.threads()` or scheduling.
///
/// # Errors
///
/// [`CharacError::BadRig`] if no sample succeeds or `samples == 0`.
pub fn monte_carlo_on(
    pool: &ThreadPool,
    scatters: &BTreeMap<String, Scatter>,
    samples: usize,
    seed: u64,
    measure: impl Fn(&BTreeMap<String, f64>) -> Result<f64, CharacError> + Sync,
) -> Result<(Distribution, usize), CharacError> {
    if samples == 0 {
        return Err(CharacError::BadRig("need at least one sample".into()));
    }
    let _span = gabm_trace::span("charac.monte_carlo");
    let outcomes = pool.par_map_n(samples, |k| {
        let _s = gabm_trace::span_with("charac.mc.sample", "k", || k.to_string());
        measure(&draw_params(scatters, seed, k))
    });
    let mut values = Vec::with_capacity(samples);
    let mut failures = 0usize;
    for outcome in outcomes {
        match outcome {
            Ok(v) => values.push(v),
            Err(_) => failures += 1,
        }
    }
    let dist = Distribution::from_samples(&values)
        .ok_or_else(|| CharacError::BadRig("every Monte-Carlo sample failed".into()))?;
    Ok((dist, failures))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scatter_of(name: &str, nominal: f64, sigma: f64) -> BTreeMap<String, Scatter> {
        let mut m = BTreeMap::new();
        m.insert(name.to_string(), Scatter::new(nominal, sigma));
        m
    }

    #[test]
    fn distribution_statistics() {
        let d = Distribution::from_samples(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(d.n, 3);
        assert!((d.mean - 2.0).abs() < 1e-12);
        assert!((d.std_dev - 1.0).abs() < 1e-12);
        assert_eq!(d.min, 1.0);
        assert_eq!(d.max, 3.0);
        assert!(Distribution::from_samples(&[]).is_none());
    }

    #[test]
    fn identity_measurement_reproduces_scatter() {
        let scatters = scatter_of("g", 1.0e-3, 0.05);
        let (dist, failures) = monte_carlo(&scatters, 400, 42, |p| Ok(p["g"])).unwrap();
        assert_eq!(failures, 0);
        assert!(
            (dist.mean - 1.0e-3).abs() / 1.0e-3 < 0.02,
            "mean {}",
            dist.mean
        );
        // Uniform ±3σ ⇒ std = 3σ/√3 = √3·σ ≈ 8.66e-5.
        let expect_std = 3.0 * 0.05e-3 / 3.0f64.sqrt();
        assert!(
            (dist.std_dev - expect_std).abs() / expect_std < 0.15,
            "std {}",
            dist.std_dev
        );
        assert!(dist.min >= 1.0e-3 * 0.85 - 1e-12);
        assert!(dist.max <= 1.0e-3 * 1.15 + 1e-12);
    }

    #[test]
    fn deterministic_with_seed() {
        let scatters = scatter_of("x", 1.0, 0.1);
        let (a, _) = monte_carlo(&scatters, 16, 7, |p| Ok(p["x"])).unwrap();
        let (b, _) = monte_carlo(&scatters, 16, 7, |p| Ok(p["x"])).unwrap();
        assert_eq!(a, b);
        let (c, _) = monte_carlo(&scatters, 16, 8, |p| Ok(p["x"])).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn failures_are_counted_not_fatal() {
        let scatters = scatter_of("x", 1.0, 0.2);
        let (dist, failures) = monte_carlo(&scatters, 64, 3, |p| {
            if p["x"] > 1.0 {
                Err(CharacError::ExtractionFailed("corner".into()))
            } else {
                Ok(p["x"])
            }
        })
        .unwrap();
        assert!(failures > 0);
        assert!(dist.n + failures == 64);
        assert!(dist.max <= 1.0);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        let scatters = scatter_of("x", 1.0, 0.1);
        assert!(monte_carlo(&scatters, 0, 1, |p| Ok(p["x"])).is_err());
        let all_fail = monte_carlo(&scatters, 4, 1, |_| {
            Err::<f64, _>(CharacError::ExtractionFailed("x".into()))
        });
        assert!(all_fail.is_err());
    }

    #[test]
    fn pool_size_does_not_change_the_distribution() {
        let scatters = scatter_of("x", 1.0, 0.1);
        let run = |threads: usize| {
            let pool = ThreadPool::new(threads);
            monte_carlo_on(&pool, &scatters, 33, 17, |p| Ok(p["x"])).unwrap()
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(7));
    }
}
