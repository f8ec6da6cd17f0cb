//! Deterministic fingerprints: the work counters summed over one round of
//! a workload's jobs plus a digest of their outputs. A change that keeps the
//! algorithm keeps every fingerprint bit for bit; `fingerprints.json`
//! holds the recorded ones for the reference seed 1 and the held-out
//! seed 2.

use crate::benches::fnv;
use gabm_core::json::Value;

/// Recorded fingerprints, checked by every traced run.
const RECORDED: &str = include_str!("../fingerprints.json");

/// Counter names, in the order of [`Fingerprint::counts`].
pub const COUNTS: [&str; 6] = [
    "newton_iterations",
    "accepted_steps",
    "rejected_steps",
    "factorizations",
    "refactorizations",
    "device_evals",
];

/// Counters and output digest of `jobs` jobs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub jobs: usize,
    pub counts: [u64; 6],
    pub digest: u64,
}

impl Fingerprint {
    /// Folds the counters and digest of `jobs` more jobs in.
    pub fn push(&mut self, jobs: usize, counts: [u64; 6], digest: u64) {
        self.jobs += jobs;
        for (sum, c) in self.counts.iter_mut().zip(counts) {
            *sum += c;
        }
        self.digest = fnv([self.digest, digest]);
    }

    pub fn to_json(self) -> String {
        let counts: Vec<String> = COUNTS
            .iter()
            .zip(self.counts)
            .map(|(name, c)| format!("\"{name}\": {c}"))
            .collect();
        format!(
            "{{\"jobs\": {}, {}, \"digest\": \"{:016x}\"}}",
            self.jobs,
            counts.join(", "),
            self.digest
        )
    }

    fn from_json(v: &Value) -> Option<Fingerprint> {
        let int = |key: &str| v.get(key)?.as_f64().map(|x| x as u64);
        let mut counts = [0; 6];
        for (slot, name) in counts.iter_mut().zip(COUNTS) {
            *slot = int(name)?;
        }
        Some(Fingerprint {
            jobs: int("jobs")? as usize,
            counts,
            digest: u64::from_str_radix(v.get("digest")?.as_str()?, 16).ok()?,
        })
    }
}

/// The recorded fingerprint of `workload` at `seed`, if any.
pub fn recorded(workload: &str, seed: u64) -> Option<Fingerprint> {
    let v = Value::parse(RECORDED).ok()?;
    Fingerprint::from_json(v.get("workloads")?.get(workload)?.get(&seed.to_string())?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let mut fp = Fingerprint::default();
        fp.push(1, [518, 100, 3, 518, 0, 518], 42);
        fp.push(16, [1, 2, 3, 4, 5, 6], 7);
        let back = Fingerprint::from_json(&Value::parse(&fp.to_json()).unwrap()).unwrap();
        assert_eq!(back, fp);
    }

    #[test]
    fn recorded_file_covers_reference_and_held_out_seeds() {
        for workload in ["comparator-fas", "comparator-cmos", "characterize"] {
            for seed in [1, 2] {
                assert!(recorded(workload, seed).is_some(), "{workload} {seed}");
            }
            assert_eq!(recorded(workload, 3), None);
        }
    }
}
