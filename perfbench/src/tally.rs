//! Named accumulators for per-layer times and counts.

use std::collections::BTreeMap;
use std::time::Duration;

/// Sums of named per-layer quantities (milliseconds or counts).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally(BTreeMap<&'static str, f64>);

impl Tally {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    pub fn add_ms(&mut self, name: &'static str, d: Duration) {
        self.add(name, d.as_secs_f64() * 1e3);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn absorb(&mut self, other: &Tally) {
        for (name, value) in &other.0 {
            self.add(name, *value);
        }
    }
}
