//! Independent current source.

use crate::circuit::NodeId;
use crate::device::{AcStamper, Device, Mode, Stamper, Unknown};
use crate::devices::wave::SourceWave;
use gabm_numeric::Complex64;

/// An independent current source.
///
/// Positive current flows from `plus` through the source into `minus`
/// (i.e. out of the `plus` node).
#[derive(Debug, Clone)]
pub struct Isource {
    name: String,
    plus: NodeId,
    minus: NodeId,
    /// Waveform delivered by the source.
    pub wave: SourceWave,
    /// AC small-signal magnitude (amps).
    pub ac_magnitude: f64,
}

impl Isource {
    /// Creates a current source between `plus` and `minus`.
    pub fn new(name: &str, plus: NodeId, minus: NodeId, wave: SourceWave) -> Self {
        Isource {
            name: name.to_string(),
            plus,
            minus,
            wave,
            ac_magnitude: 0.0,
        }
    }

    /// Builder-style setter marking this source as the AC stimulus.
    pub fn with_ac(mut self, magnitude: f64) -> Self {
        self.ac_magnitude = magnitude;
        self
    }
}

impl Device for Isource {
    fn name(&self) -> &str {
        &self.name
    }

    fn set_dc_value(&mut self, value: f64) -> bool {
        self.wave.set_dc(value);
        true
    }

    fn stamp(&mut self, s: &mut Stamper) {
        let value = match s.mode {
            Mode::Dc => self.wave.dc_value(),
            Mode::Tran { time, .. } => self.wave.value_at(time),
        };
        s.stamp_current(self.plus, self.minus, value * s.source_scale);
    }

    fn stamp_ac(&mut self, s: &mut AcStamper) {
        let i = Complex64::from_real(self.ac_magnitude);
        s.add_rhs(Unknown::Node(self.plus), -i);
        s.add_rhs(Unknown::Node(self.minus), i);
    }

    fn breakpoints(&self, tstop: f64) -> Vec<f64> {
        self.wave.breakpoints(tstop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_rhs_only() {
        let p = NodeId::from_index(1);
        let m = NodeId::from_index(2);
        let mut i = Isource::new("I1", p, m, SourceWave::dc(1e-3));
        let mut s = Stamper::new(2, 0, Mode::Dc);
        i.stamp(&mut s);
        let (mat, rhs) = s.finish();
        assert_eq!(mat[(0, 0)], 0.0);
        assert_eq!(rhs[0], -1e-3);
        assert_eq!(rhs[1], 1e-3);
    }

    #[test]
    fn tran_uses_waveform() {
        let p = NodeId::from_index(1);
        let mut i = Isource::new(
            "I1",
            p,
            NodeId::ground(),
            SourceWave::Pwl(vec![(0.0, 0.0), (1.0, 1.0)]),
        );
        let coeffs = gabm_numeric::integrate::Coefficients::new(0.5);
        let mode = Mode::Tran { time: 0.5, coeffs };
        let mut s = Stamper::new(1, 0, mode);
        i.stamp(&mut s);
        let (_, rhs) = s.finish();
        assert!((rhs[0] + 0.5).abs() < 1e-12);
    }

    #[test]
    fn ac_stimulus() {
        let p = NodeId::from_index(1);
        let mut i = Isource::new("I1", p, NodeId::ground(), SourceWave::dc(0.0)).with_ac(2.0);
        let mut s = AcStamper::new(1, 0, 1.0);
        i.stamp_ac(&mut s);
        let (_, rhs) = s.finish();
        assert_eq!(rhs[0], Complex64::from_real(-2.0));
    }
}
