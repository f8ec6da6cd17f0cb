//! Experiment builders for the construct figures (Figs. 2–5): each §3.3
//! construct is generated, compiled, simulated and re-measured.

use gabm_charac::Dut;
use gabm_codegen::{generate, Backend};
use gabm_core::constructs::{InputStageSpec, OutputStageSpec, SlewRateSpec};
use gabm_core::diagram::{FunctionalDiagram, PortRef, SymbolId};
use gabm_fas::compile;
use gabm_models::dut::fas_dut;
use std::collections::BTreeMap;

/// Builds a [`Dut`] from any functional diagram via generated FAS code.
///
/// # Errors
///
/// Code generation or compilation failures (returned as strings — the
/// harness prints them).
pub fn diagram_dut(diagram: &FunctionalDiagram) -> Result<impl Dut, String> {
    let code = generate(diagram, Backend::Fas).map_err(|e| e.to_string())?;
    let model = compile(&code.text).map_err(|e| e.to_string())?;
    fas_dut(model, BTreeMap::new()).map_err(|e| e.to_string())
}

/// A slew-limited unity buffer: input stage → slew-rate block → output
/// stage. The smallest complete model exercising Fig. 5 electrically.
#[derive(Debug, Clone, PartialEq)]
pub struct SlewBufferSpec {
    /// Input resistance (Ω).
    pub rin: f64,
    /// Input capacitance (F).
    pub cin: f64,
    /// Output conductance (S).
    pub gout: f64,
    /// Max rise rate (V/s).
    pub slew_rise: f64,
    /// Max fall rate (V/s).
    pub slew_fall: f64,
}

impl Default for SlewBufferSpec {
    fn default() -> Self {
        SlewBufferSpec {
            rin: 1.0e6,
            cin: 1.0e-12,
            gout: 1.0e-2,
            slew_rise: 1.0e6,
            slew_fall: 0.5e6,
        }
    }
}

fn merged_port(
    sub: &FunctionalDiagram,
    name: &str,
    offset: usize,
) -> Result<PortRef, gabm_core::CoreError> {
    let itf = sub.interface_port(name)?;
    Ok(PortRef {
        symbol: SymbolId(itf.inner.symbol.0 + offset),
        port: itf.inner.port,
    })
}

impl SlewBufferSpec {
    /// Builds the composed diagram (pins: `in`, `out`).
    ///
    /// # Errors
    ///
    /// Diagram construction errors.
    pub fn diagram(&self) -> Result<FunctionalDiagram, gabm_core::CoreError> {
        let mut d = FunctionalDiagram::new("slew_buffer");
        let in_sub = InputStageSpec::new("in", 1.0 / self.rin, self.cin).diagram()?;
        let o_in = d.merge(in_sub.clone());
        let slew_sub = SlewRateSpec::new(self.slew_rise, self.slew_fall).diagram()?;
        let o_slew = d.merge(slew_sub.clone());
        let out_sub = OutputStageSpec::new("out", self.gout).diagram()?;
        let o_out = d.merge(out_sub.clone());
        d.connect(
            merged_port(&in_sub, "v", o_in)?,
            merged_port(&slew_sub, "u", o_slew)?,
        )?;
        d.connect(
            merged_port(&slew_sub, "y", o_slew)?,
            merged_port(&out_sub, "vin", o_out)?,
        )?;
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gabm_charac::rigs;

    #[test]
    fn input_stage_dut_extracts_parameters() {
        let spec = InputStageSpec::new("in", 1.0 / 1.0e6, 5.0e-12);
        let dut = diagram_dut(&spec.diagram().unwrap()).unwrap();
        let rin = rigs::input_resistance(&dut, "in", &[]).unwrap();
        assert!(
            (rin.value - 1.0e6).abs() / 1.0e6 < 1e-3,
            "rin = {}",
            rin.value
        );
        let cin = rigs::input_capacitance(&dut, "in", &[], 5.0e-12).unwrap();
        assert!(
            (cin.value - 5.0e-12).abs() / 5.0e-12 < 0.15,
            "cin = {:.3e}",
            cin.value
        );
    }

    #[test]
    fn output_stage_dut_extracts_rout_and_ilim() {
        let spec = OutputStageSpec::new("out", 1.0e-3).with_current_limit(10.0e-3);
        let dut = diagram_dut(&spec.diagram().unwrap()).unwrap();
        let rout = rigs::output_resistance(&dut, "out", &[], 1.0e-4).unwrap();
        assert!(
            (rout.value - 1.0e3).abs() / 1.0e3 < 1e-2,
            "rout = {}",
            rout.value
        );
        let ilim = rigs::output_current_limit(&dut, "out", &[], 0.1, 0.5).unwrap();
        assert!(
            (ilim.value - 10.0e-3).abs() / 10.0e-3 < 0.2,
            "ilim = {:.3e}",
            ilim.value
        );
    }

    #[test]
    fn slew_buffer_limits_slopes() {
        let spec = SlewBufferSpec::default();
        let dut = diagram_dut(&spec.diagram().unwrap()).unwrap();
        let (rise, fall) = rigs::slew_rates(&dut, "in", "out", &[], -1.0, 1.0, 40.0e-6).unwrap();
        assert!(
            (rise.value - spec.slew_rise).abs() / spec.slew_rise < 0.2,
            "rise = {:.3e}",
            rise.value
        );
        assert!(
            (fall.value - spec.slew_fall).abs() / spec.slew_fall < 0.2,
            "fall = {:.3e}",
            fall.value
        );
    }
}
