//! The pass registry: one place that knows every analysis the toolchain
//! can run, across all three representations.

use crate::fas::{lint_fas, FAS_PASSES};
use crate::fix::attach_fas_fixes;
use crate::ir::{lint_ir, IR_PASSES};
use gabm_codegen::{lower, CodeIr, CodegenError};
use gabm_core::check::DIAGRAM_PASSES;
use gabm_core::diag::Diagnostic;
use gabm_core::diagram::FunctionalDiagram;
use gabm_core::Severity;
use gabm_fas::ast::Model;
use gabm_fas::FasError;

/// Analysis layer a pass belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Functional-diagram consistency (§3.2/§4.1).
    Diagram,
    /// Lowered codegen IR dataflow.
    Ir,
    /// FAS source.
    Fas,
}

impl std::fmt::Display for Layer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Layer::Diagram => write!(f, "diagram"),
            Layer::Ir => write!(f, "ir"),
            Layer::Fas => write!(f, "fas"),
        }
    }
}

/// Every registered pass, as `(layer, name)` pairs in execution order.
pub fn passes() -> Vec<(Layer, &'static str)> {
    let mut out = Vec::new();
    out.extend(DIAGRAM_PASSES.iter().map(|(n, _)| (Layer::Diagram, *n)));
    out.extend(IR_PASSES.iter().map(|(n, _)| (Layer::Ir, *n)));
    out.extend(FAS_PASSES.iter().map(|(n, _)| (Layer::Fas, *n)));
    out
}

/// Lints a diagram end to end: all diagram-level passes first, then — when
/// the diagram is clean enough to lower (no errors) — the dataflow passes
/// over its lowered IR.
///
/// Mirrors what `gabm_codegen::generate` enforces: a diagram with errors
/// never reaches lowering, so IR diagnostics only appear on diagrams the
/// generator would accept.
pub fn lint_diagram(diagram: &FunctionalDiagram) -> Vec<Diagnostic> {
    let report = gabm_core::check_diagram(diagram);
    let mut diags = report.diagnostics;
    let has_errors = diags.iter().any(|d| d.severity == Severity::Error);
    if !has_errors {
        match lower(diagram) {
            Ok(ir) => diags.extend(lint_ir(&ir)),
            // Lowering can still refuse (e.g. unsupported feature); that is
            // a generation failure, not a lint finding.
            Err(CodegenError::Inconsistent(r)) => diags.extend(r.diagnostics),
            Err(_) => {}
        }
    }
    diags
}

/// Lints a hand-built or externally produced [`CodeIr`].
pub fn lint_code_ir(ir: &CodeIr) -> Vec<Diagnostic> {
    lint_ir(ir)
}

/// Lints a parsed FAS model.
pub fn lint_fas_model(model: &Model) -> Vec<Diagnostic> {
    lint_fas(model)
}

/// Parses and lints FAS source text.
///
/// # Errors
///
/// Propagates parse errors ([`FasError`]); lint findings on a model that
/// parses are returned as diagnostics, never as errors.
pub fn lint_fas_source(src: &str) -> Result<Vec<Diagnostic>, FasError> {
    let model = gabm_fas::parse(src)?;
    let mut diags = lint_fas(&model);
    attach_fas_fixes(src, &mut diags);
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gabm_core::constructs::InputStageSpec;
    use gabm_core::diag::Code;
    use gabm_core::symbol::SymbolKind;

    #[test]
    fn registry_lists_all_layers() {
        let all = passes();
        assert!(all.iter().any(|(l, _)| *l == Layer::Diagram));
        assert!(all.iter().any(|(l, _)| *l == Layer::Ir));
        assert!(all.iter().any(|(l, _)| *l == Layer::Fas));
        // Pass names are unique across layers.
        let mut names: Vec<_> = all.iter().map(|(_, n)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn clean_construct_lints_clean_through_ir() {
        let d = InputStageSpec::new("in", 1e-6, 5e-12).diagram().unwrap();
        let diags = lint_diagram(&d);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn erroneous_diagram_reports_without_lowering() {
        let mut d = FunctionalDiagram::new("bad");
        let g = d.add_symbol(SymbolKind::Gain); // no 'a', dangling ports
        let _ = g;
        let diags = lint_diagram(&d);
        assert!(diags.iter().any(|d| d.code == Code::MissingProperty));
    }

    #[test]
    fn fas_source_lints_from_text() {
        let src = "model t pin(a, b) analog\nmake x = volt.value(a)\nmake dead = 1\nmake curr.on(b) = x\nendanalog endmodel\n";
        let diags = lint_fas_source(src).unwrap();
        let unused = diags
            .iter()
            .find(|d| d.code == Code::FasUnusedVariable)
            .expect("unused-variable diagnostic");
        assert!(unused.fix.is_some(), "source lint attaches autofixes");
    }
}
