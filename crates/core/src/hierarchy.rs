//! Hierarchical GBS support (§3.1: "Moreover, GBS can be hierarchical").
//!
//! A whole [`FunctionalDiagram`] can be placed as one symbol
//! ([`SymbolKind::Hierarchical`]); its ports are the inner diagram's
//! interface. Code generation operates on flat diagrams, so [`flatten`]
//! inlines every hierarchical symbol (recursively), splicing the nets that
//! touched its ports onto the inner interface ports.

use crate::diagram::{FunctionalDiagram, PortRef, SymbolId};
use crate::symbol::SymbolKind;
use crate::CoreError;
use std::collections::HashMap;

/// Wraps a diagram as a hierarchical symbol kind, ready for
/// [`FunctionalDiagram::add_symbol`].
pub fn as_symbol(name: &str, diagram: FunctionalDiagram) -> SymbolKind {
    SymbolKind::Hierarchical {
        name: name.to_string(),
        diagram: Box::new(diagram),
    }
}

/// Returns a flat copy of `d`: hierarchical symbols are replaced by their
/// inner diagrams, recursively.
///
/// Parameters of inner diagrams are hoisted to the top level (first
/// declaration wins, like [`FunctionalDiagram::merge`]); the flat diagram
/// keeps only the outer interface.
///
/// # Errors
///
/// * [`CoreError::IllegalConnection`] if splicing violates the net rules.
/// * Propagates malformed inner diagrams.
pub fn flatten(d: &FunctionalDiagram) -> Result<FunctionalDiagram, CoreError> {
    let has_hier = d
        .symbols()
        .any(|s| matches!(s.kind, SymbolKind::Hierarchical { .. }));
    if !has_hier {
        return Ok(d.clone());
    }
    let mut out = FunctionalDiagram::new(d.name());
    for p in d.parameters() {
        out.add_parameter(&p.name, p.default, p.dimension);
    }
    // Where each old port now lives.
    let mut port_map: HashMap<PortRef, PortRef> = HashMap::new();
    for sym in d.symbols() {
        match &sym.kind {
            SymbolKind::Hierarchical { diagram, .. } => {
                let inner_flat = flatten(diagram)?;
                let interface: Vec<PortRef> =
                    inner_flat.interface().iter().map(|itf| itf.inner).collect();
                let offset = out.merge_internal(inner_flat);
                for (k, inner_pr) in interface.iter().enumerate() {
                    port_map.insert(
                        PortRef {
                            symbol: SymbolId(sym.id),
                            port: k,
                        },
                        PortRef {
                            symbol: SymbolId(inner_pr.symbol.0 + offset),
                            port: inner_pr.port,
                        },
                    );
                }
            }
            kind => {
                let props: Vec<(&str, crate::symbol::PropertyValue)> = sym
                    .properties
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.clone()))
                    .collect();
                let new_id = out.add_symbol_with(kind.clone(), &props, sym.label.as_deref());
                for port in 0..sym.kind.port_count() {
                    port_map.insert(
                        PortRef {
                            symbol: SymbolId(sym.id),
                            port,
                        },
                        PortRef {
                            symbol: new_id,
                            port,
                        },
                    );
                }
            }
        }
    }
    // Rebuild the outer nets through the map.
    for net in d.nets() {
        let mapped: Vec<PortRef> = net
            .ports
            .iter()
            .filter_map(|p| port_map.get(p).copied())
            .collect();
        for pair in mapped.windows(2) {
            out.connect(pair[0], pair[1])?;
        }
    }
    // Outer interface, remapped.
    for itf in d.interface() {
        if let Some(&inner) = port_map.get(&itf.inner) {
            out.expose(&itf.name, inner)?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_diagram;
    use crate::constructs::{InputStageSpec, SlewRateSpec};
    use crate::quantity::Dimension;
    use crate::symbol::PropertyValue;

    /// A buffer built with the slew-rate block as a *hierarchical* symbol.
    fn hierarchical_buffer() -> FunctionalDiagram {
        let mut d = FunctionalDiagram::new("hier_buffer");
        let slew_inner = SlewRateSpec::new(1e6, 1e6).diagram().unwrap();
        let slew = d.add_symbol(as_symbol("slew", slew_inner));
        // Drive u from a parameter, read y into a limiter (sink).
        d.add_parameter("u0", 1.0, Dimension::VOLTAGE);
        let src = d.add_symbol(SymbolKind::Parameter {
            param: "u0".into(),
            dimension: Dimension::VOLTAGE,
        });
        let sink = d.add_symbol_with(
            SymbolKind::Limiter,
            &[
                ("min", PropertyValue::Number(-10.0)),
                ("max", PropertyValue::Number(10.0)),
            ],
            None,
        );
        // Hierarchical ports follow the inner interface order: u then y.
        d.connect(
            d.port(src, "out").unwrap(),
            PortRef {
                symbol: slew,
                port: 0,
            },
        )
        .unwrap();
        d.connect(
            PortRef {
                symbol: slew,
                port: 1,
            },
            d.port(sink, "in").unwrap(),
        )
        .unwrap();
        d
    }

    #[test]
    fn flat_diagram_passes_through() {
        let d = InputStageSpec::new("in", 1e-6, 5e-12).diagram().unwrap();
        let f = flatten(&d).unwrap();
        assert_eq!(f, d);
    }

    #[test]
    fn hierarchical_symbol_exposes_interface_ports() {
        let slew_inner = SlewRateSpec::new(1e6, 1e6).diagram().unwrap();
        let kind = as_symbol("slew", slew_inner);
        let ports = kind.ports();
        assert_eq!(ports.len(), 2);
        assert_eq!(ports[0].name, "u");
        assert_eq!(ports[1].name, "y");
    }

    #[test]
    fn flatten_inlines_and_splices() {
        let d = hierarchical_buffer();
        let flat = flatten(&d).unwrap();
        // No hierarchical symbols remain.
        assert!(!flat
            .symbols()
            .any(|s| matches!(s.kind, SymbolKind::Hierarchical { .. })));
        // All the slew block's symbols (7) plus param source and limiter.
        assert_eq!(flat.symbol_count(), 9);
        let r = check_diagram(&flat);
        assert!(r.is_consistent(), "{:?}", r.diagnostics);
        // The parameter source now drives the inner difference adder.
        let src = flat
            .symbols()
            .find(|s| matches!(s.kind, SymbolKind::Parameter { .. }))
            .unwrap();
        let net = flat
            .net_of(PortRef {
                symbol: SymbolId(src.id),
                port: 0,
            })
            .unwrap();
        assert!(net.ports.len() >= 2);
    }

    #[test]
    fn nested_hierarchy_flattens_recursively() {
        // Wrap the hierarchical buffer itself as a symbol of a top diagram.
        let mut top = FunctionalDiagram::new("top");
        let inner = hierarchical_buffer();
        top.add_symbol(as_symbol("buffer", inner));
        let flat = flatten(&top).unwrap();
        assert!(!flat
            .symbols()
            .any(|s| matches!(s.kind, SymbolKind::Hierarchical { .. })));
        assert_eq!(flat.symbol_count(), 9);
    }

    #[test]
    fn inner_parameters_hoisted() {
        let d = hierarchical_buffer();
        let flat = flatten(&d).unwrap();
        assert!(flat.parameters().iter().any(|p| p.name == "srise"));
        assert!(flat.parameters().iter().any(|p| p.name == "u0"));
    }

    #[test]
    fn codegen_works_after_flattening() {
        // A hierarchical input stage wrapped and flattened must still
        // produce compilable FAS through the normal pipeline.
        let mut top = FunctionalDiagram::new("wrapped_input_stage");
        let inner = InputStageSpec::new("in", 1e-6, 5e-12).diagram().unwrap();
        top.add_symbol(as_symbol("stage", inner));
        let flat = flatten(&top).unwrap();
        // Pins survive the inlining.
        assert_eq!(flat.pins().len(), 1);
        assert!(check_diagram(&flat).is_consistent());
    }
}
