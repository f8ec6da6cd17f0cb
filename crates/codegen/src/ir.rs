//! Backend-independent lowering of a functional diagram.
//!
//! The lowering performs the language-independent steps of §4.1: collect the
//! code segments per GBS instance, introduce property values, extract the
//! connection information (net → variable names), and order the segments by
//! signal flow. The backends then only render syntax.

use crate::CodegenError;
use gabm_core::check::check_indexed;
use gabm_core::diagram::{FunctionalDiagram, PortRef, SymbolId};
use gabm_core::index::DiagramIndex;
use gabm_core::quantity::Dimension;
use gabm_core::symbol::{
    format_number, FuncKind, PortDirection, PropertyValue, Symbol, SymbolKind,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Kind of pin access of a probe or generator, mapped from the quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PinQuantity {
    /// Across quantity: voltage (electrical).
    Volt,
    /// Through quantity: current (electrical).
    Curr,
    /// Across quantity: angular velocity (rotational).
    Omega,
    /// Through quantity: torque (rotational).
    Torque,
    /// Across quantity: temperature (thermal).
    Temp,
    /// Through quantity: heat flow (thermal).
    Heat,
}

impl PinQuantity {
    fn from_dimension(dim: Dimension, symbol: usize) -> Result<Self, CodegenError> {
        if dim == Dimension::VOLTAGE {
            Ok(PinQuantity::Volt)
        } else if dim == Dimension::CURRENT {
            Ok(PinQuantity::Curr)
        } else if dim == Dimension::ANGULAR_VELOCITY {
            Ok(PinQuantity::Omega)
        } else if dim == Dimension::TORQUE {
            Ok(PinQuantity::Torque)
        } else if dim == Dimension::TEMPERATURE {
            Ok(PinQuantity::Temp)
        } else if dim == Dimension::POWER {
            Ok(PinQuantity::Heat)
        } else {
            Err(CodegenError::Unsupported(format!(
                "symbol {symbol}: no pin access for quantity {dim}"
            )))
        }
    }

    /// The access prefix in FAS syntax (`volt.value(...)`, `curr.on(...)`).
    pub fn fas_prefix(&self) -> &'static str {
        match self {
            PinQuantity::Volt => "volt",
            PinQuantity::Curr => "curr",
            PinQuantity::Omega => "omega",
            PinQuantity::Torque => "torque",
            PinQuantity::Temp => "temp",
            PinQuantity::Heat => "heat",
        }
    }

    /// `true` for across quantities (read with `.value`), `false` for
    /// through quantities (imposed with `.on`).
    pub fn is_across(&self) -> bool {
        matches!(
            self,
            PinQuantity::Volt | PinQuantity::Omega | PinQuantity::Temp
        )
    }
}

/// Right-hand side of an assignment statement.
#[derive(Debug, Clone, PartialEq)]
pub enum IrRhs {
    /// `a · input` (gain element).
    Gain {
        /// Gain property expression.
        a: String,
        /// Input variable/expression.
        input: String,
    },
    /// Signed sum: `±t0 ±t1 …` (adder).
    Sum {
        /// `(positive?, term)` pairs.
        terms: Vec<(bool, String)>,
    },
    /// Product/quotient chain (multiplier).
    Prod {
        /// `(multiply?, factor)` pairs; `false` divides.
        factors: Vec<(bool, String)>,
    },
    /// `limit(input, lo, hi)` (limiter).
    Limit {
        /// Input expression.
        input: String,
        /// Lower bound expression.
        lo: String,
        /// Upper bound expression.
        hi: String,
    },
    /// `max(input, 0)` — separator positive part.
    PosPart {
        /// Input expression.
        input: String,
    },
    /// `min(input, 0)` — separator negative part.
    NegPart {
        /// Input expression.
        input: String,
    },
    /// Function call (sin, cos, …).
    Func {
        /// The function.
        func: FuncKind,
        /// Argument expressions.
        args: Vec<String>,
    },
    /// Plain copy.
    Copy {
        /// Input expression.
        input: String,
    },
}

/// One ordered code segment.
#[derive(Debug, Clone, PartialEq)]
pub enum IrStatement {
    /// Read an across quantity from a pin: `make var = volt.value(pin)`.
    Probe {
        /// Symbol id.
        id: usize,
        /// Target variable.
        var: String,
        /// Pin name.
        pin: String,
        /// Quantity accessed.
        quantity: PinQuantity,
    },
    /// Impose a through quantity on a pin: `make curr.on(pin) = expr`.
    Impose {
        /// Symbol id.
        id: usize,
        /// Pin name.
        pin: String,
        /// Quantity imposed.
        quantity: PinQuantity,
        /// Imposed expression.
        expr: String,
    },
    /// Impose an across quantity via a stiff through source:
    /// `curr.on(pin) = GBIG · (volt.value(pin) − target)`.
    ImposeAcross {
        /// Symbol id.
        id: usize,
        /// Pin name.
        pin: String,
        /// Target (across) expression.
        target: String,
    },
    /// Time derivative with DC guard (the paper's generic segment).
    Derivative {
        /// Symbol id.
        id: usize,
        /// Target variable (`yd{id}`).
        var: String,
        /// Differentiated variable.
        input: String,
    },
    /// Time integral.
    Integral {
        /// Symbol id.
        id: usize,
        /// Target variable (`yint{id}`).
        var: String,
        /// Integrated variable.
        input: String,
    },
    /// Ordinary assignment.
    Assign {
        /// Symbol id.
        id: usize,
        /// Target variable.
        var: String,
        /// Right-hand side.
        rhs: IrRhs,
    },
    /// One-simulation-step delay (`state.delay`).
    UnitDelay {
        /// Symbol id.
        id: usize,
        /// Target variable (`ylast{id}`).
        var: String,
        /// Delayed variable (may be defined later in the listing).
        input: String,
    },
    /// Fixed time delay (`state.delayt`).
    FixedDelay {
        /// Symbol id.
        id: usize,
        /// Target variable.
        var: String,
        /// Delayed variable.
        input: String,
        /// Delay time expression.
        td: String,
    },
    /// First-order lag `k/(1 + s·tau)` discretized with the one-step delay.
    FirstOrderLag {
        /// Symbol id.
        id: usize,
        /// Target variable.
        var: String,
        /// Input expression.
        input: String,
        /// DC gain expression.
        k: String,
        /// Time-constant expression.
        tau: String,
    },
}

impl IrStatement {
    /// The variable this statement defines, if any (impositions define
    /// none).
    pub fn target_var(&self) -> Option<&str> {
        match self {
            IrStatement::Probe { var, .. }
            | IrStatement::Derivative { var, .. }
            | IrStatement::Integral { var, .. }
            | IrStatement::Assign { var, .. }
            | IrStatement::UnitDelay { var, .. }
            | IrStatement::FixedDelay { var, .. }
            | IrStatement::FirstOrderLag { var, .. } => Some(var),
            IrStatement::Impose { .. } | IrStatement::ImposeAcross { .. } => None,
        }
    }

    /// Id of the symbol this statement was generated from.
    pub fn id(&self) -> usize {
        match self {
            IrStatement::Probe { id, .. }
            | IrStatement::Impose { id, .. }
            | IrStatement::ImposeAcross { id, .. }
            | IrStatement::Derivative { id, .. }
            | IrStatement::Integral { id, .. }
            | IrStatement::Assign { id, .. }
            | IrStatement::UnitDelay { id, .. }
            | IrStatement::FixedDelay { id, .. }
            | IrStatement::FirstOrderLag { id, .. } => *id,
        }
    }
}

/// A model parameter of the generated code.
#[derive(Debug, Clone, PartialEq)]
pub struct IrParam {
    /// Parameter name.
    pub name: String,
    /// Default value.
    pub default: f64,
    /// `true` when the parameter stands for an exposed-but-unconnected
    /// diagram input (open interface port).
    pub from_open_input: bool,
}

/// Lowered, ordered model ready for rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeIr {
    /// Model name.
    pub model_name: String,
    /// Pin names in diagram order.
    pub pins: Vec<String>,
    /// Parameters (declared + open inputs).
    pub params: Vec<IrParam>,
    /// Statements in signal-flow order.
    pub statements: Vec<IrStatement>,
}

/// Variable name delivered by an output port of a symbol.
fn output_var(sym: &Symbol, port_name: &str) -> String {
    match &sym.kind {
        SymbolKind::Probe { .. } => format!("v{}", sym.id),
        SymbolKind::Parameter { param, .. } => param.clone(),
        SymbolKind::SimVariable { var } => var.code_name().to_string(),
        SymbolKind::Constant { value } => format_number(*value),
        SymbolKind::Differentiator => format!("yd{}", sym.id),
        SymbolKind::Integrator => format!("yint{}", sym.id),
        SymbolKind::UnitDelay => format!("ylast{}", sym.id),
        SymbolKind::Delay => format!("ydel{}", sym.id),
        SymbolKind::Separator => match port_name {
            "pos" => format!("ypos{}", sym.id),
            _ => format!("yneg{}", sym.id),
        },
        _ => format!("yout{}", sym.id),
    }
}

fn property_expr(sym: &Symbol, name: &str) -> Result<String, CodegenError> {
    sym.property(name)
        .map(PropertyValue::code_expr)
        .ok_or_else(|| CodegenError::MissingProperty {
            symbol: sym.id,
            property: name.to_string(),
        })
}

/// Lowers a diagram to ordered IR. Hierarchical symbols are flattened
/// first (§3.1: "GBS can be hierarchical" — generation always operates on
/// the flat expansion).
pub(crate) fn lower(d: &FunctionalDiagram) -> Result<CodeIr, CodegenError> {
    let flattened;
    let d = if d
        .symbols()
        .any(|s| matches!(s.kind, SymbolKind::Hierarchical { .. }))
    {
        flattened = gabm_core::hierarchy::flatten(d)?;
        &flattened
    } else {
        d
    };
    let index = DiagramIndex::new(d);
    let report = check_indexed(&index);
    if !report.is_consistent() {
        return Err(CodegenError::Inconsistent(report));
    }

    // --- connection information -----------------------------------------
    // Expression delivered on each net (from its driving output port), and
    // the pin name on each net (for probe/generator resolution).
    let mut net_expr: Vec<Option<String>> = vec![None; index.net_count()];
    let mut net_pin: Vec<Option<&str>> = vec![None; index.net_count()];
    for net in d.nets() {
        for p in &net.ports {
            let sym = d.symbol(p.symbol)?;
            match index.slot(*p).map(|slot| slot.direction) {
                Some(PortDirection::Output) => {
                    let name = sym.kind.port(p.port).map(|spec| spec.name);
                    net_expr[net.id.0] = Some(output_var(sym, name.as_deref().unwrap_or("")));
                }
                Some(PortDirection::Bidir) => {
                    if let SymbolKind::Pin { name } = &sym.kind {
                        net_pin[net.id.0] = Some(name);
                    }
                }
                _ => {}
            }
        }
    }
    // Open interface inputs become parameters referenced by name.
    let open_inputs: Vec<(PortRef, &str)> = d
        .interface()
        .iter()
        .filter(|itf| itf.direction == PortDirection::Input && d.net_of(itf.inner).is_none())
        .map(|itf| (itf.inner, itf.name.as_str()))
        .collect();

    // Expression consumed by an input port.
    let input_expr = |sym: &Symbol, port_name: &str| -> Result<String, CodegenError> {
        let port = sym.port_index(port_name).ok_or_else(|| {
            CodegenError::Core(gabm_core::CoreError::NotFound(format!("port {port_name}")))
        })?;
        input_at(&index, &net_expr, &open_inputs, sym, port)
    };

    // Pin of a probe/generator symbol.
    let pin_of = |sym: &Symbol| -> Result<String, CodegenError> {
        let port = sym.port_index("pin").expect("probe/generator has pin port");
        index
            .net(SymbolId(sym.id), port)
            .and_then(|net| net_pin[net.0])
            .map(str::to_string)
            .ok_or_else(|| {
                CodegenError::Unsupported(format!(
                    "symbol {} is not attached to a pin symbol",
                    sym.id
                ))
            })
    };

    // --- code segments per symbol ----------------------------------------
    // All segments go into one list; `spans[id]` is symbol `id`'s range.
    let mut segments: Vec<IrStatement> = Vec::new();
    let mut spans = vec![0..0; d.symbol_count() + 1];
    for sym in d.symbols() {
        let begin = segments.len();
        match &sym.kind {
            SymbolKind::Pin { .. }
            | SymbolKind::Parameter { .. }
            | SymbolKind::SimVariable { .. }
            | SymbolKind::Constant { .. } => {}
            SymbolKind::Probe { quantity } => {
                let q = PinQuantity::from_dimension(*quantity, sym.id)?;
                if !q.is_across() {
                    return Err(CodegenError::Unsupported(format!(
                        "symbol {}: probes of through quantities are not observable from a behavioural model",
                        sym.id
                    )));
                }
                segments.push(IrStatement::Probe {
                    id: sym.id,
                    var: output_var(sym, "out"),
                    pin: pin_of(sym)?,
                    quantity: q,
                });
            }
            SymbolKind::Generator { quantity } => {
                let q = PinQuantity::from_dimension(*quantity, sym.id)?;
                let expr = input_expr(sym, "in")?;
                segments.push(if q.is_across() {
                    IrStatement::ImposeAcross {
                        id: sym.id,
                        pin: pin_of(sym)?,
                        target: expr,
                    }
                } else {
                    IrStatement::Impose {
                        id: sym.id,
                        pin: pin_of(sym)?,
                        quantity: q,
                        expr,
                    }
                });
            }
            SymbolKind::Gain => segments.push(IrStatement::Assign {
                id: sym.id,
                var: output_var(sym, "out"),
                rhs: IrRhs::Gain {
                    a: property_expr(sym, "a")?,
                    input: input_expr(sym, "in")?,
                },
            }),
            SymbolKind::Limiter => segments.push(IrStatement::Assign {
                id: sym.id,
                var: output_var(sym, "out"),
                rhs: IrRhs::Limit {
                    input: input_expr(sym, "in")?,
                    lo: property_expr(sym, "min")?,
                    hi: property_expr(sym, "max")?,
                },
            }),
            SymbolKind::Differentiator => segments.push(IrStatement::Derivative {
                id: sym.id,
                var: output_var(sym, "out"),
                input: input_expr(sym, "in")?,
            }),
            SymbolKind::Integrator => segments.push(IrStatement::Integral {
                id: sym.id,
                var: output_var(sym, "out"),
                input: input_expr(sym, "in")?,
            }),
            SymbolKind::Delay => segments.push(IrStatement::FixedDelay {
                id: sym.id,
                var: output_var(sym, "out"),
                input: input_expr(sym, "in")?,
                td: property_expr(sym, "td")?,
            }),
            SymbolKind::UnitDelay => segments.push(IrStatement::UnitDelay {
                id: sym.id,
                var: output_var(sym, "out"),
                input: input_expr(sym, "in")?,
            }),
            SymbolKind::TransferFunction { num, den } => {
                if num.len() == 1 && den.len() == 2 {
                    let k = format_number(num[0] / den[0]);
                    let tau = format_number(den[1] / den[0]);
                    segments.push(IrStatement::FirstOrderLag {
                        id: sym.id,
                        var: output_var(sym, "out"),
                        input: input_expr(sym, "in")?,
                        k,
                        tau,
                    });
                } else {
                    return Err(CodegenError::Unsupported(format!(
                        "symbol {}: only first-order transfer functions are generated",
                        sym.id
                    )));
                }
            }
            // Numbered inputs `in0…` are ports 0… in canonical order.
            SymbolKind::Adder { signs } => {
                let mut terms = Vec::with_capacity(signs.len());
                for (k, sign) in signs.iter().enumerate() {
                    terms.push((*sign, input_at(&index, &net_expr, &open_inputs, sym, k)?));
                }
                segments.push(IrStatement::Assign {
                    id: sym.id,
                    var: output_var(sym, "out"),
                    rhs: IrRhs::Sum { terms },
                });
            }
            SymbolKind::Multiplier { ops } => {
                let mut factors = Vec::with_capacity(ops.len());
                for (k, op) in ops.iter().enumerate() {
                    factors.push((*op, input_at(&index, &net_expr, &open_inputs, sym, k)?));
                }
                segments.push(IrStatement::Assign {
                    id: sym.id,
                    var: output_var(sym, "out"),
                    rhs: IrRhs::Prod { factors },
                });
            }
            SymbolKind::Separator => {
                let input = input_expr(sym, "in")?;
                segments.push(IrStatement::Assign {
                    id: sym.id,
                    var: output_var(sym, "pos"),
                    rhs: IrRhs::PosPart {
                        input: input.clone(),
                    },
                });
                segments.push(IrStatement::Assign {
                    id: sym.id,
                    var: output_var(sym, "neg"),
                    rhs: IrRhs::NegPart { input },
                });
            }
            SymbolKind::Function { func } => {
                let mut args = Vec::with_capacity(func.arity());
                for k in 0..func.arity() {
                    args.push(input_at(&index, &net_expr, &open_inputs, sym, k)?);
                }
                segments.push(IrStatement::Assign {
                    id: sym.id,
                    var: output_var(sym, "out"),
                    rhs: IrRhs::Func { func: *func, args },
                });
            }
            SymbolKind::Hierarchical { name, .. } => {
                return Err(CodegenError::Unsupported(format!(
                    "hierarchical symbol '{name}' must be flattened before code generation"
                )));
            }
        }
        spans[sym.id] = begin..segments.len();
    }

    // --- ordering by signal flow (§4.1) ----------------------------------
    let order = topological_order(&index, &spans)?;
    let mut segments: Vec<Option<IrStatement>> = segments.into_iter().map(Some).collect();
    let mut statements = Vec::with_capacity(segments.len());
    for id in order {
        statements.extend(
            segments[spans[id].clone()]
                .iter_mut()
                .map(|stmt| stmt.take().expect("each segment is emitted once")),
        );
    }

    // --- parameters -------------------------------------------------------
    let mut params: Vec<IrParam> = d
        .parameters()
        .iter()
        .map(|p| IrParam {
            name: p.name.clone(),
            default: p.default,
            from_open_input: false,
        })
        .collect();
    for (_, name) in open_inputs {
        if !params.iter().any(|p| p.name == name) {
            params.push(IrParam {
                name: name.to_string(),
                default: 0.0,
                from_open_input: true,
            });
        }
    }

    Ok(CodeIr {
        model_name: d.name().to_string(),
        pins: d.pins().into_iter().map(|(_, n)| n).collect(),
        params,
        statements,
    })
}

/// Expression consumed by input port `port` of `sym`: the driving
/// expression of its net, or the parameter standing for an open interface
/// input.
fn input_at(
    index: &DiagramIndex<'_>,
    net_expr: &[Option<String>],
    open_inputs: &[(PortRef, &str)],
    sym: &Symbol,
    port: usize,
) -> Result<String, CodegenError> {
    let pr = PortRef {
        symbol: SymbolId(sym.id),
        port,
    };
    if let Some(net) = index.net(pr.symbol, port) {
        net_expr[net.0].clone().ok_or_else(|| {
            CodegenError::Unsupported(format!("net {} has no driving expression", net.0))
        })
    } else if let Some((_, name)) = open_inputs.iter().rev().find(|(inner, _)| *inner == pr) {
        Ok(name.to_string())
    } else {
        let name = sym
            .kind
            .port(port)
            .map(|spec| spec.name)
            .unwrap_or_default();
        Err(CodegenError::Unsupported(format!(
            "input '{name}' of symbol {} is unconnected",
            sym.id
        )))
    }
}

/// Kahn's algorithm over the signal-flow graph, smallest symbol id first so
/// the emission order is deterministic and mirrors the paper's listing.
/// Only symbols that emit statements (non-empty `spans`) take part; sources
/// without statements (params, constants) impose no order.
fn topological_order(
    index: &DiagramIndex<'_>,
    spans: &[Range<usize>],
) -> Result<Vec<usize>, CodegenError> {
    let emits = |id: usize| spans.get(id).is_some_and(|span| !span.is_empty());
    let flow = index.flow_graph();
    let mut indegree = vec![0usize; spans.len()];
    for from in (0..spans.len()).filter(|&id| emits(id)) {
        for &to in flow.successors(from) {
            if emits(to) {
                indegree[to] += 1;
            }
        }
    }
    let mut ready: BinaryHeap<Reverse<usize>> = (0..spans.len())
        .filter(|&id| emits(id) && indegree[id] == 0)
        .map(Reverse)
        .collect();
    let mut order = Vec::with_capacity(spans.len());
    while let Some(Reverse(next)) = ready.pop() {
        order.push(next);
        for &to in flow.successors(next) {
            if emits(to) {
                indegree[to] -= 1;
                if indegree[to] == 0 {
                    ready.push(Reverse(to));
                }
            }
        }
    }
    if order.len() != (0..spans.len()).filter(|&id| emits(id)).count() {
        return Err(CodegenError::Unsupported(
            "signal-flow cycle not broken by a delay element".to_string(),
        ));
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gabm_core::constructs::{InputStageSpec, SlewRateSpec};

    #[test]
    fn input_stage_lowering_matches_paper_order() {
        let d = InputStageSpec::new("in", 1e-6, 5e-12).diagram().unwrap();
        let ir = lower(&d).unwrap();
        assert_eq!(ir.pins, vec!["in".to_string()]);
        assert_eq!(ir.params.len(), 2);
        // Statement ids in paper order: probe(2), ddt(4), gain(5), gain(6),
        // adder(7), generator(3).
        let ids: Vec<usize> = ir.statements.iter().map(IrStatement::id).collect();
        assert_eq!(ids, vec![2, 4, 5, 6, 7, 3]);
    }

    #[test]
    fn input_stage_variables() {
        let d = InputStageSpec::new("in", 1e-6, 5e-12).diagram().unwrap();
        let ir = lower(&d).unwrap();
        match &ir.statements[0] {
            IrStatement::Probe { var, pin, .. } => {
                assert_eq!(var, "v2");
                assert_eq!(pin, "in");
            }
            other => panic!("expected probe, got {other:?}"),
        }
        match &ir.statements[1] {
            IrStatement::Derivative { var, input, .. } => {
                assert_eq!(var, "yd4");
                assert_eq!(input, "v2");
            }
            other => panic!("expected derivative, got {other:?}"),
        }
        match ir.statements.last().unwrap() {
            IrStatement::Impose { pin, expr, .. } => {
                assert_eq!(pin, "in");
                assert_eq!(expr, "yout7");
            }
            other => panic!("expected impose, got {other:?}"),
        }
    }

    #[test]
    fn slew_rate_open_input_becomes_param() {
        let d = SlewRateSpec::new(1e6, 1e6).diagram().unwrap();
        let ir = lower(&d).unwrap();
        assert!(ir.params.iter().any(|p| p.name == "u" && p.from_open_input));
        // The unit delay is emitted without waiting for its input.
        let first_ids: Vec<usize> = ir.statements.iter().map(IrStatement::id).collect();
        assert_eq!(
            first_ids[0], 1,
            "unit delay should come first: {first_ids:?}"
        );
    }

    #[test]
    fn pin_quantity_mapping() {
        assert_eq!(
            PinQuantity::from_dimension(Dimension::VOLTAGE, 1).unwrap(),
            PinQuantity::Volt
        );
        assert_eq!(
            PinQuantity::from_dimension(Dimension::TORQUE, 1).unwrap(),
            PinQuantity::Torque
        );
        assert!(PinQuantity::from_dimension(Dimension::CHARGE, 1).is_err());
        assert!(PinQuantity::Volt.is_across());
        assert!(!PinQuantity::Curr.is_across());
        assert_eq!(PinQuantity::Omega.fas_prefix(), "omega");
    }
}
