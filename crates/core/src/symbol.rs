//! Graphical Building Symbols (GBS) — the primary elements of the formalism
//! (§3.1 of the paper).
//!
//! Four families are defined, exactly following the paper:
//!
//! * **interface elements** (§3.1a): pins, probes, generators, parameter
//!   symbols and simulation-variable symbols;
//! * **function elements** (§3.1b): linear and non-linear gains and the
//!   time/frequency blocks (differentiation, integration, delay, transfer
//!   function) plus the one-simulation-step delay used by the slew-rate
//!   construct;
//! * **mathematical elements** (§3.1c): adders and multipliers with signed /
//!   divided inputs, and the separator that splits a signal into its
//!   positive and negative parts;
//! * **function generation elements** (§3.1d): sin, cos, exp, ….

use crate::quantity::Dimension;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Direction of a symbol port (§3.2: "Some ports consume signals … while
/// some other deliver signals").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDirection {
    /// Consumes a signal.
    Input,
    /// Delivers a signal (at most one per net).
    Output,
    /// Bidirectional pin connection (exempt from the single-driver rule).
    Bidir,
}

/// A port template of a symbol kind. The name borrows from the kind (or
/// from a static table), so querying templates allocates nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct PortSpec<'a> {
    /// Port name, unique within the symbol.
    pub name: Cow<'a, str>,
    /// Signal direction.
    pub direction: PortDirection,
    /// Physical dimension carried, when fixed by the symbol's semantics.
    pub dimension: Option<Dimension>,
}

impl<'a> PortSpec<'a> {
    fn new(name: &'a str, direction: PortDirection, dimension: Option<Dimension>) -> Self {
        PortSpec {
            name: Cow::Borrowed(name),
            direction,
            dimension,
        }
    }

    /// The `k`-th numbered input (`in0`, `in1`, …) of an adder, multiplier
    /// or function element.
    fn numbered_input(k: usize) -> Self {
        const NAMES: [&str; 16] = [
            "in0", "in1", "in2", "in3", "in4", "in5", "in6", "in7", "in8", "in9", "in10", "in11",
            "in12", "in13", "in14", "in15",
        ];
        PortSpec {
            name: NAMES
                .get(k)
                .map_or_else(|| Cow::Owned(format!("in{k}")), |n| Cow::Borrowed(*n)),
            direction: PortDirection::Input,
            dimension: None,
        }
    }
}

/// Simulator-internal variables exposed to models (§3.1a: "Simulation
/// variable symbols make the simulator's internal quantities like time or
/// temperature available to the model").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimVar {
    /// Simulated time (s).
    Time,
    /// Analysis temperature (K).
    Temperature,
    /// Current time step of the simulation engine (s) — the quantity the
    /// slew-rate construct divides by.
    TimeStep,
}

impl SimVar {
    /// Physical dimension of the variable.
    pub fn dimension(&self) -> Dimension {
        match self {
            SimVar::Time | SimVar::TimeStep => Dimension::TIME,
            SimVar::Temperature => Dimension::TEMPERATURE,
        }
    }

    /// Identifier of the variable in generated code.
    pub fn code_name(&self) -> &'static str {
        match self {
            SimVar::Time => "time",
            SimVar::Temperature => "temp",
            SimVar::TimeStep => "timestep",
        }
    }
}

/// Function-generation elements (§3.1d).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuncKind {
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Exponential.
    Exp,
    /// Natural logarithm.
    Ln,
    /// Absolute value.
    Abs,
    /// Square root.
    Sqrt,
    /// Hyperbolic tangent.
    Tanh,
    /// Arc tangent.
    Atan,
    /// Two-argument minimum.
    Min,
    /// Two-argument maximum.
    Max,
    /// Power `x^y`.
    Pow,
}

impl FuncKind {
    /// Number of input ports.
    pub fn arity(&self) -> usize {
        match self {
            FuncKind::Min | FuncKind::Max | FuncKind::Pow => 2,
            _ => 1,
        }
    }

    /// Name of the function in generated code.
    pub fn code_name(&self) -> &'static str {
        match self {
            FuncKind::Sin => "sin",
            FuncKind::Cos => "cos",
            FuncKind::Exp => "exp",
            FuncKind::Ln => "ln",
            FuncKind::Abs => "abs",
            FuncKind::Sqrt => "sqrt",
            FuncKind::Tanh => "tanh",
            FuncKind::Atan => "atan",
            FuncKind::Min => "min",
            FuncKind::Max => "max",
            FuncKind::Pow => "pow",
        }
    }
}

/// Value of a symbol property: either a literal or a reference to one of the
/// model's parameters (the definition card supplies defaults).
#[derive(Debug, Clone, PartialEq)]
pub enum PropertyValue {
    /// Literal number.
    Number(f64),
    /// Reference to a model parameter by name.
    Param(String),
    /// Negated reference to a model parameter (`-name`) — used e.g. for the
    /// slew-rate limiter's lower bound, `min = −max_fall_rate`.
    NegParam(String),
}

impl PropertyValue {
    /// Expression text of the property for code generation.
    pub fn code_expr(&self) -> String {
        match self {
            PropertyValue::Number(v) => format_number(*v),
            PropertyValue::Param(p) => p.clone(),
            PropertyValue::NegParam(p) => format!("(-{p})"),
        }
    }

    /// Resolves the numeric value given the model's parameter values.
    pub fn resolve(&self, params: &BTreeMap<String, f64>) -> Option<f64> {
        match self {
            PropertyValue::Number(v) => Some(*v),
            PropertyValue::Param(p) => params.get(p).copied(),
            PropertyValue::NegParam(p) => params.get(p).map(|v| -v),
        }
    }
}

/// Formats a number the way the generated HDL expects (shortest unambiguous
/// form; always parses back as a float).
pub fn format_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v:e}")
    }
}

/// The kind of a Graphical Building Symbol; determines its ports.
#[derive(Debug, Clone, PartialEq)]
pub enum SymbolKind {
    /// A bi-directional model pin (electrical pin, motor axle…). Probes and
    /// generators attach to its single internal port.
    Pin {
        /// External pin name (appears in the definition card and in
        /// generated code).
        name: String,
    },
    /// Reads a quantity from a pin (voltage probe, current probe, torque
    /// probe…). Ports: `pin` (bidir), `out`.
    Probe {
        /// Quantity read from the pin.
        quantity: Dimension,
    },
    /// Imposes a quantity on a pin (current generator, voltage generator…).
    /// Ports: `pin` (bidir), `in`.
    Generator {
        /// Quantity imposed on the pin.
        quantity: Dimension,
    },
    /// "An external source of constant numbers": a model parameter exposed
    /// as a signal. Ports: `out`.
    Parameter {
        /// Parameter name (matches a definition-card parameter).
        param: String,
        /// Dimension of the parameter.
        dimension: Dimension,
    },
    /// A simulator-internal variable. Ports: `out`.
    SimVariable {
        /// Which variable.
        var: SimVar,
    },
    /// A literal constant. Ports: `out`.
    Constant {
        /// The value.
        value: f64,
    },
    /// Linear gain (property `a`). Ports: `in`, `out`.
    Gain,
    /// Non-linear limitation (properties `min`, `max`). Ports: `in`, `out`.
    Limiter,
    /// Time differentiation d/dt. Ports: `in`, `out`.
    Differentiator,
    /// Time integration ∫dt. Ports: `in`, `out`.
    Integrator,
    /// Fixed time delay (property `td`). Ports: `in`, `out`.
    Delay,
    /// One-simulation-step delay — the paper's §3.3 "variable delay element
    /// (duration: 1 current time step)". Ports: `in`, `out`.
    UnitDelay,
    /// Laplace-domain transfer function with numerator/denominator
    /// coefficients in ascending powers of `s`. Ports: `in`, `out`.
    TransferFunction {
        /// Numerator coefficients.
        num: Vec<f64>,
        /// Denominator coefficients.
        den: Vec<f64>,
    },
    /// N-input adder; `signs[i]` is `+` (`true`) or `−`. Ports: `in0…`,
    /// `out`.
    Adder {
        /// Sign of each input.
        signs: Vec<bool>,
    },
    /// N-input multiplier; `ops[i]` is `*` (`true`) or `/`. Ports: `in0…`,
    /// `out`.
    Multiplier {
        /// Operation applied with each input.
        ops: Vec<bool>,
    },
    /// Splits a signal into positive and negative parts. Ports: `in`,
    /// `pos`, `neg`.
    Separator,
    /// Function-generation element. Ports: `in0…`, `out`.
    Function {
        /// The generated function.
        func: FuncKind,
    },
    /// A hierarchical GBS: a whole functional diagram used as one symbol
    /// (§3.1: "GBS can be hierarchical"). Its ports are the inner diagram's
    /// interface.
    Hierarchical {
        /// Name of the sub-model.
        name: String,
        /// The inner diagram.
        diagram: Box<crate::diagram::FunctionalDiagram>,
    },
}

impl SymbolKind {
    /// Number of ports of this symbol kind.
    pub fn port_count(&self) -> usize {
        match self {
            SymbolKind::Pin { .. }
            | SymbolKind::Parameter { .. }
            | SymbolKind::SimVariable { .. }
            | SymbolKind::Constant { .. } => 1,
            SymbolKind::Probe { .. }
            | SymbolKind::Generator { .. }
            | SymbolKind::Gain
            | SymbolKind::Limiter
            | SymbolKind::Differentiator
            | SymbolKind::Integrator
            | SymbolKind::Delay
            | SymbolKind::UnitDelay
            | SymbolKind::TransferFunction { .. } => 2,
            SymbolKind::Adder { signs } => signs.len() + 1,
            SymbolKind::Multiplier { ops } => ops.len() + 1,
            SymbolKind::Separator => 3,
            SymbolKind::Function { func } => func.arity() + 1,
            SymbolKind::Hierarchical { diagram, .. } => diagram.interface().len(),
        }
    }

    /// Template of port `idx` in canonical order, or `None` past the last
    /// port.
    pub fn port(&self, idx: usize) -> Option<PortSpec<'_>> {
        use PortDirection::{Bidir, Input, Output};
        let count = self.port_count();
        if idx >= count {
            return None;
        }
        let last = idx + 1 == count;
        Some(match self {
            SymbolKind::Pin { .. } => PortSpec::new("pin", Bidir, None),
            SymbolKind::Probe { quantity } if last => PortSpec::new("out", Output, Some(*quantity)),
            SymbolKind::Generator { quantity } if last => {
                PortSpec::new("in", Input, Some(*quantity))
            }
            SymbolKind::Probe { .. } | SymbolKind::Generator { .. } => {
                PortSpec::new("pin", Bidir, None)
            }
            SymbolKind::Parameter { dimension, .. } => {
                PortSpec::new("out", Output, Some(*dimension))
            }
            SymbolKind::SimVariable { var } => PortSpec::new("out", Output, Some(var.dimension())),
            SymbolKind::Constant { .. } => PortSpec::new("out", Output, Some(Dimension::NONE)),
            SymbolKind::Gain
            | SymbolKind::Limiter
            | SymbolKind::Differentiator
            | SymbolKind::Integrator
            | SymbolKind::Delay
            | SymbolKind::UnitDelay
            | SymbolKind::TransferFunction { .. } => match idx {
                0 => PortSpec::new("in", Input, None),
                _ => PortSpec::new("out", Output, None),
            },
            SymbolKind::Separator => match idx {
                0 => PortSpec::new("in", Input, None),
                1 => PortSpec::new("pos", Output, None),
                _ => PortSpec::new("neg", Output, None),
            },
            SymbolKind::Adder { .. } | SymbolKind::Multiplier { .. } if last => {
                PortSpec::new("out", Output, None)
            }
            SymbolKind::Function { .. } if last => {
                PortSpec::new("out", Output, Some(Dimension::NONE))
            }
            SymbolKind::Adder { .. }
            | SymbolKind::Multiplier { .. }
            | SymbolKind::Function { .. } => PortSpec::numbered_input(idx),
            SymbolKind::Hierarchical { diagram, .. } => {
                let itf = &diagram.interface()[idx];
                PortSpec::new(&itf.name, itf.direction, itf.dimension)
            }
        })
    }

    /// Port templates of this symbol kind, in canonical order.
    pub fn ports(&self) -> Vec<PortSpec<'_>> {
        (0..self.port_count())
            .filter_map(|k| self.port(k))
            .collect()
    }

    /// Index of the named port.
    pub fn port_index(&self, name: &str) -> Option<usize> {
        (0..self.port_count()).find(|&k| self.port(k).is_some_and(|p| p.name == name))
    }

    /// Short mnemonic used for diagram rendering and variable naming.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            SymbolKind::Pin { .. } => "pin",
            SymbolKind::Probe { .. } => "probe",
            SymbolKind::Generator { .. } => "gen",
            SymbolKind::Parameter { .. } => "param",
            SymbolKind::SimVariable { .. } => "simvar",
            SymbolKind::Constant { .. } => "const",
            SymbolKind::Gain => "gain",
            SymbolKind::Limiter => "limit",
            SymbolKind::Differentiator => "ddt",
            SymbolKind::Integrator => "idt",
            SymbolKind::Delay => "delay",
            SymbolKind::UnitDelay => "zdelay",
            SymbolKind::TransferFunction { .. } => "tf",
            SymbolKind::Adder { .. } => "add",
            SymbolKind::Multiplier { .. } => "mul",
            SymbolKind::Separator => "sep",
            SymbolKind::Function { .. } => "func",
            SymbolKind::Hierarchical { .. } => "sub",
        }
    }
}

/// A placed symbol instance inside a functional diagram.
#[derive(Debug, Clone, PartialEq)]
pub struct Symbol {
    /// Instance id (1-based, assigned by the diagram).
    pub id: usize,
    /// The symbol kind.
    pub kind: SymbolKind,
    /// Properties: dimensioning values or parameter references (§3.1: "GBS
    /// have a set of properties that allows dimensioning of the model").
    pub properties: BTreeMap<String, PropertyValue>,
    /// Optional human-readable label.
    pub label: Option<String>,
}

impl Symbol {
    /// Looks up a property.
    pub fn property(&self, name: &str) -> Option<&PropertyValue> {
        self.properties.get(name)
    }

    /// Port templates (delegates to the kind).
    pub fn ports(&self) -> Vec<PortSpec<'_>> {
        self.kind.ports()
    }

    /// Index of the named port.
    pub fn port_index(&self, name: &str) -> Option<usize> {
        self.kind.port_index(name)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} {}", self.id, self.kind.mnemonic())?;
        if let Some(label) = &self.label {
            write!(f, " ({label})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_derivation() {
        assert_eq!(SymbolKind::Gain.ports().len(), 2);
        assert_eq!(SymbolKind::Separator.ports().len(), 3);
        let add = SymbolKind::Adder {
            signs: vec![true, false, true],
        };
        let ports = add.ports();
        assert_eq!(ports.len(), 4);
        assert_eq!(ports[0].direction, PortDirection::Input);
        assert_eq!(ports[3].direction, PortDirection::Output);
        assert_eq!(ports[3].name, "out");
    }

    #[test]
    fn probe_carries_quantity() {
        let p = SymbolKind::Probe {
            quantity: Dimension::VOLTAGE,
        };
        let ports = p.ports();
        assert_eq!(ports[0].direction, PortDirection::Bidir);
        assert_eq!(ports[1].dimension, Some(Dimension::VOLTAGE));
    }

    #[test]
    fn function_arity() {
        assert_eq!(FuncKind::Sin.arity(), 1);
        assert_eq!(FuncKind::Pow.arity(), 2);
        let f = SymbolKind::Function {
            func: FuncKind::Max,
        };
        assert_eq!(f.ports().len(), 3);
        assert_eq!(FuncKind::Tanh.code_name(), "tanh");
    }

    #[test]
    fn simvar_dimensions() {
        assert_eq!(SimVar::Time.dimension(), Dimension::TIME);
        assert_eq!(SimVar::TimeStep.dimension(), Dimension::TIME);
        assert_eq!(SimVar::Temperature.dimension(), Dimension::TEMPERATURE);
        assert_eq!(SimVar::TimeStep.code_name(), "timestep");
    }

    #[test]
    fn property_code_expr() {
        assert_eq!(PropertyValue::Number(5.0).code_expr(), "5.0");
        assert_eq!(PropertyValue::Number(5e-12).code_expr(), "5e-12");
        assert_eq!(PropertyValue::Param("cin".into()).code_expr(), "cin");
        let mut params = BTreeMap::new();
        params.insert("cin".to_string(), 5e-12);
        assert_eq!(
            PropertyValue::Param("cin".into()).resolve(&params),
            Some(5e-12)
        );
        assert_eq!(PropertyValue::Param("zz".into()).resolve(&params), None);
    }

    #[test]
    fn symbol_display_and_ports() {
        let s = Symbol {
            id: 4,
            kind: SymbolKind::Differentiator,
            properties: BTreeMap::new(),
            label: Some("d/dt".into()),
        };
        assert_eq!(s.to_string(), "#4 ddt (d/dt)");
        assert_eq!(s.port_index("out"), Some(1));
        assert_eq!(s.port_index("zz"), None);
    }
}
