//! Diagram consistency checking (§3.2: "Once a diagram has been edited, a
//! consistency test can be performed").
//!
//! The test is organized as a sequence of named passes over the diagram
//! (see [`DIAGRAM_PASSES`]), each emitting coded [`Diagnostic`]s:
//!
//! 1. **structure** — every consumed net is driven by exactly one output
//!    port (GABM001/GABM002); no dangling inputs (GABM003–GABM005);
//!    required properties are present (GABM006) and well-formed (GABM011);
//! 2. **quantities** — physical dimensions are propagated through the
//!    symbols and conflicts are reported with the full inference chain
//!    ("oil and water will not mix", GABM007/GABM012);
//! 3. **causality** — algebraic loops (cycles not broken by a state element
//!    such as the unit delay of the slew-rate construct) are rejected with
//!    the full cycle path, since the generated sequential code could not be
//!    ordered (§4.1, GABM008);
//! 4. **liveness** — symbols whose outputs never reach a generator or the
//!    diagram interface (GABM009) and parameters referenced nowhere
//!    (GABM010) are flagged as diagram dead code.
//!
//! Every pass reads one [`DiagramIndex`] built at the start of the check,
//! and diagnostic text is rendered only when a diagnostic is emitted, so a
//! clean check costs time linear in the diagram's size.

use crate::diag::{Code, Diagnostic, Fix, FixEdit, Location, Severity};
use crate::diagram::{FunctionalDiagram, NetId, PortRef, SymbolId};
use crate::index::{DiagramIndex, PortSlot};
use crate::quantity::Dimension;
use crate::symbol::{PortDirection, PropertyValue, Symbol, SymbolKind};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::fmt;

/// The outcome of [`check_diagram`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckReport {
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Inferred physical dimension of each net (where derivable).
    pub net_dimensions: HashMap<NetId, Dimension>,
}

impl CheckReport {
    /// Number of errors.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warnings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// `true` if no errors were found (warnings allowed).
    pub fn is_consistent(&self) -> bool {
        self.error_count() == 0
    }

    fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }
}

/// One diagram-level analysis pass.
pub type DiagramPass = fn(&DiagramIndex<'_>, &mut CheckReport);

/// All diagram-level passes in execution order, with stable names. The
/// `gabm-lint` registry reuses this table; [`check_diagram`] (and through
/// it every code-generation entry point) runs all of them, so generation
/// refuses a diagram carrying *any* diagram-level lint error.
pub const DIAGRAM_PASSES: &[(&str, DiagramPass)] = &[
    ("net-drivers", check_net_drivers),
    ("port-connections", check_port_connections),
    ("required-properties", check_required_properties),
    ("limiter-bounds", check_limiter_bounds),
    ("dimensions", infer_dimensions),
    ("algebraic-loops", check_algebraic_loops),
    ("dead-symbols", check_dead_symbols),
    ("unused-parameters", check_unused_parameters),
];

/// Runs the full consistency test on a diagram.
pub fn check_diagram(d: &FunctionalDiagram) -> CheckReport {
    check_indexed(&DiagramIndex::new(d))
}

/// Runs the full consistency test on an already indexed diagram (the code
/// generator indexes once for both the check and the lowering).
pub fn check_indexed(index: &DiagramIndex<'_>) -> CheckReport {
    let mut report = CheckReport::default();
    for (_, pass) in DIAGRAM_PASSES {
        pass(index, &mut report);
    }
    report
}

/// Dimension of a property value: literals are dimensionless; parameter
/// references inherit the declared parameter dimension.
fn property_dimension(d: &FunctionalDiagram, value: Option<&PropertyValue>) -> Dimension {
    match value {
        Some(PropertyValue::Param(p)) => d
            .parameters()
            .iter()
            .find(|decl| decl.name == *p)
            .map(|decl| decl.dimension)
            .unwrap_or(Dimension::NONE),
        _ => Dimension::NONE,
    }
}

/// Numeric value of a property, resolving parameter references to their
/// declared defaults. `None` when the referenced parameter is undeclared.
fn property_value(d: &FunctionalDiagram, value: &PropertyValue) -> Option<f64> {
    let default_of = |p: &str| {
        d.parameters()
            .iter()
            .find(|decl| decl.name == p)
            .map(|decl| decl.default)
    };
    match value {
        PropertyValue::Number(v) => Some(*v),
        PropertyValue::Param(p) => default_of(p),
        PropertyValue::NegParam(p) => default_of(p).map(|v| -v),
    }
}

/// Name of port `port` of `sym`.
fn port_name(sym: &Symbol, port: usize) -> Cow<'_, str> {
    sym.kind
        .port(port)
        .map(|spec| spec.name)
        .unwrap_or_default()
}

/// Display text of a symbol referenced by id.
fn describe(d: &FunctionalDiagram, id: SymbolId) -> String {
    d.symbol(id)
        .map(Symbol::to_string)
        .unwrap_or_else(|_| format!("symbol {}", id.0))
}

/// Output ports that drive nothing — neither wired to a net nor exposed
/// on the diagram interface. These are the candidate sources offered by
/// the GABM002/GABM003 connection suggestions: (owning symbol, port index,
/// fixed dimension if the symbol's semantics pin one).
fn dangling_outputs(ix: &DiagramIndex<'_>) -> Vec<(SymbolId, usize, Option<Dimension>)> {
    let mut out = Vec::new();
    for sym in ix.diagram().symbols() {
        let id = SymbolId(sym.id);
        for (port, slot) in ix.ports(id).iter().enumerate() {
            if slot.direction == PortDirection::Output && !slot.is_connected() {
                out.push((id, port, slot.dimension));
            }
        }
    }
    out
}

/// Whether a dangling output carrying `have` could legally feed a
/// consumer expecting `want`: fixed dimensions must agree; an unfixed
/// side is compatible with anything (its dimension is inferred from
/// context once connected).
fn dimensions_compatible(want: Option<Dimension>, have: Option<Dimension>) -> bool {
    match (want, have) {
        (Some(w), Some(h)) => w == h,
        _ => true,
    }
}

/// Renders candidate connections as `help:` suggestions — advisory
/// only, never an autofix: picking among several plausible sources is a
/// design decision the tool must not make (§3.2 leaves repair to the
/// editor). The candidates are gathered on first use.
fn suggest_candidates(
    ix: &DiagramIndex<'_>,
    mut diag: Diagnostic,
    candidates: &mut Option<Vec<(SymbolId, usize, Option<Dimension>)>>,
    exclude_symbol: Option<SymbolId>,
    want: Option<Dimension>,
    verb: &str,
) -> Diagnostic {
    let candidates = candidates.get_or_insert_with(|| dangling_outputs(ix));
    for &(owner, port, have) in candidates
        .iter()
        .filter(|(owner, _, _)| Some(*owner) != exclude_symbol)
        .filter(|(_, _, have)| dimensions_compatible(want, *have))
        .take(3)
    {
        let Ok(sym) = ix.diagram().symbol(owner) else {
            continue;
        };
        let name = port_name(sym, port);
        diag = diag.with_help(match have {
            Some(dimension) => format!(
                "{verb} the unconnected output port '{name}' of {sym} (carries {dimension})"
            ),
            None => format!("{verb} the unconnected output port '{name}' of {sym}"),
        });
    }
    diag
}

/// GABM001/GABM002 — the net driver rule: "a net must be bound to one and
/// only one output port".
fn check_net_drivers(ix: &DiagramIndex<'_>, report: &mut CheckReport) {
    let d = ix.diagram();
    let mut candidates = None;
    let direction = |p: &PortRef| ix.slot(*p).map(|slot| slot.direction);
    for net in d.nets() {
        let mut drivers = 0usize;
        let mut inputs = 0usize;
        for p in &net.ports {
            match direction(p) {
                Some(PortDirection::Output) => drivers += 1,
                Some(PortDirection::Input) => inputs += 1,
                _ => {}
            }
        }
        if drivers > 1 {
            let mut diag = Diagnostic::new(
                Code::MultipleDrivers,
                format!("net {} driven by {drivers} output ports", net.id.0),
                Location::Net(net.id),
            );
            for p in &net.ports {
                if direction(p) == Some(PortDirection::Output) {
                    diag = diag.with_note(format!("driven by {}", describe(d, p.symbol)));
                }
            }
            report.push(diag);
        }
        if inputs > 0 && drivers == 0 {
            let diag = Diagnostic::new(
                Code::UndrivenNet,
                format!(
                    "net {} is consumed but bound to no output port (\"a net must be bound to one and only one output port\")",
                    net.id.0
                ),
                Location::Net(net.id),
            );
            // What the net's consumers require, when any of their input
            // ports fixes a dimension.
            let want = net.ports.iter().find_map(|p| {
                let slot = ix.slot(*p)?;
                if slot.direction == PortDirection::Input {
                    slot.dimension
                } else {
                    None
                }
            });
            report.push(suggest_candidates(
                ix,
                diag,
                &mut candidates,
                None,
                want,
                "candidate driver: connect",
            ));
        }
    }
}

/// GABM003–GABM005 — the port connection rule. Ports exposed on the
/// diagram interface count as connected: they are wired from the outside
/// once the diagram is used hierarchically.
fn check_port_connections(ix: &DiagramIndex<'_>, report: &mut CheckReport) {
    let mut candidates = None;
    for sym in ix.diagram().symbols() {
        let id = SymbolId(sym.id);
        let slots = ix.ports(id);
        let any_connected = slots.iter().any(PortSlot::is_connected);
        // A symbol whose every output dangles is dead weight: nothing
        // downstream can observe it, so removing it is safe. (When no
        // port at all is connected, GABM005 below carries the removal
        // fix instead.)
        let is_output = |slot: &PortSlot| slot.direction == PortDirection::Output;
        let fully_dead = slots.iter().any(is_output)
            && slots
                .iter()
                .all(|slot| !is_output(slot) || !slot.is_connected());
        for (port, slot) in slots.iter().enumerate() {
            if slot.is_connected() {
                continue;
            }
            match slot.direction {
                PortDirection::Input => {
                    let name = port_name(sym, port);
                    let diag = Diagnostic::new(
                        Code::UnconnectedInput,
                        format!("input port '{name}' of {sym} is unconnected"),
                        Location::Port {
                            symbol: id,
                            port: name.into_owned(),
                        },
                    );
                    // Same-symbol outputs are excluded: wiring a symbol's
                    // output straight back into its own input is an
                    // algebraic loop (GABM008), not a repair.
                    report.push(suggest_candidates(
                        ix,
                        diag,
                        &mut candidates,
                        Some(id),
                        slot.dimension,
                        "candidate source: connect",
                    ));
                }
                PortDirection::Output => {
                    let name = port_name(sym, port);
                    let mut diag = Diagnostic::new(
                        Code::UnconnectedOutput,
                        format!("output port '{name}' of {sym} is unconnected"),
                        Location::Port {
                            symbol: id,
                            port: name.into_owned(),
                        },
                    );
                    if fully_dead && any_connected {
                        diag = diag.with_fix(Fix::new(
                            format!("remove {sym}: none of its outputs drive anything"),
                            vec![FixEdit::RemoveSymbol { symbol: id }],
                        ));
                    }
                    report.push(diag);
                }
                PortDirection::Bidir => {}
            }
        }
        if !any_connected && !slots.is_empty() {
            report.push(
                Diagnostic::new(
                    Code::DisconnectedSymbol,
                    format!("{sym} is not connected at all"),
                    Location::Symbol(id),
                )
                .with_fix(Fix::new(
                    format!("remove the disconnected {sym}"),
                    vec![FixEdit::RemoveSymbol { symbol: id }],
                )),
            );
        }
    }
}

/// GABM006 — required property presence.
fn check_required_properties(ix: &DiagramIndex<'_>, report: &mut CheckReport) {
    for sym in ix.diagram().symbols() {
        let missing: &[&str] = match &sym.kind {
            SymbolKind::Gain if sym.property("a").is_none() => &["a"],
            SymbolKind::Limiter => match (sym.property("min"), sym.property("max")) {
                (None, None) => &["min", "max"],
                (None, Some(_)) => &["min"],
                (Some(_), None) => &["max"],
                _ => &[],
            },
            SymbolKind::Delay if sym.property("td").is_none() => &["td"],
            _ => &[],
        };
        for prop in missing {
            report.push(Diagnostic::new(
                Code::MissingProperty,
                match &sym.kind {
                    SymbolKind::Gain => format!("{sym} is missing its gain property 'a'"),
                    _ => format!("{sym} is missing its property '{prop}'"),
                },
                Location::Symbol(SymbolId(sym.id)),
            ));
        }
    }
}

/// GABM011 — interval sanity: a limiter whose resolved lower bound exceeds
/// its upper bound clips to an empty interval.
fn check_limiter_bounds(ix: &DiagramIndex<'_>, report: &mut CheckReport) {
    let d = ix.diagram();
    for sym in d.symbols() {
        if !matches!(sym.kind, SymbolKind::Limiter) {
            continue;
        }
        let (Some(min_p), Some(max_p)) = (sym.property("min"), sym.property("max")) else {
            continue; // GABM006 already reported
        };
        if let (Some(lo), Some(hi)) = (property_value(d, min_p), property_value(d, max_p)) {
            if lo > hi {
                report.push(
                    Diagnostic::new(
                        Code::DegenerateLimiter,
                        format!("{sym} has min {lo} > max {hi}: the pass band is empty"),
                        Location::Symbol(SymbolId(sym.id)),
                    )
                    .with_note(format!(
                        "'min' resolves to {lo}, 'max' resolves to {hi} (parameter defaults applied)"
                    ))
                    .with_fix(Fix::new(
                        "swap the 'min' and 'max' properties",
                        vec![FixEdit::SwapProperties {
                            symbol: SymbolId(sym.id),
                            first: "min".to_string(),
                            second: "max".to_string(),
                        }],
                    )),
                );
            }
        }
    }
}

/// How one symbol gave a net its dimension. Kept as data and rendered to
/// text only when a diagnostic quotes the inference chain.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// The symbol's port `port` fixes the dimension.
    Fixed { port: usize, dim: Dimension },
    /// A gain scaled `from` into `to`.
    Scaled { from: Dimension, to: Dimension },
    /// `from` inferred backwards through the symbol yields `to`.
    Back { from: Dimension, to: Dimension },
    /// `dim` passes forwards through the symbol unchanged.
    Passes(Dimension),
    /// `dim` passes backwards through the symbol unchanged.
    PassesBack(Dimension),
    /// A differentiator turned `from` into `to`.
    Differentiated { from: Dimension, to: Dimension },
    /// An integrator turned `from` into `to`.
    Integrated { from: Dimension, to: Dimension },
    /// An adder carries `dim` on every port.
    Carries(Dimension),
    /// A multiplier combined its inputs into `dim`.
    Combines(Dimension),
}

impl Step {
    /// The dimension the step gives its net.
    fn yields(self) -> Dimension {
        match self {
            Step::Fixed { dim, .. }
            | Step::Passes(dim)
            | Step::PassesBack(dim)
            | Step::Carries(dim)
            | Step::Combines(dim) => dim,
            Step::Scaled { to, .. }
            | Step::Back { to, .. }
            | Step::Differentiated { to, .. }
            | Step::Integrated { to, .. } => to,
        }
    }
}

/// One hop of an inference chain: the step, the symbol that took it, and
/// the net whose dimension it started from (`None` for a fixed port).
#[derive(Debug, Clone, Copy)]
struct Hop {
    step: Step,
    symbol: SymbolId,
    from: Option<NetId>,
}

/// A hop rendered against its diagram.
struct HopText<'a>(&'a FunctionalDiagram, Hop);

impl fmt::Display for HopText<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let HopText(d, hop) = self;
        let Ok(sym) = d.symbol(hop.symbol) else {
            return write!(f, "symbol {}", hop.symbol.0);
        };
        match hop.step {
            Step::Fixed { port, dim } => write!(
                f,
                "port '{}' of {sym} is fixed to {dim}",
                port_name(sym, port)
            ),
            Step::Scaled { from, to } => write!(f, "{from} scaled by {sym} yields {to}"),
            Step::Back { from, to } => write!(f, "{from} back through {sym} yields {to}"),
            Step::Passes(dim) => write!(f, "{dim} passes through {sym} unchanged"),
            Step::PassesBack(dim) => write!(f, "{dim} back through {sym} unchanged"),
            Step::Differentiated { from, to } => {
                write!(f, "{from} differentiated by {sym} yields {to}")
            }
            Step::Integrated { from, to } => write!(f, "{from} integrated by {sym} yields {to}"),
            Step::Carries(dim) => write!(f, "{sym} carries one quantity ({dim}) on every port"),
            Step::Combines(dim) => write!(f, "{sym} combines its input quantities into {dim}"),
        }
    }
}

/// Dimension inference state. Every net is assigned at most once; the
/// hop that assigned it links back to the net it came from, so a chain
/// is recovered by walking the links instead of being copied per net.
struct Infer {
    dims: Vec<Option<Dimension>>,
    origin: Vec<Option<Hop>>,
    /// (net, established, conflicting, hop that conflicted) — the first
    /// conflict per net.
    conflicts: Vec<(NetId, Dimension, Dimension, Hop)>,
    conflicted: Vec<bool>,
    /// Nets assigned since the worklist last looked.
    fresh: Vec<NetId>,
}

impl Infer {
    fn dim(&self, net: NetId) -> Option<Dimension> {
        self.dims[net.0]
    }

    fn assign(&mut self, net: NetId, hop: Hop) {
        let dim = hop.step.yields();
        match self.dims[net.0] {
            Some(existing) if existing != dim => {
                if !self.conflicted[net.0] {
                    self.conflicted[net.0] = true;
                    self.conflicts.push((net, existing, dim, hop));
                }
            }
            Some(_) => {}
            None => {
                self.dims[net.0] = Some(dim);
                self.origin[net.0] = Some(hop);
                self.fresh.push(net);
            }
        }
    }

    /// A two-port element between nets `io`: propagates forwards when
    /// the input is known, otherwise backwards when the output is.
    fn two_port(
        &mut self,
        symbol: SymbolId,
        io: Option<(NetId, NetId)>,
        forward: impl Fn(Dimension) -> Step,
        backward: impl Fn(Dimension) -> Step,
    ) {
        let Some((i, o)) = io else { return };
        if let Some(di) = self.dim(i) {
            let step = forward(di);
            self.assign(
                o,
                Hop {
                    step,
                    symbol,
                    from: Some(i),
                },
            );
        } else if let Some(doo) = self.dim(o) {
            let step = backward(doo);
            self.assign(
                i,
                Hop {
                    step,
                    symbol,
                    from: Some(o),
                },
            );
        }
    }

    /// The hops that established `net`'s dimension, root first.
    fn chain(&self, net: Option<NetId>) -> Vec<Hop> {
        let mut hops = Vec::new();
        let mut at = net;
        while let Some(hop) = at.and_then(|n| self.origin[n.0]) {
            hops.push(hop);
            at = hop.from;
        }
        hops.reverse();
        hops
    }

    /// Applies one symbol's semantics to the current net dimensions.
    fn visit(
        &mut self,
        ix: &DiagramIndex<'_>,
        sym: &Symbol,
        func_violations: &mut Vec<(NetId, Dimension, SymbolId)>,
        violated: &mut [bool],
    ) {
        let d = ix.diagram();
        let id = SymbolId(sym.id);
        let net_at = |port: usize| ix.net(id, port);
        let net_named = |name: &str| sym.kind.port_index(name).and_then(net_at);
        let hop = |step: Step, from: NetId| Hop {
            step,
            symbol: id,
            from: Some(from),
        };
        let io = net_named("in").zip(net_named("out"));
        match &sym.kind {
            SymbolKind::Gain => {
                let k = property_dimension(d, sym.property("a"));
                self.two_port(
                    id,
                    io,
                    |from| Step::Scaled { from, to: from * k },
                    |from| Step::Back { from, to: from / k },
                );
            }
            SymbolKind::Limiter
            | SymbolKind::Delay
            | SymbolKind::UnitDelay
            | SymbolKind::TransferFunction { .. } => {
                self.two_port(id, io, Step::Passes, Step::PassesBack);
            }
            SymbolKind::Differentiator => self.two_port(
                id,
                io,
                |from| Step::Differentiated {
                    from,
                    to: from.per_time(),
                },
                |from| Step::Back {
                    from,
                    to: from.times_time(),
                },
            ),
            SymbolKind::Integrator => self.two_port(
                id,
                io,
                |from| Step::Integrated {
                    from,
                    to: from.times_time(),
                },
                |from| Step::Back {
                    from,
                    to: from.per_time(),
                },
            ),
            SymbolKind::Adder { .. } => {
                let ports = 0..sym.kind.port_count();
                let known = ports
                    .clone()
                    .filter_map(net_at)
                    .find_map(|n| self.dim(n).map(|dim| (n, dim)));
                if let Some((src, dim)) = known {
                    for n in ports.filter_map(net_at) {
                        self.assign(n, hop(Step::Carries(dim), src));
                    }
                }
            }
            SymbolKind::Multiplier { ops } => {
                let mut acc = Dimension::NONE;
                for (k, mul) in ops.iter().enumerate() {
                    let Some(dim) = net_at(k).and_then(|n| self.dim(n)) else {
                        return;
                    };
                    acc = if *mul { acc * dim } else { acc / dim };
                }
                if let Some(o) = net_named("out") {
                    // The chain continues from the first input.
                    let from = (0..ops.len()).find_map(net_at);
                    let step = Step::Combines(acc);
                    self.assign(
                        o,
                        Hop {
                            step,
                            symbol: id,
                            from,
                        },
                    );
                }
            }
            SymbolKind::Separator => {
                if let Some(i) = net_named("in") {
                    if let Some(di) = self.dim(i) {
                        for name in ["pos", "neg"] {
                            if let Some(o) = net_named(name) {
                                self.assign(o, hop(Step::Passes(di), i));
                            }
                        }
                    }
                }
            }
            SymbolKind::Function { func } => {
                for k in 0..func.arity() {
                    if let Some(i) = net_at(k) {
                        if let Some(di) = self.dim(i) {
                            if !di.is_none() && !violated[i.0] {
                                violated[i.0] = true;
                                func_violations.push((i, di, id));
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// GABM007/GABM012 — propagates dimensions over nets to a fixpoint,
/// reporting conflicts together with the inference chain that led to each
/// contradictory assignment.
///
/// Symbols are applied in rounds of ascending id, each seeing the effects
/// of the symbols applied before it; a round applies only the symbols one
/// of whose nets was assigned since they were last applied (applying any
/// other is a no-op), and the fixpoint is reached when a round assigns
/// nothing. Each net is assigned at most once, so the work grows with the
/// number of ports (times a heap's logarithm), not with the number of
/// rounds.
fn infer_dimensions(ix: &DiagramIndex<'_>, report: &mut CheckReport) {
    let d = ix.diagram();
    let nets = ix.net_count();
    let mut inf = Infer {
        dims: vec![None; nets],
        origin: vec![None; nets],
        conflicts: Vec::new(),
        conflicted: vec![false; nets],
        fresh: Vec::new(),
    };
    // GABM012 violations: (net, offending dimension, function symbol).
    let mut func_violations: Vec<(NetId, Dimension, SymbolId)> = Vec::new();
    let mut violated = vec![false; nets];

    // Seed from fixed port dimensions.
    for sym in d.symbols() {
        let id = SymbolId(sym.id);
        for (port, slot) in ix.ports(id).iter().enumerate() {
            if let (Some(dim), Some(net)) = (slot.dimension, slot.net) {
                let step = Step::Fixed { port, dim };
                inf.assign(
                    net,
                    Hop {
                        step,
                        symbol: id,
                        from: None,
                    },
                );
            }
        }
    }
    inf.fresh.clear();

    // Worklist propagation through symbol semantics. The first round
    // applies every symbol.
    let n = d.symbol_count();
    let mut round: BinaryHeap<Reverse<usize>> = (1..=n).map(Reverse).collect();
    let mut in_round = vec![true; n + 1];
    let mut next: Vec<usize> = Vec::new();
    let mut in_next = vec![false; n + 1];
    loop {
        while let Some(Reverse(id)) = round.pop() {
            in_round[id] = false;
            let Ok(sym) = d.symbol(SymbolId(id)) else {
                continue;
            };
            inf.visit(ix, sym, &mut func_violations, &mut violated);
            for net in inf.fresh.drain(..) {
                let Some(Some(assigned)) = d.nets_raw().get(net.0) else {
                    continue;
                };
                for p in &assigned.ports {
                    let s = p.symbol.0;
                    if s > id {
                        if !in_round[s] {
                            in_round[s] = true;
                            round.push(Reverse(s));
                        }
                    } else if !in_next[s] {
                        in_next[s] = true;
                        next.push(s);
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        for s in next.drain(..) {
            in_next[s] = false;
            in_round[s] = true;
            round.push(Reverse(s));
        }
    }

    for &(net, a, b, hop) in &inf.conflicts {
        let mut diag = Diagnostic::new(
            Code::DimensionConflict,
            format!(
                "net {} mixes incompatible quantities: {a} vs {b} (oil and water will not mix)",
                net.0
            ),
            Location::Net(net),
        );
        for established in inf.chain(Some(net)) {
            diag = diag.with_note(format!(
                "{a} established because {}",
                HopText(d, established)
            ));
        }
        for inferred in inf.chain(hop.from).into_iter().chain([hop]) {
            diag = diag.with_note(format!("{b} inferred because {}", HopText(d, inferred)));
        }
        report.push(diag);
    }
    for (net, dim, sym) in func_violations {
        let mut diag = Diagnostic::new(
            Code::DimensionedFunctionInput,
            format!(
                "input of {} must be dimensionless but net {} carries {dim}",
                describe(d, sym),
                net.0
            ),
            Location::Net(net),
        );
        for established in inf.chain(Some(net)) {
            diag = diag.with_note(format!(
                "{dim} established because {}",
                HopText(d, established)
            ));
        }
        report.push(diag);
    }
    report.net_dimensions = inf
        .dims
        .iter()
        .enumerate()
        .filter_map(|(k, dim)| dim.map(|dim| (NetId(k), dim)))
        .collect();
}

/// GABM008 — detects algebraic loops (cycles through combinational symbols
/// only) and reports the full cycle path.
fn check_algebraic_loops(ix: &DiagramIndex<'_>, report: &mut CheckReport) {
    let d = ix.diagram();
    let n = d.symbol_count();
    let flow = ix.flow_graph();
    // Depth-first three-colour cycle detection with an explicit stack, so
    // a long chain cannot overflow the call stack. `path` holds the grey
    // symbols in visit order (the whole cycle can be reported, not just
    // one member), `cursor` the next successor to try for each.
    let mut colour = vec![0u8; n + 1];
    let mut path: Vec<usize> = Vec::new();
    let mut cursor: Vec<usize> = Vec::new();
    for root in 1..=n {
        if colour[root] != 0 {
            continue;
        }
        colour[root] = 1;
        path.push(root);
        cursor.push(0);
        while let (Some(&v), Some(next)) = (path.last(), cursor.last_mut()) {
            let Some(&w) = flow.successors(v).get(*next) else {
                colour[v] = 2;
                path.pop();
                cursor.pop();
                continue;
            };
            *next += 1;
            if colour[w] == 1 {
                let start = path
                    .iter()
                    .position(|&x| x == w)
                    .expect("grey node is on the path");
                let cycle = &path[start..];
                let hops: Vec<String> = cycle
                    .iter()
                    .chain([&cycle[0]])
                    .map(|&id| describe(d, SymbolId(id)))
                    .collect();
                report.push(
                    Diagnostic::new(
                        Code::AlgebraicLoop,
                        "algebraic loop: a combinational cycle must be broken by a delay element"
                            .to_string(),
                        Location::Symbol(SymbolId(cycle[0])),
                    )
                    .with_note(format!("cycle path: {}", hops.join(" -> "))),
                );
                return;
            }
            if colour[w] == 0 {
                colour[w] = 1;
                path.push(w);
                cursor.push(0);
            }
        }
    }
}

/// GABM009 — diagram dead code: a symbol with output ports none of whose
/// values (transitively) reach a generator, a pin, or the diagram
/// interface contributes nothing to the generated model.
fn check_dead_symbols(ix: &DiagramIndex<'_>, report: &mut CheckReport) {
    let d = ix.diagram();
    let n = d.symbol_count();
    // Live seeds: sinks with externally observable effects.
    let mut live = vec![false; n + 1];
    let mut queue: Vec<usize> = Vec::new();
    for sym in d.symbols() {
        let is_sink = matches!(
            sym.kind,
            SymbolKind::Generator { .. } | SymbolKind::Pin { .. }
        ) || ix.ports(SymbolId(sym.id)).iter().any(|slot| slot.exposed);
        if is_sink {
            live[sym.id] = true;
            queue.push(sym.id);
        }
    }
    // A live symbol keeps alive every driver of every net it consumes
    // (through an input or a pin connection); each net is scanned once.
    let mut scanned = vec![false; ix.net_count()];
    while let Some(v) = queue.pop() {
        for slot in ix.ports(SymbolId(v)) {
            let Some(net) = slot.net else { continue };
            if slot.direction == PortDirection::Output || scanned[net.0] {
                continue;
            }
            scanned[net.0] = true;
            let Some(Some(net)) = d.nets_raw().get(net.0) else {
                continue;
            };
            for p in &net.ports {
                let drives = ix
                    .slot(*p)
                    .is_some_and(|s| s.direction == PortDirection::Output);
                if drives && !live[p.symbol.0] {
                    live[p.symbol.0] = true;
                    queue.push(p.symbol.0);
                }
            }
        }
    }
    for sym in d.symbols() {
        if live[sym.id] {
            continue;
        }
        let slots = ix.ports(SymbolId(sym.id));
        let has_output = slots
            .iter()
            .any(|slot| slot.direction == PortDirection::Output);
        // Fully disconnected symbols are already GABM005.
        if has_output && slots.iter().any(PortSlot::is_connected) {
            report.push(
                Diagnostic::new(
                    Code::DeadSymbol,
                    format!(
                        "{sym} is dead: its output never reaches a generator, pin, or interface port"
                    ),
                    Location::Symbol(SymbolId(sym.id)),
                )
                .with_fix(Fix::new(
                    format!("remove the dead {sym}"),
                    vec![FixEdit::RemoveSymbol {
                        symbol: SymbolId(sym.id),
                    }],
                )),
            );
        }
    }
}

/// GABM010 — a declared parameter that no property and no parameter symbol
/// references would silently disappear from the generated model's
/// behaviour (it still appears in the parameter list).
fn check_unused_parameters(ix: &DiagramIndex<'_>, report: &mut CheckReport) {
    let d = ix.diagram();
    let mut used: HashSet<&str> = HashSet::new();
    for sym in d.symbols() {
        for value in sym.properties.values() {
            match value {
                PropertyValue::Param(p) | PropertyValue::NegParam(p) => {
                    used.insert(p.as_str());
                }
                PropertyValue::Number(_) => {}
            }
        }
        if let SymbolKind::Parameter { param, .. } = &sym.kind {
            used.insert(param.as_str());
        }
    }
    for decl in d.parameters() {
        if !used.contains(decl.name.as_str()) {
            report.push(
                Diagnostic::new(
                    Code::UnusedParameter,
                    format!("parameter '{}' is declared but never referenced", decl.name),
                    Location::None,
                )
                .with_fix(Fix::new(
                    format!("remove the unused parameter declaration '{}'", decl.name),
                    vec![FixEdit::RemoveParameter {
                        name: decl.name.clone(),
                    }],
                )),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::{FuncKind, PropertyValue};

    fn probe_to_gain() -> FunctionalDiagram {
        let mut d = FunctionalDiagram::new("t");
        d.add_parameter("gin", 1e-6, Dimension::CONDUCTANCE);
        let pin = d.add_symbol(SymbolKind::Pin { name: "in".into() });
        let probe = d.add_symbol(SymbolKind::Probe {
            quantity: Dimension::VOLTAGE,
        });
        let gain = d.add_symbol_with(
            SymbolKind::Gain,
            &[("a", PropertyValue::Param("gin".into()))],
            None,
        );
        let gen = d.add_symbol(SymbolKind::Generator {
            quantity: Dimension::CURRENT,
        });
        d.connect(d.port(pin, "pin").unwrap(), d.port(probe, "pin").unwrap())
            .unwrap();
        d.connect(d.port(pin, "pin").unwrap(), d.port(gen, "pin").unwrap())
            .unwrap();
        d.connect(d.port(probe, "out").unwrap(), d.port(gain, "in").unwrap())
            .unwrap();
        d.connect(d.port(gain, "out").unwrap(), d.port(gen, "in").unwrap())
            .unwrap();
        d
    }

    fn has_code(r: &CheckReport, code: Code) -> bool {
        r.diagnostics.iter().any(|di| di.code == code)
    }

    #[test]
    fn clean_diagram_passes() {
        let d = probe_to_gain();
        let r = check_diagram(&d);
        assert!(r.is_consistent(), "diagnostics: {:?}", r.diagnostics);
        assert_eq!(r.error_count(), 0);
        assert!(
            r.diagnostics.is_empty(),
            "no warnings either: {:?}",
            r.diagnostics
        );
    }

    #[test]
    fn dimension_inference_through_gain() {
        let d = probe_to_gain();
        let r = check_diagram(&d);
        // Net from gain.out to generator.in must be CURRENT:
        // VOLTAGE · CONDUCTANCE.
        let gen_in = d
            .net_of(d.port(crate::diagram::SymbolId(4), "in").unwrap())
            .unwrap();
        assert_eq!(r.net_dimensions.get(&gen_in.id), Some(&Dimension::CURRENT));
    }

    #[test]
    fn oil_and_water_detected() {
        // A voltage probe wired straight into a current generator: the gain
        // is missing, so the voltage net meets a current port.
        let mut d = FunctionalDiagram::new("bad");
        let pin = d.add_symbol(SymbolKind::Pin { name: "in".into() });
        let probe = d.add_symbol(SymbolKind::Probe {
            quantity: Dimension::VOLTAGE,
        });
        let gen = d.add_symbol(SymbolKind::Generator {
            quantity: Dimension::CURRENT,
        });
        d.connect(d.port(pin, "pin").unwrap(), d.port(probe, "pin").unwrap())
            .unwrap();
        d.connect(d.port(pin, "pin").unwrap(), d.port(gen, "pin").unwrap())
            .unwrap();
        d.connect(d.port(probe, "out").unwrap(), d.port(gen, "in").unwrap())
            .unwrap();
        let r = check_diagram(&d);
        assert!(!r.is_consistent());
        let conflict = r
            .diagnostics
            .iter()
            .find(|di| di.code == Code::DimensionConflict)
            .expect("GABM007 reported");
        assert!(conflict.message.contains("oil and water"));
        assert!(
            !conflict.notes.is_empty(),
            "conflict must explain its inference chain"
        );
    }

    #[test]
    fn undriven_input_detected() {
        let mut d = FunctionalDiagram::new("u");
        let g = d.add_symbol_with(SymbolKind::Gain, &[("a", PropertyValue::Number(1.0))], None);
        let f = d.add_symbol(SymbolKind::Function {
            func: FuncKind::Sin,
        });
        // Connect the two inputs together with no driver at all.
        d.connect(d.port(g, "in").unwrap(), d.port(f, "in0").unwrap())
            .unwrap();
        let r = check_diagram(&d);
        assert!(!r.is_consistent());
        assert!(has_code(&r, Code::UndrivenNet));
    }

    #[test]
    fn undriven_net_suggests_dimension_matched_drivers() {
        // A net consumed by a current generator with no driver. Of the
        // dangling outputs in the diagram, the current-dimensioned
        // parameter and the dimension-agnostic gain are plausible
        // drivers; the voltage probe is filtered out by its dimension.
        let mut d = FunctionalDiagram::new("suggest");
        let gen = d.add_symbol(SymbolKind::Generator {
            quantity: Dimension::CURRENT,
        });
        let g = d.add_symbol_with(SymbolKind::Gain, &[("a", PropertyValue::Number(1.0))], None);
        let probe = d.add_symbol(SymbolKind::Probe {
            quantity: Dimension::VOLTAGE,
        });
        let ipar = d.add_symbol(SymbolKind::Parameter {
            param: "ib".into(),
            dimension: Dimension::CURRENT,
        });
        // Two inputs tied together with no driver: GABM002.
        d.connect(d.port(gen, "in").unwrap(), d.port(g, "in").unwrap())
            .unwrap();
        let r = check_diagram(&d);
        let diag = r
            .diagnostics
            .iter()
            .find(|di| di.code == Code::UndrivenNet)
            .expect("GABM002 reported");
        let probe_sym = d.symbol(probe).unwrap().to_string();
        let ipar_sym = d.symbol(ipar).unwrap().to_string();
        let gain_sym = d.symbol(g).unwrap().to_string();
        assert!(
            diag.help.iter().any(|h| h.contains(&ipar_sym)),
            "current parameter suggested: {:?}",
            diag.help
        );
        assert!(
            diag.help.iter().any(|h| h.contains(&gain_sym)),
            "dimension-agnostic gain suggested: {:?}",
            diag.help
        );
        assert!(
            !diag.help.iter().any(|h| h.contains(&probe_sym)),
            "voltage probe must be filtered out: {:?}",
            diag.help
        );
        assert!(diag.fix.is_none(), "suggestions are help, not autofixes");
    }

    #[test]
    fn unconnected_input_suggests_sources_but_never_its_own_output() {
        // A generator input dangles next to a dangling voltage probe
        // output: the probe is suggested (dimension VOLTAGE matches the
        // voltage generator input); the generator's own port list holds
        // no outputs, and the gain's dangling output is suggested too —
        // but a symbol is never told to feed itself.
        let mut d = FunctionalDiagram::new("suggest2");
        let gen = d.add_symbol(SymbolKind::Generator {
            quantity: Dimension::VOLTAGE,
        });
        let probe = d.add_symbol(SymbolKind::Probe {
            quantity: Dimension::VOLTAGE,
        });
        // Tie the bidir pins together so both symbols are partly
        // connected and only the in/out ports dangle.
        d.connect(d.port(gen, "pin").unwrap(), d.port(probe, "pin").unwrap())
            .unwrap();
        let r = check_diagram(&d);
        let diag = r
            .diagnostics
            .iter()
            .find(|di| di.code == Code::UnconnectedInput)
            .expect("GABM003 reported");
        let probe_sym = d.symbol(probe).unwrap().to_string();
        assert!(
            diag.help.iter().any(|h| h.contains(&probe_sym)),
            "matching probe output suggested: {:?}",
            diag.help
        );

        // A lone gain: its own dangling output must not be offered as a
        // source for its own dangling input (that would be GABM008).
        let mut d = FunctionalDiagram::new("selfless");
        d.add_symbol_with(SymbolKind::Gain, &[("a", PropertyValue::Number(1.0))], None);
        let r = check_diagram(&d);
        let diag = r
            .diagnostics
            .iter()
            .find(|di| di.code == Code::UnconnectedInput)
            .expect("GABM003 reported");
        assert!(
            diag.help.is_empty(),
            "no self-loop suggestion: {:?}",
            diag.help
        );
    }

    #[test]
    fn connection_suggestions_are_capped_at_three() {
        let mut d = FunctionalDiagram::new("many");
        let gen = d.add_symbol(SymbolKind::Generator {
            quantity: Dimension::CURRENT,
        });
        let g = d.add_symbol_with(SymbolKind::Gain, &[("a", PropertyValue::Number(1.0))], None);
        d.connect(d.port(gen, "in").unwrap(), d.port(g, "in").unwrap())
            .unwrap();
        for k in 0..5 {
            d.add_symbol(SymbolKind::Parameter {
                param: format!("p{k}"),
                dimension: Dimension::CURRENT,
            });
        }
        let r = check_diagram(&d);
        let diag = r
            .diagnostics
            .iter()
            .find(|di| di.code == Code::UndrivenNet)
            .expect("GABM002 reported");
        assert_eq!(diag.help.len(), 3, "{:?}", diag.help);
    }

    #[test]
    fn dangling_input_detected() {
        let mut d = FunctionalDiagram::new("dangling");
        d.add_symbol_with(SymbolKind::Gain, &[("a", PropertyValue::Number(2.0))], None);
        let r = check_diagram(&d);
        assert!(!r.is_consistent());
        assert!(has_code(&r, Code::UnconnectedInput));
        assert!(has_code(&r, Code::DisconnectedSymbol));
    }

    #[test]
    fn missing_gain_property_detected() {
        let mut d = FunctionalDiagram::new("m");
        let g = d.add_symbol(SymbolKind::Gain);
        let c = d.add_symbol(SymbolKind::Constant { value: 1.0 });
        d.connect(d.port(c, "out").unwrap(), d.port(g, "in").unwrap())
            .unwrap();
        let r = check_diagram(&d);
        let diag = r
            .diagnostics
            .iter()
            .find(|di| di.code == Code::MissingProperty)
            .expect("GABM006 reported");
        assert!(diag.message.contains("gain property"));
    }

    #[test]
    fn degenerate_limiter_detected() {
        let mut d = FunctionalDiagram::new("lim");
        let c = d.add_symbol(SymbolKind::Constant { value: 1.0 });
        let lim = d.add_symbol_with(
            SymbolKind::Limiter,
            &[
                ("min", PropertyValue::Number(2.0)),
                ("max", PropertyValue::Number(-2.0)),
            ],
            None,
        );
        d.connect(d.port(c, "out").unwrap(), d.port(lim, "in").unwrap())
            .unwrap();
        let r = check_diagram(&d);
        assert!(!r.is_consistent());
        assert!(has_code(&r, Code::DegenerateLimiter));
    }

    #[test]
    fn degenerate_limiter_through_parameter_defaults() {
        let mut d = FunctionalDiagram::new("lim2");
        d.add_parameter("rate", -5.0, Dimension::NONE);
        let c = d.add_symbol(SymbolKind::Constant { value: 1.0 });
        // min = -rate = +5, max = rate = -5: empty band via defaults.
        let lim = d.add_symbol_with(
            SymbolKind::Limiter,
            &[
                ("min", PropertyValue::NegParam("rate".into())),
                ("max", PropertyValue::Param("rate".into())),
            ],
            None,
        );
        d.connect(d.port(c, "out").unwrap(), d.port(lim, "in").unwrap())
            .unwrap();
        let r = check_diagram(&d);
        assert!(has_code(&r, Code::DegenerateLimiter));
    }

    #[test]
    fn algebraic_loop_detected_with_full_path() {
        let mut d = FunctionalDiagram::new("loop");
        let g1 = d.add_symbol_with(SymbolKind::Gain, &[("a", PropertyValue::Number(1.0))], None);
        let g2 = d.add_symbol_with(SymbolKind::Gain, &[("a", PropertyValue::Number(1.0))], None);
        d.connect(d.port(g1, "out").unwrap(), d.port(g2, "in").unwrap())
            .unwrap();
        d.connect(d.port(g2, "out").unwrap(), d.port(g1, "in").unwrap())
            .unwrap();
        let r = check_diagram(&d);
        let diag = r
            .diagnostics
            .iter()
            .find(|di| di.code == Code::AlgebraicLoop)
            .expect("GABM008 reported");
        assert!(diag.message.contains("algebraic loop"));
        let path = diag
            .notes
            .iter()
            .find(|n| n.starts_with("cycle path:"))
            .expect("cycle path note");
        // Both loop members and the closing hop appear in the path.
        assert_eq!(path.matches("->").count(), 2, "path: {path}");
    }

    #[test]
    fn delay_breaks_loop() {
        // The slew-rate pattern: y feeds back through a unit delay — legal.
        let mut d = FunctionalDiagram::new("fb");
        let add = d.add_symbol(SymbolKind::Adder {
            signs: vec![true, true],
        });
        let dly = d.add_symbol(SymbolKind::UnitDelay);
        let c = d.add_symbol(SymbolKind::Constant { value: 1.0 });
        d.connect(d.port(c, "out").unwrap(), d.port(add, "in0").unwrap())
            .unwrap();
        d.connect(d.port(add, "out").unwrap(), d.port(dly, "in").unwrap())
            .unwrap();
        d.connect(d.port(dly, "out").unwrap(), d.port(add, "in1").unwrap())
            .unwrap();
        let r = check_diagram(&d);
        assert!(!has_code(&r, Code::AlgebraicLoop), "{:?}", r.diagnostics);
    }

    #[test]
    fn dead_symbol_detected() {
        // probe -> gain chain that reaches the generator, plus a second
        // gain hanging off the probe whose output goes nowhere.
        let mut d = probe_to_gain();
        let dead = d.add_symbol_with(SymbolKind::Gain, &[("a", PropertyValue::Number(2.0))], None);
        let probe_out = d.port(crate::diagram::SymbolId(2), "out").unwrap();
        d.connect(probe_out, d.port(dead, "in").unwrap()).unwrap();
        let r = check_diagram(&d);
        assert!(
            r.is_consistent(),
            "dead code is a warning: {:?}",
            r.diagnostics
        );
        let diag = r
            .diagnostics
            .iter()
            .find(|di| di.code == Code::DeadSymbol)
            .expect("GABM009 reported");
        assert_eq!(diag.symbol(), Some(dead));
    }

    #[test]
    fn unused_parameter_detected() {
        let mut d = probe_to_gain();
        d.add_parameter("ghost", 1.0, Dimension::NONE);
        let r = check_diagram(&d);
        assert!(r.is_consistent());
        let diag = r
            .diagnostics
            .iter()
            .find(|di| di.code == Code::UnusedParameter)
            .expect("GABM010 reported");
        assert!(diag.message.contains("ghost"));
    }

    #[test]
    fn adder_unifies_dimensions() {
        let mut d = FunctionalDiagram::new("a");
        d.add_parameter("ra", 1.0, Dimension::RESISTANCE);
        let p1 = d.add_symbol(SymbolKind::Parameter {
            param: "x".into(),
            dimension: Dimension::VOLTAGE,
        });
        let g = d.add_symbol_with(SymbolKind::Gain, &[("a", PropertyValue::Number(2.0))], None);
        let add = d.add_symbol(SymbolKind::Adder {
            signs: vec![true, false],
        });
        d.connect(d.port(p1, "out").unwrap(), d.port(add, "in0").unwrap())
            .unwrap();
        d.connect(d.port(g, "out").unwrap(), d.port(add, "in1").unwrap())
            .unwrap();
        // Gain input comes from the adder output (no loop: gain out → adder
        // in1, adder out → nothing; drive gain.in from p1 too).
        d.connect(d.port(p1, "out").unwrap(), d.port(g, "in").unwrap())
            .unwrap();
        let r = check_diagram(&d);
        // adder in1 (gain out of a dimensionless gain on voltage) = VOLTAGE;
        // unified with in0 (VOLTAGE) and out.
        let out_net = d.net_of(d.port(add, "in1").unwrap()).unwrap();
        assert_eq!(r.net_dimensions.get(&out_net.id), Some(&Dimension::VOLTAGE));
    }

    #[test]
    fn multiplier_combines_dimensions() {
        let mut d = FunctionalDiagram::new("m");
        let v = d.add_symbol(SymbolKind::Parameter {
            param: "v".into(),
            dimension: Dimension::VOLTAGE,
        });
        let i = d.add_symbol(SymbolKind::Parameter {
            param: "i".into(),
            dimension: Dimension::CURRENT,
        });
        let mul = d.add_symbol(SymbolKind::Multiplier {
            ops: vec![true, true],
        });
        let lim = d.add_symbol_with(
            SymbolKind::Limiter,
            &[
                ("min", PropertyValue::Number(0.0)),
                ("max", PropertyValue::Number(1.0)),
            ],
            None,
        );
        d.connect(d.port(v, "out").unwrap(), d.port(mul, "in0").unwrap())
            .unwrap();
        d.connect(d.port(i, "out").unwrap(), d.port(mul, "in1").unwrap())
            .unwrap();
        d.connect(d.port(mul, "out").unwrap(), d.port(lim, "in").unwrap())
            .unwrap();
        let r = check_diagram(&d);
        let out_net = d.net_of(d.port(lim, "in").unwrap()).unwrap();
        assert_eq!(r.net_dimensions.get(&out_net.id), Some(&Dimension::POWER));
        // And the limiter propagates it onward — but its out is dangling, so
        // just confirm no dimension errors occurred.
        assert!(!has_code(&r, Code::DimensionConflict));
    }

    #[test]
    fn function_requires_dimensionless_input() {
        let mut d = FunctionalDiagram::new("f");
        let v = d.add_symbol(SymbolKind::Parameter {
            param: "v".into(),
            dimension: Dimension::VOLTAGE,
        });
        let f = d.add_symbol(SymbolKind::Function {
            func: FuncKind::Sin,
        });
        d.connect(d.port(v, "out").unwrap(), d.port(f, "in0").unwrap())
            .unwrap();
        let r = check_diagram(&d);
        assert!(!r.is_consistent());
        assert!(has_code(&r, Code::DimensionedFunctionInput));
    }

    #[test]
    fn differentiator_shifts_dimension() {
        let mut d = FunctionalDiagram::new("dd");
        let v = d.add_symbol(SymbolKind::Parameter {
            param: "v".into(),
            dimension: Dimension::VOLTAGE,
        });
        let dt = d.add_symbol(SymbolKind::Differentiator);
        let lim = d.add_symbol_with(
            SymbolKind::Limiter,
            &[
                ("min", PropertyValue::Number(-1.0)),
                ("max", PropertyValue::Number(1.0)),
            ],
            None,
        );
        d.connect(d.port(v, "out").unwrap(), d.port(dt, "in").unwrap())
            .unwrap();
        d.connect(d.port(dt, "out").unwrap(), d.port(lim, "in").unwrap())
            .unwrap();
        let r = check_diagram(&d);
        let net = d.net_of(d.port(lim, "in").unwrap()).unwrap();
        assert_eq!(
            r.net_dimensions.get(&net.id),
            Some(&Dimension::VOLTAGE_RATE)
        );
    }
}
