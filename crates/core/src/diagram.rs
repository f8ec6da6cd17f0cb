//! Functional diagrams: symbols wired into nets.
//!
//! The second view of a model (§2.2): "Symbols, each of which stands for an
//! analytical function, are interconnected using an existing schematic entry
//! tool. … the functional diagram gathers information on the specified
//! behaviour and on the foreseen code structure."

use crate::quantity::Dimension;
use crate::symbol::{PortDirection, PropertyValue, Symbol, SymbolKind};
use crate::CoreError;
use std::collections::{BTreeMap, HashMap};

/// Identifier of a symbol inside one diagram (1-based — the ids appear in
/// generated variable names such as `yout7`, exactly like the paper's §4.2
/// listing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymbolId(pub usize);

/// Identifier of a net inside one diagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub usize);

/// A reference to one port of one symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortRef {
    /// The symbol.
    pub symbol: SymbolId,
    /// Port index within the symbol (see [`SymbolKind::ports`]).
    pub port: usize,
}

/// A net: an equipotential connection of symbol ports ("Nets are formed,
/// that correspond to signals").
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    /// Stable id of the net.
    pub id: NetId,
    /// Optional user-visible name.
    pub name: Option<String>,
    /// Connected ports.
    pub ports: Vec<PortRef>,
}

/// An externally visible port of the diagram (used when the diagram becomes
/// a hierarchical GBS).
#[derive(Debug, Clone, PartialEq)]
pub struct InterfacePort {
    /// External name.
    pub name: String,
    /// Direction, inherited from the bound internal port.
    pub direction: PortDirection,
    /// Dimension, inherited from the bound internal port.
    pub dimension: Option<Dimension>,
    /// The internal port this interface port is bound to.
    pub inner: PortRef,
}

/// A declared model parameter with its default value.
#[derive(Debug, Clone, PartialEq)]
pub struct ParameterDecl {
    /// Parameter name.
    pub name: String,
    /// Default value (SI units).
    pub default: f64,
    /// Physical dimension.
    pub dimension: Dimension,
}

/// A functional diagram: the graphical description of a model's behaviour.
///
/// # Example
///
/// ```
/// use gabm_core::diagram::FunctionalDiagram;
/// use gabm_core::symbol::SymbolKind;
/// use gabm_core::quantity::Dimension;
///
/// # fn main() -> Result<(), gabm_core::CoreError> {
/// let mut d = FunctionalDiagram::new("demo");
/// let pin = d.add_symbol(SymbolKind::Pin { name: "in".into() });
/// let probe = d.add_symbol(SymbolKind::Probe { quantity: Dimension::VOLTAGE });
/// d.connect(d.port(pin, "pin")?, d.port(probe, "pin")?)?;
/// assert_eq!(d.nets().count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FunctionalDiagram {
    name: String,
    symbols: Vec<Symbol>,
    nets: Vec<Option<Net>>,
    port_net: HashMap<PortRef, NetId>,
    /// Output ports on each net, indexed like `nets`: lets [`Self::connect`]
    /// apply the single-driver rule from the two new ports alone.
    net_drivers: Vec<usize>,
    interface: Vec<InterfacePort>,
    parameters: Vec<ParameterDecl>,
}

impl FunctionalDiagram {
    /// Reassembles a diagram from its serialized parts, rebuilding the
    /// derived indexes (never persisted).
    ///
    /// # Errors
    ///
    /// A message naming the first part that breaks an invariant the
    /// builder API keeps: symbol ids are 1-based positions, net ids are
    /// positions, and every net and interface port names an existing port.
    pub(crate) fn from_parts(
        name: String,
        symbols: Vec<Symbol>,
        nets: Vec<Option<Net>>,
        interface: Vec<InterfacePort>,
        parameters: Vec<ParameterDecl>,
    ) -> Result<Self, String> {
        let mut d = FunctionalDiagram {
            name,
            symbols,
            nets,
            port_net: HashMap::new(),
            net_drivers: Vec::new(),
            interface,
            parameters,
        };
        for (k, sym) in d.symbols.iter().enumerate() {
            if sym.id != k + 1 {
                return Err(format!("symbol {} is stored at position {}", sym.id, k + 1));
            }
        }
        for (k, net) in d.nets.iter().enumerate() {
            let Some(net) = net else { continue };
            if net.id.0 != k {
                return Err(format!("net {} is stored at position {k}", net.id.0));
            }
            for p in &net.ports {
                d.validate_port(*p).map_err(|e| format!("net {k}: {e}"))?;
            }
        }
        for itf in &d.interface {
            d.validate_port(itf.inner)
                .map_err(|e| format!("interface port '{}': {e}", itf.name))?;
        }
        d.reindex();
        Ok(d)
    }

    /// Rebuilds the derived port→net and driver-count indexes from `nets`.
    fn reindex(&mut self) {
        self.port_net.clear();
        for net in self.nets.iter().flatten() {
            for p in &net.ports {
                self.port_net.insert(*p, net.id);
            }
        }
        self.net_drivers = self
            .nets
            .iter()
            .map(|slot| {
                slot.as_ref().map_or(0, |net| {
                    net.ports.iter().filter(|p| self.is_output(**p)).count()
                })
            })
            .collect();
    }

    /// The raw net storage, including `None` holes left by merges
    /// ([`NetId`]s index into this vector).
    pub(crate) fn nets_raw(&self) -> &[Option<Net>] {
        &self.nets
    }
    /// Creates an empty diagram.
    pub fn new(name: &str) -> Self {
        FunctionalDiagram {
            name: name.to_string(),
            ..FunctionalDiagram::default()
        }
    }

    /// Diagram (model) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the diagram.
    pub fn set_name(&mut self, name: &str) {
        self.name = name.to_string();
    }

    /// Adds a symbol, returning its id.
    pub fn add_symbol(&mut self, kind: SymbolKind) -> SymbolId {
        let id = SymbolId(self.symbols.len() + 1);
        self.symbols.push(Symbol {
            id: id.0,
            kind,
            properties: BTreeMap::new(),
            label: None,
        });
        id
    }

    /// Adds a symbol with properties and an optional label.
    pub fn add_symbol_with(
        &mut self,
        kind: SymbolKind,
        properties: &[(&str, PropertyValue)],
        label: Option<&str>,
    ) -> SymbolId {
        let id = self.add_symbol(kind);
        let sym = &mut self.symbols[id.0 - 1];
        for (k, v) in properties {
            sym.properties.insert((*k).to_string(), v.clone());
        }
        sym.label = label.map(str::to_string);
        id
    }

    /// Sets a property on a symbol.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownSymbol`] for a foreign id.
    pub fn set_property(
        &mut self,
        symbol: SymbolId,
        name: &str,
        value: PropertyValue,
    ) -> Result<(), CoreError> {
        let sym = self
            .symbols
            .get_mut(symbol.0.wrapping_sub(1))
            .ok_or(CoreError::UnknownSymbol(symbol.0))?;
        sym.properties.insert(name.to_string(), value);
        Ok(())
    }

    /// Number of symbols.
    pub fn symbol_count(&self) -> usize {
        self.symbols.len()
    }

    /// Symbol by id.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownSymbol`] for a foreign id.
    pub fn symbol(&self, id: SymbolId) -> Result<&Symbol, CoreError> {
        self.symbols
            .get(id.0.wrapping_sub(1))
            .ok_or(CoreError::UnknownSymbol(id.0))
    }

    /// Iterates over all symbols in id order.
    pub fn symbols(&self) -> impl Iterator<Item = &Symbol> {
        self.symbols.iter()
    }

    /// Resolves a named port of a symbol into a [`PortRef`].
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownSymbol`] / [`CoreError::NotFound`] as applicable.
    pub fn port(&self, symbol: SymbolId, port_name: &str) -> Result<PortRef, CoreError> {
        let sym = self.symbol(symbol)?;
        let port = sym
            .port_index(port_name)
            .ok_or_else(|| CoreError::NotFound(format!("port {port_name} on {sym}")))?;
        Ok(PortRef { symbol, port })
    }

    fn validate_port(&self, p: PortRef) -> Result<PortDirection, CoreError> {
        let sym = self.symbol(p.symbol)?;
        let spec = sym.kind.port(p.port).ok_or(CoreError::UnknownPort {
            symbol: p.symbol.0,
            port: p.port,
        })?;
        Ok(spec.direction)
    }

    fn is_output(&self, p: PortRef) -> bool {
        matches!(self.validate_port(p), Ok(PortDirection::Output))
    }

    /// Connects two ports, creating or merging nets.
    ///
    /// The §3.2 single-driver rule is enforced eagerly: a (signal) net may
    /// carry at most one output port.
    ///
    /// # Errors
    ///
    /// [`CoreError::IllegalConnection`] on a second driver;
    /// [`CoreError::UnknownSymbol`]/[`CoreError::UnknownPort`] for bad refs.
    pub fn connect(&mut self, a: PortRef, b: PortRef) -> Result<NetId, CoreError> {
        let out_a = usize::from(self.validate_port(a)? == PortDirection::Output);
        let out_b = usize::from(self.validate_port(b)? == PortDirection::Output);
        let net_a = self.port_net.get(&a).copied();
        let net_b = self.port_net.get(&b).copied();
        let id = match (net_a, net_b) {
            (None, None) => {
                let id = NetId(self.nets.len());
                self.nets.push(Some(Net {
                    id,
                    name: None,
                    ports: vec![a, b],
                }));
                self.net_drivers.push(out_a + out_b);
                self.port_net.insert(a, id);
                self.port_net.insert(b, id);
                id
            }
            (Some(na), None) => {
                self.net_mut(na).ports.push(b);
                self.net_drivers[na.0] += out_b;
                self.port_net.insert(b, na);
                na
            }
            (None, Some(nb)) => {
                self.net_mut(nb).ports.push(a);
                self.net_drivers[nb.0] += out_a;
                self.port_net.insert(a, nb);
                nb
            }
            (Some(na), Some(nb)) if na == nb => na,
            (Some(na), Some(nb)) => {
                // Merge nb into na.
                let moved = self.nets[nb.0].take().expect("net exists").ports;
                for p in &moved {
                    self.port_net.insert(*p, na);
                }
                self.net_mut(na).ports.extend(moved);
                self.net_drivers[na.0] += std::mem::take(&mut self.net_drivers[nb.0]);
                na
            }
        };
        if self.net_drivers[id.0] > 1 {
            return Err(CoreError::IllegalConnection(format!(
                "net {} would have more than one driving output port",
                id.0
            )));
        }
        Ok(id)
    }

    /// Names a net (for rendering and code-generation readability).
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] for a dangling net id.
    pub fn name_net(&mut self, net: NetId, name: &str) -> Result<(), CoreError> {
        match self.nets.get_mut(net.0).and_then(Option::as_mut) {
            Some(n) => {
                n.name = Some(name.to_string());
                Ok(())
            }
            None => Err(CoreError::NotFound(format!("net {}", net.0))),
        }
    }

    fn net_mut(&mut self, id: NetId) -> &mut Net {
        self.nets[id.0].as_mut().expect("net exists")
    }

    /// Iterates over live nets.
    pub fn nets(&self) -> impl Iterator<Item = &Net> {
        self.nets.iter().filter_map(Option::as_ref)
    }

    /// The net a port is connected to, if any.
    pub fn net_of(&self, port: PortRef) -> Option<&Net> {
        self.port_net
            .get(&port)
            .and_then(|id| self.nets[id.0].as_ref())
    }

    /// Exposes an internal port as an external interface port.
    ///
    /// # Errors
    ///
    /// Propagates invalid port references.
    pub fn expose(&mut self, name: &str, inner: PortRef) -> Result<(), CoreError> {
        let direction = self.validate_port(inner)?;
        let sym = self.symbol(inner.symbol)?;
        let dimension = sym.kind.port(inner.port).and_then(|spec| spec.dimension);
        self.interface.push(InterfacePort {
            name: name.to_string(),
            direction,
            dimension,
            inner,
        });
        Ok(())
    }

    /// External interface ports (for hierarchical use).
    pub fn interface(&self) -> &[InterfacePort] {
        &self.interface
    }

    /// Declares a model parameter with its default value.
    pub fn add_parameter(&mut self, name: &str, default: f64, dimension: Dimension) {
        self.parameters.push(ParameterDecl {
            name: name.to_string(),
            default,
            dimension,
        });
    }

    /// Declared parameters.
    pub fn parameters(&self) -> &[ParameterDecl] {
        &self.parameters
    }

    /// All pin symbols (in id order) with their external names.
    pub fn pins(&self) -> Vec<(SymbolId, String)> {
        self.symbols
            .iter()
            .filter_map(|s| match &s.kind {
                SymbolKind::Pin { name } => Some((SymbolId(s.id), name.clone())),
                _ => None,
            })
            .collect()
    }

    /// Merges `other` into `self`, renumbering its symbols and nets.
    /// Returns the symbol-id offset: `other`'s symbol `SymbolId(k)` becomes
    /// `SymbolId(k + offset)`.
    ///
    /// Interface ports and parameters of `other` are appended (names are
    /// kept; callers compose uniquely-named fragments).
    pub fn merge(&mut self, other: FunctionalDiagram) -> usize {
        self.merge_with_interface(other, true)
    }

    /// Merge used by hierarchy flattening: inner interfaces are spliced,
    /// not re-exposed.
    pub(crate) fn merge_internal(&mut self, other: FunctionalDiagram) -> usize {
        self.merge_with_interface(other, false)
    }

    fn merge_with_interface(&mut self, other: FunctionalDiagram, keep_interface: bool) -> usize {
        let offset = self.symbols.len();
        for mut sym in other.symbols {
            sym.id += offset;
            self.symbols.push(sym);
        }
        let net_offset = self.nets.len();
        // Holes are kept so net ids stay aligned with vec indices.
        for slot in other.nets {
            let Some(mut net) = slot else {
                self.nets.push(None);
                continue;
            };
            net.id = NetId(net.id.0 + net_offset);
            for p in &mut net.ports {
                p.symbol = SymbolId(p.symbol.0 + offset);
                self.port_net.insert(*p, net.id);
            }
            self.nets.push(Some(net));
        }
        self.net_drivers.extend(other.net_drivers);
        if keep_interface {
            for itf in other.interface {
                self.interface.push(InterfacePort {
                    inner: PortRef {
                        symbol: SymbolId(itf.inner.symbol.0 + offset),
                        port: itf.inner.port,
                    },
                    ..itf
                });
            }
        }
        for p in other.parameters {
            if !self.parameters.iter().any(|q| q.name == p.name) {
                self.parameters.push(p);
            }
        }
        offset
    }

    /// Removes a symbol, dropping its net bindings and any interface port
    /// bound to it, and renumbering every higher symbol id down by one
    /// (ids stay 1-based and dense, as generated variable names require).
    ///
    /// Nets that lose their last port are deleted; nets left with a
    /// single port are kept, so an upstream driver whose only consumer
    /// disappeared is still reported (and fixed) by the dead-symbol lint
    /// on the next round rather than silently losing its connection.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownSymbol`] for a foreign id.
    pub fn remove_symbol(&mut self, id: SymbolId) -> Result<(), CoreError> {
        if id.0 == 0 || id.0 > self.symbols.len() {
            return Err(CoreError::UnknownSymbol(id.0));
        }
        self.symbols.remove(id.0 - 1);
        for sym in &mut self.symbols[id.0 - 1..] {
            sym.id -= 1;
        }
        let shift = |p: &PortRef| PortRef {
            symbol: SymbolId(p.symbol.0 - usize::from(p.symbol.0 > id.0)),
            port: p.port,
        };
        for slot in &mut self.nets {
            if let Some(net) = slot {
                net.ports.retain(|p| p.symbol != id);
                if net.ports.is_empty() {
                    *slot = None;
                } else {
                    for p in &mut net.ports {
                        *p = shift(p);
                    }
                }
            }
        }
        self.interface.retain(|itf| itf.inner.symbol != id);
        for itf in &mut self.interface {
            itf.inner = shift(&itf.inner);
        }
        self.reindex();
        Ok(())
    }

    /// Removes a parameter declaration by name. Returns whether a
    /// declaration was removed. Callers are responsible for ensuring no
    /// symbol property still references the parameter.
    pub fn remove_parameter(&mut self, name: &str) -> bool {
        let before = self.parameters.len();
        self.parameters.retain(|p| p.name != name);
        self.parameters.len() != before
    }

    /// Swaps the values of two properties on a symbol (e.g. a degenerate
    /// limiter's `min`/`max`).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownSymbol`] for a foreign id;
    /// [`CoreError::NotFound`] if either property is absent.
    pub fn swap_properties(
        &mut self,
        symbol: SymbolId,
        first: &str,
        second: &str,
    ) -> Result<(), CoreError> {
        let sym = self
            .symbols
            .get_mut(symbol.0.wrapping_sub(1))
            .ok_or(CoreError::UnknownSymbol(symbol.0))?;
        let a = sym.properties.get(first).cloned().ok_or_else(|| {
            CoreError::NotFound(format!("property {first} on symbol {}", symbol.0))
        })?;
        let b = sym.properties.get(second).cloned().ok_or_else(|| {
            CoreError::NotFound(format!("property {second} on symbol {}", symbol.0))
        })?;
        sym.properties.insert(first.to_string(), b);
        sym.properties.insert(second.to_string(), a);
        Ok(())
    }

    /// Looks up an interface port by name.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] if absent.
    pub fn interface_port(&self, name: &str) -> Result<&InterfacePort, CoreError> {
        self.interface
            .iter()
            .find(|p| p.name == name)
            .ok_or_else(|| CoreError::NotFound(format!("interface port {name}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::FuncKind;

    fn gain_chain() -> (FunctionalDiagram, SymbolId, SymbolId) {
        let mut d = FunctionalDiagram::new("chain");
        let g1 = d.add_symbol(SymbolKind::Gain);
        let g2 = d.add_symbol(SymbolKind::Gain);
        let out1 = d.port(g1, "out").unwrap();
        let in2 = d.port(g2, "in").unwrap();
        d.connect(out1, in2).unwrap();
        (d, g1, g2)
    }

    #[test]
    fn ids_are_one_based_and_sequential() {
        let mut d = FunctionalDiagram::new("x");
        assert_eq!(d.add_symbol(SymbolKind::Gain), SymbolId(1));
        assert_eq!(d.add_symbol(SymbolKind::Gain), SymbolId(2));
        assert_eq!(d.symbol_count(), 2);
    }

    #[test]
    fn connect_creates_net() {
        let (d, g1, g2) = gain_chain();
        assert_eq!(d.nets().count(), 1);
        let net = d.net_of(d.port(g1, "out").unwrap()).unwrap();
        assert_eq!(net.ports.len(), 2);
        assert!(d.net_of(d.port(g2, "out").unwrap()).is_none());
    }

    #[test]
    fn single_driver_rule_enforced() {
        let mut d = FunctionalDiagram::new("bad");
        let g1 = d.add_symbol(SymbolKind::Gain);
        let g2 = d.add_symbol(SymbolKind::Gain);
        let g3 = d.add_symbol(SymbolKind::Gain);
        let in3 = d.port(g3, "in").unwrap();
        d.connect(d.port(g1, "out").unwrap(), in3).unwrap();
        let err = d.connect(d.port(g2, "out").unwrap(), in3).unwrap_err();
        assert!(matches!(err, CoreError::IllegalConnection(_)));
    }

    #[test]
    fn net_merging() {
        let mut d = FunctionalDiagram::new("merge");
        let g1 = d.add_symbol(SymbolKind::Gain);
        let a1 = d.add_symbol(SymbolKind::Adder {
            signs: vec![true, true],
        });
        let f1 = d.add_symbol(SymbolKind::Function {
            func: FuncKind::Sin,
        });
        // Connect g1.out → adder.in0 and separately g1.out → sin.in0: the
        // two nets must merge into one three-port net.
        let out = d.port(g1, "out").unwrap();
        d.connect(out, d.port(a1, "in0").unwrap()).unwrap();
        d.connect(out, d.port(f1, "in0").unwrap()).unwrap();
        assert_eq!(d.nets().count(), 1);
        assert_eq!(d.net_of(out).unwrap().ports.len(), 3);
    }

    #[test]
    fn merge_two_fanins_detects_double_driver() {
        let mut d = FunctionalDiagram::new("dd");
        let g1 = d.add_symbol(SymbolKind::Gain);
        let g2 = d.add_symbol(SymbolKind::Gain);
        let a = d.add_symbol(SymbolKind::Adder {
            signs: vec![true, true],
        });
        d.connect(d.port(g1, "out").unwrap(), d.port(a, "in0").unwrap())
            .unwrap();
        d.connect(d.port(g2, "out").unwrap(), d.port(a, "in1").unwrap())
            .unwrap();
        // Now join in0 and in1 — this would merge two driven nets.
        let err = d
            .connect(d.port(a, "in0").unwrap(), d.port(a, "in1").unwrap())
            .unwrap_err();
        assert!(matches!(err, CoreError::IllegalConnection(_)));
    }

    #[test]
    fn pin_nets_allow_multiple_attachments() {
        let mut d = FunctionalDiagram::new("pins");
        let pin = d.add_symbol(SymbolKind::Pin { name: "in".into() });
        let probe = d.add_symbol(SymbolKind::Probe {
            quantity: Dimension::VOLTAGE,
        });
        let gen = d.add_symbol(SymbolKind::Generator {
            quantity: Dimension::CURRENT,
        });
        let pp = d.port(pin, "pin").unwrap();
        d.connect(pp, d.port(probe, "pin").unwrap()).unwrap();
        d.connect(pp, d.port(gen, "pin").unwrap()).unwrap();
        assert_eq!(d.net_of(pp).unwrap().ports.len(), 3);
    }

    #[test]
    fn expose_and_lookup_interface() {
        let (mut d, g1, _) = gain_chain();
        d.expose("u", d.port(g1, "in").unwrap()).unwrap();
        let itf = d.interface_port("u").unwrap();
        assert_eq!(itf.direction, PortDirection::Input);
        assert!(d.interface_port("v").is_err());
    }

    #[test]
    fn parameters_declared() {
        let mut d = FunctionalDiagram::new("p");
        d.add_parameter("gin", 1e-6, Dimension::CONDUCTANCE);
        assert_eq!(d.parameters().len(), 1);
        assert_eq!(d.parameters()[0].default, 1e-6);
    }

    #[test]
    fn merge_renumbers() {
        let (mut d, _, _) = gain_chain();
        let (d2, _, _) = gain_chain();
        let before_nets = d.nets().count();
        let offset = d.merge(d2);
        assert_eq!(offset, 2);
        assert_eq!(d.symbol_count(), 4);
        assert_eq!(d.nets().count(), before_nets + 1);
        // Connectivity of the merged copy is intact: symbol 3's out drives
        // symbol 4's in.
        let out3 = d.port(SymbolId(3), "out").unwrap();
        let net = d.net_of(out3).unwrap();
        assert!(net
            .ports
            .iter()
            .any(|p| p.symbol == SymbolId(4) && p.port == 0));
    }

    #[test]
    fn pins_listing() {
        let mut d = FunctionalDiagram::new("pl");
        d.add_symbol(SymbolKind::Pin { name: "a".into() });
        d.add_symbol(SymbolKind::Gain);
        d.add_symbol(SymbolKind::Pin { name: "b".into() });
        let pins = d.pins();
        assert_eq!(pins.len(), 2);
        assert_eq!(pins[0].1, "a");
        assert_eq!(pins[1].0, SymbolId(3));
    }

    #[test]
    fn remove_symbol_renumbers_and_reindexes() {
        let mut d = FunctionalDiagram::new("rm");
        let g1 = d.add_symbol(SymbolKind::Gain);
        let g2 = d.add_symbol(SymbolKind::Gain);
        let g3 = d.add_symbol(SymbolKind::Gain);
        d.connect(d.port(g1, "out").unwrap(), d.port(g2, "in").unwrap())
            .unwrap();
        d.connect(d.port(g2, "out").unwrap(), d.port(g3, "in").unwrap())
            .unwrap();
        d.expose("u", d.port(g3, "out").unwrap()).unwrap();
        d.remove_symbol(g2).unwrap();
        assert_eq!(d.symbol_count(), 2);
        assert_eq!(d.symbol(SymbolId(2)).unwrap().id, 2);
        // Both nets survive with a single dangling port each; the old g3
        // is now symbol 2 everywhere.
        assert_eq!(d.nets().count(), 2);
        for net in d.nets() {
            assert_eq!(net.ports.len(), 1);
            assert!(net.ports[0].symbol.0 <= 2);
        }
        assert_eq!(d.interface()[0].inner.symbol, SymbolId(2));
        // Removing the last consumer empties its input net.
        let nets_before = d.nets().count();
        d.remove_symbol(SymbolId(2)).unwrap();
        assert!(d.nets().count() < nets_before);
        assert!(d.interface().is_empty());
        assert!(d.remove_symbol(SymbolId(9)).is_err());
    }

    #[test]
    fn remove_parameter_and_swap_properties() {
        let mut d = FunctionalDiagram::new("rp");
        d.add_parameter("tau", 1e-3, Dimension::NONE);
        assert!(d.remove_parameter("tau"));
        assert!(!d.remove_parameter("tau"));
        let lim = d.add_symbol_with(
            SymbolKind::Limiter,
            &[
                ("min", PropertyValue::Number(10.0)),
                ("max", PropertyValue::Number(-10.0)),
            ],
            None,
        );
        d.swap_properties(lim, "min", "max").unwrap();
        let sym = d.symbol(lim).unwrap();
        assert_eq!(
            sym.properties.get("min"),
            Some(&PropertyValue::Number(-10.0))
        );
        assert_eq!(
            sym.properties.get("max"),
            Some(&PropertyValue::Number(10.0))
        );
        assert!(d.swap_properties(lim, "min", "zz").is_err());
        assert!(d.swap_properties(SymbolId(9), "a", "b").is_err());
    }

    #[test]
    fn bad_refs_rejected() {
        let mut d = FunctionalDiagram::new("bad");
        let g = d.add_symbol(SymbolKind::Gain);
        assert!(d.symbol(SymbolId(9)).is_err());
        assert!(d.port(g, "zz").is_err());
        let bad = PortRef {
            symbol: g,
            port: 99,
        };
        assert!(d.connect(bad, bad).is_err());
        assert!(d
            .set_property(SymbolId(9), "a", PropertyValue::Number(1.0))
            .is_err());
    }
}
