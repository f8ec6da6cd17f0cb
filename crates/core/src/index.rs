//! The flat port/net index of a diagram.
//!
//! Every diagram analysis asks the same questions of each port of each
//! placed symbol: which way it points, whether the symbol fixes its
//! dimension, which net it is wired to and whether the diagram interface
//! exposes it. [`DiagramIndex`] answers them once per analysis in one flat
//! array, so the §3.2 check passes and the §4.1 lowering read slices
//! instead of rebuilding port templates and hashing port references per
//! query. It is built fresh for every analysis and never stored.

use crate::diagram::{FunctionalDiagram, NetId, PortRef, SymbolId};
use crate::quantity::Dimension;
use crate::symbol::{PortDirection, SymbolKind};

/// One port of one placed symbol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortSlot {
    /// Signal direction.
    pub direction: PortDirection,
    /// Dimension fixed by the symbol's semantics, if any.
    pub dimension: Option<Dimension>,
    /// The net the port is wired to.
    pub net: Option<NetId>,
    /// Bound to a diagram interface port, i.e. wired from the outside once
    /// the diagram is used hierarchically.
    pub exposed: bool,
}

impl PortSlot {
    /// Wired to a net or exposed on the diagram interface.
    pub fn is_connected(&self) -> bool {
        self.net.is_some() || self.exposed
    }
}

/// Port slots of every symbol of one diagram, in symbol-id and canonical
/// port order.
#[derive(Debug)]
pub struct DiagramIndex<'d> {
    diagram: &'d FunctionalDiagram,
    /// Symbol `id`'s slots are `slots[start[id - 1]..start[id]]`.
    start: Vec<usize>,
    slots: Vec<PortSlot>,
}

impl<'d> DiagramIndex<'d> {
    /// Indexes `diagram`.
    pub fn new(diagram: &'d FunctionalDiagram) -> Self {
        let mut start = Vec::with_capacity(diagram.symbol_count() + 1);
        start.push(0);
        let mut slots = Vec::with_capacity(diagram.symbols().map(|s| s.kind.port_count()).sum());
        for sym in diagram.symbols() {
            let kind = &sym.kind;
            slots.extend(
                (0..kind.port_count())
                    .filter_map(|k| kind.port(k))
                    .map(|spec| PortSlot {
                        direction: spec.direction,
                        dimension: spec.dimension,
                        net: None,
                        exposed: false,
                    }),
            );
            start.push(slots.len());
        }
        let mut index = DiagramIndex {
            diagram,
            start,
            slots,
        };
        for net in diagram.nets() {
            for &p in &net.ports {
                if let Some(k) = index.position(p) {
                    index.slots[k].net = Some(net.id);
                }
            }
        }
        for itf in diagram.interface() {
            if let Some(k) = index.position(itf.inner) {
                index.slots[k].exposed = true;
            }
        }
        index
    }

    fn position(&self, p: PortRef) -> Option<usize> {
        let k = p.symbol.0.checked_sub(1)?;
        let (&begin, &end) = (self.start.get(k)?, self.start.get(k + 1)?);
        (begin + p.port < end).then_some(begin + p.port)
    }

    /// The indexed diagram.
    pub fn diagram(&self) -> &'d FunctionalDiagram {
        self.diagram
    }

    /// One past the largest net id: the length of a table indexed by net.
    pub fn net_count(&self) -> usize {
        self.diagram.nets_raw().len()
    }

    /// Port slots of symbol `id` in canonical port order (empty for an
    /// unknown id).
    pub fn ports(&self, id: SymbolId) -> &[PortSlot] {
        let k = id.0.wrapping_sub(1);
        match (self.start.get(k), self.start.get(k.wrapping_add(1))) {
            (Some(&begin), Some(&end)) => &self.slots[begin..end],
            _ => &[],
        }
    }

    /// The slot of one port, `None` for an unknown symbol or port.
    pub fn slot(&self, p: PortRef) -> Option<&PortSlot> {
        self.position(p).map(|k| &self.slots[k])
    }

    /// The net wired to port `port` of symbol `id`.
    pub fn net(&self, id: SymbolId, port: usize) -> Option<NetId> {
        self.ports(id).get(port).and_then(|slot| slot.net)
    }

    /// The signal-flow graph: an edge from each net's driving symbol to
    /// every symbol consuming that net within the same evaluation. Pure
    /// delays read only committed state, so their inputs add no edge: a
    /// cycle through one is legal and imposes no ordering (§4.1). The
    /// integrator and transfer function still read their *current* input.
    pub fn flow_graph(&self) -> FlowGraph {
        let d = self.diagram;
        let direction = |p: PortRef| self.slot(p).map(|slot| slot.direction);
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for net in d.nets() {
            // With several drivers (GABM001) the last one carries the edges.
            let Some(driver) = net
                .ports
                .iter()
                .rev()
                .find(|p| direction(**p) == Some(PortDirection::Output))
            else {
                continue;
            };
            for p in &net.ports {
                let delay = matches!(
                    d.symbol(p.symbol).map(|s| &s.kind),
                    Ok(SymbolKind::UnitDelay | SymbolKind::Delay)
                );
                if direction(*p) == Some(PortDirection::Input) && !delay {
                    edges.push((driver.symbol.0, p.symbol.0));
                }
            }
        }
        // Group by driver, keeping each driver's edges in net order.
        let mut start = vec![0usize; d.symbol_count() + 2];
        for &(from, _) in &edges {
            start[from + 1] += 1;
        }
        for k in 1..start.len() {
            start[k] += start[k - 1];
        }
        let mut fill = start.clone();
        let mut targets = vec![0usize; edges.len()];
        for (from, to) in edges {
            targets[fill[from]] = to;
            fill[from] += 1;
        }
        FlowGraph { start, targets }
    }
}

/// Adjacency of [`DiagramIndex::flow_graph`], by 1-based symbol id.
#[derive(Debug)]
pub struct FlowGraph {
    start: Vec<usize>,
    targets: Vec<usize>,
}

impl FlowGraph {
    /// Consumers fed by symbol `id`, in net order.
    pub fn successors(&self, id: usize) -> &[usize] {
        match (self.start.get(id), self.start.get(id + 1)) {
            (Some(&begin), Some(&end)) => &self.targets[begin..end],
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_follow_templates_nets_and_interface() {
        let mut d = FunctionalDiagram::new("ix");
        let c = d.add_symbol(SymbolKind::Constant { value: 1.0 });
        let g = d.add_symbol(SymbolKind::Gain);
        let dly = d.add_symbol(SymbolKind::UnitDelay);
        let net = d
            .connect(d.port(c, "out").unwrap(), d.port(g, "in").unwrap())
            .unwrap();
        d.connect(d.port(g, "out").unwrap(), d.port(dly, "in").unwrap())
            .unwrap();
        d.expose("y", d.port(dly, "out").unwrap()).unwrap();
        let ix = DiagramIndex::new(&d);
        assert_eq!(ix.ports(c).len(), 1);
        assert_eq!(ix.ports(c)[0].dimension, Some(Dimension::NONE));
        assert_eq!(ix.net(g, 0), Some(net));
        assert_eq!(ix.ports(g)[1].direction, PortDirection::Output);
        assert!(ix.ports(dly)[1].exposed && ix.ports(dly)[1].is_connected());
        assert!(ix.ports(SymbolId(9)).is_empty());
        assert!(ix.slot(PortRef { symbol: g, port: 2 }).is_none());
        // The delay's input adds no flow edge.
        let flow = ix.flow_graph();
        assert_eq!(flow.successors(c.0), &[g.0]);
        assert!(flow.successors(g.0).is_empty());
    }
}
