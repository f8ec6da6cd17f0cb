//! Drawing sheets: symbol placement, wiring, and connectivity extraction.

use crate::{Point, SchematicError};
use gabm_core::diagram::{FunctionalDiagram, PortRef, SymbolId};
use gabm_core::symbol::{PortDirection, PropertyValue, SymbolKind};
use std::collections::BTreeMap;

/// A placed symbol on the sheet.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// What symbol is placed.
    pub kind: SymbolKind,
    /// Grid position of the symbol's anchor (centre).
    pub at: Point,
    /// Properties carried into the extracted diagram.
    pub properties: Vec<(String, PropertyValue)>,
    /// Optional label.
    pub label: Option<String>,
}

/// An orthogonal wire segment between two grid points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wire {
    /// One end.
    pub a: Point,
    /// Other end.
    pub b: Point,
}

impl Wire {
    /// `true` if the segment is horizontal or vertical.
    pub fn is_orthogonal(&self) -> bool {
        self.a.x == self.b.x || self.a.y == self.b.y
    }

    /// `true` if `p` lies on the segment (inclusive).
    pub fn contains(&self, p: Point) -> bool {
        if !self.is_orthogonal() {
            return false;
        }
        let (lox, hix) = (self.a.x.min(self.b.x), self.a.x.max(self.b.x));
        let (loy, hiy) = (self.a.y.min(self.b.y), self.a.y.max(self.b.y));
        (lox..=hix).contains(&p.x) && (loy..=hiy).contains(&p.y)
    }
}

/// Grid offsets of a symbol's ports: inputs stacked on the left edge,
/// outputs on the right, bidirectional pin connections on the bottom —
/// a deliberately simple, deterministic footprint model.
pub fn port_offsets(kind: &SymbolKind) -> Vec<(String, PortDirection, Point)> {
    let ports = kind.ports();
    let n_in = ports
        .iter()
        .filter(|p| p.direction == PortDirection::Input)
        .count();
    let n_out = ports
        .iter()
        .filter(|p| p.direction == PortDirection::Output)
        .count();
    let mut in_seen = 0i32;
    let mut out_seen = 0i32;
    let mut bidir_seen = 0i32;
    ports
        .into_iter()
        .map(|p| {
            let at = match p.direction {
                PortDirection::Input => {
                    let y = in_seen - (n_in as i32 - 1) / 2;
                    in_seen += 1;
                    Point::new(-2, y)
                }
                PortDirection::Output => {
                    let y = out_seen - (n_out as i32 - 1) / 2;
                    out_seen += 1;
                    Point::new(2, y)
                }
                PortDirection::Bidir => {
                    let x = bidir_seen;
                    bidir_seen += 1;
                    Point::new(x, 2)
                }
            };
            (p.name.into_owned(), p.direction, at)
        })
        .collect()
}

/// A drawing sheet: placements plus wires.
///
/// # Example
///
/// ```
/// use gabm_schematic::{Sheet, Point};
/// use gabm_core::symbol::SymbolKind;
/// use gabm_core::quantity::Dimension;
///
/// # fn main() -> Result<(), gabm_schematic::SchematicError> {
/// let mut sheet = Sheet::new("demo");
/// let pin = sheet.place(SymbolKind::Pin { name: "in".into() }, Point::new(0, 0));
/// let probe = sheet.place(
///     SymbolKind::Probe { quantity: Dimension::VOLTAGE },
///     Point::new(0, 6),
/// );
/// sheet.wire_ports(pin, "pin", probe, "pin");
/// let diagram = sheet.extract()?;
/// assert_eq!(diagram.symbol_count(), 2);
/// assert_eq!(diagram.nets().count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sheet {
    name: String,
    placements: Vec<Placement>,
    wires: Vec<Wire>,
}

impl Sheet {
    /// Creates an empty sheet.
    pub fn new(name: &str) -> Self {
        Sheet {
            name: name.to_string(),
            ..Sheet::default()
        }
    }

    /// Sheet name (becomes the diagram name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Places a symbol; returns its placement index.
    pub fn place(&mut self, kind: SymbolKind, at: Point) -> usize {
        self.placements.push(Placement {
            kind,
            at,
            properties: Vec::new(),
            label: None,
        });
        self.placements.len() - 1
    }

    /// Places a symbol with properties.
    pub fn place_with(
        &mut self,
        kind: SymbolKind,
        at: Point,
        properties: &[(&str, PropertyValue)],
        label: Option<&str>,
    ) -> usize {
        let idx = self.place(kind, at);
        self.placements[idx].properties = properties
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect();
        self.placements[idx].label = label.map(str::to_string);
        idx
    }

    /// Number of placements.
    pub fn placement_count(&self) -> usize {
        self.placements.len()
    }

    /// Number of wires.
    pub fn wire_count(&self) -> usize {
        self.wires.len()
    }

    /// Absolute position of a placed symbol's named port.
    ///
    /// # Panics
    ///
    /// Panics if the placement index or port name is unknown (programming
    /// error in test-bench construction).
    pub fn port_position(&self, placement: usize, port: &str) -> Point {
        let p = &self.placements[placement];
        let (_, _, off) = port_offsets(&p.kind)
            .into_iter()
            .find(|(name, _, _)| name == port)
            .unwrap_or_else(|| panic!("no port '{port}' on placement {placement}"));
        Point::new(p.at.x + off.x, p.at.y + off.y)
    }

    /// Adds a raw wire segment.
    pub fn wire(&mut self, a: Point, b: Point) {
        self.wires.push(Wire { a, b });
    }

    /// Wires two ports together with an L-shaped (two-segment) route.
    pub fn wire_ports(&mut self, from: usize, from_port: &str, to: usize, to_port: &str) {
        let a = self.port_position(from, from_port);
        let b = self.port_position(to, to_port);
        if a.x == b.x || a.y == b.y {
            self.wire(a, b);
        } else {
            let corner = Point::new(b.x, a.y);
            self.wire(a, corner);
            self.wire(corner, b);
        }
    }

    /// Extracts the connectivity into a [`FunctionalDiagram`]: ports touch
    /// a net when their position lies on a wire; wires sharing a point
    /// (including T junctions) are merged.
    ///
    /// # Errors
    ///
    /// * [`SchematicError::DiagonalWire`] for a non-orthogonal wire.
    /// * [`SchematicError::Extraction`] if a connection violates §3.2 rules.
    pub fn extract(&self) -> Result<FunctionalDiagram, SchematicError> {
        for (i, w) in self.wires.iter().enumerate() {
            if !w.is_orthogonal() {
                return Err(SchematicError::DiagonalWire { wire: i });
            }
        }
        // Union-find over wires.
        let n = self.wires.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let r = find(parent, parent[i]);
                parent[i] = r;
                r
            } else {
                i
            }
        }
        for i in 0..n {
            for j in (i + 1)..n {
                let wi = self.wires[i];
                let wj = self.wires[j];
                let touch = wi.contains(wj.a)
                    || wi.contains(wj.b)
                    || wj.contains(wi.a)
                    || wj.contains(wi.b);
                if touch {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
            }
        }
        // Build the diagram.
        let mut diagram = FunctionalDiagram::new(&self.name);
        let mut ids: Vec<SymbolId> = Vec::with_capacity(self.placements.len());
        for p in &self.placements {
            let props: Vec<(&str, PropertyValue)> = p
                .properties
                .iter()
                .map(|(k, v)| (k.as_str(), v.clone()))
                .collect();
            ids.push(diagram.add_symbol_with(p.kind.clone(), &props, p.label.as_deref()));
        }
        // Group ports by wire component.
        let mut groups: BTreeMap<usize, Vec<PortRef>> = BTreeMap::new();
        for (pi, p) in self.placements.iter().enumerate() {
            for (port_idx, (_, _, off)) in port_offsets(&p.kind).iter().enumerate() {
                let pos = Point::new(p.at.x + off.x, p.at.y + off.y);
                for (wi, w) in self.wires.iter().enumerate() {
                    if w.contains(pos) {
                        let root = find(&mut parent, wi);
                        groups.entry(root).or_default().push(PortRef {
                            symbol: ids[pi],
                            port: port_idx,
                        });
                        break;
                    }
                }
            }
        }
        for ports in groups.values() {
            for pair in ports.windows(2) {
                diagram.connect(pair[0], pair[1])?;
            }
        }
        Ok(diagram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gabm_core::quantity::Dimension;

    #[test]
    fn wire_geometry() {
        let w = Wire {
            a: Point::new(0, 0),
            b: Point::new(5, 0),
        };
        assert!(w.is_orthogonal());
        assert!(w.contains(Point::new(3, 0)));
        assert!(!w.contains(Point::new(3, 1)));
        let d = Wire {
            a: Point::new(0, 0),
            b: Point::new(1, 1),
        };
        assert!(!d.is_orthogonal());
        assert!(!d.contains(Point::new(0, 0)));
    }

    #[test]
    fn port_offsets_deterministic() {
        let add = SymbolKind::Adder {
            signs: vec![true, true, false],
        };
        let offs = port_offsets(&add);
        assert_eq!(offs.len(), 4);
        // Inputs on the left, output on the right.
        assert!(offs[0].2.x < 0);
        assert!(offs[3].2.x > 0);
        // Pins sit on the bottom edge.
        let pin = SymbolKind::Pin { name: "p".into() };
        assert_eq!(port_offsets(&pin)[0].2, Point::new(0, 2));
    }

    #[test]
    fn extraction_builds_net() {
        let mut sheet = Sheet::new("t");
        let g1 = sheet.place(SymbolKind::Gain, Point::new(0, 0));
        let g2 = sheet.place(SymbolKind::Gain, Point::new(10, 0));
        sheet.wire_ports(g1, "out", g2, "in");
        let d = sheet.extract().unwrap();
        assert_eq!(d.nets().count(), 1);
        let net = d.nets().next().unwrap();
        assert_eq!(net.ports.len(), 2);
    }

    #[test]
    fn t_junction_merges() {
        let mut sheet = Sheet::new("t");
        let g1 = sheet.place(SymbolKind::Gain, Point::new(0, 0));
        let g2 = sheet.place(SymbolKind::Gain, Point::new(20, 0));
        let g3 = sheet.place(SymbolKind::Gain, Point::new(10, 10));
        // Straight bus from g1.out to g2.in, plus a stub dropping to g3.in.
        sheet.wire_ports(g1, "out", g2, "in");
        let mid = Point::new(8, 0);
        let g3_in = sheet.port_position(g3, "in");
        sheet.wire(mid, Point::new(8, g3_in.y));
        sheet.wire(Point::new(8, g3_in.y), g3_in);
        let d = sheet.extract().unwrap();
        assert_eq!(d.nets().count(), 1);
        assert_eq!(d.nets().next().unwrap().ports.len(), 3);
    }

    #[test]
    fn diagonal_wire_rejected() {
        let mut sheet = Sheet::new("d");
        sheet.wire(Point::new(0, 0), Point::new(3, 4));
        assert!(matches!(
            sheet.extract(),
            Err(SchematicError::DiagonalWire { wire: 0 })
        ));
    }

    #[test]
    fn double_driver_rejected_at_extraction() {
        let mut sheet = Sheet::new("dd");
        let g1 = sheet.place(SymbolKind::Gain, Point::new(0, 0));
        let g2 = sheet.place(SymbolKind::Gain, Point::new(0, 10));
        let g3 = sheet.place(SymbolKind::Gain, Point::new(10, 5));
        sheet.wire_ports(g1, "out", g3, "in");
        sheet.wire_ports(g2, "out", g3, "in");
        assert!(matches!(
            sheet.extract(),
            Err(SchematicError::Extraction(_))
        ));
    }

    #[test]
    fn properties_carried_through() {
        let mut sheet = Sheet::new("p");
        sheet.place_with(
            SymbolKind::Gain,
            Point::new(0, 0),
            &[("a", PropertyValue::Number(2.0))],
            Some("x2"),
        );
        let d = sheet.extract().unwrap();
        let sym = d.symbols().next().unwrap();
        assert_eq!(sym.property("a"), Some(&PropertyValue::Number(2.0)));
        assert_eq!(sym.label.as_deref(), Some("x2"));
    }

    #[test]
    fn full_probe_chain_extracts_consistently() {
        let mut sheet = Sheet::new("probe_chain");
        let pin = sheet.place(SymbolKind::Pin { name: "in".into() }, Point::new(0, 0));
        let probe = sheet.place(
            SymbolKind::Probe {
                quantity: Dimension::VOLTAGE,
            },
            Point::new(10, 0),
        );
        sheet.wire_ports(pin, "pin", probe, "pin");
        let d = sheet.extract().unwrap();
        assert_eq!(d.pins().len(), 1);
        assert_eq!(d.nets().count(), 1);
    }
}
