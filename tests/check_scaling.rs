//! The diagram check on long gain chains: inference must reach the end of
//! a chain whatever the order of its symbol ids, and the check's time,
//! memory and stack depth must stay linear in, or independent of, the
//! chain's length.

use gabm::core::symbol::PropertyValue;
use gabm::core::{
    check_diagram, Code, Dimension, FuncKind, FunctionalDiagram, SymbolId, SymbolKind,
};
use std::time::{Duration, Instant};

fn wire(d: &mut FunctionalDiagram, from: SymbolId, out: &str, to: SymbolId, input: &str) {
    let a = d.port(from, out).unwrap();
    let b = d.port(to, input).unwrap();
    d.connect(a, b).unwrap();
}

fn gain(d: &mut FunctionalDiagram) -> SymbolId {
    d.add_symbol_with(SymbolKind::Gain, &[("a", PropertyValue::Number(2.0))], None)
}

/// A pin with a voltage probe attached; returns the probe.
fn probed_pin(d: &mut FunctionalDiagram) -> SymbolId {
    let pin = d.add_symbol(SymbolKind::Pin { name: "in".into() });
    let probe = d.add_symbol(SymbolKind::Probe {
        quantity: Dimension::VOLTAGE,
    });
    wire(d, pin, "pin", probe, "pin");
    probe
}

/// voltage probe → `hops` gains → voltage generator, ids in signal-flow
/// order: a clean diagram.
fn probe_to_generator(hops: usize) -> FunctionalDiagram {
    let mut d = FunctionalDiagram::new("chain");
    let mut prev = probed_pin(&mut d);
    for _ in 0..hops {
        let g = gain(&mut d);
        wire(&mut d, prev, "out", g, "in");
        prev = g;
    }
    let out = d.add_symbol(SymbolKind::Pin { name: "out".into() });
    let gen = d.add_symbol(SymbolKind::Generator {
        quantity: Dimension::VOLTAGE,
    });
    wire(&mut d, prev, "out", gen, "in");
    wire(&mut d, out, "pin", gen, "pin");
    d
}

#[test]
fn dimension_reaches_a_function_against_the_id_order() {
    // voltage probe → 100 gains → exp, with the gains created consumer
    // first: each gain's input becomes known only after every gain with
    // a higher id, so inference crosses one hop per round in id order. A
    // round cap once stopped it short of the exp and the dimensioned
    // input went unreported.
    let hops = 100;
    let mut d = FunctionalDiagram::new("against_flow");
    let probe = probed_pin(&mut d);
    let exp = d.add_symbol(SymbolKind::Function {
        func: FuncKind::Exp,
    });
    let gains: Vec<SymbolId> = (0..hops).map(|_| gain(&mut d)).collect();
    wire(&mut d, gains[0], "out", exp, "in0");
    for k in 1..hops {
        wire(&mut d, gains[k], "out", gains[k - 1], "in");
    }
    wire(&mut d, probe, "out", gains[hops - 1], "in");
    let report = check_diagram(&d);
    let diag = report
        .diagnostics
        .iter()
        .find(|di| di.code == Code::DimensionedFunctionInput)
        .expect("GABM012 reported at the end of the chain");
    // The note chain names the fixed probe port and every gain.
    assert_eq!(diag.notes.len(), hops + 1, "{:?}", diag.notes);
    assert!(!report.is_consistent());
}

#[test]
fn twenty_thousand_hop_chain_checks_quickly() {
    let d = probe_to_generator(20_000);
    let t0 = Instant::now();
    let report = check_diagram(&d);
    let took = t0.elapsed();
    assert!(report.is_consistent(), "{:?}", report.diagnostics.first());
    assert!(
        took < Duration::from_secs(5),
        "check_diagram took {took:?} on a 20,000-hop chain"
    );
}

#[test]
fn hundred_thousand_hop_chain_checks_on_a_small_stack() {
    let d = probe_to_generator(100_000);
    let report = std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn_scoped(s, || check_diagram(&d))
            .expect("spawn checker thread")
            .join()
            .expect("check_diagram completes without overflowing the stack")
    });
    assert!(report.is_consistent(), "{:?}", report.diagnostics.first());
    // Every net but the two pin nets carries a voltage.
    assert_eq!(report.net_dimensions.len(), d.nets().count() - 2);
}
