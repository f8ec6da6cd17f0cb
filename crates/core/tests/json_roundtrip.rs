//! Serialization round-trips: model libraries (card + diagram + parameter
//! sets) must survive persistence — the paper's design libraries "are
//! integrated in some surrounding development environment", which implies
//! storing and reloading them. Serialization uses the crate's own JSON
//! module (`gabm_core::json`) so the workspace builds with no network.

use gabm_core::card::DefinitionCard;
use gabm_core::check::check_diagram;
use gabm_core::constructs::{InputStageSpec, OutputStageSpec, SlewRateSpec};
use gabm_core::diagram::FunctionalDiagram;
use gabm_core::json;
use gabm_core::library::{ModelEntry, ModelLibrary, ParameterSet};
use std::collections::BTreeMap;

#[test]
fn diagram_roundtrip_preserves_connectivity() {
    let d = InputStageSpec::new("in", 1e-6, 5e-12).diagram().unwrap();
    let text = json::to_string(&d);
    let d2: FunctionalDiagram = json::from_str(&text).unwrap();
    assert_eq!(d, d2);
    // The derived port→net index must be rebuilt: net lookups still work.
    let probe_out = d2.port(gabm_core::diagram::SymbolId(2), "out").unwrap();
    assert!(d2.net_of(probe_out).is_some());
    // And the deserialized diagram still checks clean.
    assert!(check_diagram(&d2).is_consistent());
}

#[test]
fn roundtripped_diagram_generates_identical_code() {
    for diagram in [
        InputStageSpec::new("in", 1e-6, 5e-12).diagram().unwrap(),
        OutputStageSpec::new("out", 1e-3)
            .with_current_limit(1e-2)
            .diagram()
            .unwrap(),
        SlewRateSpec::new(1e6, 2e6).diagram().unwrap(),
    ] {
        let text = json::to_string(&diagram);
        let restored: FunctionalDiagram = json::from_str(&text).unwrap();
        let a = gabm_codegen::generate(&diagram, gabm_codegen::Backend::Fas);
        let b = gabm_codegen::generate(&restored, gabm_codegen::Backend::Fas);
        match (a, b) {
            (Ok(a), Ok(b)) => assert_eq!(a.text, b.text),
            (Err(_), Err(_)) => {} // open fragments fail identically
            other => panic!("asymmetric result: {other:?}"),
        }
    }
}

#[test]
fn diagram_with_dangling_references_is_rejected() {
    // A hand-edited file naming a port the symbol does not have, or a net
    // stored away from its id, is a schema error, not a diagram the
    // checker could trip over.
    let text = json::to_string(&InputStageSpec::new("in", 1e-6, 5e-12).diagram().unwrap());
    let bad_port = text.replacen("\"port\":0}", "\"port\":7}", 1);
    assert_ne!(text, bad_port, "fixture patch must apply");
    let err = json::from_str::<FunctionalDiagram>(&bad_port).unwrap_err();
    assert!(err.to_string().contains("has no port 7"), "{err}");
    let bad_id = text.replacen("\"id\":0,", "\"id\":5,", 1);
    assert_ne!(text, bad_id, "fixture patch must apply");
    let err = json::from_str::<FunctionalDiagram>(&bad_id).unwrap_err();
    assert!(
        err.to_string().contains("net 5 is stored at position 0"),
        "{err}"
    );
}

#[test]
fn card_roundtrip() {
    let spec = InputStageSpec::new("in", 1e-6, 5e-12);
    let card = spec.card().unwrap();
    let text = json::to_string_pretty(&card);
    let card2: DefinitionCard = json::from_str(&text).unwrap();
    assert_eq!(card, card2);
    assert!(card2.matches_diagram(&spec.diagram().unwrap()).is_ok());
}

#[test]
fn hierarchical_symbol_roundtrips() {
    // A diagram embedded as a hierarchical GBS survives nesting.
    use gabm_core::symbol::SymbolKind;
    let inner = SlewRateSpec::new(1e6, 2e6).diagram().unwrap();
    let mut outer = FunctionalDiagram::new("wrapper");
    outer.add_symbol(SymbolKind::Hierarchical {
        name: "slew".into(),
        diagram: Box::new(inner),
    });
    let text = json::to_string(&outer);
    let back: FunctionalDiagram = json::from_str(&text).unwrap();
    assert_eq!(outer, back);
}

#[test]
fn library_roundtrip_with_parameter_sets() {
    let spec = InputStageSpec::new("in", 1e-6, 5e-12);
    let mut entry = ModelEntry::new(spec.card().unwrap(), spec.diagram().unwrap()).unwrap();
    let mut values = BTreeMap::new();
    values.insert("gin".to_string(), 2e-6);
    entry
        .add_parameter_set(ParameterSet {
            name: "cmos_a".into(),
            values,
            provenance: "laboratory measurement".into(),
        })
        .unwrap();
    let mut lib = ModelLibrary::new();
    lib.add(entry).unwrap();

    let text = json::to_string(&lib);
    let lib2: ModelLibrary = json::from_str(&text).unwrap();
    assert_eq!(lib, lib2);
    let resolved = lib2
        .find("input_stage_in")
        .unwrap()
        .resolved_parameters("cmos_a")
        .unwrap();
    assert_eq!(resolved["gin"], 2e-6);
    assert_eq!(resolved["cin"], 5e-12);
}
