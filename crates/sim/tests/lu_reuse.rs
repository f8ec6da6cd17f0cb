//! Transient-level checks of the sparse-LU refactorization cache: the
//! symbolic analysis survives across time steps, so numeric
//! refactorizations replace nearly every full factorization.

use gabm_sim::analysis::tran::TranSpec;
use gabm_sim::devices::{DiodeParams, SourceWave};
use gabm_sim::Circuit;

/// A diode-clamped RC ladder driven by a sine — nonlinear and reactive,
/// so the transient engine runs many Newton iterations per step.
fn ladder() -> Circuit {
    let mut c = Circuit::new();
    c.options.sparse_threshold = 1; // force the sparse backend
    let input = c.node("in");
    c.add_vsource(
        "VIN",
        input,
        Circuit::GROUND,
        SourceWave::sine(0.0, 3.0, 50.0e3),
    );
    let mut prev = input;
    for k in 0..5 {
        let n = c.node(&format!("n{k}"));
        c.add_resistor(&format!("R{k}"), prev, n, 1.0e3).unwrap();
        c.add_capacitor(&format!("C{k}"), n, Circuit::GROUND, 1.0e-9);
        if k % 2 == 0 {
            c.add_diode(&format!("D{k}"), n, Circuit::GROUND, DiodeParams::default());
        }
        prev = n;
    }
    c
}

#[test]
fn transient_reuse_matches_full_factorization_bitwise() {
    // `SparseLu::refactor` reproduces a fresh factorization to the ulp
    // (`splu::tests`); here the cache must carry across time steps.
    let stats = ladder()
        .tran(&TranSpec::new(60.0e-6))
        .expect("transient runs")
        .stats;
    assert!(
        stats.refactorizations > stats.factorizations * 10,
        "expected refactorizations to dominate: {} refactors vs {} full",
        stats.refactorizations,
        stats.factorizations
    );
    // Every Newton iteration factors exactly once, in full or numerically.
    assert_eq!(
        stats.factorizations + stats.refactorizations,
        stats.newton_iterations
    );
}
