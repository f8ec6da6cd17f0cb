//! Differential suite: the bytecode VM must agree with the tree-walking
//! interpreter — values, Jacobians and committed state — on every model
//! either can run. The interpreter is the specification; any divergence
//! beyond ulp noise is a VM bug.
//!
//! Coverage comes from four sources:
//! - ≥500 generated models over the full FAS vocabulary
//!   (`gabm_fas::testgen::rich_model_source`),
//! - every `tests/fixtures/*.fas` file that compiles,
//! - the four §3.3 paper constructs via the FAS code generator,
//! - hand-written models with singular literal sub-expressions.

use gabm_core::constructs::{InputStageSpec, OutputStageSpec, PowerSupplySpec, SlewRateSpec};
use gabm_fas::compile::CompiledModel;
use gabm_fas::testgen;
use gabm_fasvm::compile_program;
use gabm_numeric::rng::Rng;
use gabm_sim::devices::{BehavioralModel, EvalCtx};
use std::collections::BTreeMap;

/// Ulp-scale agreement: identical bits (covers NaN and signed zeros,
/// which both backends must produce in the same places) or a relative
/// error within a few epsilon.
fn close(a: f64, b: f64) -> bool {
    if a.to_bits() == b.to_bits() {
        return true;
    }
    if a.is_nan() && b.is_nan() {
        return true;
    }
    let scale = a.abs().max(b.abs());
    (a - b).abs() <= 4.0 * f64::EPSILON * scale
}

fn assert_close(a: f64, b: f64, what: &str, src: &str) {
    assert!(
        close(a, b),
        "{what}: interp={a:e} vm={b:e} (diff {:e})\nmodel:\n{src}",
        (a - b).abs()
    );
}

/// `eval` and the value part of `eval_with_jacobian` are one rule in two
/// lanes: identical bits, with NaN equal to NaN.
fn assert_same_lanes(scalar: f64, dual: f64, what: &str, src: &str) {
    assert!(
        scalar.to_bits() == dual.to_bits() || (scalar.is_nan() && dual.is_nan()),
        "{what}: eval={scalar:e} eval_with_jacobian={dual:e}\nmodel:\n{src}"
    );
}

/// Runs both backends through a DC solve plus a short transient and
/// checks currents, Jacobians and committed variables at every point.
fn check_model(model: &CompiledModel, src: &str, rng: &mut Rng) {
    let overrides = BTreeMap::new();
    let mut interp = model.instantiate(&overrides).expect("interp instantiate");
    let prog = compile_program(model).expect("bytecode compile");
    let mut vm = prog.instantiate(&overrides).expect("vm instantiate");
    let n = model.pins().len();
    assert_eq!(vm.pin_count(), n);

    let mut volts = vec![0.0f64; n];
    let mut ci = vec![0.0f64; n];
    let mut cv = vec![0.0f64; n];
    let mut ji = vec![0.0f64; n * n];
    let mut jv = vec![0.0f64; n * n];

    let compare_point = |interp: &mut gabm_fas::FasMachine,
                         vm: &mut gabm_fasvm::FasVm,
                         ctx: &EvalCtx,
                         volts: &[f64],
                         ci: &mut [f64],
                         cv: &mut [f64],
                         ji: &mut [f64],
                         jv: &mut [f64]| {
        interp.eval(ctx, volts, ci);
        vm.eval(ctx, volts, cv);
        for k in 0..n {
            assert_close(ci[k], cv[k], &format!("current[{k}]"), src);
        }
        let (scalar_i, scalar_v) = (ci.to_vec(), cv.to_vec());
        let oki = interp.eval_with_jacobian(ctx, volts, ci, ji);
        let okv = vm.eval_with_jacobian(ctx, volts, cv, jv);
        assert_eq!(oki, okv, "jacobian support must match\n{src}");
        if oki {
            for k in 0..n {
                assert_close(ci[k], cv[k], &format!("dual current[{k}]"), src);
                // Within each backend the two lanes agree bit for bit.
                assert_same_lanes(scalar_i[k], ci[k], &format!("interp current[{k}]"), src);
                assert_same_lanes(scalar_v[k], cv[k], &format!("vm current[{k}]"), src);
            }
            for k in 0..n * n {
                assert_close(ji[k], jv[k], &format!("jacobian[{k}]"), src);
            }
        }
    };

    // DC operating point.
    let dc = EvalCtx {
        mode_dc: true,
        time: 0.0,
        dt: 0.0,
        temperature: 300.0,
    };
    for v in volts.iter_mut() {
        *v = rng.range(-2.0, 2.0);
    }
    compare_point(
        &mut interp,
        &mut vm,
        &dc,
        &volts,
        &mut ci,
        &mut cv,
        &mut ji,
        &mut jv,
    );
    interp.accept(&dc, &volts);
    vm.accept(&dc, &volts);
    for name in model.var_names() {
        let a = interp.committed_var(name).expect("interp var");
        let b = vm.committed_var(name).expect("vm var");
        assert_close(a, b, &format!("dc committed {name}"), src);
    }

    // Short transient with varying voltages.
    let dt = 1.0e-4;
    for step in 1..=6 {
        let ctx = EvalCtx {
            mode_dc: false,
            time: step as f64 * dt,
            dt,
            temperature: 300.0,
        };
        for v in volts.iter_mut() {
            *v += rng.symmetric() * 0.5;
        }
        compare_point(
            &mut interp,
            &mut vm,
            &ctx,
            &volts,
            &mut ci,
            &mut cv,
            &mut ji,
            &mut jv,
        );
        interp.accept(&ctx, &volts);
        vm.accept(&ctx, &volts);
        for name in model.var_names() {
            let a = interp.committed_var(name).expect("interp var");
            let b = vm.committed_var(name).expect("vm var");
            assert_close(a, b, &format!("t{step} committed {name}"), src);
        }
    }
}

/// ≥500 generated models over the full vocabulary.
#[test]
fn generated_models_agree() {
    let mut gen_rng = Rng::new(0xD1FF_0001);
    let mut sim_rng = Rng::new(0xD1FF_0002);
    for i in 0..500 {
        let src = testgen::rich_model_source(&mut gen_rng);
        let model = gabm_fas::compile(&src)
            .unwrap_or_else(|e| panic!("case {i} does not compile: {e}\n{src}"));
        check_model(&model, &src, &mut sim_rng);
    }
}

/// The straight-line fuzz pool, too (different statement shapes).
#[test]
fn straight_line_models_agree() {
    let mut gen_rng = Rng::new(0xD1FF_0003);
    let mut sim_rng = Rng::new(0xD1FF_0004);
    for _ in 0..100 {
        let src = testgen::straight_line_source(&mut gen_rng);
        let model = gabm_fas::compile(&src).expect("straight-line model compiles");
        check_model(&model, &src, &mut sim_rng);
    }
}

/// Every repository fixture that compiles.
#[test]
fn fixture_models_agree() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures");
    let mut rng = Rng::new(0xD1FF_0005);
    let mut checked = 0;
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("fixtures dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "fas"))
        .collect();
    entries.sort();
    for path in entries {
        let src = std::fs::read_to_string(&path).expect("read fixture");
        // Lint fixtures include intentionally broken sources; the
        // differential contract only covers models the front end
        // accepts.
        let Ok(model) = gabm_fas::compile(&src) else {
            continue;
        };
        check_model(&model, &src, &mut rng);
        checked += 1;
    }
    assert!(checked >= 3, "only {checked} fixtures compiled");
}

/// Models whose literal sub-expressions are singular. The VM evaluates
/// literal arithmetic at run time by the interpreter's rule, so the
/// infinities meet the pin tangents where the interpreter's do and both
/// Jacobians are NaN.
#[test]
fn constant_singular_models_agree() {
    let bodies = [
        "make k = ln(0)\nmake curr.on(a) = k * volt.value(a)",
        "make curr.on(a) = volt.value(a) * (1 / 0)",
        "make curr.on(a) = volt.value(a) / 1000 + ln(1 - 1)",
    ];
    let mut rng = Rng::new(0xD1FF_0007);
    for body in bodies {
        let src = format!("model singular pin (a)\nanalog\n{body}\nendanalog\nendmodel\n");
        let model = gabm_fas::compile(&src).expect("singular model compiles");
        check_model(&model, &src, &mut rng);
    }
}

/// The four §3.3 constructs, through the real code generator.
#[test]
fn paper_constructs_agree() {
    use gabm_codegen::{generate, Backend};
    let diagrams = [
        InputStageSpec::new("in", 1.0e-6, 5.0e-12)
            .diagram()
            .expect("input stage"),
        OutputStageSpec::new("out", 1.0e-3)
            .diagram()
            .expect("output stage"),
        PowerSupplySpec::new("vdd", "vss", 1.0e-5, 1.0e-6, 2)
            .diagram()
            .expect("power supply"),
        SlewRateSpec::new(2.0e6, 2.0e6)
            .diagram()
            .expect("slew rate"),
    ];
    let mut rng = Rng::new(0xD1FF_0006);
    let mut checked = 0;
    for d in &diagrams {
        let code = generate(d, Backend::Fas).expect("codegen");
        // The slew-rate construct exposes no electrical pins, and the
        // FAS front end rejects an empty pin list — for both backends
        // alike. The differential contract only covers models the
        // front end accepts.
        let Ok(model) = gabm_fas::compile(&code.text) else {
            continue;
        };
        check_model(&model, &code.text, &mut rng);
        checked += 1;
    }
    assert!(checked >= 3, "only {checked} constructs compiled");
}
