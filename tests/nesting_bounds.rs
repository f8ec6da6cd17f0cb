//! Models nested exactly as deep, and expression trees exactly as high,
//! as the FAS parser allows must compile, lint and evaluate on an
//! ordinary test thread; one level more is a located parse error, never
//! a stack overflow.

use gabm::fas::parser::{MAX_NESTING, MAX_TREE_HEIGHT};
use gabm::fas::{FasError, Pos};
use gabm::fasvm::FasBackend;
use gabm::sim::devices::{BehavioralModel, EvalCtx};
use std::collections::BTreeMap;

const VIN: &str = "volt.value(a)";

fn model(body: &str) -> String {
    format!("model deep pin (a)\nanalog\n{body}\nendanalog\nendmodel\n")
}

/// `make curr.on(a) = expr`, with `expr` at line 3, column 19.
fn impose(expr: &str) -> String {
    model(&format!("make curr.on(a) = {expr}"))
}

/// `n` terms joined by `+`: a left-deep tree `n` nodes high.
fn sum_chain(n: usize) -> String {
    vec![VIN; n].join(" + ")
}

/// `ifs` nested `if`s around `inner`.
fn nested_ifs(ifs: usize, inner: &str) -> String {
    let open = format!("if ({VIN} > 0) then\n").repeat(ifs);
    model(&format!("{open}{inner}\n{}", "endif\n".repeat(ifs)))
}

/// Compiles, lints and evaluates `src` on both executors.
fn check_at_bound(src: &str) {
    let model = gabm::fas::compile(src).expect("compiles at the bound");
    gabm::lint::lint_fas_source(src).expect("lints at the bound");
    let ctx = EvalCtx {
        mode_dc: true,
        time: 0.0,
        dt: 0.0,
        temperature: 300.0,
    };
    let mut interp = model.instantiate(&BTreeMap::new()).expect("interp");
    let mut vm = FasBackend
        .instantiate(&model, &BTreeMap::new())
        .expect("executor");
    let (mut ci, mut cv, mut ji, mut jv) = ([0.0], [0.0], [0.0], [0.0]);
    interp.eval(&ctx, &[0.5], &mut ci);
    vm.eval(&ctx, &[0.5], &mut cv);
    assert!(ci[0].is_finite() && ci[0] == cv[0], "{ci:?} vs {cv:?}");
    assert!(interp.eval_with_jacobian(&ctx, &[0.5], &mut ci, &mut ji));
    assert!(vm.eval_with_jacobian(&ctx, &[0.5], &mut cv, &mut jv));
    assert_eq!(ji, jv);
}

fn assert_rejected(src: &str, line: usize, col: usize, want: &str) {
    match gabm::fas::parse(src) {
        Err(FasError::Parse { pos, message }) => {
            assert_eq!(pos, Pos { line, col }, "{message}");
            assert!(message.contains(want), "{message}");
        }
        other => panic!("expected a nesting error, got {other:?}"),
    }
}

fn assert_too_deep(src: &str, line: usize, col: usize) {
    assert_rejected(src, line, col, "nested deeper than");
}

#[test]
fn parentheses_at_the_bound() {
    let parens = |k: usize| format!("{}{VIN}{}", "(".repeat(k), ")".repeat(k));
    // The statement's expression is one level, each parenthesis another.
    check_at_bound(&impose(&parens(MAX_NESTING - 1)));
    assert_too_deep(&impose(&parens(MAX_NESTING)), 3, 19 + MAX_NESTING);
}

#[test]
fn unary_minuses_at_the_bound() {
    let minuses = |k: usize| format!("{}{VIN}", "-".repeat(k));
    check_at_bound(&impose(&minuses(MAX_NESTING - 1)));
    assert_too_deep(&impose(&minuses(MAX_NESTING)), 3, 19 + MAX_NESTING);
}

#[test]
fn sum_chain_at_the_bound() {
    check_at_bound(&impose(&sum_chain(MAX_TREE_HEIGHT)));
    // The operator that makes the tree one node too high.
    let col = 19 + MAX_TREE_HEIGHT * VIN.len() + (MAX_TREE_HEIGHT - 1) * 3 + 1;
    let src = impose(&sum_chain(MAX_TREE_HEIGHT + 1));
    assert_rejected(&src, 3, col, "expression tree higher than");
}

#[test]
fn nested_ifs_at_the_bound() {
    // The innermost statement's expression takes the last level.
    let inner = format!("make curr.on(a) = {VIN}");
    check_at_bound(&nested_ifs(MAX_NESTING - 1, &inner));
    // The last `if`'s condition is one level too deep.
    assert_too_deep(&nested_ifs(MAX_NESTING, &inner), 2 + MAX_NESTING, 5);
    // The highest tree under the deepest `if`s: both bounds at once.
    let chain = format!("make curr.on(a) = {}", sum_chain(MAX_TREE_HEIGHT));
    check_at_bound(&nested_ifs(MAX_NESTING - 1, &chain));
}
