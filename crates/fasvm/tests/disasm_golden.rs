//! Golden test for the bytecode disassembly format.
//!
//! `gabm compile --disasm` and `Program::disasm` promise a stable,
//! diffable listing; this test pins it for a model that exercises the
//! whole lowering pipeline: literal arithmetic evaluated at run time
//! (`g * (2 + 3)`, `0 - 1`), a mode branch, a relational `if` with one
//! store per arm, a state op, variable forwarding and register reuse.
//! Regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p gabm-fasvm --test disasm_golden
//! ```

use gabm_fasvm::compile_program;

const SOURCE: &str = "\
model golden pin (inp, outp) param (g=1e-3, tau=2.0, vmax=5.0)
analog
make vin = volt.value(inp)
make gain2 = g * (2 + 3)
make vlim = limit(vin * gain2, -vmax, vmax)
if (mode=dc) then
make vs = vlim
else
make vs = state.dt(vlim) * tau
endif
if (vin >= 0) then
make sign = 1
else
make sign = 0 - 1
endif
make curr.on(outp) = vs * sign
make curr.on(inp) = 0 - vs * sign
endanalog
endmodel
";

#[test]
fn disasm_listing_is_stable() {
    let model = gabm_fas::compile(SOURCE).expect("golden model compiles");
    let prog = compile_program(&model).expect("bytecode compiles");
    let listing = prog.disasm();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/disasm.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &listing).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        listing, expected,
        "disassembly drifted from tests/golden/disasm.txt;\n\
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
