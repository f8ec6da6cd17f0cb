//! Deterministic allocation budgets of the model front end and of the
//! transient's Newton loop.
//!
//! A counting global allocator tallies the heap allocations made by the
//! calling thread only, so the test harness's other threads cannot disturb
//! the counts. Allocation counts repeat exactly from run to run, which makes
//! them a noise-free guard on the front end's cost where a timing would not
//! be.
//!
//! The budgets were set from these counts on the comparator
//! (`ComparatorSpec::default()`: 70 symbols, 68 nets, ~2.6 KB of FAS),
//! before and after the front end moved to a flat port/net index with
//! allocation-free port templates and diagnostic text rendered only on
//! emission:
//!
//! | stage                             | before |  after |
//! |-----------------------------------|-------:|-------:|
//! | `card()`                          |    100 |    100 |
//! | `diagram()`                       |  3,970 |    439 |
//! | `check_diagram`                   |  7,370 |     51 |
//! | `generate` (FAS, incl. its check) | 10,971 |    407 |
//! | FAS `compile`                     |  1,397 |  1,397 |
//! | `card()` + `model()`              | 16,438 |  2,343 |
//!
//! The FAS half's counts are exact, set on the same model's text before
//! and after tokens borrowed the source, names were numbered once by the
//! parser and resolved through dense tables, the lowered expressions
//! moved into one node array, and the compiled model, its bytecode and
//! every instance came to share one signature and body:
//!
//! | stage                             | before |  after |
//! |-----------------------------------|-------:|-------:|
//! | FAS `compile`                     |  1,397 |    250 |
//! | `compile_program`                 |    144 |     33 |
//! | `Program::instantiate`            |    104 |     15 |
//! | `card()` + `model()`              |  2,343 |  1,196 |
//!
//! An instance allocates only its own frames: parameter values,
//! committed state and one evaluation frame per value lane.
//!
//! The transient counts are exact, taken on the 60 µs Fig. 7 transient
//! (`ComparatorStimulus::default()`): first before and after the dense LU
//! became an in-place refactor and each circuit kept one reusable Newton
//! workspace (stamper, LU factor, iterate buffers), then after Newton
//! stopped returning an owned solution and the accepted points went into
//! one flat buffer:
//!
//! | transient (unknowns)              | before | workspace | flat store |
//! |-----------------------------------|-------:|----------:|-----------:|
//! | behavioural (FAS) comparator (12) |  5,206 |       272 |         39 |
//! | transistor (CMOS) comparator (17) | 16,154 |       638 |         39 |
//!
//! Nothing is left per time step or per Newton iteration: what remains is
//! the set-up (operating point, Newton workspace, breakpoint list) and the
//! doubling growth of the two result buffers, which is logarithmic in the
//! step count. The counts sit far below one allocation per accepted step
//! (197 and 468), so an allocation creeping back into the step loop fails
//! the test.

// The counting allocator is the workspace's one `unsafe` code: a
// `GlobalAlloc` impl cannot be written without it.
#![allow(unsafe_code)]

use gabm::codegen::{generate, Backend};
use gabm::core::check_diagram;
use gabm::fas::compile;
use gabm::fasvm::compile_program;
use gabm::models::ComparatorSpec;
use gabm::sim::analysis::tran::{TranResult, TranSpec};
use gabm::sim::circuit::Circuit;
use gabm_bench::{behavioural_comparator_circuit, cmos_comparator_circuit, ComparatorStimulus};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter bump, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn comparator_front_end_stays_within_its_allocation_budget() {
    let spec = ComparatorSpec::default();
    // Warm any lazily initialised state before counting.
    spec.card().unwrap();
    spec.model().unwrap();

    let (card, _) = allocations(|| spec.card().unwrap());
    let (diagram, d) = allocations(|| spec.diagram().unwrap());
    let (check, report) = allocations(|| check_diagram(&d));
    assert!(report.is_consistent());
    let (gen, code) = allocations(|| generate(&d, Backend::Fas).unwrap());
    let (fas, _) = allocations(|| compile(&code.text).unwrap());
    let (front_end, _) = allocations(|| {
        spec.card().unwrap();
        spec.model().unwrap()
    });
    println!(
        "card {card}, diagram {diagram}, check_diagram {check}, generate {gen}, \
         FAS compile {fas}; card + model {front_end}"
    );
    assert!(check <= 1_000, "check_diagram made {check} allocations");
    assert!(
        front_end <= 6_000,
        "card() + model() made {front_end} allocations"
    );
}

#[test]
fn comparator_fas_compile_and_instantiate_allocate_exactly() {
    let code = generate(&ComparatorSpec::default().diagram().unwrap(), Backend::Fas).unwrap();
    // Warm any lazily initialised state before counting.
    let program = compile_program(&compile(&code.text).unwrap()).unwrap();
    program.instantiate(&BTreeMap::new()).unwrap();

    let (fas, model) = allocations(|| compile(&code.text).unwrap());
    let (bytecode, program) = allocations(|| compile_program(&model).unwrap());
    let (instance, _) = allocations(|| program.instantiate(&BTreeMap::new()).unwrap());
    println!("FAS compile {fas}, compile_program {bytecode}, instantiate {instance}");
    assert_eq!(
        (fas, bytecode, instance),
        (250, 33, 15),
        "allocations of FAS compile, compile_program and Program::instantiate"
    );
}

/// Allocations of one 60 µs transient on `ckt`, with its result.
fn transient_allocations(mut ckt: Circuit) -> (u64, TranResult) {
    allocations(|| ckt.tran(&TranSpec::new(60.0e-6)).unwrap())
}

#[test]
fn comparator_transients_stay_within_their_allocation_budgets() {
    let stim = ComparatorStimulus::default();
    let (fas, r) = transient_allocations(behavioural_comparator_circuit(&stim).unwrap().0);
    // The same work as before the budget was set: equal Newton iteration
    // and step counts.
    let work = |r: &TranResult| {
        (
            r.stats.newton_iterations,
            r.stats.accepted_steps,
            r.stats.rejected_steps,
        )
    };
    assert_eq!(work(&r), (518, 197, 33));
    let (cmos, r) = transient_allocations(cmos_comparator_circuit(&stim).unwrap().0);
    assert_eq!(work(&r), (2033, 468, 129));
    println!("transient allocations: FAS {fas}, CMOS {cmos}");
    assert_eq!(
        (fas, cmos),
        (39, 39),
        "allocations of the FAS and CMOS comparator transients"
    );
}
