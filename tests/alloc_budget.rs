//! Deterministic allocation budget of the model front end.
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

// The counting allocator is the workspace's one `unsafe` code: a
// `GlobalAlloc` impl cannot be written without it.
#![allow(unsafe_code)]

use gabm::codegen::{generate, Backend};
use gabm::core::check_diagram;
use gabm::fas::compile;
use gabm::models::ComparatorSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
