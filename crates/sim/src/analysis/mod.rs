//! Circuit analyses: operating point, DC sweep, transient, AC.

pub mod ac;
pub mod dc;
pub(crate) mod engine;
pub mod op;
pub mod tran;

use crate::device::{Layout, Unknown};

/// The solutions of an analysis, one point after another in one buffer of
/// `layout.n_unknowns()` values per point.
#[derive(Debug, Clone)]
pub(crate) struct Solutions<T> {
    layout: Layout,
    data: Vec<T>,
}

impl<T: Copy + Default> Solutions<T> {
    pub(crate) fn new(layout: Layout) -> Self {
        Solutions {
            layout,
            data: Vec::new(),
        }
    }

    /// Appends one point and returns it.
    pub(crate) fn push(&mut self, x: &[T]) -> &mut [T] {
        debug_assert_eq!(x.len(), self.layout.n_unknowns());
        let start = self.data.len();
        self.data.extend_from_slice(x);
        &mut self.data[start..]
    }

    /// Point `idx`.
    pub(crate) fn point(&self, idx: usize) -> &[T] {
        let width = self.layout.n_unknowns();
        &self.data[idx * width..(idx + 1) * width]
    }

    /// Value of `u` at point `idx` (zero for ground).
    pub(crate) fn at(&self, idx: usize, u: Unknown) -> T {
        self.layout.value(self.point(idx), u)
    }
}
