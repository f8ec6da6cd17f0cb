//! Linear-solver kernels on seeded, MNA-shaped matrices, timed in
//! isolation: the dense LU of the 12- and 17-unknown comparator benches,
//! and the sparse LU (full factorization, numeric refactor, solve) at 68
//! unknowns, the size of seven comparators on a reference ladder, where
//! the simulator takes its sparse path.

use crate::stats::median;
use crate::tally::Tally;
use gabm_numeric::{DenseMatrix, LuFactor, Rng, SparseLu, SparseMatrix, TripletBuilder};
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per kernel; the median batch is reported.
const BATCHES: usize = 15;
/// Minimum length of one batch (s), so timer resolution does not matter.
const BATCH_S: f64 = 2.0e-3;

/// Entries of a modified-nodal-analysis matrix: a connected conductance
/// network over `nodes` (a chain plus random cross links and shunts to
/// ground) and `branches` voltage-source rows with their zero diagonal.
/// `scale` perturbs every conductance, keeping the pattern.
fn mna_entries(nodes: usize, branches: usize, seed: u64, scale: f64) -> Vec<(usize, usize, f64)> {
    let mut rng = Rng::new(seed);
    let mut e = Vec::new();
    let conductance = |e: &mut Vec<(usize, usize, f64)>, a: usize, b: usize, g: f64| {
        e.extend([(a, a, g), (b, b, g), (a, b, -g), (b, a, -g)]);
    };
    for i in 0..nodes {
        e.push((i, i, rng.range(1.0e-6, 1.0e-3) * scale));
        if i + 1 < nodes {
            conductance(&mut e, i, i + 1, rng.range(1.0e-5, 1.0e-2) * scale);
        }
        let j = rng.below(nodes);
        if j != i {
            conductance(&mut e, i, j, rng.range(1.0e-5, 1.0e-2) * scale);
        }
    }
    for b in 0..branches {
        let p = (b * nodes) / branches.max(1);
        e.extend([(p, nodes + b, 1.0), (nodes + b, p, 1.0)]);
    }
    e
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0e-3 * (i as f64 + 1.0)).collect()
}

/// Median nanoseconds per call of `f`.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let mut reps = 1usize;
    loop {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        if t0.elapsed().as_secs_f64() >= BATCH_S {
            break;
        }
        reps *= 2;
    }
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e9 / reps as f64
        })
        .collect();
    median(&per_call).expect("at least one batch")
}

fn dense_lu_ns(nodes: usize, branches: usize) -> f64 {
    let n = nodes + branches;
    let mut a = DenseMatrix::zeros(n, n);
    for (r, c, v) in mna_entries(nodes, branches, n as u64, 1.0) {
        a.add_at(r, c, v);
    }
    let b = rhs(n);
    time_ns(|| {
        let lu = LuFactor::new(black_box(&a)).expect("MNA kernel matrix is nonsingular");
        black_box(lu.solve(black_box(&b)).expect("dimensions agree"));
    })
}

fn csc(nodes: usize, branches: usize, scale: f64) -> SparseMatrix {
    let n = nodes + branches;
    let mut t = TripletBuilder::new(n, n);
    for (r, c, v) in mna_entries(nodes, branches, n as u64, scale) {
        t.push(r, c, v);
    }
    t.to_csc()
}

/// Times every kernel; names match the `numeric.*` per-layer metrics.
pub fn measure() -> Tally {
    let mut out = Tally::default();
    // Comparator-bench sizes: 7 nodes + 5 sources, 12 nodes + 5 sources.
    out.add("numeric.dense_lu_n12_ns", dense_lu_ns(7, 5));
    out.add("numeric.dense_lu_n17_ns", dense_lu_ns(12, 5));
    // 62 nodes + 6 sources.
    let a = csc(62, 6, 1.0);
    let a2 = csc(62, 6, 1.1);
    let b = rhs(68);
    out.add(
        "numeric.splu_full_n68_ns",
        time_ns(|| {
            black_box(SparseLu::new(black_box(&a)).expect("MNA kernel matrix is nonsingular"));
        }),
    );
    let mut lu = SparseLu::new(&a).expect("MNA kernel matrix is nonsingular");
    let mut flip = false;
    out.add(
        "numeric.splu_refactor_n68_ns",
        time_ns(|| {
            flip = !flip;
            lu.refactor(black_box(if flip { &a2 } else { &a }))
                .expect("same pattern, stable pivots");
        }),
    );
    out.add(
        "numeric.splu_solve_n68_ns",
        time_ns(|| {
            black_box(lu.solve(black_box(&b)).expect("dimensions agree"));
        }),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_matrices_are_solvable_and_share_a_pattern() {
        let a = csc(62, 6, 1.0);
        let a2 = csc(62, 6, 1.1);
        assert!(a.same_pattern(&a2));
        let mut lu = SparseLu::new(&a).unwrap();
        assert!(lu.pattern_matches(&a2));
        lu.refactor(&a2).unwrap();
        let x = lu.solve(&rhs(68)).unwrap();
        let r = a2.mul_vec(&x).unwrap();
        for (got, want) in r.iter().zip(rhs(68)) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }
}
