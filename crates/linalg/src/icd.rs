//! Pivoted incomplete Cholesky decomposition of a Gram (kernel) matrix.
//!
//! `K ≈ G Gᵀ` with `G` of rank `r ≪ N`, built greedily by largest
//! remaining diagonal (trace-norm optimal pivoting). This is the
//! factorization Bach & Jordan use to make KCCA tractable, and it is
//! *exact* when run to full rank with zero tolerance — which lets the
//! same code path serve both the "exact" small-N mode and the scalable
//! low-rank mode.
//!
//! Crucially the input is a *Gram oracle* `k(i, j)`, not a materialized
//! `N x N` matrix: only `N·r` kernel evaluations are performed.

// Triangular solves and centroid updates read most clearly with index
// loops; the iterator forms clippy suggests obscure the math.
#![allow(clippy::needless_range_loop)]

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Rows per parallel work chunk in the factorization loops. Fixed (not
/// derived from the thread count) so chunk boundaries — and therefore
/// results — never depend on how many workers ran.
const ROW_CHUNK: usize = 256;

/// Options controlling the factorization.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct IcdOptions {
    /// Hard cap on the rank (number of pivots). `usize::MAX` = no cap.
    pub max_rank: usize,
    /// Stop when the remaining trace falls below `tol * initial trace`.
    pub relative_tolerance: f64,
}

impl Default for IcdOptions {
    fn default() -> Self {
        IcdOptions {
            max_rank: usize::MAX,
            relative_tolerance: 1e-6,
        }
    }
}

/// The factor `G` (`n x r`), selected pivots, and the triangular pivot
/// block needed to embed new points into the same feature space.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IncompleteCholesky {
    g: Matrix,
    pivots: Vec<usize>,
    /// Residual trace after the last accepted pivot (approximation error).
    residual_trace: f64,
}

impl IncompleteCholesky {
    /// Factorizes the `n x n` Gram matrix given by `gram(i, j)`.
    ///
    /// `gram` must be symmetric with non-negative diagonal (any kernel
    /// matrix qualifies). It is evaluated from multiple worker threads
    /// (hence `Sync`): each pivot's column of `N` kernel evaluations
    /// and residual updates is chunked across the `qpp-par` pool, with
    /// per-chunk results merged in row order — so the factor is bitwise
    /// identical for any thread count.
    pub fn factor(
        n: usize,
        gram: impl Fn(usize, usize) -> f64 + Sync,
        opts: IcdOptions,
    ) -> Result<Self> {
        if n == 0 {
            return Err(LinalgError::Empty("incomplete cholesky"));
        }
        let max_rank = opts.max_rank.min(n);
        let mut d: Vec<f64> = qpp_par::parallel_for_chunks(n, ROW_CHUNK, |chunk| {
            chunk.range.map(|i| gram(i, i)).collect::<Vec<f64>>()
        })
        .into_iter()
        .flatten()
        .collect();
        let initial_trace = crate::vector::sum(&d);
        let tol = if initial_trace > 0.0 {
            opts.relative_tolerance * initial_trace
        } else {
            0.0
        };

        // Accepted columns of G, stored contiguously: column `t` lives
        // at `g_cols[t * n..(t + 1) * n]`. One growing allocation
        // instead of one per pivot.
        let mut g_cols: Vec<f64> = Vec::new();
        let mut pivots: Vec<usize> = Vec::new();
        let mut selected = vec![false; n];

        for t in 0..max_rank {
            // Greedy pivot: largest remaining diagonal.
            let mut p = usize::MAX;
            let mut best = 0.0;
            for i in 0..n {
                if !selected[i] && d[i] > best {
                    best = d[i];
                    p = i;
                }
            }
            let remaining = crate::vector::sum_iter(
                d.iter()
                    .zip(selected.iter())
                    .filter(|(_, &s)| !s)
                    .map(|(v, _)| v.max(0.0)),
            );
            if p == usize::MAX || best <= 0.0 || (t > 0 && remaining <= tol) {
                break;
            }
            let gpp = best.sqrt();
            // The hot loop: one kernel evaluation plus a rank-t residual
            // update per unselected row. Chunked across the worker pool;
            // every row's arithmetic is element-wise independent, so the
            // values are identical to the serial loop's.
            let g_cols_ref = &g_cols;
            let d_ref = &d;
            let selected_ref = &selected;
            let parts = qpp_par::parallel_for_chunks(n, ROW_CHUNK, |chunk| {
                let mut out = Vec::with_capacity(chunk.range.len());
                for i in chunk.range {
                    if selected_ref[i] || i == p {
                        out.push((0.0, d_ref[i]));
                        continue;
                    }
                    let mut v = gram(i, p);
                    for prev in g_cols_ref.chunks_exact(n) {
                        v -= prev[i] * prev[p];
                    }
                    let gi = v / gpp;
                    out.push((gi, d_ref[i] - gi * gi));
                }
                out
            });
            let start = g_cols.len();
            g_cols.resize(start + n, 0.0);
            let mut i = 0;
            for part in parts {
                for (g_i, d_i) in part {
                    g_cols[start + i] = g_i;
                    d[i] = d_i;
                    i += 1;
                }
            }
            g_cols[start + p] = gpp;
            selected[p] = true;
            d[p] = 0.0;
            pivots.push(p);
        }

        if pivots.is_empty() {
            return Err(LinalgError::NotPositiveDefinite {
                pivot: 0,
                value: d.first().copied().unwrap_or(0.0),
            });
        }

        let r = pivots.len();
        let mut g = Matrix::zeros(n, r);
        for (t, col) in g_cols.chunks_exact(n).enumerate() {
            for i in 0..n {
                g[(i, t)] = col[i];
            }
        }
        let residual_trace = crate::vector::sum_iter(
            d.iter()
                .zip(selected.iter())
                .filter(|(_, &s)| !s)
                .map(|(v, _)| v.max(0.0)),
        );
        Ok(IncompleteCholesky {
            g,
            pivots,
            residual_trace,
        })
    }

    /// The factor `G` with `K ≈ G Gᵀ` (`n` rows, `rank()` columns).
    pub fn g(&self) -> &Matrix {
        &self.g
    }

    /// Achieved rank.
    pub fn rank(&self) -> usize {
        self.pivots.len()
    }

    /// Pivot indices in selection order.
    pub fn pivots(&self) -> &[usize] {
        &self.pivots
    }

    /// Remaining trace `tr(K - G Gᵀ)` — the approximation error.
    pub fn residual_trace(&self) -> f64 {
        self.residual_trace
    }

    /// Embeds a *new* point into the same `r`-dimensional feature space.
    ///
    /// `kernel_at_pivots[t]` must be `k(x_new, pivot_t)` in pivot order.
    /// The embedding satisfies `g_new · g_iᵀ ≈ k(x_new, x_i)` for training
    /// points `i`, i.e. new points live in the same approximate feature
    /// space as the training rows of `G`: `g_new = L⁻¹ k`, with `L` the
    /// pivot block (see [`IncompleteCholesky::solve_pivot_transpose`]).
    pub fn transform_new(&self, kernel_at_pivots: &[f64]) -> Result<Vec<f64>> {
        let r = self.rank();
        if kernel_at_pivots.len() != r {
            return Err(LinalgError::ShapeMismatch {
                op: "icd transform_new",
                lhs: (r, 1),
                rhs: (kernel_at_pivots.len(), 1),
            });
        }
        // Forward substitution against the lower-triangular pivot block
        // G[pivots, :] (triangular in selection order by construction).
        let mut out = vec![0.0; r];
        for t in 0..r {
            let p = self.pivots[t];
            let mut v = kernel_at_pivots[t];
            for s in 0..t {
                v -= out[s] * self.g[(p, s)];
            }
            out[t] = v / self.g[(p, t)];
        }
        Ok(out)
    }

    /// Solves `Lᵀ X = B` by back substitution, where `L = G[pivots, :]`
    /// is the `r x r` lower-triangular pivot block.
    ///
    /// Since every new point embeds as `L⁻¹ k`, any linear map `W`
    /// applied after the embedding folds into the kernel row:
    /// `(L⁻¹ k)ᵀ W = kᵀ (L⁻ᵀ W)`. This returns that folded `L⁻ᵀ W`
    /// (`r x B.cols()`), so a caller can skip the per-point
    /// substitution entirely. Serial and fixed-order: bitwise
    /// reproducible for any thread count.
    pub fn solve_pivot_transpose(&self, b: &Matrix) -> Result<Matrix> {
        let r = self.rank();
        if b.rows() != r {
            return Err(LinalgError::ShapeMismatch {
                op: "icd solve_pivot_transpose",
                lhs: (r, r),
                rhs: b.shape(),
            });
        }
        let c = b.cols();
        let mut x = b.clone();
        // Row t of X depends on rows s > t: Lᵀ[t, s] = L[s, t] =
        // G[pivots[s], t]. Whole rows update at once, so each inner
        // step is a contiguous axpy over the c columns.
        for t in (0..r).rev() {
            let (head, tail) = x.as_mut_slice().split_at_mut((t + 1) * c);
            let row = &mut head[t * c..];
            for (s, solved) in tail.chunks_exact(c).enumerate() {
                let l = self.g[(self.pivots[t + 1 + s], t)];
                for (v, &xs) in row.iter_mut().zip(solved) {
                    *v -= l * xs;
                }
            }
            let diag = self.g[(self.pivots[t], t)];
            for v in row.iter_mut() {
                *v /= diag;
            }
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    type Points = Vec<Vec<f64>>; // allow-vecvec: test fixture

    fn gaussian_points() -> Points {
        // Deterministic scattered points.
        (0..12)
            .map(|i| {
                let x = (i as f64 * 0.7).sin() * 3.0;
                let y = (i as f64 * 1.3).cos() * 2.0;
                vec![x, y]
            })
            .collect()
    }

    fn kernel(a: &[f64], b: &[f64]) -> f64 {
        (-vector::sq_dist(a, b) / 4.0).exp()
    }

    #[test]
    fn full_rank_is_exact() {
        let pts = gaussian_points();
        let n = pts.len();
        let icd = IncompleteCholesky::factor(
            n,
            |i, j| kernel(&pts[i], &pts[j]),
            IcdOptions {
                max_rank: n,
                relative_tolerance: 0.0,
            },
        )
        .unwrap();
        let g = icd.g();
        let approx = g.matmul(&g.transpose()).unwrap();
        for i in 0..n {
            for j in 0..n {
                let k = kernel(&pts[i], &pts[j]);
                assert!(
                    (approx[(i, j)] - k).abs() < 1e-8,
                    "K[{i},{j}] {} vs {}",
                    approx[(i, j)],
                    k
                );
            }
        }
    }

    #[test]
    fn truncated_rank_bounds_error_by_residual_trace() {
        let pts = gaussian_points();
        let n = pts.len();
        let icd = IncompleteCholesky::factor(
            n,
            |i, j| kernel(&pts[i], &pts[j]),
            IcdOptions {
                max_rank: 5,
                relative_tolerance: 0.0,
            },
        )
        .unwrap();
        assert_eq!(icd.rank(), 5);
        let g = icd.g();
        let approx = g.matmul(&g.transpose()).unwrap();
        // Diagonal error sums to the residual trace.
        let diag_err: f64 = (0..n)
            .map(|i| kernel(&pts[i], &pts[i]) - approx[(i, i)])
            .sum();
        assert!((diag_err - icd.residual_trace()).abs() < 1e-8);
    }

    #[test]
    fn transform_new_matches_training_row() {
        // Embedding a training point as if it were new must reproduce its
        // G row (for full-rank factorization).
        let pts = gaussian_points();
        let n = pts.len();
        let icd = IncompleteCholesky::factor(
            n,
            |i, j| kernel(&pts[i], &pts[j]),
            IcdOptions {
                max_rank: n,
                relative_tolerance: 1e-12,
            },
        )
        .unwrap();
        for probe in [0usize, 3, 7] {
            let k_row: Vec<f64> = icd
                .pivots()
                .iter()
                .map(|&p| kernel(&pts[probe], &pts[p]))
                .collect();
            let emb = icd.transform_new(&k_row).unwrap();
            for (t, v) in emb.iter().enumerate() {
                assert!(
                    (v - icd.g()[(probe, t)]).abs() < 1e-6,
                    "row {probe} dim {t}: {} vs {}",
                    v,
                    icd.g()[(probe, t)]
                );
            }
        }
    }

    #[test]
    fn solve_pivot_transpose_folds_the_embedding() {
        // (L⁻¹ k)ᵀ W must equal kᵀ (L⁻ᵀ W) up to rounding.
        let pts = gaussian_points();
        let n = pts.len();
        let icd = IncompleteCholesky::factor(
            n,
            |i, j| kernel(&pts[i], &pts[j]),
            IcdOptions {
                max_rank: 7,
                relative_tolerance: 0.0,
            },
        )
        .unwrap();
        let r = icd.rank();
        let w = Matrix::from_fn(r, 3, |i, j| ((i * 3 + j) as f64 * 0.37).sin());
        let folded = icd.solve_pivot_transpose(&w).unwrap();
        assert_eq!(folded.shape(), (r, 3));
        for probe in [[0.3, -1.2], [2.0, 0.5], [-2.5, 1.7]] {
            let k_row: Vec<f64> = icd
                .pivots()
                .iter()
                .map(|&p| kernel(&probe, &pts[p]))
                .collect();
            let emb = icd.transform_new(&k_row).unwrap();
            for j in 0..3 {
                let unfused = vector::sum_iter((0..r).map(|t| emb[t] * w[(t, j)]));
                let fused = vector::sum_iter((0..r).map(|t| k_row[t] * folded[(t, j)]));
                assert!(
                    (unfused - fused).abs() <= 1e-9 * unfused.abs().max(1.0),
                    "col {j}: {unfused} vs {fused}"
                );
            }
        }
        assert!(icd.solve_pivot_transpose(&Matrix::zeros(r + 1, 2)).is_err());
    }

    #[test]
    fn pivot_block_is_triangular() {
        let pts = gaussian_points();
        let n = pts.len();
        let icd =
            IncompleteCholesky::factor(n, |i, j| kernel(&pts[i], &pts[j]), IcdOptions::default())
                .unwrap();
        for (t, &p) in icd.pivots().iter().enumerate() {
            for s in (t + 1)..icd.rank() {
                assert!(icd.g()[(p, s)].abs() < 1e-10);
            }
        }
    }

    #[test]
    fn empty_input_rejected() {
        assert!(IncompleteCholesky::factor(0, |_, _| 0.0, IcdOptions::default()).is_err());
    }

    #[test]
    fn zero_matrix_rejected() {
        assert!(IncompleteCholesky::factor(4, |_, _| 0.0, IcdOptions::default()).is_err());
    }
}
