//! Fused-vs-unfused projection suite — the correctness oracle for the
//! folded query projection (DESIGN.md §18).
//!
//! `Kcca` projects a new query as `kᵀ P - b`, with `P = L⁻ᵀ Wx` and
//! `b = μᵀ Wx` folded at fit time. The oracle here rebuilds the unfused
//! path from public pieces on the same data — `GaussianKernel::fit` →
//! `IncompleteCholesky::factor` → `Cca::fit` → `transform_new` (the
//! per-query forward substitution) → `Cca::project_x` (the centered
//! gemv) — and checks that the fold changes rounding only: a stated
//! relative tolerance on the coordinates, the same top-k neighbors on
//! both kNN arms, and bitwise reproducibility across thread counts and
//! scratch reuse.
//!
//! `ci.sh` gates on this suite actually running (≥ 4 tests), the same
//! pattern as the svd_equivalence and ann_equivalence gates.

use qpp_linalg::stats::Standardizer;
use qpp_linalg::{vector, IcdOptions, IncompleteCholesky, Matrix};
use qpp_ml::{
    AnnIndex, AnnOptions, Cca, CcaOptions, DistanceMetric, GaussianKernel, Kcca, KccaOptions,
    ProjectionScratch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// Training-set size of the paper's Experiment 1.
const PAPER_ROWS: usize = 1027;
/// Largest relative deviation allowed between fused and unfused
/// coordinates (measured: ~1.5e-13).
const REL_TOLERANCE: f64 = 1e-10;
/// Share of probes whose top-k neighbor ids must agree.
const MIN_AGREEMENT: f64 = 0.999;
const K: usize = 3;

/// Plan-like features: 12 operator counts and 12 log cardinalities per
/// query, drawn around 40 templates with continuous jitter (no exact
/// duplicates, so neighbor ties cannot flip on rounding). The six
/// "performance" columns depend nonlinearly on the cardinalities.
fn workload(n: usize, seed: u64) -> (Matrix, Matrix) {
    let mut template_rng = StdRng::seed_from_u64(7);
    let templates: Vec<[f64; 24]> = (0..40) // allow-vecvec: test fixture
        .map(|_| {
            let mut t = [0.0; 24];
            for v in &mut t[..12] {
                *v = template_rng.random_range(0..4) as f64;
            }
            for v in &mut t[12..] {
                *v = template_rng.random_range(0.0..14.0);
            }
            t
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Matrix::zeros(n, 24);
    let mut y = Matrix::zeros(n, 6);
    for i in 0..n {
        let t = &templates[rng.random_range(0..templates.len())];
        let row = x.row_mut(i);
        row[..12].copy_from_slice(&t[..12]);
        for (v, &base) in row[12..].iter_mut().zip(&t[12..]) {
            *v = base + rng.random_range(-1.5..1.5);
        }
        let load = vector::sum(&row[12..]) / 12.0;
        let peak = vector::max_iter(0.0, row[12..].iter().copied());
        let perf = y.row_mut(i);
        perf[0] = (0.5 * load).exp().ln_1p() + 0.05 * rng.random_range(-1.0..1.0);
        perf[1] = 0.3 * peak * peak;
        perf[2] = (load * peak).sqrt();
        perf[3] = load.sin().abs() + 0.1 * rng.random_range(0.0..1.0);
        perf[4] = row[0] * load;
        perf[5] = rng.random_range(0.0..1.0);
    }
    (x, y)
}

/// One fitted model plus everything the unfused oracle needs.
struct Fixture {
    x: Matrix,
    scaler: Standardizer,
    model: Kcca,
    kernel: GaussianKernel,
    icd: IncompleteCholesky,
    cca: Cca,
}

impl Fixture {
    fn new(n: usize, seed: u64) -> Fixture {
        let (raw, y) = workload(n, seed);
        let scaler = Standardizer::fit(&raw);
        let x = scaler.transform(&raw);
        let opts = KccaOptions::default();
        let model = Kcca::fit(x.view(), y.view(), opts).unwrap();

        // The unfused path, rebuilt from the public pieces.
        let kernel = GaussianKernel::fit(x.view(), opts.x_kernel_fraction);
        let y_kernel = GaussianKernel::fit(y.view(), opts.y_kernel_fraction);
        let icd_opts = IcdOptions {
            max_rank: opts.max_rank,
            relative_tolerance: opts.icd_tolerance,
        };
        let icd = IncompleteCholesky::factor(n, |i, j| kernel.eval(x.row(i), x.row(j)), icd_opts)
            .unwrap();
        let y_icd =
            IncompleteCholesky::factor(n, |i, j| y_kernel.eval(y.row(i), y.row(j)), icd_opts)
                .unwrap();
        let cca = Cca::fit(
            icd.g(),
            y_icd.g(),
            CcaOptions {
                components: opts.components,
                regularization: opts.regularization,
                ..CcaOptions::default()
            },
        )
        .unwrap();
        // Same data, same deterministic fit: the oracle must be solving
        // the very problem the model solved.
        assert_eq!(icd.rank(), model.x_rank());
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&cca.correlations), bits(model.correlations()));
        Fixture {
            x,
            scaler,
            model,
            kernel,
            icd,
            cca,
        }
    }

    /// Standardized held-out probes.
    fn probes(&self, n: usize, seed: u64) -> Matrix {
        self.scaler.transform(&workload(n, seed).0)
    }

    fn unfused(&self, probe: &[f64]) -> Vec<f64> {
        let k_row: Vec<f64> = self
            .icd
            .pivots()
            .iter()
            .map(|&p| self.kernel.eval(probe, self.x.row(p)))
            .collect();
        self.cca.project_x(&self.icd.transform_new(&k_row).unwrap())
    }

    fn fused(&self, probe: &[f64]) -> Vec<f64> {
        self.model.project_query(probe).unwrap()
    }
}

fn paper_fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| Fixture::new(PAPER_ROWS, 1))
}

fn relative_deviation(fused: &[f64], unfused: &[f64]) -> f64 {
    vector::dist(fused, unfused) / vector::norm(unfused).max(1e-300)
}

/// Fraction of probes whose fused and unfused projections find the same
/// top-k neighbor ids in the model's reference projection.
fn neighbor_agreement(f: &Fixture, probes: &Matrix, expect_ivf: bool) -> f64 {
    let index = AnnIndex::build(
        f.model.query_projection().clone(),
        DistanceMetric::Euclidean,
        &AnnOptions::default(),
    )
    .unwrap();
    assert_eq!(index.is_ivf(), expect_ivf);
    let ids = |p: &[f64]| -> Vec<usize> { index.query(p, K).iter().map(|n| n.index).collect() };
    let agree = probes
        .row_iter()
        .filter(|p| ids(&f.fused(p)) == ids(&f.unfused(p)))
        .count();
    agree as f64 / probes.rows() as f64
}

#[test]
fn fused_projection_matches_unfused_oracle_within_tolerance() {
    let f = paper_fixture();
    let probes = f.probes(400, 11);
    let mut worst = 0.0f64;
    for probe in probes.row_iter().chain(f.x.row_iter().take(50)) {
        worst = worst.max(relative_deviation(&f.fused(probe), &f.unfused(probe)));
    }
    assert!(
        worst <= REL_TOLERANCE,
        "fused projection deviates by {worst:e} (relative) from the unfused oracle"
    );
}

#[test]
fn top_k_neighbors_agree_on_the_brute_arm() {
    let f = paper_fixture();
    let agreement = neighbor_agreement(f, &f.probes(1000, 12), false);
    assert!(
        agreement >= MIN_AGREEMENT,
        "top-{K} ids agree on only {agreement} of probes"
    );
}

#[test]
fn top_k_neighbors_agree_on_the_ivf_arm() {
    let rows = AnnOptions::default().ivf_threshold + 904;
    let f = Fixture::new(rows, 2);
    let probes = f.probes(1000, 13);
    let mut worst = 0.0f64;
    for probe in probes.row_iter().take(200) {
        worst = worst.max(relative_deviation(&f.fused(probe), &f.unfused(probe)));
    }
    assert!(worst <= REL_TOLERANCE, "IVF-scale deviation {worst:e}");
    let agreement = neighbor_agreement(&f, &probes, true);
    assert!(
        agreement >= MIN_AGREEMENT,
        "top-{K} ids agree on only {agreement} of probes"
    );
}

#[test]
fn fused_weights_are_bitwise_identical_across_thread_counts() {
    let (raw, y) = workload(PAPER_ROWS, 1);
    let x = Standardizer::fit(&raw).transform(&raw);
    let fit = |threads| {
        qpp_par::with_threads(threads, || {
            Kcca::fit(x.view(), y.view(), KccaOptions::default()).unwrap()
        })
    };
    let (serial, parallel) = (fit(1), fit(8));
    let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        serial.fused_projection().shape(),
        parallel.fused_projection().shape()
    );
    assert_eq!(
        bits(serial.fused_projection().as_slice()),
        bits(parallel.fused_projection().as_slice())
    );
    assert_eq!(bits(serial.fused_offset()), bits(parallel.fused_offset()));
    let probe = Standardizer::fit(&raw).transform_row(raw.row(3));
    assert_eq!(
        bits(&serial.project_query(&probe).unwrap()),
        bits(&parallel.project_query(&probe).unwrap())
    );
}

#[test]
fn dirty_reused_scratch_is_bitwise_equal_to_fresh() {
    let f = paper_fixture();
    // Dirty the buffers on a model of a different rank first.
    let other = Fixture::new(120, 5);
    let mut scratch = ProjectionScratch::new();
    let mut out = vec![f64::NAN; 40];
    for probe in other.probes(5, 14).row_iter() {
        other
            .model
            .project_query_into(probe, &mut scratch, &mut out)
            .unwrap();
    }
    assert_ne!(other.model.x_rank(), f.model.x_rank());
    for probe in f.probes(50, 15).row_iter() {
        let reused = f
            .model
            .project_query_into(probe, &mut scratch, &mut out)
            .unwrap();
        let mut fresh_out = Vec::new();
        let fresh = f
            .model
            .project_query_into(probe, &mut ProjectionScratch::new(), &mut fresh_out)
            .unwrap();
        assert_eq!(reused.to_bits(), fresh.to_bits());
        assert_eq!(out.len(), fresh_out.len());
        for (a, b) in out.iter().zip(&fresh_out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
