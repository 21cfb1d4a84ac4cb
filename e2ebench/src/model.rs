//! Set-up, training and offline prediction: the paper's pipeline as a
//! user drives it through the public API of `qpp-workload`,
//! `qpp-engine` and `qpp-core`.

use crate::calib::{Calibration, REFERENCE_S};
use crate::stats::{derive_seed, median, quantile, sorted, tail_quantile};
use crate::trace::Tracer;
use qpp_core::features::query_features;
use qpp_core::{Dataset, KccaPredictor, Prediction, PredictorOptions};
use qpp_engine::SystemConfig;
use qpp_linalg::stats::Standardizer;
use qpp_ml::{fraction_within, predictive_risk, Kcca};
use qpp_obs::{Stage, StageSummary};
use qpp_workload::WorkloadGenerator;
use std::time::Instant;

/// Held-out queries: the closed-loop predict stream and the accuracy set.
pub const HELDOUT: usize = 2000;
/// Distinct queries the serving load cycles through.
pub const TRAFFIC: usize = 2000;
/// Held-out queries per predict slice.
pub const SLICE: usize = 256;
/// Rows per `predict_batch` call.
pub const BATCH: usize = 64;
/// The simulated engine slows down this much when `serve-retrain` drifts.
pub const DRIFT: f64 = 3.0;

/// One executed query set and its query-feature vectors.
pub struct QuerySet {
    pub data: Dataset,
    pub features: Vec<Vec<f64>>,
}

/// Everything a workload runs on, made from its seed.
pub struct Inputs {
    pub train_sets: Vec<Dataset>,
    pub heldout: QuerySet,
    pub traffic: QuerySet,
    pub drifted: Option<QuerySet>,
}

/// Per-query set-up layer costs, from the traced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupLayers {
    pub generate_us: f64,
    pub collect_us: f64,
    pub features_us: f64,
}

fn collect(n: usize, seed: u64, config: &SystemConfig, threads: usize, t: &Tracer) -> Dataset {
    let mut gen = WorkloadGenerator::tpcds(1.0, seed);
    let queries = t.span("workload.generate", 0, 0, |_| gen.generate(n));
    t.span("engine.collect", 0, 0, |_| {
        Dataset::collect(gen.schema(), queries, config, threads)
    })
}

fn query_set(data: Dataset, t: &Tracer) -> QuerySet {
    let kind = PredictorOptions::default().feature_kind;
    let features = t.span("core.features", 0, 0, |_| {
        data.records
            .iter()
            .map(|r| query_features(kind, &r.spec, &r.optimized.plan))
            .collect()
    });
    QuerySet { data, features }
}

/// Generates and executes every query set of a workload. Training,
/// held-out, traffic and drifted queries each come from their own seed.
pub fn setup(
    train_rows: usize,
    train_sets: usize,
    drift: bool,
    seed: u64,
    threads: usize,
    t: &Tracer,
) -> Inputs {
    let stable = SystemConfig::neoview_4();
    let train_sets = (0..train_sets as u64)
        .map(|i| collect(train_rows, derive_seed(seed, 100 + i), &stable, threads, t))
        .collect();
    let heldout = collect(HELDOUT, derive_seed(seed, 1), &stable, threads, t);
    let traffic = collect(TRAFFIC, derive_seed(seed, 2), &stable, threads, t);
    let drifted = drift.then(|| {
        let cfg = stable.clone().with_drift(DRIFT);
        query_set(collect(TRAFFIC, derive_seed(seed, 3), &cfg, threads, t), t)
    });
    Inputs {
        train_sets,
        heldout: query_set(heldout, t),
        traffic: query_set(traffic, t),
        drifted,
    }
}

/// Sums the traced set-up spans into per-query costs.
pub fn setup_layers(spans: &[crate::trace::Span], queries: usize) -> SetupLayers {
    let per_query = |name: &str| {
        let ns: u64 = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns())
            .sum();
        ns as f64 / 1e3 / queries.max(1) as f64
    };
    SetupLayers {
        generate_us: per_query("workload.generate"),
        collect_us: per_query("engine.collect"),
        features_us: per_query("core.features"),
    }
}

/// Where one `KccaPredictor::train` call spent its time, read from the
/// stage spans the program records. The named children plus
/// `unattributed_ms` add up to `total_ms` by construction; the check is
/// that the residual is not negative, i.e. the children fit inside the
/// parent.
#[derive(Debug, Default, Clone, Copy)]
pub struct TrainLedger {
    pub total_ms: f64,
    pub standardize_ms: f64,
    pub kernel_ms: f64,
    pub icd_ms: f64,
    pub reduce_ms: f64,
    pub subspace_ms: f64,
    pub backtransform_ms: f64,
    pub covariance_ms: f64,
    pub index_build_ms: f64,
    pub unattributed_ms: f64,
    pub subspace_iters: f64,
}

fn stage_ms(before: &[StageSummary], after: &[StageSummary], stage: Stage) -> f64 {
    let ns = |s: &[StageSummary]| {
        s.iter()
            .find(|x| x.stage == stage)
            .map_or(0, |x| x.total_ns)
    };
    (ns(after) - ns(before)) as f64 / 1e6
}

impl TrainLedger {
    fn from_stages(total_ms: f64, before: &[StageSummary], after: &[StageSummary]) -> Self {
        let ms = |stage| stage_ms(before, after, stage);
        let eigensolve = ms(Stage::TrainEigensolve);
        let reduce_ms = ms(Stage::TrainEigenReduce);
        let subspace_ms = ms(Stage::TrainEigenSubspace);
        let backtransform_ms = ms(Stage::TrainEigenBacktransform);
        let mut l = TrainLedger {
            total_ms,
            standardize_ms: ms(Stage::TrainStandardize),
            kernel_ms: ms(Stage::TrainKernel),
            icd_ms: ms(Stage::TrainIcd),
            reduce_ms,
            subspace_ms,
            backtransform_ms,
            // The eigensolve stage also wraps centering and the three
            // covariance grams; that remainder is covariance formation.
            covariance_ms: eigensolve - reduce_ms - subspace_ms - backtransform_ms,
            index_build_ms: ms(Stage::TrainKnnBuild),
            ..TrainLedger::default()
        };
        l.unattributed_ms = total_ms - l.children_ms();
        l
    }

    fn children_ms(&self) -> f64 {
        self.standardize_ms
            + self.kernel_ms
            + self.icd_ms
            + self.reduce_ms
            + self.subspace_ms
            + self.backtransform_ms
            + self.covariance_ms
            + self.index_build_ms
    }
}

pub struct Trained {
    pub models: Vec<KccaPredictor>,
    /// Per training, divided by the host's slowness around it.
    pub times_s: Vec<f64>,
    pub raw_times_s: Vec<f64>,
    /// Per training, in the traced run only.
    pub ledgers: Vec<TrainLedger>,
    /// `Kcca::fit` timed from outside on the first training set (traced
    /// run only).
    pub kcca_fit_ms: f64,
}

impl Trained {
    pub fn new() -> Trained {
        Trained {
            models: Vec::new(),
            times_s: Vec::new(),
            raw_times_s: Vec::new(),
            ledgers: Vec::new(),
            kcca_fit_ms: 0.0,
        }
    }

    /// One timed `KccaPredictor::train` call on `set`.
    pub fn train_one(
        &mut self,
        set: &Dataset,
        t: &Tracer,
        cal: &mut Calibration,
    ) -> Result<(), String> {
        let opts = PredictorOptions::default();
        let before = t.enabled().then(|| qpp_obs::recorder().stage_summary());
        let obs_start = qpp_obs::now_ns();
        let ((model, span_id), secs, slowness) = cal.around(|| {
            t.span("core.train", 0, 0, |id| {
                (KccaPredictor::train(set, opts), id)
            })
        });
        let model = model.map_err(|e| format!("training failed: {e}"))?;
        if let Some(before) = before {
            let after = qpp_obs::recorder().stage_summary();
            let mut ledger = TrainLedger::from_stages(secs * 1e3, &before, &after);
            let events = qpp_obs::recorder().export();
            let window = |e: &&qpp_obs::Event| {
                e.kind == qpp_obs::EventKind::Span
                    && e.start_ns >= obs_start
                    && matches!(
                        e.stage,
                        Stage::TrainTotal
                            | Stage::TrainStandardize
                            | Stage::TrainKernel
                            | Stage::TrainIcd
                            | Stage::TrainEigensolve
                            | Stage::TrainEigenReduce
                            | Stage::TrainEigenSubspace
                            | Stage::TrainEigenBacktransform
                            | Stage::TrainKnnBuild
                    )
            };
            let train_events: Vec<&qpp_obs::Event> = events.iter().filter(window).collect();
            // The last subspace span belongs to this training; its value
            // is the power-iteration count.
            ledger.subspace_iters = train_events
                .iter()
                .rev()
                .find(|e| e.stage == Stage::TrainEigenSubspace)
                .map_or(0.0, |e| e.value as f64);
            import_train_events(t, span_id, &train_events);
            self.ledgers.push(ledger);
        }
        self.models.push(model);
        self.times_s.push(secs / slowness);
        self.raw_times_s.push(secs);
        Ok(())
    }
}

/// Imports the newest training's stage spans under the benchmark's
/// `core.train` span, nesting each under the innermost stage span that
/// contains it.
fn import_train_events(t: &Tracer, parent: u64, events: &[&qpp_obs::Event]) {
    let Some(total) = events.iter().rev().find(|e| e.stage == Stage::TrainTotal) else {
        return;
    };
    let (lo, hi) = (total.start_ns, total.start_ns + total.dur_ns);
    let mut inside: Vec<&qpp_obs::Event> = events
        .iter()
        .copied()
        .filter(|e| e.stage != Stage::TrainTotal && e.start_ns >= lo && e.start_ns + e.dur_ns <= hi)
        .collect();
    // Outer spans first, so parents are imported before their children.
    inside.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
    let mut open: Vec<(u64, u64)> = Vec::new(); // (end_ns, tracer id)
    for e in inside {
        while open
            .last()
            .is_some_and(|&(end, _)| end < e.start_ns + e.dur_ns)
        {
            open.pop();
        }
        let p = open.last().map_or(parent, |&(_, id)| id);
        let id = t.import_obs(e, p);
        open.push((e.start_ns + e.dur_ns, id));
    }
}

/// Replays `Kcca::fit` on the first training set's standardized
/// features, timed from outside the call.
pub fn kcca_fit_from_outside(set: &Dataset, t: &Tracer) -> Result<f64, String> {
    let opts = PredictorOptions::default();
    let x_raw = set.feature_matrix(opts.feature_kind);
    let x = Standardizer::fit(&x_raw).transform(&x_raw);
    let y = set.kernel_performance_matrix();
    let t0 = Instant::now();
    let kcca = t.span("ml.kcca_fit", 0, 0, |_| {
        Kcca::fit(x.view(), y.view(), opts.kcca)
    });
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    kcca.map_err(|e| format!("Kcca::fit replay failed: {e}"))?;
    Ok(ms)
}

/// The held-out accuracy figures of one model.
#[derive(Debug, Clone, Copy)]
pub struct Accuracy {
    pub within_20pct: f64,
    /// Predictive risk (1 - SS_res / SS_tot) on ln(1 + elapsed).
    pub log_risk: f64,
    /// The same on raw elapsed seconds, as the paper reports it.
    pub raw_risk: f64,
}

pub fn accuracy(preds: &[Prediction], data: &Dataset) -> Accuracy {
    let predicted: Vec<f64> = preds.iter().map(|p| p.metrics.elapsed_seconds).collect();
    let actual = data.elapsed();
    let ln = |v: &[f64]| v.iter().map(|x| x.ln_1p()).collect::<Vec<f64>>();
    Accuracy {
        within_20pct: fraction_within(&predicted, &actual, 0.2),
        log_risk: predictive_risk(&ln(&predicted), &ln(&actual)),
        raw_risk: predictive_risk(&predicted, &actual),
    }
}

/// Two predictions are the same answer, bit for bit.
pub fn same_bits(a: &Prediction, b: &Prediction) -> bool {
    let bits = |p: &Prediction| {
        p.metrics
            .to_vec()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<u64>>()
    };
    bits(a) == bits(b)
        && a.neighbor_indices == b.neighbor_indices
        && a.confidence_distance.to_bits() == b.confidence_distance.to_bits()
        && a.max_kernel_similarity.to_bits() == b.max_kernel_similarity.to_bits()
}

/// Per-query predict-path costs, from the traced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct PredictLedger {
    pub total_us: f64,
    pub standardize_us: f64,
    pub project_us: f64,
    pub knn_us: f64,
    pub unattributed_us: f64,
    pub allocs_per_predict: f64,
    /// Traced pass minus untraced pass, as a share of the untraced one.
    pub trace_overhead_pct: f64,
}

/// Latency and throughput figures are divided by the host's slowness
/// around each slice (see [`crate::calib`]); `raw_*` are as measured.
pub struct Predicted {
    /// Mean single-query latency over every slice. The host's speed
    /// flips between two levels (about 38 and 56 us per prediction) on
    /// sub-second scales, which makes a median latency jump between
    /// them; a mean moves smoothly with the mix.
    pub mean_us: f64,
    pub raw_mean_us: f64,
    pub raw_batch_qps: f64,
    pub p50_us: f64,
    pub tail_us: f64,
    pub tail_q: f64,
    pub samples: usize,
    pub slices: usize,
    pub batch_qps: f64,
    pub batch_rows: usize,
    pub accuracy: Vec<Accuracy>,
    pub attempted: u64,
    pub failed: u64,
    /// `predict_batch` rows that differ from `predict_features`.
    pub batch_mismatches: u64,
    pub ledger: PredictLedger,
}

/// The offline predict measurement, taken in short slices between the
/// run's other work so that it samples the host across the whole run.
pub struct PredictRun {
    /// `predict_features` answers of the first model, the reference for
    /// every `predict_batch` row.
    reference: Vec<Option<Prediction>>,
    /// Single-query latencies, each divided by its slice's slowness.
    lat_us: Vec<f64>,
    raw_lat_sum_us: f64,
    /// Batch time divided by each slice's slowness.
    batch_s: f64,
    raw_batch_s: f64,
    batch_rows: usize,
    /// Start of the next slice in the held-out set.
    next: usize,
    slices: usize,
    mismatches: u64,
    attempted: u64,
    failed: u64,
}

impl PredictRun {
    pub fn new(model: &KccaPredictor, set: &QuerySet) -> PredictRun {
        // Also warms the thread-local scratch before anything is timed.
        let reference: Vec<Option<Prediction>> = set
            .features
            .iter()
            .map(|f| model.predict_features(f).ok())
            .collect();
        PredictRun {
            failed: reference.iter().filter(|p| p.is_none()).count() as u64,
            attempted: reference.len() as u64,
            reference,
            lat_us: Vec::new(),
            raw_lat_sum_us: 0.0,
            batch_s: 0.0,
            raw_batch_s: 0.0,
            batch_rows: 0,
            next: 0,
            slices: 0,
            mismatches: 0,
        }
    }

    /// The next [`SLICE`] held-out queries, one at a time on this thread
    /// (closed loop), then the same queries in batches of [`BATCH`]
    /// through `predict_batch`, between two calibration samples.
    pub fn slice(&mut self, model: &KccaPredictor, set: &QuerySet, cal: &mut Calibration) {
        let lo = self.next;
        let hi = (lo + SLICE).min(set.features.len());
        self.next = if hi == set.features.len() { 0 } else { hi };
        self.slices += 1;
        let before = cal.sample();
        let mut lat_us = Vec::with_capacity(hi - lo);
        for f in &set.features[lo..hi] {
            let t0 = Instant::now();
            let p = model.predict_features(f);
            lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
            if std::hint::black_box(p).is_err() {
                self.failed += 1;
            }
        }
        self.attempted += (hi - lo) as u64;

        let queries: Vec<_> = set.data.records[lo..hi]
            .iter()
            .map(|r| (&r.spec, &r.optimized.plan))
            .collect();
        let mut batch_s = 0.0;
        for (c, chunk) in queries.chunks(BATCH).enumerate() {
            let t0 = Instant::now();
            let out = model.predict_batch(chunk);
            batch_s += t0.elapsed().as_secs_f64();
            self.batch_rows += chunk.len();
            self.attempted += chunk.len() as u64;
            match out {
                Ok(rows) => {
                    for (i, row) in rows.iter().enumerate() {
                        let same = self.reference[lo + c * BATCH + i]
                            .as_ref()
                            .is_some_and(|r| same_bits(r, row));
                        self.mismatches += u64::from(!same);
                    }
                }
                Err(_) => self.failed += chunk.len() as u64,
            }
        }
        let slowness = (before + cal.sample()) / 2.0 / REFERENCE_S;
        self.raw_lat_sum_us += lat_us.iter().sum::<f64>();
        self.lat_us.extend(lat_us.iter().map(|l| l / slowness));
        self.raw_batch_s += batch_s;
        self.batch_s += batch_s / slowness;
    }

    /// Latency figures, and every model's held-out accuracy.
    pub fn finish(mut self, trained: &Trained, set: &QuerySet, t: &Tracer) -> Predicted {
        let n = set.features.len();
        let lat = sorted(&self.lat_us);
        let tail_q = tail_quantile(lat.len());
        let mut accuracy = Vec::with_capacity(trained.models.len());
        for m in &trained.models {
            self.attempted += n as u64;
            match m.predict_dataset(&set.data) {
                Ok(p) => accuracy.push(self::accuracy(&p, &set.data)),
                Err(_) => self.failed += n as u64,
            }
        }
        let ledger = if t.enabled() {
            predict_ledger(&trained.models[0], set, t)
        } else {
            PredictLedger::default()
        };
        Predicted {
            mean_us: lat.iter().sum::<f64>() / lat.len().max(1) as f64,
            raw_mean_us: self.raw_lat_sum_us / lat.len().max(1) as f64,
            raw_batch_qps: self.batch_rows as f64 / self.raw_batch_s.max(1e-12),
            p50_us: quantile(&lat, 0.5).unwrap_or(0.0),
            tail_us: quantile(&lat, tail_q).unwrap_or(0.0),
            tail_q,
            samples: lat.len(),
            slices: self.slices,
            batch_qps: self.batch_rows as f64 / self.batch_s.max(1e-12),
            batch_rows: self.batch_rows,
            accuracy,
            attempted: self.attempted,
            failed: self.failed,
            batch_mismatches: self.mismatches,
            ledger,
        }
    }
}

/// One untraced and one traced pass over the held-out features. The
/// traced pass wraps each `predict_features` call in a span and reads
/// the program's own predict stage spans for its children.
fn predict_ledger(model: &KccaPredictor, set: &QuerySet, t: &Tracer) -> PredictLedger {
    let n = set.features.len() as f64;
    let allocs0 = crate::ALLOC.allocations();
    let t0 = Instant::now();
    for f in &set.features {
        let _ = std::hint::black_box(model.predict_features(f));
    }
    let untraced_s = t0.elapsed().as_secs_f64();
    let allocs = (crate::ALLOC.allocations() - allocs0) as f64 / n;

    let rec = qpp_obs::recorder();
    let before = rec.stage_summary();
    let first_obs_ns = qpp_obs::now_ns();
    let t0 = Instant::now();
    let ids: Vec<(u64, u64, u64)> = set
        .features
        .iter()
        .map(|f| {
            let start = t.now_ns();
            let id = t.span("core.predict_features", 0, 0, |id| {
                let _ = std::hint::black_box(model.predict_features(f));
                id
            });
            (start, t.now_ns(), id)
        })
        .collect();
    let traced_s = t0.elapsed().as_secs_f64();
    let after = rec.stage_summary();
    let us = |stage| stage_ms(&before, &after, stage) * 1e3 / n;
    let total_us = traced_s * 1e6 / n;
    let standardize_us = us(Stage::PredictStandardize);
    let project_us = us(Stage::PredictProject);
    let knn_us = us(Stage::PredictKnn);

    // Nest the program's predict spans under the call that made them.
    for e in rec.export().iter().filter(|e| {
        e.start_ns >= first_obs_ns
            && matches!(
                e.stage,
                Stage::PredictStandardize | Stage::PredictProject | Stage::PredictKnn
            )
    }) {
        let start = (e.start_ns as i128 - t.to_obs_ns(0) as i128).max(0) as u64;
        let at = ids.partition_point(|&(s, _, _)| s <= start);
        if let Some(&(s, end, id)) = at.checked_sub(1).and_then(|i| ids.get(i)) {
            if start >= s && start <= end {
                t.import_obs(e, id);
            }
        }
    }
    PredictLedger {
        total_us,
        standardize_us,
        project_us,
        knn_us,
        unattributed_us: total_us - standardize_us - project_us - knn_us,
        allocs_per_predict: allocs,
        trace_overhead_pct: (traced_s - untraced_s) / untraced_s * 100.0,
    }
}

/// Median of a per-model accuracy field.
pub fn median_of(acc: &[Accuracy], f: impl Fn(&Accuracy) -> f64) -> f64 {
    median(&acc.iter().map(f).collect::<Vec<f64>>()).unwrap_or(0.0)
}
