//! End-to-end benchmark of the qpp workspace: the paper's train-then-
//! predict pipeline at paper scale and at 20k queries, open-loop
//! multi-tenant serving, and drift-triggered retraining under load.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload paper-1k --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with the benchmark's own spans around each call into a
//! workspace crate and prints the per-layer metrics instead. End-to-end
//! timings are divided by the host's measured slowness (`calib.rs`);
//! serving figures are layer metrics only, because host stalls decide
//! them on a shared 2-CPU virtual machine. The last line of standard
//! output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Details (machine stamp, every ladder rung, the checks) go to
//! `e2ebench/results/`, with the span JSONL of a traced run beside them.
//! Any failed correctness check makes the exit code non-zero.

mod calib;
mod env;
mod ladder;
mod model;
mod serve;
mod stats;
mod trace;

use calib::Calibration;
use counting_alloc::CountingAllocator;
use env::{escape, Stamp, GENERATOR_THREADS};
use model::{Inputs, PredictRun, Predicted, Trained};
use serve::{Episode, LadderResult, Mix, Oracle};
use stats::median;

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

use trace::Tracer;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// One named workload. Its `why` lives in `BENCHMARK.json`.
struct Workload {
    name: &'static str,
    train_rows: usize,
    /// Training sets, each trained once; `train_s` is their mean. The
    /// solve's iteration count, and so its time, varies by training set
    /// by up to 2x at paper scale, so one set would make a noisy figure.
    train_sets: usize,
    /// Set-up repetitions; `setup_s` is their median.
    setup_reps: usize,
    mix: Mix,
    drift: bool,
}

/// The measured phase is split into rounds, and every measurement takes
/// a part of each, so each figure averages over the whole run: the
/// host's speed drifts by a fifth or more over seconds.
const ROUNDS: usize = 6;

/// Training-set size of the paper's Experiment 1.
const PAPER_ROWS: usize = 1027;

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper-1k",
        train_rows: PAPER_ROWS,
        train_sets: 12,
        setup_reps: 3,
        mix: Mix::Single,
        drift: false,
    },
    Workload {
        name: "large-20k",
        train_rows: 20_000,
        train_sets: 2,
        setup_reps: 3,
        mix: Mix::Single,
        drift: false,
    },
    Workload {
        name: "serve-mixed",
        train_rows: PAPER_ROWS,
        train_sets: 12,
        setup_reps: 3,
        mix: Mix::Weighted,
        drift: false,
    },
    Workload {
        name: "serve-retrain",
        train_rows: PAPER_ROWS,
        train_sets: 12,
        setup_reps: 3,
        mix: Mix::Weighted,
        drift: true,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must be within 1..=600".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The measured phase of one run.
struct Measured {
    /// Per set-up, divided by the host's slowness around it.
    setup_s: Vec<f64>,
    raw_setup_s: Vec<f64>,
    host_factor: f64,
    calibration_samples: usize,
    trained: Trained,
    predicted: Predicted,
    ladder: LadderResult,
    episode: Option<Episode>,
    setup_layers: model::SetupLayers,
    queries_per_setup: usize,
}

fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    t: &Tracer,
    threads: usize,
) -> Result<Measured, String> {
    let mut cal = Calibration::new();
    let mut setup_s = Vec::with_capacity(w.setup_reps);
    let mut raw_setup_s = Vec::with_capacity(w.setup_reps);
    let mut inputs: Option<Inputs> = None;
    for _ in 0..w.setup_reps {
        drop(inputs.take());
        let (made, secs, slowness) =
            cal.around(|| model::setup(w.train_rows, w.train_sets, w.drift, seed, threads, t));
        inputs = Some(made);
        setup_s.push(secs / slowness);
        raw_setup_s.push(secs);
    }
    let inputs = inputs.ok_or("no set-up ran")?;
    let queries_per_setup =
        w.train_rows * w.train_sets + model::HELDOUT + model::TRAFFIC * if w.drift { 2 } else { 1 };
    let setup_layers = model::setup_layers(&t.snapshot(), queries_per_setup * w.setup_reps);

    // Model 0 serves; the other trainings are spread over the rounds.
    let mut trained = Trained::new();
    trained.train_one(&inputs.train_sets[0], t, &mut cal)?;
    let (registry, key) = serve::install(trained.models[0].clone(), &inputs.train_sets[0])?;
    let mut predict = PredictRun::new(&trained.models[0], &inputs.heldout);
    let mut oracle = Oracle::default();
    let mut ladder = serve::Ladder::new(
        &registry,
        &key,
        &inputs.traffic,
        w.mix,
        threads,
        seed,
        seconds / 100.0,
        seconds / 50.0,
    );
    let k = inputs.train_sets.len();
    let heldout = &inputs.heldout;
    for round in 0..ROUNDS {
        for i in (1..k).filter(|i| i * ROUNDS / k == round) {
            trained.train_one(&inputs.train_sets[i], t, &mut cal)?;
            predict.slice(&trained.models[0], heldout, &mut cal);
        }
        let model = &trained.models[0];
        ladder.round(&mut oracle, t, &mut || {
            predict.slice(model, heldout, &mut cal)
        });
    }
    if t.enabled() {
        trained.kcca_fit_ms = model::kcca_fit_from_outside(&inputs.train_sets[0], t)?;
    }
    let predicted = predict.finish(&trained, &inputs.heldout, t);
    let ladder = ladder.finish();
    let episode = match &inputs.drifted {
        Some(drifted) => Some(serve::retrain_episode(
            &registry,
            &key,
            &inputs.train_sets[0],
            &inputs.traffic,
            drifted,
            threads,
            seed,
            seconds * 0.06,
            seconds * 0.05,
            seconds * 0.6,
            &mut oracle,
            t,
        )),
        None => None,
    };
    Ok(Measured {
        setup_s,
        raw_setup_s,
        host_factor: cal.factor(),
        calibration_samples: cal.samples.len(),
        trained,
        predicted,
        ladder,
        episode,
        setup_layers,
        queries_per_setup,
    })
}

/// The end-to-end metrics, each never zero on a healthy run.
fn end_to_end(r: &Measured) -> Vec<Metric> {
    let p = &r.predicted;
    vec![
        m("setup_s", median(&r.setup_s).unwrap_or(0.0), "s"),
        m("train_s", mean(&r.trained.times_s), "s"),
        m("predict_mean_us", p.mean_us, "us"),
        m("predict_p99_us", p.tail_us, "us"),
        m("predict_batch_qps", p.batch_qps, "1/s"),
        m(
            "elapsed_within_20pct",
            model::median_of(&p.accuracy, |a| a.within_20pct),
            "ratio",
        ),
        m(
            "elapsed_log_risk",
            model::median_of(&p.accuracy, |a| a.log_risk),
            "ratio",
        ),
        m("peak_rss_mb", env::peak_rss_mb().unwrap_or(0.0), "MiB"),
    ]
}

/// Serving-layer figures of the workload: the retrain episode where
/// there is one, else the reference rate of the ladder.
fn serve_latency(r: &Measured) -> (serve::Latency, &serve::ServeLayers) {
    match &r.episode {
        Some(e) => (e.latency, &e.layers),
        None => (r.ladder.reference_latency, &r.ladder.reference),
    }
}

fn per_layer(r: &Measured) -> Vec<Metric> {
    let tr = &r.trained;
    // The ledger of the training whose time is the median one.
    let mut order: Vec<usize> = (0..tr.times_s.len()).collect();
    order.sort_by(|&a, &b| tr.times_s[a].total_cmp(&tr.times_s[b]));
    let mid = order[(order.len() - 1) / 2];
    let l = tr.ledgers.get(mid).copied().unwrap_or_default();
    let model0 = &tr.models[0];
    let corr = model0.correlations();
    let pl = &r.predicted.ledger;
    let (_, s) = serve_latency(r);
    let e = r.episode.as_ref();
    let su = &r.setup_layers;
    let mut out = vec![
        m("workload.generate_us", su.generate_us, "us"),
        m("engine.collect_us", su.collect_us, "us"),
        m("core.features_us", su.features_us, "us"),
        m("train.total_ms", l.total_ms, "ms"),
        m("linalg.standardize_ms", l.standardize_ms, "ms"),
        m("ml.kernel_ms", l.kernel_ms, "ms"),
        m("linalg.icd_ms", l.icd_ms, "ms"),
        m("linalg.eigen_reduce_ms", l.reduce_ms, "ms"),
        m("linalg.eigen_subspace_ms", l.subspace_ms, "ms"),
        m("linalg.eigen_backtransform_ms", l.backtransform_ms, "ms"),
        m("ml.cca_covariance_ms", l.covariance_ms, "ms"),
        m("ml.index_build_ms", l.index_build_ms, "ms"),
        m("train.unattributed_ms", l.unattributed_ms, "ms"),
        m("ml.kcca_fit_ms", tr.kcca_fit_ms, "ms"),
        m("linalg.eigen_subspace_iters", l.subspace_iters, "count"),
        m("ml.icd_rank", model0.kcca().x_rank() as f64, "count"),
        m(
            "ml.corr_min",
            corr.iter().copied().fold(f64::INFINITY, f64::min),
            "ratio",
        ),
        m(
            "ml.corr_max",
            corr.iter().copied().fold(0.0, f64::max),
            "ratio",
        ),
        m(
            "ml.elapsed_risk_raw",
            model::median_of(&r.predicted.accuracy, |a| a.raw_risk),
            "ratio",
        ),
        m("core.predict_us", pl.total_us, "us"),
        m("linalg.standardize_row_us", pl.standardize_us, "us"),
        m("ml.project_us", pl.project_us, "us"),
        m("ml.knn_us", pl.knn_us, "us"),
        m("core.predict_unattributed_us", pl.unattributed_us, "us"),
        m("core.allocs_per_predict", pl.allocs_per_predict, "count"),
        m("serve.p50_us", serve_latency(r).0.p50_us, "us"),
        m("serve.p95_us", serve_latency(r).0.p95_us, "us"),
        m("serve.p99_us", serve_latency(r).0.p99_us, "us"),
        m("core.predict_p50_us", r.predicted.p50_us, "us"),
        m("serve.admit_p50_us", s.admit_p50_us, "us"),
        m("serve.admit_p99_us", s.admit_p99_us, "us"),
        m("serve.queue_wait_p50_us", s.queue_wait_p50_us, "us"),
        m("serve.queue_wait_p99_us", s.queue_wait_p99_us, "us"),
        m("serve.worker_us", s.worker_us, "us"),
        m("serve.batch_mean", s.batch_mean, "count"),
        m("serve.max_queue_depth", s.max_queue_depth, "count"),
        m("serve.rejected", s.rejected, "count"),
        m("serve.fallbacks", s.fallbacks, "count"),
        m("serve.late_answers", s.late_answers, "count"),
        m("serve.fail_ratio", s.fail_ratio, "ratio"),
    ];
    for (i, (_, name, _)) in serve::TENANTS.iter().enumerate() {
        out.push(m(
            format!("serve.tenant_p99_us.{name}"),
            s.tenant_p99_us[i],
            "us",
        ));
    }
    out.extend([
        m("serve.max_rps", r.ladder.max_rps, "1/s"),
        m("serve.fairness_err", r.ladder.fairness_err, "ratio"),
        m("adapt.retrain_ms", e.map_or(0.0, |e| e.retrain_ms), "ms"),
        m(
            "adapt.shadow_score_ms",
            e.map_or(0.0, |e| e.shadow_score_ms),
            "ms",
        ),
        m(
            "adapt.drift_signals",
            e.map_or(0.0, |e| e.drift_signals as f64),
            "count",
        ),
        m(
            "adapt.canary_swaps",
            e.map_or(0.0, |e| e.canary_swaps as f64),
            "count",
        ),
        m(
            "adapt.demotions",
            e.map_or(0.0, |e| e.demotions as f64),
            "count",
        ),
        m("adapt.observe_us", e.map_or(0.0, |e| e.observe_us), "us"),
        m(
            "adapt.drift_to_swap_s",
            e.and_then(|e| e.drift_to_swap_s).unwrap_or(0.0),
            "s",
        ),
        m("bench.gen_late_p99_us", s.gen_late_p99_us, "us"),
        m("bench.host_factor", r.host_factor, "ratio"),
        m("bench.trace_overhead_pct", pl.trace_overhead_pct, "pct"),
    ]);
    out
}

/// Every correctness check; each failure is one line.
fn checks(r: &Measured, traced: bool, e2e: &[Metric]) -> Vec<String> {
    let mut failed = Vec::new();
    let p = &r.predicted;
    if p.batch_mismatches > 0 {
        failed.push(format!(
            "{} predict_batch rows differ from predict_features",
            p.batch_mismatches
        ));
    }
    let mut served = r.ladder.checked;
    if let Some(e) = &r.episode {
        served.not_exactly_once += e.checked.not_exactly_once;
        served.mismatches += e.checked.mismatches;
        served.unknown_versions += e.checked.unknown_versions;
        if e.canary_swaps == 0 || e.drift_to_swap_s.is_none() {
            failed.push("serve-retrain ended without a canary swap after the drift".into());
        }
        if e.demotions > 0 {
            failed.push(format!("serve-retrain demoted {} model(s)", e.demotions));
        }
        if e.post_swap_err >= e.drifted_err {
            failed.push(format!(
                "post-swap error {:.4} is not below the drifted error {:.4}",
                e.post_swap_err, e.drifted_err
            ));
        }
    }
    if served.not_exactly_once > 0 {
        failed.push(format!(
            "{} accepted request(s) not answered exactly once",
            served.not_exactly_once
        ));
    }
    if served.mismatches > 0 {
        failed.push(format!(
            "{} served answer(s) differ from the offline answer of their model version",
            served.mismatches
        ));
    }
    if served.unknown_versions > 0 {
        failed.push(format!(
            "{} served answer(s) came from a model version that could not be checked",
            served.unknown_versions
        ));
    }
    if traced {
        let l = r.trained.ledgers.iter();
        for (i, l) in l.enumerate() {
            if l.unattributed_ms < -0.01 * l.total_ms {
                failed.push(format!(
                    "training {i}: stage spans ({:.3} ms) exceed the train call ({:.3} ms)",
                    l.total_ms - l.unattributed_ms,
                    l.total_ms
                ));
            }
        }
        let pl = &p.ledger;
        if pl.unattributed_us < -0.01 * pl.total_us {
            failed.push(format!(
                "predict stage spans ({:.3} us) exceed the predict call ({:.3} us)",
                pl.total_us - pl.unattributed_us,
                pl.total_us
            ));
        }
    } else {
        for metric in e2e {
            if !(metric.value.is_finite() && metric.value > 0.0) {
                failed.push(format!(
                    "measurement failed: {} is {}",
                    metric.name, metric.value
                ));
            }
        }
    }
    failed
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn details_json(
    args: &Args,
    stamp: &Stamp,
    r: &Measured,
    metrics: &str,
    failed: &[String],
) -> String {
    let rungs: Vec<String> = r
        .ladder
        .rungs
        .iter()
        .map(|(round, g)| {
            format!(
                "{{\"round\": {round}, \"rate\": {}, \"sent\": {}, \"failed\": {}, \"p50_us\": {}, \"tail_us\": {}, \"sender_late_p95_us\": {}, \"max_depth_sampled\": {}, \"tenant_answered_share\": {}, \"verdict\": \"{}\"}}",
                g.outcome.rate,
                g.outcome.sent,
                g.outcome.failures.total(),
                g.p50_us,
                g.outcome.tail_us,
                g.outcome.sender_late_us,
                g.outcome.depth_samples.iter().max().copied().unwrap_or(0),
                serve::shares_json(&g.answered_share),
                g.verdict.label()
            )
        })
        .collect();
    let episode = r.episode.as_ref().map_or("null".to_string(), |e| {
        format!(
            "{{\"stable_err\": {}, \"drifted_err\": {}, \"post_swap_err\": {}, \"drift_to_swap_s\": {}, \"canary_swaps\": {}, \"swaps_before_drift\": {}, \"demotions\": {}, \"sent\": {}, \"failed\": {}}}",
            e.stable_err,
            e.drifted_err,
            e.post_swap_err,
            e.drift_to_swap_s.unwrap_or(-1.0),
            e.canary_swaps,
            e.swaps_before_drift,
            e.demotions,
            e.attempted,
            e.failed
        )
    });
    let checks: Vec<String> = failed
        .iter()
        .map(|f| format!("\"{}\"", escape(f)))
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"stamp\": {}, \"host_factor\": {}, \"calibration_samples\": {}, \"setup_s\": {:?}, \"raw_setup_s\": {:?}, \"train_s\": {:?}, \"raw_train_s\": {:?}, \"raw_predict_mean_us\": {}, \"raw_predict_batch_qps\": {}, \"predict_samples\": {}, \"predict_tail_quantile\": {}, \"batch_rows\": {}, \"queries_per_setup\": {}, \"latency_limit_us\": {}, \"fail_ratio_limit\": {}, \"reference_rps\": {}, \"predict_slices\": {}, \"round_max_rps\": {:?}, \"reference_chunk_p50_us\": {:?}, \"reference_chunk_p95_us\": {:?}, \"rungs\": [{}], \"episode\": {}, \"failed_checks\": [{}], \"metrics\": {}}}\n",
        args.workload.name,
        args.seed,
        args.seconds,
        args.trace,
        stamp.to_json(),
        r.host_factor,
        r.calibration_samples,
        r.setup_s,
        r.raw_setup_s,
        r.trained.times_s,
        r.trained.raw_times_s,
        r.predicted.raw_mean_us,
        r.predicted.raw_batch_qps,
        r.predicted.samples,
        r.predicted.tail_q,
        r.predicted.batch_rows,
        r.queries_per_setup,
        serve::LIMITS.tail_us,
        serve::LIMITS.fail_ratio,
        serve::REFERENCE_RPS,
        r.predicted.slices,
        r.ladder.round_max_rps,
        r.ladder.reference_chunks.iter().map(|l| l.p50_us).collect::<Vec<f64>>(),
        r.ladder.reference_chunks.iter().map(|l| l.p95_us).collect::<Vec<f64>>(),
        rungs.join(", "),
        episode,
        checks.join(", "),
        metrics
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let stamp = Stamp::collect();
    if GENERATOR_THREADS > stamp.nproc {
        eprintln!(
            "e2ebench: refusing to run: the load generator needs {GENERATOR_THREADS} threads but only {} CPU(s) are available",
            stamp.nproc
        );
        std::process::exit(3);
    }
    eprintln!(
        "e2ebench: {} seed {} ({}s, trace {}) on {}",
        args.workload.name,
        args.seed,
        args.seconds,
        args.trace,
        stamp.to_json()
    );
    let tracer = Tracer::new(args.trace);
    let r = match run(args.workload, args.seed, args.seconds, &tracer, stamp.nproc) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: run failed: {e}");
            std::process::exit(1);
        }
    };
    let e2e = end_to_end(&r);
    let failed = checks(&r, args.trace, &e2e);
    let metrics = if args.trace { per_layer(&r) } else { e2e };
    for x in &metrics {
        println!("{:<32} {:>16.4} {}", x.name, x.value, x.unit);
    }
    for f in &failed {
        println!("CHECK FAILED: {f}");
    }
    let metrics_json = metrics_json(&metrics);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&dir).and_then(|_| {
        std::fs::write(
            dir.join(format!("{stem}.json")),
            details_json(&args, &stamp, &r, &metrics_json, &failed),
        )?;
        if args.trace {
            std::fs::write(
                dir.join(format!("{stem}.spans.jsonl")),
                trace::to_jsonl(&tracer.take()),
            )?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!(
            "e2ebench: could not write results to {}: {e}",
            dir.display()
        );
    }
    let (attempted, fails) = attempted_failed(&r);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed.is_empty(),
        attempted,
        fails,
        metrics_json
    );
    if !failed.is_empty() {
        std::process::exit(1);
    }
}

/// Operations the workload expects to succeed: trainings, predictions,
/// and serving requests at or below the reference rate (rungs above it
/// probe capacity, where shedding load is the expected answer).
fn attempted_failed(r: &Measured) -> (u64, u64) {
    let mut attempted = r.trained.times_s.len() as u64 + r.predicted.attempted + r.ladder.attempted;
    let mut failed = r.predicted.failed + r.ladder.failed;
    if let Some(e) = &r.episode {
        attempted += e.attempted;
        failed += e.failed;
    }
    (attempted, failed)
}
