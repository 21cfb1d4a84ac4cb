//! Open-loop serving load through `qpp-serve`, and the drift/retrain
//! episode through `qpp-adapt`.
//!
//! One sender (the calling thread) submits requests on a seeded Poisson
//! schedule with `submit_async`; one collector thread waits for the
//! answers. Each request is timed from when it was due, not from when
//! it was sent, so a stall in the sender or the service is charged to
//! every request it delays.

use crate::ladder::{judge, keep_climbing, max_sustained, Failures, Limits, RungOutcome, Verdict};
use crate::model::{same_bits, QuerySet};
use crate::stats::{quantile, sorted, tail_quantile, SplitMix};
use crate::trace::Tracer;
use qpp_adapt::{AdaptOptions, AdaptWorker, AdaptiveController, DriftConfig, Phase};
use qpp_core::baselines::OptimizerCostModel;
use qpp_core::retrain::SlidingWindowPredictor;
use qpp_core::{Dataset, KccaPredictor, Prediction, PredictorOptions, QppError, QueryRecord};
use qpp_serve::{
    AnswerSource, CompletionObserver, ModelEntry, ModelKey, ModelRegistry, PendingPrediction,
    PredictRequest, PredictionService, ServeOptions, ServeResponse, StatsSnapshot, TenantId,
    TenantSpec,
};
use std::collections::{HashMap, HashSet};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Tenants of the mixed workloads: id, name, fair-share weight. Their
/// traffic is split in the same 3:2:1 proportion.
pub const TENANTS: [(u32, &str, u32); 3] =
    [(1, "interactive", 3), (2, "reporting", 2), (3, "batch", 1)];

/// Every request's deadline; past it the client answers from the
/// optimizer-cost fallback, which counts as a failure.
pub const DEADLINE: Duration = Duration::from_millis(100);

/// What a rung must meet to count as sustained.
pub const LIMITS: Limits = Limits {
    tail_us: 20_000.0,
    fail_ratio: 0.001,
    sender_late_us: 5_000.0,
    backlog_growth: 16.0,
};

/// Rates the ladder climbs, requests per second, besides
/// [`REFERENCE_RPS`]: about 8% apart above it, so that a shift of one
/// rung moves the sustained rate by less than a tenth.
pub const LADDER: [f64; 21] = [
    1_000.0, 6_000.0, 7_000.0, 8_000.0, 9_000.0, 10_000.0, 11_000.0, 12_000.0, 13_000.0, 14_000.0,
    15_000.0, 16_000.0, 17_500.0, 19_000.0, 20_500.0, 22_000.0, 24_000.0, 26_000.0, 28_000.0,
    30_000.0, 32_500.0,
];

/// The rate at which serving latency is reported, below the knee. The
/// retrain episode runs at this rate too.
pub const REFERENCE_RPS: f64 = 4_000.0;

/// Serving latency from due time.
#[derive(Debug, Default, Clone, Copy)]
pub struct Latency {
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
}

impl Latency {
    fn of(sorted: &[f64]) -> Latency {
        let at = |q| quantile(sorted, q).unwrap_or(0.0);
        Latency {
            p50_us: at(0.5),
            p95_us: at(0.95),
            p99_us: at(0.99),
        }
    }
}

/// How often the sender samples the service's queue depth.
const DEPTH_SAMPLE_NS: u64 = 50_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// All traffic from the first tenant.
    Single,
    /// Traffic split over [`TENANTS`] by weight.
    Weighted,
}

impl Mix {
    fn pick(self, rng: &mut SplitMix) -> usize {
        match self {
            Mix::Single => 0,
            Mix::Weighted => match rng.next_u64() % 6 {
                0..=2 => 0,
                3..=4 => 1,
                _ => 2,
            },
        }
    }
}

fn start_service(registry: &Arc<ModelRegistry>, workers: usize) -> PredictionService {
    PredictionService::start(
        Arc::clone(registry),
        ServeOptions {
            workers,
            tenants: TENANTS
                .iter()
                .map(|&(id, name, w)| TenantSpec::new(TenantId(id), name).weight(w))
                .collect(),
            ..ServeOptions::default()
        },
    )
}

/// Installs `model`, with a cost-model fallback trained on the same
/// queries, as the serving model; returns the registry and its key.
pub fn install(
    model: KccaPredictor,
    train: &Dataset,
) -> Result<(Arc<ModelRegistry>, ModelKey), String> {
    let fallback = OptimizerCostModel::train(train).map_err(|e| format!("fallback model: {e}"))?;
    let key = ModelKey::new(train.config.name.clone(), model.options().feature_kind);
    let registry = Arc::new(ModelRegistry::new());
    registry.install(key.clone(), model, fallback);
    Ok((registry, key))
}

#[derive(Debug, Clone, Copy)]
struct Sent {
    idx: u32,
    drifted: bool,
    tenant: u8,
    due_ns: u64,
    admitted_ns: u64,
    trace_id: u64,
}

#[derive(Debug)]
pub struct Answer {
    sent: Sent,
    /// From due time to the answer, microseconds.
    pub latency_us: f64,
    pub source: AnswerSource,
    pub version: u64,
    pub prediction: Prediction,
}

/// Everything one stretch of open-loop load measured. Due times count
/// from the start of the stretch's schedule.
#[derive(Default)]
pub struct Driven {
    pub answers: Vec<Answer>,
    pub failures: Failures,
    /// Due time and tenant of each request refused at admission.
    refused: Vec<(u64, u8)>,
    pub sent: u64,
    pub accepted: u64,
    pub late_us: Vec<f64>,
    pub admit_us: Vec<f64>,
    pub observe_us: Vec<f64>,
    pub depth_samples: Vec<usize>,
    pub first_trace: u64,
    pub last_trace: u64,
    /// Trace ids answered more than once.
    pub duplicates: u64,
}

impl Driven {
    /// (due time, latency from due time, tenant) of every request sent.
    /// A failed request counts as missing any limit: it takes at least
    /// the [`DEADLINE`].
    fn samples(&self) -> impl Iterator<Item = (u64, f64, u8)> + '_ {
        let miss = DEADLINE.as_secs_f64() * 1e6;
        let answered = self.answers.iter().map(move |a| {
            let lat = if a.source == AnswerSource::Kcca {
                a.latency_us
            } else {
                a.latency_us.max(miss)
            };
            (a.sent.due_ns, lat, a.sent.tenant)
        });
        let refused = self
            .refused
            .iter()
            .map(move |&(due, tenant)| (due, miss, tenant));
        answered.chain(refused)
    }

    /// Appends another stretch at the same rate.
    fn absorb(&mut self, o: Driven) {
        self.answers.extend(o.answers);
        let f = &mut self.failures;
        f.queue_full += o.failures.queue_full;
        f.quota += o.failures.quota;
        f.deadline_fallbacks += o.failures.deadline_fallbacks;
        f.errors += o.failures.errors;
        f.unanswered += o.failures.unanswered;
        self.refused.extend(o.refused);
        self.sent += o.sent;
        self.accepted += o.accepted;
        self.late_us.extend(o.late_us);
        self.admit_us.extend(o.admit_us);
        self.observe_us.extend(o.observe_us);
        self.depth_samples.extend(o.depth_samples);
        self.first_trace = self.first_trace.min(o.first_trace);
        self.last_trace = self.last_trace.max(o.last_trace);
        self.duplicates += o.duplicates;
    }

    /// Sorted latencies of the requests `keep` selects by due time and
    /// tenant.
    pub fn latencies(&self, keep: impl Fn(u64, u8) -> bool) -> Vec<f64> {
        let v: Vec<f64> = self
            .samples()
            .filter(|&(due, _, tenant)| keep(due, tenant))
            .map(|(_, lat, _)| lat)
            .collect();
        sorted(&v)
    }
}

struct Observer(Arc<AdaptiveController>);

impl CompletionObserver for Observer {
    fn on_completion(&self, record: &QueryRecord, response: &ServeResponse) {
        let _ = self.0.observe(record, response);
    }
}

/// Drives open-loop Poisson load at `rate` into `svc`. Before each
/// request, `control(due_ns)` says whether to send it from the stable
/// (`Some(false)`) or drifted (`Some(true)`) set, or to stop (`None`).
/// `traced` records a span per request in `t`.
#[allow(clippy::too_many_arguments)]
fn drive(
    svc: &PredictionService,
    key: &ModelKey,
    sets: [&QuerySet; 2],
    mix: Mix,
    rate: f64,
    seed: u64,
    observe: bool,
    traced: bool,
    t: &Tracer,
    mut control: impl FnMut(u64) -> Option<bool>,
) -> Driven {
    // Per-request spans only where the layer figures come from.
    let quiet = Tracer::new(false);
    let t = if traced { t } else { &quiet };
    let (tx, rx) = mpsc::channel::<(Sent, PendingPrediction)>();
    std::thread::scope(|scope| {
        let collector = scope.spawn(|| collect(rx, svc, sets, observe, t));
        let mut rng = SplitMix::new(seed);
        let mut failures = Failures::default();
        let mut refused = Vec::new();
        let mut late_us = Vec::new();
        let mut admit_us = Vec::new();
        let mut depth_samples = Vec::new();
        let (mut sent, mut accepted) = (0u64, 0u64);
        let (mut first_trace, mut last_trace) = (u64::MAX, 0u64);
        let start = t.now_ns() + 1_000_000;
        let mut due = start;
        let mut next_depth = start;
        loop {
            due += rng.exp_gap_ns(rate);
            let Some(drifted) = control(due - start) else {
                break;
            };
            let set = sets[usize::from(drifted)];
            let idx = (rng.next_u64() % set.data.records.len() as u64) as usize;
            let tenant = mix.pick(&mut rng);
            let record = &set.data.records[idx];
            let request = PredictRequest {
                key: key.clone(),
                tenant: TenantId(TENANTS[tenant].0),
                spec: record.spec.clone(),
                plan: record.optimized.plan.clone(),
                deadline: DEADLINE,
            };
            // Spin, yielding to any runnable thread. On a virtual CPU a
            // sleep of even 100 us can overshoot by milliseconds when
            // the host is busy, which would make the sender, not the
            // service, the source of latency.
            let mut now = t.now_ns();
            while now < due {
                std::thread::yield_now();
                now = t.now_ns();
            }
            if now >= next_depth {
                depth_samples.push(svc.stats().queue_depth);
                next_depth += DEPTH_SAMPLE_NS;
                now = t.now_ns();
            }
            late_us.push((now - due) as f64 / 1e3);
            let result = svc.submit_async(request);
            let admitted_ns = t.now_ns();
            admit_us.push((admitted_ns - now) as f64 / 1e3);
            sent += 1;
            match result {
                Ok(pending) => {
                    accepted += 1;
                    let trace_id = pending.trace_id();
                    first_trace = first_trace.min(trace_id);
                    last_trace = last_trace.max(trace_id);
                    t.record("serve.admit", 0, trace_id, now, admitted_ns);
                    let s = Sent {
                        idx: idx as u32,
                        drifted,
                        tenant: tenant as u8,
                        due_ns: due,
                        admitted_ns,
                        trace_id,
                    };
                    if tx.send((s, pending)).is_err() {
                        // The collector is gone; joining it reports why.
                        break;
                    }
                }
                Err(e) => {
                    refused.push((due - start, tenant as u8));
                    match e {
                        QppError::QueueFull { .. } => failures.queue_full += 1,
                        QppError::TenantQuotaExceeded { .. } => failures.quota += 1,
                        _ => failures.errors += 1,
                    }
                }
            }
        }
        drop(tx);
        let (mut answers, errors, observe_us, duplicates) =
            collector.join().expect("collector thread panicked");
        for a in &mut answers {
            a.sent.due_ns -= start;
        }
        failures.errors += errors;
        let answered = answers.len() as u64 + errors;
        failures.unanswered = accepted.saturating_sub(answered);
        for a in &answers {
            if a.source != AnswerSource::Kcca {
                failures.deadline_fallbacks += 1;
            }
        }
        Driven {
            answers,
            failures,
            refused,
            sent,
            accepted,
            late_us,
            admit_us,
            observe_us,
            depth_samples,
            first_trace: first_trace.min(last_trace),
            last_trace,
            duplicates,
        }
    })
}

type Collected = (Vec<Answer>, u64, Vec<f64>, u64);

fn collect(
    rx: mpsc::Receiver<(Sent, PendingPrediction)>,
    svc: &PredictionService,
    sets: [&QuerySet; 2],
    observe: bool,
    t: &Tracer,
) -> Collected {
    let mut answers = Vec::new();
    let mut errors = 0u64;
    let mut observe_us = Vec::new();
    let mut seen = HashSet::new();
    let mut duplicates = 0u64;
    for (sent, pending) in rx {
        let response = match pending.wait() {
            Ok(r) => r,
            Err(_) => {
                errors += 1;
                continue;
            }
        };
        if !seen.insert(response.trace_id) || response.trace_id != sent.trace_id {
            duplicates += 1;
        }
        // The answer left the worker `latency` after it was enqueued,
        // which happened before `admitted_ns`: charging from admission
        // end errs by the tail of the admission call at most.
        let latency_us =
            (sent.admitted_ns - sent.due_ns) as f64 / 1e3 + response.latency.as_secs_f64() * 1e6;
        if t.enabled() {
            t.record(
                "serve.request",
                0,
                sent.trace_id,
                sent.due_ns,
                sent.due_ns + (latency_us * 1e3) as u64,
            );
        }
        if observe {
            let record = &sets[usize::from(sent.drifted)].data.records[sent.idx as usize];
            if t.enabled() {
                let t0 = t.now_ns();
                svc.observe_completion(record, &response);
                let t1 = t.now_ns();
                t.record("adapt.observe", 0, sent.trace_id, t0, t1);
                observe_us.push((t1 - t0) as f64 / 1e3);
            } else {
                svc.observe_completion(record, &response);
            }
        }
        answers.push(Answer {
            sent,
            latency_us,
            source: response.source,
            version: response.model_version,
            prediction: response.prediction,
        });
    }
    (answers, errors, observe_us, duplicates)
}

/// Waits until the service's own counters account for every accepted
/// request (a worker bumps its counter just after handing the answer
/// over), then returns the snapshot.
fn settled_stats(svc: &PredictionService, accepted: u64) -> StatsSnapshot {
    let deadline = std::time::Instant::now() + Duration::from_millis(500);
    loop {
        let s = svc.stats();
        if s.completed + s.fallbacks >= accepted || std::time::Instant::now() > deadline {
            return s;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Correctness of one stretch of load.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checked {
    /// Accepted requests not answered exactly once.
    pub not_exactly_once: u64,
    /// Model answers that differ from the offline answer of the model
    /// version that gave them.
    pub mismatches: u64,
    /// Model answers whose version could not be resolved.
    pub unknown_versions: u64,
}

impl Checked {
    fn add(&mut self, o: Checked) {
        self.not_exactly_once += o.not_exactly_once;
        self.mismatches += o.mismatches;
        self.unknown_versions += o.unknown_versions;
    }
}

/// Offline answers of every model version seen, by (version, set, idx).
#[derive(Default)]
pub struct Oracle {
    models: HashMap<u64, Arc<ModelEntry>>,
    answers: HashMap<(u64, bool, u32), Option<Prediction>>,
}

impl Oracle {
    /// Remembers the registry's current entry for `key`.
    pub fn capture(&mut self, registry: &ModelRegistry, key: &ModelKey) {
        if let Some(e) = registry.get(key) {
            self.models.entry(e.version).or_insert(e);
        }
    }

    fn check(&mut self, d: &Driven, snapshot: &StatsSnapshot, sets: [&QuerySet; 2]) -> Checked {
        let mut c = Checked {
            not_exactly_once: d.duplicates + d.failures.unanswered,
            ..Checked::default()
        };
        if snapshot.submitted != d.accepted || snapshot.completed + snapshot.fallbacks != d.accepted
        {
            c.not_exactly_once += 1;
        }
        for a in d.answers.iter().filter(|a| a.source == AnswerSource::Kcca) {
            let Some(entry) = self.models.get(&a.version) else {
                c.unknown_versions += 1;
                continue;
            };
            let s = a.sent;
            let offline = self
                .answers
                .entry((a.version, s.drifted, s.idx))
                .or_insert_with(|| {
                    let f = &sets[usize::from(s.drifted)].features[s.idx as usize];
                    entry.predictor.predict_features(f).ok()
                });
            if !offline
                .as_ref()
                .is_some_and(|o| same_bits(o, &a.prediction))
            {
                c.mismatches += 1;
            }
        }
        c
    }
}

/// Layer figures of the serving path at one rate.
#[derive(Debug, Default, Clone)]
pub struct ServeLayers {
    pub admit_p50_us: f64,
    pub admit_p99_us: f64,
    pub queue_wait_p50_us: f64,
    pub queue_wait_p99_us: f64,
    pub worker_us: f64,
    pub batch_mean: f64,
    pub max_queue_depth: f64,
    pub rejected: f64,
    pub fallbacks: f64,
    pub late_answers: f64,
    pub fail_ratio: f64,
    pub tenant_p99_us: [f64; 3],
    pub gen_late_p99_us: f64,
}

fn q(v: &[f64], p: f64) -> f64 {
    quantile(&sorted(v), p).unwrap_or(0.0)
}

/// Service counters summed over the stretches of one measurement.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    stretches: u64,
    batch_mean_sum: f64,
    max_queue_depth: u64,
    rejected: u64,
    fallbacks: u64,
    late_answers: u64,
}

impl Counters {
    fn add(&mut self, s: &StatsSnapshot) {
        self.stretches += 1;
        self.batch_mean_sum += s.mean_batch_size;
        self.max_queue_depth = self.max_queue_depth.max(s.max_queue_depth);
        self.rejected += s.rejected_queue_full + s.rejected_quota;
        self.fallbacks += s.fallbacks;
        self.late_answers += s.late_answers;
    }
}

/// The program's own queue-wait and worker spans for the requests of
/// one stretch, read from the qpp-obs ring right after the stretch.
#[derive(Debug, Default)]
struct ObsSpans {
    queue_wait_us: Vec<f64>,
    worker_us: Vec<f64>,
}

impl ObsSpans {
    fn read(&mut self, d: &Driven, t: &Tracer) {
        if !t.enabled() {
            return;
        }
        let events = qpp_obs::recorder().export();
        for e in events.iter().filter(|e| {
            e.trace_id >= d.first_trace
                && e.trace_id <= d.last_trace
                && e.kind == qpp_obs::EventKind::Span
        }) {
            match e.stage {
                qpp_obs::Stage::QueueWait => self.queue_wait_us.push(e.dur_ns as f64 / 1e3),
                qpp_obs::Stage::Worker => self.worker_us.push(e.dur_ns as f64 / 1e3),
                qpp_obs::Stage::Predict => {}
                _ => continue,
            }
            t.import_obs(e, 0);
        }
    }
}

fn serve_layers(d: &Driven, c: &Counters, obs: &ObsSpans) -> ServeLayers {
    let mut l = ServeLayers {
        admit_p50_us: q(&d.admit_us, 0.5),
        admit_p99_us: q(&d.admit_us, tail_quantile(d.admit_us.len())),
        queue_wait_p50_us: q(&obs.queue_wait_us, 0.5),
        queue_wait_p99_us: q(&obs.queue_wait_us, tail_quantile(obs.queue_wait_us.len())),
        worker_us: obs.worker_us.iter().sum::<f64>() / obs.worker_us.len().max(1) as f64,
        batch_mean: c.batch_mean_sum / c.stretches.max(1) as f64,
        max_queue_depth: c.max_queue_depth as f64,
        rejected: c.rejected as f64,
        fallbacks: c.fallbacks as f64,
        late_answers: c.late_answers as f64,
        fail_ratio: d.failures.ratio(d.sent),
        gen_late_p99_us: q(&d.late_us, tail_quantile(d.late_us.len())),
        ..ServeLayers::default()
    };
    for tenant in 0..3 {
        let lat = d.latencies(|_, t| t as usize == tenant);
        l.tenant_p99_us[tenant] = quantile(&lat, tail_quantile(lat.len())).unwrap_or(0.0);
    }
    l
}

/// One rung of the ladder, summarized.
#[derive(Debug, Clone)]
pub struct Rung {
    pub outcome: RungOutcome,
    pub verdict: Verdict,
    pub p50_us: f64,
    pub answered_share: [f64; 3],
}

impl Rung {
    fn of(d: &Driven, depth_samples: Vec<usize>, rate: f64) -> Rung {
        let lat = d.latencies(|_, _| true);
        let outcome = RungOutcome {
            rate,
            sent: d.sent,
            failures: d.failures,
            tail_us: quantile(&lat, 0.95).unwrap_or(0.0),
            sender_late_us: q(&d.late_us, 0.95),
            depth_samples,
        };
        let mut answered = [0u64; 3];
        for a in d.answers.iter().filter(|a| a.source == AnswerSource::Kcca) {
            answered[a.sent.tenant as usize] += 1;
        }
        let total = answered.iter().sum::<u64>().max(1) as f64;
        Rung {
            verdict: judge(&outcome, &LIMITS),
            p50_us: quantile(&lat, 0.5).unwrap_or(0.0),
            outcome,
            answered_share: answered.map(|n| n as f64 / total),
        }
    }
}

pub struct LadderResult {
    /// Every rung run, by round.
    pub rungs: Vec<(usize, Rung)>,
    /// Median over rounds of the highest rate each round sustained.
    pub max_rps: f64,
    /// The highest rate each round sustained.
    pub round_max_rps: Vec<f64>,
    /// Each round's reference chunk.
    pub reference_chunks: Vec<Latency>,
    /// Latency from due time at [`REFERENCE_RPS`]: median over the
    /// rounds' chunks of each chunk's p50 and p95, and the pooled p99.
    pub reference_latency: Latency,
    pub reference: ServeLayers,
    /// Largest relative gap between a tenant's answered share and its
    /// weight share, at the highest rung run.
    pub fairness_err: f64,
    /// Requests sent and failed at or below the reference rate.
    pub attempted: u64,
    pub failed: u64,
    pub checked: Checked,
}

/// Rungs a later round starts below the rate the first round sustained.
const RESTART_BELOW: usize = 3;

/// The rate ladder and the reference rate, measured once per round so
/// that each figure is a median over rounds spread across the run: the
/// host's speed drifts over tens of seconds, and one slow stretch must
/// not decide a figure. Each round climbs until two rungs in a row fail
/// and records the highest rate it sustained. Every stretch of load
/// gets a fresh service.
pub struct Ladder<'a> {
    registry: &'a Arc<ModelRegistry>,
    key: &'a ModelKey,
    traffic: &'a QuerySet,
    mix: Mix,
    workers: usize,
    seed: u64,
    rung_s: f64,
    chunk_s: f64,
    rounds: Vec<Vec<Rung>>,
    stretches: u64,
    reference: Driven,
    reference_chunks: Vec<Latency>,
    reference_counters: Counters,
    reference_obs: ObsSpans,
    checked: Checked,
}

impl<'a> Ladder<'a> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        registry: &'a Arc<ModelRegistry>,
        key: &'a ModelKey,
        traffic: &'a QuerySet,
        mix: Mix,
        workers: usize,
        seed: u64,
        rung_s: f64,
        chunk_s: f64,
    ) -> Ladder<'a> {
        Ladder {
            registry,
            key,
            traffic,
            mix,
            workers,
            seed,
            rung_s,
            chunk_s,
            rounds: Vec::new(),
            stretches: 0,
            reference: Driven::default(),
            reference_chunks: Vec::new(),
            reference_counters: Counters::default(),
            reference_obs: ObsSpans::default(),
            checked: Checked::default(),
        }
    }

    fn stretch(
        &mut self,
        rate: f64,
        secs: f64,
        oracle: &mut Oracle,
        t: &Tracer,
    ) -> (Driven, StatsSnapshot) {
        oracle.capture(self.registry, self.key);
        let svc = start_service(self.registry, self.workers);
        let span_ns = (secs * 1e9) as u64;
        self.stretches += 1;
        let d = drive(
            &svc,
            self.key,
            [self.traffic, self.traffic],
            self.mix,
            rate,
            crate::stats::derive_seed(self.seed, 1000 + self.stretches),
            false,
            rate == REFERENCE_RPS,
            t,
            |due| (due < span_ns).then_some(false),
        );
        let snap = settled_stats(&svc, d.accepted);
        svc.shutdown();
        self.checked
            .add(oracle.check(&d, &snap, [self.traffic, self.traffic]));
        (d, snap)
    }

    /// One round: a chunk at the reference rate, then a climb. The first
    /// round climbs from the bottom of [`LADDER`]; later ones start
    /// [`RESTART_BELOW`] rungs under what the first round sustained.
    /// `between` runs after every stretch of load.
    pub fn round(&mut self, oracle: &mut Oracle, t: &Tracer, between: &mut dyn FnMut()) {
        let (d, snap) = self.stretch(REFERENCE_RPS, self.chunk_s, oracle, t);
        between();
        self.reference_counters.add(&snap);
        self.reference_obs.read(&d, t);
        self.reference_chunks
            .push(Latency::of(&d.latencies(|_, _| true)));
        let mut rungs = vec![Rung::of(&d, d.depth_samples.clone(), REFERENCE_RPS)];
        self.reference.absorb(d);

        let start = match self.rounds.first() {
            None => 0,
            Some(first) => {
                let best = round_max(first);
                LADDER
                    .iter()
                    .position(|&r| r >= best)
                    .map_or(0, |i| i.saturating_sub(RESTART_BELOW))
            }
        };
        let mut verdicts = Vec::new();
        for &rate in &LADDER[start..] {
            if !keep_climbing(&verdicts) {
                break;
            }
            let (d, _) = self.stretch(rate, self.rung_s, oracle, t);
            between();
            let rung = Rung::of(&d, d.depth_samples.clone(), rate);
            verdicts.push(rung.verdict.clone());
            rungs.push(rung);
        }
        self.rounds.push(rungs);
    }

    pub fn finish(self) -> LadderResult {
        let maxes: Vec<f64> = self.rounds.iter().map(|r| round_max(r)).collect();
        let top = self
            .rounds
            .iter()
            .flatten()
            .max_by(|a, b| a.outcome.rate.total_cmp(&b.outcome.rate))
            .map_or([0.0; 3], |r| r.answered_share);
        let (mut attempted, mut failed) = (0, 0);
        for r in self
            .rounds
            .iter()
            .flatten()
            .filter(|r| r.outcome.rate <= REFERENCE_RPS)
        {
            attempted += r.outcome.sent;
            failed += r.outcome.failures.total();
        }
        let median_of = |f: fn(&Latency) -> f64| {
            crate::stats::median(&self.reference_chunks.iter().map(f).collect::<Vec<f64>>())
                .unwrap_or(0.0)
        };
        let pooled = Latency::of(&self.reference.latencies(|_, _| true));
        LadderResult {
            max_rps: crate::stats::median(&maxes).unwrap_or(0.0),
            round_max_rps: maxes,
            reference_latency: Latency {
                p50_us: median_of(|l| l.p50_us),
                p95_us: median_of(|l| l.p95_us),
                p99_us: pooled.p99_us,
            },
            reference: serve_layers(
                &self.reference,
                &self.reference_counters,
                &self.reference_obs,
            ),
            reference_chunks: self.reference_chunks.clone(),
            fairness_err: fairness_err(self.mix, &top),
            attempted,
            failed,
            checked: self.checked,
            rungs: self
                .rounds
                .into_iter()
                .enumerate()
                .flat_map(|(i, r)| r.into_iter().map(move |g| (i, g)))
                .collect(),
        }
    }
}

/// The highest rate a round sustained, 0 if none.
fn round_max(rungs: &[Rung]) -> f64 {
    let rates: Vec<f64> = rungs.iter().map(|r| r.outcome.rate).collect();
    let verdicts: Vec<Verdict> = rungs.iter().map(|r| r.verdict.clone()).collect();
    max_sustained(&rates, &verdicts).unwrap_or(0.0)
}

fn fairness_err(mix: Mix, share: &[f64; 3]) -> f64 {
    if mix == Mix::Single {
        return 0.0;
    }
    let total: u32 = TENANTS.iter().map(|t| t.2).sum();
    TENANTS
        .iter()
        .zip(share)
        .map(|(t, s)| {
            let fair = t.2 as f64 / total as f64;
            (s - fair).abs() / fair
        })
        .fold(0.0, f64::max)
}

/// The drift/retrain episode's results.
pub struct Episode {
    /// Latency of the requests due from the first drifted one on, which
    /// spans the background retrain.
    pub latency: Latency,
    pub layers: ServeLayers,
    pub drift_to_swap_s: Option<f64>,
    pub stable_err: f64,
    pub drifted_err: f64,
    pub post_swap_err: f64,
    pub canary_swaps: u64,
    /// 1 when the model was swapped during the stable phase already.
    pub swaps_before_drift: u64,
    pub demotions: u64,
    pub drift_signals: u64,
    pub retrain_ms: f64,
    pub shadow_score_ms: f64,
    pub observe_us: f64,
    pub attempted: u64,
    pub failed: u64,
    pub checked: Checked,
}

/// Completions that calibrate the drift detector, the length of its
/// recent-mean window, and the rise of the recent mean that counts.
/// Served queries' errors are heavy-tailed: with the library defaults
/// (40, 16 and 1.4) a few thousand stable completions can raise a false
/// drift signal. The 3x slowdown raises the mean elapsed error about
/// 3.5x, so it is still flagged within a few hundred completions.
const DRIFT_WARMUP: usize = 1_000;
const DRIFT_WINDOW: usize = 256;
const DRIFT_MIN_RATIO: f64 = 2.0;

/// Completed queries after drift is declared before the retrain runs:
/// enough for the 1027-row training window to turn over to drifted
/// queries (a quarter of completions go to the shadow holdout instead).
const RETRAIN_DELAY: usize = 1_400;

/// Serves stable traffic, then drifted traffic until the adaptive loop
/// has canary-swapped a retrained model, then `post_s` more seconds.
#[allow(clippy::too_many_arguments)]
pub fn retrain_episode(
    registry: &Arc<ModelRegistry>,
    key: &ModelKey,
    window: &Dataset,
    stable: &QuerySet,
    drifted: &QuerySet,
    workers: usize,
    seed: u64,
    stable_s: f64,
    post_s: f64,
    max_s: f64,
    oracle: &mut Oracle,
    t: &Tracer,
) -> Episode {
    oracle.capture(registry, key);
    let initial = registry.current_version(key);
    let opts = PredictorOptions::default();
    let controller = Arc::new(AdaptiveController::new(
        Arc::clone(registry),
        key.clone(),
        SlidingWindowPredictor::new(window.clone(), window.len(), usize::MAX, opts),
        AdaptOptions {
            drift: DriftConfig {
                warmup: DRIFT_WARMUP,
                window: DRIFT_WINDOW,
                min_ratio: DRIFT_MIN_RATIO,
                ..DriftConfig::default()
            },
            retrain_delay: RETRAIN_DELAY,
            ..AdaptOptions::default()
        },
    ));
    let svc = start_service(registry, workers);
    svc.set_completion_observer(Arc::new(Observer(Arc::clone(&controller))));
    let worker = AdaptWorker::spawn(Arc::clone(&controller));
    let before = qpp_obs::recorder().stage_summary();

    let stable_ns = (stable_s * 1e9) as u64;
    let post_ns = (post_s * 1e9) as u64;
    let max_ns = (max_s * 1e9) as u64;
    let mut first_drift: Option<u64> = None;
    let mut swap_seen: Option<u64> = None;
    let mut last_version = initial;
    let mut version_at_drift = initial;
    let d = drive(
        &svc,
        key,
        [stable, drifted],
        Mix::Weighted,
        REFERENCE_RPS,
        crate::stats::derive_seed(seed, 2000),
        true,
        true,
        t,
        |due| {
            let v = registry.current_version(key);
            if v != last_version {
                // Keep every version that answers, for the bitwise check.
                oracle.capture(registry, key);
                last_version = v;
                if first_drift.is_some() {
                    swap_seen.get_or_insert(due);
                }
            }
            // Drift starts only once no adaptation is in flight, so a
            // retrain from a false alarm is never taken for the answer
            // to the drift.
            let calm = controller.phase() == Phase::Stable;
            if first_drift.is_none() && (due < stable_ns || !calm) {
                return (due < max_ns).then_some(false);
            }
            if first_drift.is_none() {
                first_drift = Some(due);
                version_at_drift = last_version;
            }
            match swap_seen {
                None => (due < max_ns).then_some(true),
                Some(at) => (due < at + post_ns).then_some(true),
            }
        },
    );
    // Capture the swapped-in model before anything can replace it.
    oracle.capture(registry, key);
    worker.shutdown();
    let snap = settled_stats(&svc, d.accepted);
    svc.shutdown();
    let after = qpp_obs::recorder().stage_summary();
    let checked = oracle.check(&d, &snap, [stable, drifted]);

    let mean_err = |keep: &dyn Fn(&Answer) -> bool| {
        let errs: Vec<f64> = d
            .answers
            .iter()
            .filter(|a| a.source == AnswerSource::Kcca && keep(a))
            .map(|a| {
                let set = if a.sent.drifted { drifted } else { stable };
                let actual = &set.data.records[a.sent.idx as usize].metrics;
                qpp_adapt::log_ratio_errors(&a.prediction.metrics, actual)[0]
            })
            .collect();
        errs.iter().sum::<f64>() / errs.len().max(1) as f64
    };
    let drift_v = version_at_drift.unwrap_or(0);
    let stats = controller.stats();
    let stage_mean_ms = |stage| {
        let find = |s: &[qpp_obs::StageSummary]| {
            s.iter()
                .find(|x| x.stage == stage)
                .map_or((0, 0), |x| (x.hits, x.total_ns))
        };
        let (h0, n0) = find(&before);
        let (h1, n1) = find(&after);
        (n1 - n0) as f64 / 1e6 / (h1 - h0).max(1) as f64
    };
    let mut counters = Counters::default();
    counters.add(&snap);
    let mut obs = ObsSpans::default();
    obs.read(&d, t);
    let layers = serve_layers(&d, &counters, &obs);
    Episode {
        latency: {
            let from = first_drift.unwrap_or(0);
            Latency::of(&d.latencies(|due, _| due >= from))
        },
        drift_to_swap_s: match (first_drift, swap_seen) {
            (Some(a), Some(b)) => Some((b - a) as f64 / 1e9),
            _ => None,
        },
        stable_err: mean_err(&|a| !a.sent.drifted),
        drifted_err: mean_err(&|a| a.sent.drifted && a.version == drift_v),
        post_swap_err: mean_err(&|a| a.sent.drifted && a.version > drift_v),
        swaps_before_drift: u64::from(version_at_drift != initial),
        canary_swaps: stats.canary_swaps.get(),
        demotions: stats.demotions.get() + registry.demote_count(),
        drift_signals: stats.drift_signals.get(),
        retrain_ms: stage_mean_ms(qpp_obs::Stage::Retrain),
        shadow_score_ms: stage_mean_ms(qpp_obs::Stage::ShadowScore),
        observe_us: d.observe_us.iter().sum::<f64>() / d.observe_us.len().max(1) as f64,
        attempted: d.sent,
        failed: d.failures.total(),
        checked,
        layers,
    }
}

/// Per-tenant rung shares as a JSON array.
pub fn shares_json(s: &[f64; 3]) -> String {
    format!("[{}, {}, {}]", s[0], s[1], s[2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpp_core::predictor::NeighborIds;
    use qpp_engine::PerfMetrics;

    fn answer(due_ns: u64, latency_us: f64, source: AnswerSource) -> Answer {
        Answer {
            sent: Sent {
                idx: 0,
                drifted: false,
                tenant: 0,
                due_ns,
                admitted_ns: 0,
                trace_id: 1,
            },
            latency_us,
            source,
            version: 1,
            prediction: Prediction {
                metrics: PerfMetrics::zero(),
                neighbor_indices: NeighborIds::new(),
                confidence_distance: 0.0,
                max_kernel_similarity: 1.0,
            },
        }
    }

    #[test]
    fn failed_requests_count_as_missing_the_limit() {
        let miss = DEADLINE.as_secs_f64() * 1e6;
        let d = Driven {
            answers: vec![
                answer(0, 100.0, AnswerSource::Kcca),
                answer(10, 200.0, AnswerSource::Kcca),
                answer(20, 5.0, AnswerSource::CostModelFallback),
            ],
            refused: vec![(30, 0)],
            ..Driven::default()
        };
        assert_eq!(d.latencies(|_, _| true), vec![100.0, 200.0, miss, miss]);
        assert_eq!(d.latencies(|due, _| due >= 15), vec![miss, miss]);
        assert!(d.latencies(|_, tenant| tenant == 1).is_empty());
    }

    #[test]
    fn a_round_sustains_its_highest_passing_rate() {
        let rung = |rate: f64, verdict: Verdict| Rung {
            outcome: RungOutcome {
                rate,
                sent: 1,
                failures: Failures::default(),
                tail_us: 0.0,
                sender_late_us: 0.0,
                depth_samples: Vec::new(),
            },
            verdict,
            p50_us: 0.0,
            answered_share: [0.0; 3],
        };
        let f = Verdict::Fail("x");
        let round = [
            rung(4_000.0, Verdict::Pass),
            rung(6_000.0, Verdict::Pass),
            rung(7_000.0, f.clone()),
            rung(8_000.0, Verdict::Pass),
            rung(9_000.0, f.clone()),
            rung(10_000.0, f.clone()),
        ];
        assert_eq!(round_max(&round), 8_000.0);
        assert_eq!(round_max(&[rung(4_000.0, f)]), 0.0);
    }

    #[test]
    fn weighted_mix_splits_three_two_one() {
        let mut rng = SplitMix::new(3);
        let mut n = [0usize; 3];
        for _ in 0..60_000 {
            n[Mix::Weighted.pick(&mut rng)] += 1;
        }
        for (got, want) in n.iter().zip([30_000.0, 20_000.0, 10_000.0]) {
            assert!((*got as f64 - want).abs() < want * 0.03, "{n:?}");
        }
        assert_eq!(Mix::Single.pick(&mut rng), 0);
    }
}
