//! The traced run: a single-shard replica of `ServingSession::step_batch`
//! that calls each layer's public functions in the same order, with a
//! span recorded around every call, so each layer's self time and call
//! counts are measured where the work happens. A replica's verdict
//! digest must equal the untraced shard's digest for the same seed —
//! that is the proof it did the same work.
//!
//! Two calls differ from the serving loop because the serving loop's
//! own helpers are private:
//! * the detector's quarantine push is reached through
//!   `AdaptiveDetector::classify_into` on each flagged row, so
//!   `core.quarantine_push` includes one single-row critic evaluation;
//! * the `/metrics` page is `render_metrics_fleet` plus the public
//!   `append_*_series` helpers (the two quarantine series are private).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use hmd::recorder::{
    self, FlightRecorder, IncidentBundle, IncidentMonitor, TraceReason, TraceStore, WindowStamp,
    WindowTrace,
};
use hmd::serving::{shard_stream_seed, CalibrationReport, ServingConfig};
use hmd_core::framework::SERVING_BASELINE;
use hmd_core::{AdaptiveDetector, CoreError, Framework, InferArena, ServingArtifacts, Verdict};
use hmd_integrity::{MetricMonitor, ModelRegistry};
use hmd_ml::{
    classical_models, measure_latency_ms, BinaryMetrics, ConfusionMatrix, PredictScratch,
};
use hmd_obs::history::FINE_EVERY;
use hmd_obs::{
    append_incident_series, append_promotion_series, history_json, render_metrics_fleet,
    AlertEngine, HistoryAccumulator, MetricsHistory, Response, SampleRecord, ServingMonitor,
};
use hmd_rl::{ConstraintController, ModelProfile};
use hmd_sim::{StreamConfig, WindowStream};
use hmd_tabular::{Class, Dataset};
use hmd_util::rng::prelude::*;

/// The layers a span can be recorded for. Names match the per-layer
/// metric prefixes in `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    StreamNext,
    TransformRow,
    ClassifyBatch,
    Critic,
    QuarantinePush,
    Route,
    RecorderRecord,
    RecorderIncident,
    MonitorRecord,
    HistoryFlush,
    AlertEvaluate,
    ConfusionCheck,
    HubStall,
    RetrainingRound,
    IntegrityRegister,
}

impl Layer {
    pub const ALL: [Layer; 15] = [
        Layer::StreamNext,
        Layer::TransformRow,
        Layer::ClassifyBatch,
        Layer::Critic,
        Layer::QuarantinePush,
        Layer::Route,
        Layer::RecorderRecord,
        Layer::RecorderIncident,
        Layer::MonitorRecord,
        Layer::HistoryFlush,
        Layer::AlertEvaluate,
        Layer::ConfusionCheck,
        Layer::HubStall,
        Layer::RetrainingRound,
        Layer::IntegrityRegister,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::StreamNext => "sim.stream_next",
            Layer::TransformRow => "tabular.transform_row",
            Layer::ClassifyBatch => "core.classify_batch",
            Layer::Critic => "rl.critic",
            Layer::QuarantinePush => "core.quarantine_push",
            Layer::Route => "rl.route",
            Layer::RecorderRecord => "recorder.record",
            Layer::RecorderIncident => "recorder.incident",
            Layer::MonitorRecord => "obs.monitor_record",
            Layer::HistoryFlush => "obs.history_flush",
            Layer::AlertEvaluate => "obs.alert_evaluate",
            Layer::ConfusionCheck => "integrity.confusion_check",
            Layer::HubStall => "hub.stall",
            Layer::RetrainingRound => "core.retraining_round",
            Layer::IntegrityRegister => "integrity.register",
        }
    }
}

/// Per-layer totals: calls, span time, and self time (span time minus
/// the time of spans nested inside it).
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerStat {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// An in-memory span recorder for one thread. Spans nest through a
/// stack; each closed span folds into its layer's totals and charges
/// its duration to the enclosing span's children.
#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    stats: [LayerStat; Layer::ALL.len()],
    stack: Vec<(Layer, u64, u64)>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            base: Instant::now(),
            stats: [LayerStat::default(); Layer::ALL.len()],
            stack: Vec::with_capacity(8),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    #[inline]
    pub fn enter(&mut self, layer: Layer) {
        let t = self.now();
        self.stack.push((layer, t, 0));
    }

    #[inline]
    pub fn exit(&mut self) {
        let t = self.now();
        let (layer, t0, child) = self.stack.pop().expect("exit without enter");
        let d = t.saturating_sub(t0);
        let s = &mut self.stats[layer as usize];
        s.calls += 1;
        s.total_ns += d;
        s.self_ns += d.saturating_sub(child);
        if let Some(parent) = self.stack.last_mut() {
            parent.2 += d;
        }
    }

    pub fn get(&self, layer: Layer) -> LayerStat {
        self.stats[layer as usize]
    }

    /// Adds another tracer's totals into this one.
    pub fn absorb(&mut self, other: &Tracer) {
        for (a, b) in self.stats.iter_mut().zip(&other.stats) {
            a.calls += b.calls;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
        }
    }

    /// Sum of every layer's self time.
    pub fn self_sum_ns(&self) -> u64 {
        self.stats.iter().map(|s| s.self_ns).sum()
    }
}

fn nanos(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Wall time of each `prepare_serving` phase, replicated call by call.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupPhases {
    pub prepare_data_s: f64,
    pub generate_attacks_s: f64,
    pub train_predictor_s: f64,
    pub fit_models_s: f64,
    pub train_controller_s: f64,
    pub assemble_s: f64,
}

/// `Framework::prepare_serving`, one public phase at a time, timed.
/// Must build artifacts identical to the real call: the digest check
/// downstream fails otherwise.
pub fn prepare_serving_phased(
    cfg: &ServingConfig,
    phases: &mut SetupPhases,
) -> Result<ServingArtifacts, CoreError> {
    let fw = Framework::new(cfg.framework.clone());
    let t = Instant::now();
    let bundle = fw.prepare_data()?;
    phases.prepare_data_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let attacks = fw.generate_attacks(&bundle)?;
    phases.generate_attacks_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let merged = Framework::merged_training_set(&bundle, &attacks)?;
    let predictor = fw.train_predictor(&merged)?;
    phases.train_predictor_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let targets = merged.binary_targets(Class::is_attack);
    let mut models = classical_models();
    for model in &mut models {
        model.fit(&merged, &targets)?;
    }
    phases.fit_models_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let probe = merged.subset(&(0..merged.len().min(64)).collect::<Vec<_>>())?;
    let profiles = models
        .iter()
        .map(|m| {
            Ok(ModelProfile {
                name: m.name().to_owned(),
                latency_ms: measure_latency_ms(m.as_ref(), &probe, cfg.framework.latency_repeats)?,
                size_bytes: m.size_bytes(),
            })
        })
        .collect::<Result<Vec<_>, CoreError>>()?;
    let controller = ConstraintController::train(
        cfg.kind,
        &models,
        profiles,
        &merged,
        &targets,
        cfg.framework.controller,
    )?;
    let detector =
        AdaptiveDetector::new(predictor, controller, models, bundle.feature_names.clone())?;
    let mut matrix = ConfusionMatrix::default();
    for (row, class) in &bundle.test {
        let attack = detector.classify(row)?.is_attack();
        tally(&mut matrix, Class::is_attack(class), attack);
    }
    let _ = detector.take_quarantine();
    let monitor = MetricMonitor::new(cfg.framework.integrity_tolerance);
    monitor.record_baseline(SERVING_BASELINE, BinaryMetrics::from_confusion(&matrix));
    phases.train_controller_s = t.elapsed().as_secs_f64();
    Ok(ServingArtifacts {
        bundle,
        attacks,
        detector,
        monitor,
        kind: cfg.kind,
        training: merged,
    })
}

fn tally(m: &mut ConfusionMatrix, truth: bool, verdict: bool) {
    match (truth, verdict) {
        (true, true) => m.tp += 1,
        (true, false) => m.fn_ += 1,
        (false, true) => m.fp += 1,
        (false, false) => m.tn += 1,
    }
}

fn stream_for(cfg: &ServingConfig, seed: u64) -> WindowStream {
    let corpus = &cfg.framework.corpus;
    WindowStream::new(StreamConfig {
        malware_fraction: cfg.malware_fraction,
        windows_per_app: corpus.windows_per_app,
        warmup_windows: corpus.warmup_windows,
        machine: corpus.machine,
        perf: corpus.perf.clone(),
        isolation: corpus.isolation,
        seed,
    })
}

/// The deployment-traffic calibration pass, replicated: classify clean
/// stream windows, discard what the predictor quarantined, record the
/// integrity baseline, report the evidence for the adaptive SLOs.
fn calibrate(
    artifacts: &ServingArtifacts,
    cfg: &ServingConfig,
    feature_idx: &[usize],
    tracer: &mut Tracer,
) -> Result<CalibrationReport, CoreError> {
    let mut stream = stream_for(cfg, cfg.stream_seed ^ 0x43414C); // "CAL"
    let mut row = vec![0.0; feature_idx.len()];
    let mut matrix = ConfusionMatrix::default();
    let mut flagged = 0;
    for _ in 0..cfg.calibration_samples {
        tracer.enter(Layer::StreamNext);
        let w = stream.next().expect("stream is endless");
        tracer.exit();
        for (dst, &src) in row.iter_mut().zip(feature_idx) {
            *dst = w.values[src];
        }
        tracer.enter(Layer::TransformRow);
        artifacts.bundle.scaler.transform_row(&mut row)?;
        tracer.exit();
        let verdict = artifacts.detector.classify(&row)?;
        flagged += usize::from(verdict == Verdict::AdversarialAttack);
        tally(&mut matrix, w.is_malware(), verdict.is_attack());
    }
    let quarantined = artifacts.detector.take_quarantine().len();
    artifacts
        .monitor
        .record_baseline(SERVING_BASELINE, BinaryMetrics::from_confusion(&matrix));
    Ok(CalibrationReport {
        matrix,
        flagged,
        samples: cfg.calibration_samples,
        quarantined,
    })
}

/// State the replica's HTTP read side shares with its serving loop.
#[derive(Debug)]
pub struct ReadSide {
    pub monitor: ServingMonitor,
    pub engine: Mutex<AlertEngine>,
    pub t_ns: AtomicU64,
    pub history: MetricsHistory,
    pub generation: AtomicU64,
    pub swaps: AtomicU64,
    pub absorbed: AtomicU64,
    pub incidents: AtomicU64,
    pub calibration_quarantined: AtomicU64,
    /// `obs.render_metrics` totals, recorded on the HTTP worker threads.
    pub render_ns: AtomicU64,
    pub render_calls: AtomicU64,
    pub render_bytes: AtomicU64,
}

impl ReadSide {
    fn engine(&self) -> MutexGuard<'_, AlertEngine> {
        self.engine.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The `/metrics` handler, timed as the `obs.render_metrics` span.
    pub fn handle(&self, path: &str) -> Response {
        if path != "/metrics" {
            return Response::status(404, "unknown path\n");
        }
        let t = Instant::now();
        let snap = self.monitor.snapshot_at(self.t_ns.load(Ordering::Relaxed));
        let engine = self.engine();
        let mut page = render_metrics_fleet(&[snap], &[&*engine]);
        drop(engine);
        append_promotion_series(
            &mut page,
            self.generation.load(Ordering::Relaxed),
            self.swaps.load(Ordering::Relaxed),
            self.absorbed.load(Ordering::Relaxed),
        );
        append_incident_series(
            &mut page,
            self.incidents.load(Ordering::Relaxed),
            self.calibration_quarantined.load(Ordering::Relaxed),
        );
        self.render_ns.fetch_add(nanos(t), Ordering::Relaxed);
        self.render_calls.fetch_add(1, Ordering::Relaxed);
        self.render_bytes
            .fetch_add(page.len() as u64, Ordering::Relaxed);
        Response::ok(page)
    }
}

/// Counts the replica keeps besides spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub drawn: u64,
    pub injected: u64,
    pub classified: u64,
    pub flagged: u64,
    pub absorbed_rows: u64,
}

impl Counts {
    /// Adds another replica's counts into these.
    pub fn absorb(&mut self, o: &Counts) {
        self.drawn += o.drawn;
        self.injected += o.injected;
        self.classified += o.classified;
        self.flagged += o.flagged;
        self.absorbed_rows += o.absorbed_rows;
    }
}

/// One single-shard replica of the serving loop.
pub struct Replica {
    cfg: ServingConfig,
    shard: usize,
    n_shards: usize,
    base_calibration_samples: usize,
    artifacts: Arc<ServingArtifacts>,
    stream: WindowStream,
    feature_idx: Vec<usize>,
    scratch: Vec<f64>,
    batch_rows: Vec<f64>,
    batch_truth: Vec<bool>,
    critic: hmd::nn::InferScratch,
    route: PredictScratch,
    push_arena: InferArena,
    values: Vec<f64>,
    flags: Vec<bool>,
    clean: Vec<f64>,
    probs: Vec<f64>,
    routed: Vec<bool>,
    verdicts: Vec<Verdict>,
    replay_rows: Vec<f64>,
    replay_truth: Vec<bool>,
    replay_cursor: usize,
    rng: StdRng,
    adv_cursor: usize,
    processed: usize,
    digest: u64,
    generation: usize,
    ring: Option<FlightRecorder>,
    pub read: Arc<ReadSide>,
    hist_acc: HistoryAccumulator,
    traces: TraceStore,
    latency_tail_max: u64,
    incidents: Vec<IncidentBundle>,
    incident_seq: u64,
    transform_ns: u64,
    /// Retraining state (the hub's, run inline while this shard waits).
    training: Dataset,
    registry: ModelRegistry,
    cal_cfg: ServingConfig,
    pub tracer: Tracer,
    pub counts: Counts,
}

impl Replica {
    /// Assembles the replica the way `ServingSession` assembles a shard:
    /// calibration, arena and recorder warm-up, replay-ring pre-draw.
    /// Spans recorded here go to `setup_tracer`.
    pub fn assemble(
        mut cfg: ServingConfig,
        artifacts: Arc<ServingArtifacts>,
        shard: usize,
        n_shards: usize,
        base_calibration_samples: usize,
        setup_tracer: &mut Tracer,
    ) -> Result<Self, CoreError> {
        let stream = stream_for(&cfg, cfg.stream_seed);
        let names = stream.feature_names();
        let feature_idx: Vec<usize> = artifacts
            .bundle
            .feature_names
            .iter()
            .map(|want| names.iter().position(|n| n == want))
            .collect::<Option<_>>()
            .ok_or(CoreError::MissingFeature)?;
        let width = feature_idx.len();
        let calibration = if cfg.calibration_samples > 0 {
            let report = calibrate(&artifacts, &cfg, &feature_idx, setup_tracer)?;
            report.adapt_rules(&mut cfg.rules);
            Some(report)
        } else {
            None
        };
        let registry = ModelRegistry::new();
        if cfg.retrain_every > 0 {
            register_generation(&registry, &artifacts, 0, setup_tracer)?;
        }
        let batch = cfg.batch.max(1);
        let detector = &artifacts.detector;
        let read = Arc::new(ReadSide {
            monitor: ServingMonitor::with_shard(cfg.window, shard),
            engine: Mutex::new(AlertEngine::new(cfg.rules.clone())),
            t_ns: AtomicU64::new(0),
            history: MetricsHistory::new(),
            generation: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            absorbed: AtomicU64::new(0),
            incidents: AtomicU64::new(0),
            calibration_quarantined: AtomicU64::new(
                calibration.map_or(0, |c| c.quarantined as u64),
            ),
            render_ns: AtomicU64::new(0),
            render_calls: AtomicU64::new(0),
            render_bytes: AtomicU64::new(0),
        });
        let mut replica = Self {
            shard,
            n_shards,
            base_calibration_samples,
            stream,
            scratch: vec![0.0; width],
            batch_rows: Vec::with_capacity(batch * width),
            batch_truth: Vec::with_capacity(batch),
            critic: detector.predictor().infer_scratch(batch),
            route: detector.models()[detector.controller().selected_model()].make_scratch(batch),
            // sized like the session's arena: warm-up also reserves the
            // quarantine's headroom for a whole batch
            push_arena: detector.warmup(width, batch),
            values: Vec::with_capacity(batch),
            flags: Vec::with_capacity(batch),
            clean: Vec::with_capacity(batch * width),
            probs: Vec::with_capacity(batch),
            routed: Vec::with_capacity(batch),
            verdicts: Vec::with_capacity(batch),
            replay_rows: Vec::with_capacity(cfg.replay * width),
            replay_truth: Vec::with_capacity(cfg.replay),
            replay_cursor: 0,
            rng: StdRng::seed_from_u64(cfg.stream_seed ^ 0x414456), // "ADV"
            adv_cursor: 0,
            processed: 0,
            digest: recorder::DIGEST_SEED,
            generation: 0,
            ring: (cfg.recorder > 0).then(|| FlightRecorder::warmup(detector, width, cfg.recorder)),
            read,
            hist_acc: HistoryAccumulator::new(),
            traces: TraceStore::new(),
            latency_tail_max: 0,
            incidents: Vec::new(),
            incident_seq: 0,
            transform_ns: 0,
            training: artifacts.training.clone(),
            registry,
            cal_cfg: cfg.clone(),
            tracer: Tracer::new(),
            counts: Counts::default(),
            feature_idx,
            artifacts,
            cfg,
        };
        // the ring pre-draw runs through the same draw path as live
        // traffic; its spans are set-up time
        std::mem::swap(&mut replica.tracer, setup_tracer);
        let predraw = (0..replica.cfg.replay).try_for_each(|k| {
            let truth = replica.draw_sample(k)?;
            replica.replay_rows.extend_from_slice(&replica.scratch);
            replica.replay_truth.push(truth);
            Ok::<(), CoreError>(())
        });
        std::mem::swap(&mut replica.tracer, setup_tracer);
        predraw?;
        Ok(replica)
    }

    pub fn slo_rules(&self) -> &[hmd_obs::SloRule] {
        &self.cfg.rules
    }

    pub fn processed(&self) -> usize {
        self.processed
    }

    pub fn digest(&self) -> u64 {
        self.digest
    }

    pub fn generation(&self) -> u64 {
        self.generation as u64
    }

    pub fn training_rows(&self) -> usize {
        self.training.len()
    }

    /// The `/history.json` document of this replica, timed `n` times;
    /// returns mean ns per render.
    pub fn time_history_json(&self, n: u32) -> f64 {
        let t = Instant::now();
        for _ in 0..n {
            std::hint::black_box(history_json(&[self.read.history.snapshot()]).to_string());
        }
        nanos(t) as f64 / f64::from(n)
    }

    /// `ServingSession::draw_sample`, call for call.
    fn draw_sample(&mut self, idx: usize) -> Result<bool, CoreError> {
        self.counts.drawn += 1;
        let progress = idx as f64 / self.cfg.samples as f64;
        let adv_p = match self.cfg.burst {
            Some(b) if (b.start..b.end).contains(&progress) => b.adv_fraction,
            _ => self.cfg.adv_fraction,
        };
        let inject = self.rng.random::<f64>() < adv_p;
        let pool = &self.artifacts.attacks.train_result.adversarial;
        if inject && !pool.is_empty() {
            let row = pool.row(self.adv_cursor % pool.len())?;
            self.adv_cursor += 1;
            self.scratch.copy_from_slice(row);
            self.counts.injected += 1;
            return Ok(true);
        }
        self.tracer.enter(Layer::StreamNext);
        let w = self.stream.next().expect("stream is endless");
        self.tracer.exit();
        for (dst, &src) in self.scratch.iter_mut().zip(&self.feature_idx) {
            *dst = w.values[src];
        }
        let t0 = Instant::now();
        self.tracer.enter(Layer::TransformRow);
        self.artifacts
            .bundle
            .scaler
            .transform_row(&mut self.scratch)?;
        self.tracer.exit();
        self.transform_ns += nanos(t0);
        Ok(w.is_malware())
    }

    fn next_sample(&mut self, idx: usize) -> Result<bool, CoreError> {
        if self.replay_truth.is_empty() {
            return self.draw_sample(idx);
        }
        let width = self.scratch.len();
        let k = self.replay_cursor % self.replay_truth.len();
        self.replay_cursor += 1;
        self.scratch
            .copy_from_slice(&self.replay_rows[k * width..(k + 1) * width]);
        Ok(self.replay_truth[k])
    }

    /// `ServingSession::step_batch` with the detector split into its
    /// critic, quarantine and routing calls. Returns windows served.
    pub fn step_batch(&mut self) -> Result<usize, CoreError> {
        let remaining = self.cfg.samples.saturating_sub(self.processed);
        if remaining == 0 {
            return Ok(0);
        }
        self.sync_generation()?;
        let mut n = self.cfg.batch.max(1).min(remaining);
        let every = self.cfg.retrain_every;
        if every > 0 {
            n = n.min(every - self.processed % every);
        }
        let width = self.feature_idx.len();
        let t_start = Instant::now();
        self.transform_ns = 0;
        self.batch_rows.clear();
        self.batch_truth.clear();
        for k in 0..n {
            let truth = self.next_sample(self.processed + k)?;
            self.batch_rows.extend_from_slice(&self.scratch);
            self.batch_truth.push(truth);
        }
        let model_start = nanos(t_start);
        let transform_ns = self.transform_ns / n as u64;
        let draw_ns = model_start.saturating_sub(self.transform_ns) / n as u64;
        self.classify_batch(width)?;
        let end = nanos(t_start);
        let timing = (
            end / n as u64,
            end.saturating_sub(model_start) / n as u64,
            draw_ns,
            transform_ns,
        );
        let rows = std::mem::take(&mut self.batch_rows);
        let truths = std::mem::take(&mut self.batch_truth);
        let verdicts = std::mem::take(&mut self.verdicts);
        let mut result = Ok(());
        for k in 0..n {
            result = self.record_verdict(
                &rows[k * width..(k + 1) * width],
                truths[k],
                verdicts[k],
                timing,
            );
            if result.is_err() {
                break;
            }
        }
        self.batch_rows = rows;
        self.batch_truth = truths;
        self.verdicts = verdicts;
        result?;
        Ok(n)
    }

    /// `AdaptiveDetector::classify_batch_into`, one layer call at a time.
    fn classify_batch(&mut self, width: usize) -> Result<(), CoreError> {
        let detector = &self.artifacts.detector;
        self.tracer.enter(Layer::ClassifyBatch);
        self.tracer.enter(Layer::Critic);
        detector.predictor().is_adversarial_batch_into(
            &self.batch_rows,
            &mut self.critic,
            &mut self.values,
            &mut self.flags,
        );
        self.tracer.exit();
        self.clean.clear();
        for (i, &flagged) in self.flags.iter().enumerate() {
            let row = &self.batch_rows[i * width..(i + 1) * width];
            if flagged {
                self.tracer.enter(Layer::QuarantinePush);
                let pushed = detector.classify_into(row, &mut self.push_arena);
                self.tracer.exit();
                if pushed? != Verdict::AdversarialAttack {
                    return Err(CoreError::Invalid(
                        "single-row critic disagrees with the batch",
                    ));
                }
            } else {
                self.clean.extend_from_slice(row);
            }
        }
        self.routed.clear();
        if !self.clean.is_empty() {
            self.tracer.enter(Layer::Route);
            let routed = detector.controller().predict_batch_into(
                detector.models(),
                &self.clean,
                width,
                &mut self.route,
                &mut self.probs,
                &mut self.routed,
            );
            self.tracer.exit();
            routed?;
        }
        self.tracer.exit();
        self.verdicts.clear();
        let mut routed = self.routed.iter();
        for &flagged in &self.flags {
            self.verdicts.push(if flagged {
                Verdict::AdversarialAttack
            } else if *routed.next().expect("one verdict per unflagged row") {
                Verdict::MalwareAttack
            } else {
                Verdict::Benign
            });
        }
        self.counts.classified += self.flags.len() as u64;
        self.counts.flagged += self.flags.iter().filter(|&&f| f).count() as u64;
        Ok(())
    }

    /// `ServingSession::record_verdict` (recorder, digest, monitoring).
    fn record_verdict(
        &mut self,
        row: &[f64],
        truth_attack: bool,
        verdict: Verdict,
        (latency_ns, model_latency_ns, draw_ns, transform_ns): (u64, u64, u64, u64),
    ) -> Result<(), CoreError> {
        let sample = self.processed as u64;
        self.processed += 1;
        let now_ns = self.processed as u64 * self.cfg.tick_ns;
        let t_enter = Instant::now();
        let critic_score = if let Some(ring) = &mut self.ring {
            let stamp = WindowStamp {
                sample,
                t_ns: now_ns,
                generation: self.generation as u64,
                model_latency_ns,
            };
            self.tracer.enter(Layer::RecorderRecord);
            let score = ring.record(&self.artifacts.detector, row, verdict, stamp);
            self.tracer.exit();
            score?
        } else {
            0.0
        };
        let critic_ns = nanos(t_enter);
        self.digest = recorder::digest_step(self.digest, verdict);
        self.read.t_ns.store(now_ns, Ordering::Relaxed);
        if self.cfg.monitoring {
            let record = SampleRecord {
                truth_attack,
                verdict_attack: verdict.is_attack(),
                flagged_adversarial: verdict == Verdict::AdversarialAttack,
                latency_ns,
                model_latency_ns,
                sample,
                generation: self.generation as u64,
            };
            self.tracer.enter(Layer::MonitorRecord);
            self.read.monitor.record_at(now_ns, record);
            self.hist_acc.observe(&record, critic_score);
            let mut stage_ns = [0_u64; 6];
            stage_ns[0] = draw_ns;
            stage_ns[1] = stage_ns[0].saturating_add(transform_ns);
            stage_ns[2] = stage_ns[1].saturating_add(model_latency_ns);
            stage_ns[3] = stage_ns[2].saturating_add(critic_ns);
            stage_ns[4] = stage_ns[3];
            stage_ns[5] = stage_ns[4].saturating_add(nanos(t_enter).saturating_sub(critic_ns));
            self.promote_trace(sample, now_ns, verdict, stage_ns);
            self.tracer.exit();
            self.observe_periodic(now_ns);
        }
        Ok(())
    }

    fn promote_trace(&mut self, sample: u64, t_ns: u64, verdict: Verdict, stage_ns: [u64; 6]) {
        let total = stage_ns[5];
        let reason = if verdict == Verdict::AdversarialAttack {
            Some(TraceReason::Flagged)
        } else if total > self.latency_tail_max {
            Some(TraceReason::LatencyTail)
        } else {
            None
        };
        self.latency_tail_max = self.latency_tail_max.max(total);
        if let Some(reason) = reason {
            self.traces.push(WindowTrace {
                sample,
                t_ns,
                generation: self.generation as u64,
                verdict,
                reason,
                stage_ns,
                latency_ns: total,
            });
        }
    }

    /// The periodic half of `ServingSession::observe`: history flush,
    /// alert evaluation (and incident capture on a fire edge), and the
    /// integrity check over the windowed confusion.
    fn observe_periodic(&mut self, now_ns: u64) {
        let processed = self.processed as u64;
        if processed.is_multiple_of(FINE_EVERY) {
            self.tracer.enter(Layer::HistoryFlush);
            let point = self.hist_acc.flush(
                processed,
                now_ns,
                self.artifacts.detector.quarantined() as u64,
                self.generation as u64,
            );
            self.read.history.push(point);
            self.tracer.exit();
        }
        if self.processed.is_multiple_of(self.cfg.evaluate_every) {
            self.tracer.enter(Layer::AlertEvaluate);
            let snap = self.read.monitor.snapshot_at(now_ns);
            let edges = self.read.engine().evaluate(&snap);
            if edges.iter().any(|e| e.firing) {
                self.tracer.enter(Layer::RecorderIncident);
                self.capture_incident(now_ns, &snap, &edges);
                self.tracer.exit();
            }
            self.tracer.exit();
        }
        if self.processed.is_multiple_of(self.cfg.integrity_every) {
            self.tracer.enter(Layer::ConfusionCheck);
            let snap = self.read.monitor.snapshot_at(now_ns);
            let matrix = ConfusionMatrix {
                tp: snap.tp as usize,
                fp: snap.fp as usize,
                tn: snap.tn as usize,
                fn_: snap.fn_ as usize,
            };
            if matrix.total() > 0 {
                let stable = self
                    .artifacts
                    .monitor
                    .confusion_is_stable(SERVING_BASELINE, &matrix)
                    .unwrap_or(false);
                if !stable {
                    self.read.monitor.record_drift_at(now_ns);
                }
            }
            self.tracer.exit();
        }
    }

    /// `ServingSession::capture_incident`: snapshot the flight recorder
    /// and the shard's state into a bounded incident store.
    fn capture_incident(
        &mut self,
        now_ns: u64,
        snap: &hmd_obs::MonitorSnapshot,
        edges: &[hmd_obs::AlertTransition],
    ) {
        let Some(ring) = &self.ring else { return };
        let triggers = recorder::triggers_from_edges(edges, &self.cfg.rules);
        let alerts_firing: Vec<String> = self
            .read
            .engine()
            .firing()
            .map(|r| r.name.to_owned())
            .collect();
        let mut config = self.cfg.clone();
        config.stream_seed = shard_stream_seed(self.cfg.stream_seed, self.shard);
        config.calibration_samples = self.base_calibration_samples;
        let seq = self.incident_seq;
        self.incident_seq += 1;
        let bundle = IncidentBundle {
            id: format!("s{}-i{}", self.shard, seq),
            shard: self.shard,
            seq,
            t_ns: now_ns,
            sample_index: self.processed as u64,
            generation: self.generation as u64,
            stream_seed: self.cfg.stream_seed,
            verdict_digest: ring.digest(),
            triggers,
            alerts_firing,
            monitor: IncidentMonitor::capture(snap),
            model_names: self
                .artifacts
                .detector
                .models()
                .iter()
                .map(|m| m.name().to_owned())
                .collect(),
            config,
            shards: self.n_shards,
            windows: ring.snapshot_windows(),
            traces: self.traces.flagged(),
        };
        // bounded like the shard's own store: the last 8 bundles
        if self.incidents.len() == 8 {
            self.incidents.remove(0);
        }
        self.incidents.push(bundle);
        self.read.incidents.fetch_add(1, Ordering::Relaxed);
    }

    /// At a retraining boundary, run the hub's round inline (this shard
    /// is the only one, so it is what the hub would wait for), then
    /// adopt the new generation as `sync_generation` does.
    fn sync_generation(&mut self) -> Result<(), CoreError> {
        let every = self.cfg.retrain_every;
        if every == 0
            || self.processed == 0
            || self.processed >= self.cfg.samples
            || !self.processed.is_multiple_of(every)
        {
            return Ok(());
        }
        let want = self.processed / every;
        if want <= self.generation {
            return Ok(());
        }
        self.tracer.enter(Layer::HubStall);
        let round = self.run_round(want);
        self.tracer.exit();
        let rules = round?;
        self.read.engine().set_rules(&rules);
        self.cfg.rules = rules;
        self.generation = want;
        self.read.generation.store(want as u64, Ordering::Relaxed);
        Ok(())
    }

    /// `ModelHub::run_round`: drain → canonical order → refit →
    /// detector around the shared predictor → recalibrate → re-hash →
    /// swap, plus the shard's arena and recorder re-warm.
    fn run_round(&mut self, generation: usize) -> Result<Vec<hmd_obs::SloRule>, CoreError> {
        let mut rules = self.cfg.rules.clone();
        let old = Arc::clone(&self.artifacts);
        if old.detector.quarantined() == 0 {
            return Ok(rules);
        }
        let drained = canonical_quarantine_order(&old.detector.take_quarantine())?;
        let mut models = classical_models();
        self.tracer.enter(Layer::RetrainingRound);
        let absorbed = Framework::retraining_round(&mut models, &mut self.training, &drained);
        self.tracer.exit();
        let absorbed = absorbed?;
        let detector = AdaptiveDetector::with_shared_predictor(
            old.detector.predictor_handle(),
            old.detector.controller().clone(),
            models,
            old.bundle.feature_names.clone(),
        )?;
        detector.set_quarantine_cap(old.detector.quarantine_cap());
        let fresh = Arc::new(ServingArtifacts {
            bundle: old.bundle.clone(),
            attacks: old.attacks.clone(),
            detector,
            monitor: MetricMonitor::new(self.cal_cfg.framework.integrity_tolerance),
            kind: old.kind,
            training: self.training.clone(),
        });
        if self.cal_cfg.calibration_samples > 0 {
            let mut cal = self.cal_cfg.clone();
            cal.stream_seed =
                self.cal_cfg.stream_seed ^ (generation as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
            let report = calibrate(&fresh, &cal, &self.feature_idx, &mut self.tracer)?;
            self.read
                .calibration_quarantined
                .fetch_add(report.quarantined as u64, Ordering::Relaxed);
            report.adapt_rules(&mut rules);
        } else if let Some(baseline) = old.monitor.baseline(SERVING_BASELINE) {
            fresh.monitor.record_baseline(SERVING_BASELINE, baseline);
        }
        register_generation(&self.registry, &fresh, generation as u64, &mut self.tracer)?;
        self.artifacts = fresh;
        let width = self.feature_idx.len();
        let batch = self.cfg.batch.max(1);
        let detector = &self.artifacts.detector;
        self.critic = detector.predictor().infer_scratch(batch);
        self.route = detector.models()[detector.controller().selected_model()].make_scratch(batch);
        self.push_arena = detector.warmup(width, batch);
        if let Some(ring) = &mut self.ring {
            ring.rewarm(detector);
        }
        self.counts.absorbed_rows += absorbed as u64;
        self.read.swaps.fetch_add(1, Ordering::Relaxed);
        self.read
            .absorbed
            .fetch_add(absorbed as u64, Ordering::Relaxed);
        Ok(rules)
    }
}

/// Lexicographic row order over feature values (`f64::total_cmp`), the
/// hub's canonical retraining order.
fn canonical_quarantine_order(q: &Dataset) -> Result<Dataset, CoreError> {
    let mut idx: Vec<usize> = (0..q.len()).collect();
    idx.sort_by(|&a, &b| match (q.row(a), q.row(b)) {
        (Ok(ra), Ok(rb)) => ra
            .iter()
            .zip(rb)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal),
        _ => std::cmp::Ordering::Equal,
    });
    Ok(q.subset(&idx)?)
}

/// Re-hashes every deployed model into the registry: each model's
/// probability surface over the first 32 training rows.
fn register_generation(
    registry: &ModelRegistry,
    artifacts: &ServingArtifacts,
    generation: u64,
    tracer: &mut Tracer,
) -> Result<(), CoreError> {
    tracer.enter(Layer::IntegrityRegister);
    let probe_idx: Vec<usize> = (0..artifacts.bundle.train.len().min(32)).collect();
    let probe = artifacts.bundle.train.subset(&probe_idx);
    let result = probe.map(|probe| {
        for model in artifacts.detector.models() {
            let mut bytes = Vec::with_capacity(probe.len() * 8);
            for (row, _) in &probe {
                let p = model.predict_proba_row(row).unwrap_or(f64::NAN);
                bytes.extend_from_slice(&p.to_le_bytes());
            }
            registry.register(model.name(), &bytes, generation);
        }
    });
    tracer.exit();
    Ok(result?)
}
