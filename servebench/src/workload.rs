//! The three workloads, their configurations, and the untraced run that
//! yields the end-to-end metrics: set-up, then every shard driven
//! through the public serving API (`ServingSession::with_artifacts` +
//! `step_batch`) from the benchmark's own threads, with tracing off.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use hmd::serving::{shard_stream_seed, Burst, ServingConfig, ServingSession};
use hmd_core::{CoreError, Framework, ServingArtifacts};
use hmd_obs::SloRule;

use crate::scrape::{self, ScrapeRun};
use crate::{procfs, stats};

/// Seed the pinned digests were recorded for.
pub const DEFAULT_SEED: u64 = 41;
/// Seed of the deployment under test: corpus, attacks and every trained
/// model. `--seed` varies the traffic only. Trained models differ in
/// inference cost from seed to seed (tree shapes, neighbour sets), so
/// re-training per traffic seed would measure different detectors.
pub const TRAIN_SEED: u64 = DEFAULT_SEED;
/// Run length the pinned digests were recorded for (`run_seconds`).
pub const DEFAULT_SECONDS: u64 = 20;

/// Windows every detector call classifies.
pub const BATCH: usize = 32;
/// Pre-drawn replay ring of the replay workloads, in windows.
pub const RING: usize = 2048;
/// Ring windows `[BURST_LO, BURST_HI)` are drawn 100% adversarial: the
/// burst is applied at pre-draw time, so it has to lie inside the ring.
pub const BURST_LO: usize = 512;
/// End (exclusive) of the in-ring burst.
pub const BURST_HI: usize = 1024;
const _: () = assert!(
    BURST_LO < BURST_HI && BURST_HI <= RING,
    "the burst must lie inside the ring"
);
/// Hot-swaps the `retrain` workload schedules.
pub const RETRAIN_ROUNDS: usize = 8;
/// Open-loop scrape rate of `replay_scraped`.
pub const SCRAPE_HZ: f64 = 200.0;
/// Set-ups per run; `setup_s` is their median and the last one serves.
pub const SETUP_REPEATS: usize = 7;
/// Equal-window segments per shard for the median rates of `live` and
/// `replay_scraped`.
pub const SEGMENTS: usize = 20;

/// Per-shard windows served per second of `--seconds`. Budgets are
/// fixed counts (so digests can be pinned) sized to take about
/// `--seconds` on a 2-core x86-64 box.
const LIVE_WPS: u64 = 3_600;
const REPLAY_WPS: u64 = 45_000;
/// `retrain` windows per generation per second of `--seconds`, sized so
/// the eight rounds (~5 s, independent of the budget) stay about half of
/// the run's wall time on a 2-core box.
const RETRAIN_WINDOWS_PER_GEN: u64 = 1_280;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `nproc` shards of live synthesized traffic.
    Live,
    /// One shard of replay-ring traffic under an open-loop scraper.
    ReplayScraped,
    /// One shard of replay-ring traffic with eight hot-swap rounds.
    Retrain,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Live, Workload::ReplayScraped, Workload::Retrain];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Live => "live",
            Workload::ReplayScraped => "replay_scraped",
            Workload::Retrain => "retrain",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Pinned per-shard verdict digests for [`DEFAULT_SEED`] at
    /// [`DEFAULT_SECONDS`] (shard order).
    pub fn pinned_digests(self) -> &'static [u64] {
        match self {
            Workload::Live => &[0x97a5_9cae_6a8b_e42c, 0xbee8_8ac6_f482_0394],
            Workload::ReplayScraped => &[0x95f9_0f43_1447_b3e5],
            Workload::Retrain => &[0xf602_b029_caa1_2a40],
        }
    }
}

/// A workload instantiated for one seed and run length.
#[derive(Clone, Debug)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub nproc: usize,
    pub shards: usize,
    pub scraper: bool,
    /// Fleet base configuration; shard `i` derives its own from it
    /// exactly as `FleetSession` does.
    pub cfg: ServingConfig,
}

fn round_to_batch(n: u64) -> usize {
    let b = BATCH as u64;
    usize::try_from((n / b).max(1) * b).expect("budget fits usize")
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, seconds: u64) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let mut cfg = ServingConfig::quick(TRAIN_SEED);
        cfg.stream_seed = ServingConfig::quick(seed).stream_seed;
        cfg.batch = BATCH;
        cfg.burst = None;
        let (shards, scraper) = match workload {
            Workload::Live => {
                cfg.samples = round_to_batch(seconds * LIVE_WPS);
                (nproc, false)
            }
            Workload::ReplayScraped => {
                cfg.samples = round_to_batch(seconds * REPLAY_WPS);
                cfg.replay = RING;
                let n = cfg.samples as f64;
                cfg.burst = Some(Burst {
                    start: BURST_LO as f64 / n,
                    end: BURST_HI as f64 / n,
                    adv_fraction: 1.0,
                });
                (1, true)
            }
            Workload::Retrain => {
                cfg.replay = RING;
                cfg.retrain_every = round_to_batch(seconds * RETRAIN_WINDOWS_PER_GEN);
                cfg.samples = cfg.retrain_every * (RETRAIN_ROUNDS + 1);
                (1, false)
            }
        };
        Self {
            workload,
            seed,
            seconds,
            nproc,
            shards,
            scraper,
            cfg,
        }
    }

    /// The configuration of shard `i`, derived from the base the way
    /// `FleetSession::with_artifacts` derives it: decorrelated stream
    /// seed, calibration on shard 0 only, shard 0's adapted SLO rules.
    pub fn shard_cfg(&self, i: usize, shard0_rules: Option<&[SloRule]>) -> ServingConfig {
        let mut cfg = self.cfg.clone();
        cfg.stream_seed = shard_stream_seed(self.cfg.stream_seed, i);
        if let (true, Some(rules)) = (i > 0, shard0_rules) {
            cfg.calibration_samples = 0;
            cfg.rules = rules.to_vec();
        }
        cfg
    }

    /// Threads the benchmark drives during serving.
    pub fn driving_threads(&self) -> usize {
        self.shards + usize::from(self.scraper)
    }

    pub fn traffic(&self) -> &'static str {
        if self.cfg.replay > 0 {
            "replay_ring"
        } else {
            "live_synth"
        }
    }

    /// Configuration guards: busy threads never exceed the cores, and a
    /// multi-core box never measures `live` on a collapsed single shard.
    /// The retrainer runs only while every shard is parked, so its
    /// `hmd_util::par` workers never overlap a busy shard.
    pub fn check(&self) -> Result<(), String> {
        let par = hmd_util::par::max_threads();
        if self.driving_threads() > self.nproc {
            return Err(format!(
                "{} busy benchmark threads exceed nproc {}",
                self.driving_threads(),
                self.nproc
            ));
        }
        if par > self.nproc {
            return Err(format!(
                "hmd_util::par::max_threads() {par} exceeds nproc {}",
                self.nproc
            ));
        }
        if self.workload == Workload::Live && self.nproc > 1 && self.shards < self.nproc {
            return Err(format!(
                "live collapsed to {} shard(s) on {} cores",
                self.shards, self.nproc
            ));
        }
        Ok(())
    }
}

/// Deployed, ready-to-serve state of one set-up.
pub struct Deployment {
    pub artifacts: Arc<ServingArtifacts>,
    pub sessions: Vec<ServingSession>,
    pub http: Option<SocketAddr>,
}

/// One set-up: train ([`Framework::prepare_serving`]) and assemble every
/// shard (calibration, arena warm-up, replay-ring pre-draw), plus the
/// HTTP endpoint when the workload scrapes.
pub fn deploy(plan: &Plan) -> Result<Deployment, CoreError> {
    let artifacts =
        Arc::new(Framework::new(plan.cfg.framework.clone()).prepare_serving(plan.cfg.kind)?);
    let mut sessions: Vec<ServingSession> = Vec::with_capacity(plan.shards);
    for i in 0..plan.shards {
        let cfg = plan.shard_cfg(i, sessions.first().map(ServingSession::slo_rules));
        sessions.push(ServingSession::with_artifacts(cfg, Arc::clone(&artifacts))?);
    }
    let http = if plan.scraper {
        let bound = sessions[0].serve_http("127.0.0.1:0");
        Some(bound.map_err(|_| CoreError::Invalid("cannot bind the benchmark's HTTP endpoint"))?)
    } else {
        None
    };
    Ok(Deployment {
        artifacts,
        sessions,
        http,
    })
}

/// What one shard's serving loop measured.
#[derive(Debug, Default)]
pub struct ShardRun {
    pub processed: usize,
    pub digest: u64,
    pub generation: u64,
    pub wall_s: f64,
    /// Latency of each `step_batch` call that stayed within one model
    /// generation, ns.
    pub batch_ns: Vec<u64>,
    /// Latency of each `step_batch` call that crossed a retraining
    /// boundary (wait + round + arena re-warm), ns.
    pub stall_ns: Vec<u64>,
    /// `(seconds since serving start, windows served)` at each segment
    /// boundary.
    pub seg_marks: Vec<(f64, usize)>,
    /// `(process on-CPU seconds, fleet windows served)` at each boundary
    /// (shard 0 only).
    pub cpu_marks: Vec<(f64, u64)>,
    pub error: Option<String>,
}

/// Segments a run is cut into for its median rates: equal window
/// counts per shard. `retrain` is one segment, the whole run: its
/// boundary stalls grow round by round, so no single segment stands for
/// the rest.
pub fn segments(plan: &Plan) -> usize {
    if plan.cfg.retrain_every > 0 {
        1
    } else {
        SEGMENTS
    }
}

/// Drives one session to its budget from the calling thread, timing
/// every `step_batch` call and marking each segment boundary of its own
/// stream. Shard 0 (`sample_cpu`) also samples process CPU time and
/// fleet-wide progress at its boundaries.
pub fn drive(
    sess: &mut ServingSession,
    budget: usize,
    seg: usize,
    progress: &AtomicU64,
    sample_cpu: bool,
) -> ShardRun {
    let mut run = ShardRun {
        batch_ns: Vec::with_capacity(budget / BATCH + 1),
        ..ShardRun::default()
    };
    let seg_len = (budget / seg).max(1);
    let mut next_mark = seg_len;
    let t0 = Instant::now();
    let mark = |run: &mut ShardRun, processed: usize| {
        run.seg_marks.push((t0.elapsed().as_secs_f64(), processed));
        if sample_cpu {
            let cpu = procfs::cpu_seconds().unwrap_or(0.0);
            run.cpu_marks.push((cpu, progress.load(Ordering::Relaxed)));
        }
    };
    mark(&mut run, 0);
    let mut processed = 0;
    loop {
        let g0 = sess.model_generation();
        let t = Instant::now();
        let n = match sess.step_batch() {
            Ok(n) => n,
            Err(e) => {
                run.error = Some(e.to_string());
                break;
            }
        };
        let dt = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if n == 0 {
            break;
        }
        processed += n;
        progress.fetch_add(n as u64, Ordering::Relaxed);
        if sess.model_generation() == g0 {
            run.batch_ns.push(dt);
        } else {
            run.stall_ns.push(dt);
        }
        if processed >= next_mark {
            mark(&mut run, processed);
            next_mark += seg_len;
        }
    }
    run.wall_s = t0.elapsed().as_secs_f64();
    let outcome = sess.outcome();
    run.processed = outcome.processed;
    run.digest = outcome.digest;
    run.generation = outcome.generation;
    run
}

impl ShardRun {
    /// Windows per second of each segment.
    pub fn segment_rates(&self) -> Vec<f64> {
        self.seg_marks
            .windows(2)
            .map(|w| (w[1].1 - w[0].1) as f64 / (w[1].0 - w[0].0))
            .collect()
    }
}

/// On-CPU µs per window of each of shard 0's segments, process-wide
/// (every thread, the retrainer and HTTP workers included).
pub fn segment_cpu_us(run: &ServeRun) -> Vec<f64> {
    run.shards[0]
        .cpu_marks
        .windows(2)
        .filter(|w| w[1].1 > w[0].1)
        .map(|w| (w[1].0 - w[0].0) * 1e6 / (w[1].1 - w[0].1) as f64)
        .collect()
}

/// Consecutive batches per latency chunk: enough that a chunk's p99 has
/// ten samples beyond it.
pub const LATENCY_CHUNK: usize = 1000;

/// The `q`-quantile of `step_batch` latency (ns), taken per chunk of
/// [`LATENCY_CHUNK`] consecutive batches of one shard and reported as
/// the median over every chunk of every shard. A burst of neighbour
/// load spoils the chunks it lands in, not the reported tail.
pub fn chunked_quantile(run: &ServeRun, q: f64) -> f64 {
    let per_chunk: Vec<f64> = run
        .shards
        .iter()
        .flat_map(|s| {
            let n = (s.batch_ns.len() / LATENCY_CHUNK).max(1);
            let len = s.batch_ns.len() / n;
            (0..n).map(move |i| {
                let chunk: Vec<f64> = s.batch_ns[i * len..(i + 1) * len]
                    .iter()
                    .map(|&x| x as f64)
                    .collect();
                stats::quantile(&chunk, q)
            })
        })
        .collect();
    stats::median(&per_chunk)
}

/// What a parallel phase measured: each worker's result (in worker
/// order) plus what was sampled around the phase.
#[derive(Debug, Default)]
pub struct Parallel<R> {
    pub shards: Vec<R>,
    pub scrape: Option<ScrapeRun>,
    /// Process on-CPU seconds over the phase (`/proc/self/stat`).
    pub cpu_s: f64,
    pub runq_wait_share: f64,
    pub steal_share: f64,
}

/// Everything one serving phase measured.
pub type ServeRun = Parallel<ShardRun>;

/// Runs `work(i, item)` for every item on a thread of its own, plus the
/// open-loop scraper against `http` when given, all released together
/// by one barrier. Process CPU time, run-queue wait and host steal are
/// sampled around the phase; the scraper stops once every worker is
/// done.
pub fn in_parallel<T: Send, R: Send>(
    items: &mut [T],
    http: Option<SocketAddr>,
    work: impl Fn(usize, &mut T) -> R + Sync,
) -> Parallel<R> {
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(items.len() + usize::from(http.is_some()) + 1);
    let sched0 = procfs::task_schedstat();
    let stat0 = procfs::host_cpu_ticks();
    let cpu0 = procfs::cpu_seconds().unwrap_or(0.0);
    let mut own = Vec::new();
    let (shards, scrape) = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| {
                let (barrier, work) = (&barrier, &work);
                scope.spawn(move || {
                    barrier.wait();
                    procfs::with_schedstat(|| work(i, item))
                })
            })
            .collect();
        let scraper = http.map(|addr| {
            let (barrier, stop) = (&barrier, &stop);
            scope.spawn(move || {
                barrier.wait();
                procfs::with_schedstat(|| scrape::run(addr, SCRAPE_HZ, stop))
            })
        });
        barrier.wait();
        let mut shards = Vec::new();
        for h in handles {
            let (run, sched) = h.join().expect("worker thread panicked");
            shards.push(run);
            own.push(sched);
        }
        stop.store(true, Ordering::Relaxed);
        let scrape = scraper.map(|h| {
            let (run, sched) = h.join().expect("scraper thread panicked");
            own.push(sched);
            run
        });
        (shards, scrape)
    });
    Parallel {
        shards,
        scrape,
        cpu_s: procfs::cpu_seconds().unwrap_or(0.0) - cpu0,
        runq_wait_share: procfs::runq_wait_share(&sched0, &procfs::task_schedstat(), &own),
        steal_share: procfs::steal_share(stat0, procfs::host_cpu_ticks()),
    }
}

/// The serving phase: every shard driven to its budget from a benchmark
/// thread of its own, plus the scraper when the workload scrapes.
pub fn serve(dep: &mut Deployment, plan: &Plan) -> ServeRun {
    let (budget, seg) = (plan.cfg.samples, segments(plan));
    let progress = AtomicU64::new(0);
    in_parallel(&mut dep.sessions, dep.http, |i, sess| {
        drive(sess, budget, seg, &progress, i == 0)
    })
}
