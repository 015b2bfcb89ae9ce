//! One workload run in this process: guards, set-up, serving, checks,
//! and the printed result (human-readable lines, then the one-line JSON
//! result a caller parses).

use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use hmd_core::ServingArtifacts;
use hmd_obs::HttpServer;
use hmd_util::json::Json;

use crate::replica::{self, Layer, Replica, SetupPhases, Tracer};
use crate::scrape::ScrapeRun;
use crate::workload::{self, Deployment, Plan, ServeRun, Workload, SETUP_REPEATS};
use crate::{procfs, stats};

/// Prefix of the provenance line every run prints.
pub const PROVENANCE_PREFIX: &str = "provenance ";

/// A named measurement with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Correctness bookkeeping: attempted vs failed per kind, plus named
/// check failures.
#[derive(Default)]
struct Checks {
    kinds: Vec<(&'static str, u64, u64)>,
    failures: Vec<String>,
}

impl Checks {
    fn count(&mut self, kind: &'static str, attempted: u64, failed: u64) {
        self.kinds.push((kind, attempted, failed));
    }

    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    fn correct(&self) -> bool {
        self.failures.is_empty() && self.kinds.iter().all(|k| k.2 == 0)
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn join(values: &[f64], digits: usize) -> String {
    values
        .iter()
        .map(|v| format!("{v:.digits$}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn ns_f64(v: &[u64]) -> Vec<f64> {
    v.iter().map(|&x| x as f64).collect()
}

/// Runs `w` once in this process and prints its result.
pub fn run_workload(w: Workload, seed: u64, seconds: u64, trace: bool) -> ExitCode {
    let plan = Plan::new(w, seed, seconds);
    if let Err(why) = plan.check() {
        eprintln!("servebench: refusing {}: {why}", w.name());
        return ExitCode::from(3);
    }
    let outcome = if trace {
        traced(&plan)
    } else {
        untraced(&plan)
    };
    match outcome {
        Ok((checks, metrics)) => emit(&checks, &metrics),
        Err(e) => {
            eprintln!("servebench: {} failed: {e}", w.name());
            ExitCode::FAILURE
        }
    }
}

/// The provenance stamp of a run.
fn provenance(plan: &Plan, routed_model: &str, runq: f64, steal: f64) {
    let p = Json::Obj(vec![
        ("workload".into(), Json::Str(plan.workload.name().into())),
        ("seed".into(), Json::UInt(plan.seed)),
        ("seconds".into(), Json::UInt(plan.seconds)),
        ("nproc".into(), Json::UInt(plan.nproc as u64)),
        ("shards".into(), Json::UInt(plan.shards as u64)),
        (
            "driving_threads".into(),
            Json::UInt(plan.driving_threads() as u64),
        ),
        (
            "par_max_threads".into(),
            Json::UInt(hmd_util::par::max_threads() as u64),
        ),
        ("batch".into(), Json::UInt(plan.cfg.batch as u64)),
        ("traffic".into(), Json::Str(plan.traffic().into())),
        (
            "budget_per_shard".into(),
            Json::UInt(plan.cfg.samples as u64),
        ),
        ("replay_ring".into(), Json::UInt(plan.cfg.replay as u64)),
        (
            "retrain_every".into(),
            Json::UInt(plan.cfg.retrain_every as u64),
        ),
        ("git_rev".into(), Json::Str(procfs::git_rev())),
        ("routed_model".into(), Json::Str(routed_model.into())),
        ("runq_wait_share".into(), Json::Float(runq)),
        ("host_steal_share".into(), Json::Float(steal)),
    ]);
    println!("{PROVENANCE_PREFIX}{p}");
}

fn routed_model(artifacts: &ServingArtifacts) -> &str {
    artifacts.detector.active_model().name()
}

/// Set-up `SETUP_REPEATS` times (each from scratch, the previous one
/// dropped first); returns the last deployment and every set-up time.
fn setup(plan: &Plan) -> Result<(Deployment, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut dep = None;
    for _ in 0..SETUP_REPEATS {
        drop(dep.take());
        let t = Instant::now();
        dep = Some(workload::deploy(plan).map_err(|e| e.to_string())?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((dep.expect("at least one set-up"), times))
}

/// Checks every trace-0 run makes on the untraced serving phase.
fn check_serving(plan: &Plan, dep: &Deployment, run: &ServeRun, checks: &mut Checks) {
    let budget = plan.cfg.samples as u64;
    let processed: u64 = run.shards.iter().map(|s| s.processed as u64).sum();
    checks.count(
        "windows",
        budget * plan.shards as u64,
        budget * plan.shards as u64 - processed,
    );
    for (i, s) in run.shards.iter().enumerate() {
        checks.require(s.error.is_none(), || {
            format!("shard {i}: {}", s.error.clone().unwrap_or_default())
        });
        checks.require(s.processed == plan.cfg.samples, || {
            format!(
                "shard {i} processed {} of {}",
                s.processed, plan.cfg.samples
            )
        });
    }
    if plan.seed == workload::DEFAULT_SEED && plan.seconds == workload::DEFAULT_SECONDS {
        let pinned = plan.workload.pinned_digests();
        for (i, s) in run.shards.iter().enumerate() {
            checks.require(pinned.get(i) == Some(&s.digest), || {
                format!(
                    "shard {i} digest {:#018x} != pinned {:?}",
                    s.digest,
                    pinned.get(i)
                )
            });
        }
    }
    if let Some(hub) = dep.sessions[0].hub() {
        let rounds = hub.scheduled_rounds() as u64;
        checks.count("swaps", rounds, rounds.saturating_sub(hub.swaps()));
        for (i, s) in run.shards.iter().enumerate() {
            checks.require(s.generation == rounds, || {
                format!("shard {i} ended on generation {} of {rounds}", s.generation)
            });
        }
    }
    if let Some(scr) = &run.scrape {
        checks.count("scrapes", scr.attempted, scr.failed);
        if scr.attempted < 1000 {
            // a sample-size shortfall, not a wrong answer: each scrape
            // is still checked; the p99 has fewer than 10 beyond it
            println!(
                "note: {} scrapes answered (< 1000): the scrape p99 is under-sampled",
                scr.attempted
            );
        }
    }
    if plan.workload == Workload::ReplayScraped {
        let s0 = &dep.sessions[0];
        checks.require(s0.outcome().alert_transitions >= 1, || {
            "no alert fired".into()
        });
        checks.require(s0.incidents_total() >= 1, || "no incident captured".into());
    }
    let batches: usize = run.shards.iter().map(|s| s.batch_ns.len()).sum();
    checks.require(batches >= 1000, || {
        format!("only {batches} timed batches (< 1000)")
    });
    for (i, s) in run.shards.iter().enumerate() {
        println!(
            "shard {i}: processed {} digest {:#018x} generation {} wall {:.3} s",
            s.processed, s.digest, s.generation, s.wall_s
        );
    }
}

fn scrape_quantiles_ms(scr: &ScrapeRun) -> (f64, f64) {
    let v = ns_f64(&scr.latency_ns);
    (ms(stats::quantile(&v, 0.5)), ms(stats::quantile(&v, 0.99)))
}

/// Trace 0: the end-to-end metrics.
fn untraced(plan: &Plan) -> Result<(Checks, Vec<Metric>), String> {
    let (mut dep, setup_s) = setup(plan)?;
    let run = workload::serve(&mut dep, plan);
    let mut checks = Checks::default();
    check_serving(plan, &dep, &run, &mut checks);
    provenance(
        plan,
        routed_model(&dep.artifacts),
        run.runq_wait_share,
        run.steal_share,
    );
    let processed: usize = run.shards.iter().map(|s| s.processed).sum();
    println!("setup_s per repeat: {}", join(&setup_s, 4));
    // medians over equal-window segments: a transient neighbour burst
    // moves a few segments, not the reported figure
    for (i, sh) in run.shards.iter().enumerate() {
        println!("shard {i} segment wps: {}", join(&sh.segment_rates(), 0));
    }
    let seg_cpu = workload::segment_cpu_us(&run);
    println!("segment cpu_us: {}", join(&seg_cpu, 1));
    println!(
        "whole-run cpu_us_per_window = {:.3} us",
        run.cpu_s * 1e6 / processed.max(1) as f64
    );
    let wps: f64 = run
        .shards
        .iter()
        .map(|s| stats::median(&s.segment_rates()))
        .sum();
    // workload-specific user-visible metrics: printed here, and carried
    // by the traced run's per-layer JSON (they exist on one workload
    // only, while every end-to-end JSON metric exists on all three)
    let stall_ns: Vec<f64> = run
        .shards
        .iter()
        .flat_map(|s| ns_f64(&s.stall_ns))
        .collect();
    if !stall_ns.is_empty() {
        let p50 = ms(stats::median(&stall_ns));
        println!(
            "metric swap_stall_p50_ms = {p50:.4} ms ({} stalls)",
            stall_ns.len()
        );
    }
    // the p99 tail is reported but not bounded: on a shared 2-core box
    // its run-to-run spread exceeds any useful bound (see NOTES.md)
    let p99 = workload::chunked_quantile(&run, 0.99) / 1e3;
    println!("metric verdict_latency_p99_us = {p99:.3} us");
    if let Some(scr) = &run.scrape {
        let (p50, p99) = scrape_quantiles_ms(scr);
        println!(
            "metric scrape_latency_p50_ms = {p50:.4} ms ({} scrapes)",
            scr.attempted
        );
        println!("metric scrape_latency_p99_ms = {p99:.4} ms");
    }
    drop(dep);
    let metrics = vec![
        m("setup_s", stats::median(&setup_s), "s"),
        m("throughput_wps", wps, "1/s"),
        m("cpu_us_per_window", stats::median(&seg_cpu), "us"),
        m(
            "verdict_latency_p50_us",
            workload::chunked_quantile(&run, 0.5) / 1e3,
            "us",
        ),
        m(
            "verdict_latency_p95_us",
            workload::chunked_quantile(&run, 0.95) / 1e3,
            "us",
        ),
        m("peak_rss_mb", procfs::peak_rss_mb().unwrap_or(0.0), "MiB"),
    ];
    Ok((checks, metrics))
}

/// Serves every replica to its budget on a thread of its own (plus the
/// scraper against replica 0's endpoint); per replica, its serving wall
/// time and how its loop ended.
fn serve_replicas(
    replicas: &mut [Replica],
    http: Option<std::net::SocketAddr>,
) -> workload::Parallel<(f64, Result<(), String>)> {
    workload::in_parallel(replicas, http, |_, r| {
        let t = Instant::now();
        let res = loop {
            match r.step_batch() {
                Ok(0) => break Ok(()),
                Ok(_) => {}
                Err(e) => break Err(e.to_string()),
            }
        };
        (t.elapsed().as_secs_f64(), res)
    })
}

/// Trace 1: untraced reference run, the traced replicas, and a second
/// untraced run; per-layer metrics and the layer table. The two
/// untraced runs bracket the traced one, so a host that speeds up or
/// slows down across the run moves both sides of the overhead ratio.
fn traced(plan: &Plan) -> Result<(Checks, Vec<Metric>), String> {
    let mut checks = Checks::default();
    // untraced reference: the digests the replicas must reproduce and
    // the per-window wall time tracing overhead is measured against
    let mut dep = workload::deploy(plan).map_err(|e| e.to_string())?;
    let reference = workload::serve(&mut dep, plan);
    check_serving(plan, &dep, &reference, &mut checks);
    let ref_incidents: u64 = dep.sessions.iter().map(|s| s.incidents_total()).sum();
    drop(dep);

    // traced set-up: prepare_serving phase by phase, then the replicas
    let mut phases = SetupPhases::default();
    let artifacts = Arc::new(
        replica::prepare_serving_phased(&plan.cfg, &mut phases).map_err(|e| e.to_string())?,
    );
    let t = Instant::now();
    let mut setup_tracer = Tracer::new();
    let mut replicas: Vec<Replica> = Vec::with_capacity(plan.shards);
    for i in 0..plan.shards {
        let cfg = plan.shard_cfg(i, replicas.first().map(Replica::slo_rules));
        let r = Replica::assemble(
            cfg,
            Arc::clone(&artifacts),
            i,
            plan.shards,
            plan.cfg.calibration_samples,
            &mut setup_tracer,
        )
        .map_err(|e| e.to_string())?;
        replicas.push(r);
    }
    let mut server = None;
    if plan.scraper {
        let read = Arc::clone(&replicas[0].read);
        let s = HttpServer::start(
            "127.0.0.1:0",
            Arc::new(move |req: &hmd_obs::Request| read.handle(&req.path)),
        )
        .map_err(|e| e.to_string())?;
        server = Some(s);
    }
    phases.assemble_s = t.elapsed().as_secs_f64();
    let served = serve_replicas(&mut replicas, server.as_ref().map(HttpServer::addr));
    let walls: Vec<f64> = served.shards.iter().map(|(wall, _)| *wall).collect();
    if let Some(mut s) = server {
        s.shutdown();
    }

    // correctness: each replica reproduces its untraced shard
    for (_, res) in &served.shards {
        if let Err(e) = res {
            checks.require(false, || format!("replica: {e}"));
        }
    }
    let mut serve_tracer = Tracer::new();
    let mut counts = replica::Counts::default();
    for (i, (r, s)) in replicas.iter().zip(&reference.shards).enumerate() {
        println!(
            "replica {i}: processed {} digest {:#018x} generation {}",
            r.processed(),
            r.digest(),
            r.generation()
        );
        checks.require(r.digest() == s.digest, || {
            format!(
                "replica {i} digest {:#018x} != untraced {:#018x}",
                r.digest(),
                s.digest
            )
        });
        checks.require(r.processed() == plan.cfg.samples, || {
            format!("replica {i} short of budget")
        });
        serve_tracer.absorb(&r.tracer);
        counts.absorb(&r.counts);
    }
    if let Some(scr) = &served.scrape {
        checks.count("replica_scrapes", scr.attempted, scr.failed);
    }
    // the closing bracket: same workload, fresh deployment, untraced
    let mut dep = workload::deploy(plan).map_err(|e| e.to_string())?;
    let after = workload::serve(&mut dep, plan);
    drop(dep);
    for (i, (a, b)) in after.shards.iter().zip(&reference.shards).enumerate() {
        checks.require(a.digest == b.digest && a.processed == b.processed, || {
            format!("untraced shard {i} did not repeat its digest")
        });
    }
    let wall_list =
        |run: &ServeRun| join(&run.shards.iter().map(|s| s.wall_s).collect::<Vec<_>>(), 3);
    println!(
        "serving wall per shard (s): untraced before {}, traced {}, untraced after {}",
        wall_list(&reference),
        join(&walls, 3),
        wall_list(&after)
    );
    let incidents = serve_tracer.get(Layer::RecorderIncident).calls;
    println!("incidents: untraced {ref_incidents}, replicas {incidents}");
    let history_json_ns = replicas[0].time_history_json(16);
    let training_rows = replicas[0].training_rows();

    // accounting
    let windows: u64 = replicas.iter().map(|r| r.processed() as u64).sum();
    let untraced_wall: f64 = reference
        .shards
        .iter()
        .chain(&after.shards)
        .map(|s| s.wall_s)
        .sum::<f64>()
        / 2.0;
    let traced_wall: f64 = walls.iter().sum();
    let coverage = serve_tracer.self_sum_ns() as f64 / 1e9 / untraced_wall;
    let overhead = traced_wall / untraced_wall - 1.0;
    let ref_walls: Vec<f64> = reference.shards.iter().map(|s| s.wall_s).collect();
    let skew = ref_walls.iter().copied().fold(f64::MIN, f64::max)
        / ref_walls.iter().copied().fold(f64::MAX, f64::min);

    let mut all = Tracer::new();
    all.absorb(&serve_tracer);
    all.absorb(&setup_tracer);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let per_call = |t: &Tracer, l: Layer| ratio(t.get(l).total_ns, t.get(l).calls);
    let self_per_call = |t: &Tracer, l: Layer| ratio(t.get(l).self_ns, t.get(l).calls);
    let per_window = |l: Layer| ratio(serve_tracer.get(l).total_ns, windows);
    let rounds = serve_tracer.get(Layer::HubStall).calls;
    let per_round = |l: Layer| {
        if rounds == 0 {
            0.0
        } else {
            ms(serve_tracer.get(l).total_ns as f64) / rounds as f64
        }
    };
    let (scrape_p50, scrape_p99) = reference
        .scrape
        .as_ref()
        .map_or((0.0, 0.0), scrape_quantiles_ms);
    let stall_ns: Vec<f64> = reference
        .shards
        .iter()
        .flat_map(|s| ns_f64(&s.stall_ns))
        .collect();
    let (lag_ms, scrape_failed) = served.scrape.as_ref().map_or((0.0, 0.0), |s| {
        (ms(stats::median(&ns_f64(&s.lag_ns))), s.failed as f64)
    });
    let render = &replicas[0].read;
    let render_calls = render.render_calls.load(Ordering::Relaxed);

    print_layer_table(plan, &serve_tracer, windows, traced_wall);
    provenance(
        plan,
        routed_model(&artifacts),
        served.runq_wait_share,
        served.steal_share,
    );

    let metrics = vec![
        m(
            "sim.stream_next.ns",
            per_call(&all, Layer::StreamNext),
            "ns",
        ),
        m(
            "sim.stream_next.calls",
            all.get(Layer::StreamNext).calls as f64,
            "count",
        ),
        m(
            "sim.adv_pool_share",
            ratio(counts.injected, counts.drawn),
            "ratio",
        ),
        m(
            "tabular.transform_row.ns",
            per_call(&all, Layer::TransformRow),
            "ns",
        ),
        m(
            "core.classify_batch.ns_per_window",
            per_window(Layer::ClassifyBatch),
            "ns",
        ),
        m("rl.critic.ns_per_window", per_window(Layer::Critic), "ns"),
        m("rl.route.ns_per_window", per_window(Layer::Route), "ns"),
        m(
            "rl.critic.flag_share",
            ratio(counts.flagged, counts.classified),
            "ratio",
        ),
        m(
            "core.quarantine_push.calls",
            serve_tracer.get(Layer::QuarantinePush).calls as f64,
            "count",
        ),
        m(
            "recorder.record.ns_per_window",
            per_window(Layer::RecorderRecord),
            "ns",
        ),
        m("recorder.incident.calls", incidents as f64, "count"),
        m(
            "recorder.incident.ns",
            per_call(&serve_tracer, Layer::RecorderIncident),
            "ns",
        ),
        m(
            "obs.monitor_record.ns_per_window",
            per_window(Layer::MonitorRecord),
            "ns",
        ),
        m(
            "obs.history_flush.ns",
            per_call(&serve_tracer, Layer::HistoryFlush),
            "ns",
        ),
        m(
            "obs.history_flush.calls",
            serve_tracer.get(Layer::HistoryFlush).calls as f64,
            "count",
        ),
        m(
            "obs.alert_evaluate.ns",
            self_per_call(&serve_tracer, Layer::AlertEvaluate),
            "ns",
        ),
        m(
            "obs.alert_evaluate.calls",
            serve_tracer.get(Layer::AlertEvaluate).calls as f64,
            "count",
        ),
        m(
            "integrity.confusion_check.ns",
            per_call(&serve_tracer, Layer::ConfusionCheck),
            "ns",
        ),
        m(
            "integrity.confusion_check.calls",
            serve_tracer.get(Layer::ConfusionCheck).calls as f64,
            "count",
        ),
        m(
            "obs.render_metrics.ns",
            ratio(render.render_ns.load(Ordering::Relaxed), render_calls),
            "ns",
        ),
        m(
            "obs.render_metrics.bytes",
            ratio(render.render_bytes.load(Ordering::Relaxed), render_calls),
            "B",
        ),
        m("obs.history_json.ns", history_json_ns, "ns"),
        m("http.scrape.lag_ms", lag_ms, "ms"),
        m("http.scrape.failed", scrape_failed, "count"),
        m("hub.stall_ms", per_round(Layer::HubStall), "ms"),
        m(
            "core.retraining_round.ms",
            per_round(Layer::RetrainingRound),
            "ms",
        ),
        m(
            "hub.other_ms",
            per_round(Layer::HubStall) - per_round(Layer::RetrainingRound),
            "ms",
        ),
        m("hub.absorbed_rows", counts.absorbed_rows as f64, "count"),
        m(
            "hub.training_rows",
            if rounds == 0 {
                0.0
            } else {
                training_rows as f64
            },
            "count",
        ),
        m(
            "integrity.register.ns",
            per_call(&all, Layer::IntegrityRegister),
            "ns",
        ),
        m("fleet.shard_skew", skew, "ratio"),
        m("setup.prepare_data_s", phases.prepare_data_s, "s"),
        m("setup.generate_attacks_s", phases.generate_attacks_s, "s"),
        m("setup.train_predictor_s", phases.train_predictor_s, "s"),
        m("setup.fit_models_s", phases.fit_models_s, "s"),
        m("setup.train_controller_s", phases.train_controller_s, "s"),
        m("setup.assemble_s", phases.assemble_s, "s"),
        m("trace.coverage", coverage, "ratio"),
        m("trace.overhead", overhead, "ratio"),
        m("proc.runq_wait_share", served.runq_wait_share, "ratio"),
        m(
            "serve.verdict_latency_p99_us",
            workload::chunked_quantile(&reference, 0.99) / 1e3,
            "us",
        ),
        m(
            "serve.swap_stall_p50_ms",
            ms(stats::median(&stall_ns)),
            "ms",
        ),
        m("serve.scrape_latency_p50_ms", scrape_p50, "ms"),
        m("serve.scrape_latency_p99_ms", scrape_p99, "ms"),
    ];
    Ok((checks, metrics))
}

fn print_layer_table(plan: &Plan, t: &Tracer, windows: u64, traced_wall: f64) {
    println!(
        "layer table: {} ({} shard(s), {windows} windows, traced wall {traced_wall:.3} s)",
        plan.workload.name(),
        plan.shards
    );
    println!(
        "{:<28} {:>10} {:>12} {:>12} {:>14} {:>8}",
        "layer", "calls", "total_ms", "self_ms", "self_ns/window", "share"
    );
    for l in Layer::ALL {
        let s = t.get(l);
        if s.calls == 0 {
            continue;
        }
        println!(
            "{:<28} {:>10} {:>12.2} {:>12.2} {:>14.1} {:>7.1}%",
            l.name(),
            s.calls,
            ms(s.total_ns as f64),
            ms(s.self_ns as f64),
            s.self_ns as f64 / windows.max(1) as f64,
            100.0 * s.self_ns as f64 / 1e9 / traced_wall
        );
    }
}

/// Prints the check summary, every metric line, and the final JSON
/// result; exit code 0 only when every check passed.
fn emit(checks: &Checks, metrics: &[Metric]) -> ExitCode {
    for (kind, attempted, failed) in &checks.kinds {
        println!("{kind}: attempted {attempted} failed {failed}");
    }
    for f in &checks.failures {
        println!("CHECK FAILED: {f}");
    }
    for x in metrics {
        println!("metric {} = {} {}", x.name, x.value, x.unit);
    }
    let attempted: u64 = checks.kinds.iter().map(|k| k.1).sum();
    let failed: u64 = checks.kinds.iter().map(|k| k.2).sum::<u64>() + checks.failures.len() as u64;
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(checks.correct())),
        ("attempted".into(), Json::UInt(attempted.max(1))),
        ("failed".into(), Json::UInt(failed)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|x| {
                        (
                            x.name.to_owned(),
                            Json::Obj(vec![
                                ("value".into(), Json::Float(x.value)),
                                ("unit".into(), Json::Str(x.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
    if checks.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
