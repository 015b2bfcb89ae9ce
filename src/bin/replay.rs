//! `replay` — deterministic forensic replay of an incident bundle.
//!
//! Loads an [`IncidentBundle`](hmd::IncidentBundle) (captured by a
//! serving shard on an SLO alert fire edge and fetched from
//! `/incidents/<id>.json`), rebuilds the serving artifacts at the
//! bundle's pinned model generation(s) from the recorded seed,
//! re-executes every captured window through the detector, and asserts
//! that the replayed verdicts — and their FNV-1a digest — are
//! byte-identical to what the live shard served. Every window is also
//! explained at its generation, and the explanation is cross-checked
//! bit for bit against what the bundle recorded: the critic score and
//! the routed model always, and the per-model probabilities on v1/v2
//! bundles (v3 bundles no longer carry them — replay derives them
//! here). It then prints a per-window explanation trace (critic score
//! vs. threshold, routed model, per-model probabilities) so the alert
//! can be understood offline.
//!
//! ```text
//! replay <bundle.json> [--explain N]
//! ```
//!
//! `--explain N` prints the trace for the last N windows (default 8;
//! 0 silences it). Exit status: 0 on a byte-identical replay, 1 on any
//! verdict, digest or recorded-field divergence, 2 on usage/parse
//! errors.
//!
//! Generation 0 needs only the training pipeline
//! ([`Framework::prepare_serving`]); windows served by a later
//! generation re-run the recorded fleet with
//! [`retain_generations`](hmd::ServingConfig::retain_generations) so
//! the hub retains every published generation — the retraining
//! schedule is a pure function of the seed, so the re-run reproduces
//! the original promoted models bit-for-bit.

use std::sync::Arc;

use hmd::core::{ExplainTrace, Framework, ServingArtifacts, Verdict};
use hmd::recorder::{
    float_array, verdict_digest, verdict_name, IncidentBundle, WindowTrace, BUNDLE_SCHEMA,
};
use hmd::serving::FleetSession;
use hmd_util::json::{Json, JsonError};

fn usage(problem: &str) -> ! {
    eprintln!("replay: {problem}");
    eprintln!("usage: replay <bundle.json> [--explain N]");
    std::process::exit(2);
}

fn fail(problem: &str) -> ! {
    eprintln!("replay: {problem}");
    std::process::exit(2);
}

fn main() {
    let mut bundle_path: Option<String> = None;
    let mut explain: usize = 8;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--explain" => {
                let Some(raw) = it.next() else { usage("--explain needs a value") };
                explain = raw
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad value for --explain: {raw:?}")));
            }
            "--help" | "-h" => usage("help requested"),
            other if other.starts_with("--") => usage(&format!("unknown flag {other:?}")),
            other => {
                if bundle_path.replace(other.to_owned()).is_some() {
                    usage("exactly one bundle path expected");
                }
            }
        }
    }
    let Some(path) = bundle_path else { usage("bundle path missing") };

    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let doc = Json::parse(&text).unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")));
    let bundle = IncidentBundle::from_json(&doc)
        .unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")));
    let recorded_probs = recorded_model_probs(&doc)
        .unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")));
    eprintln!(
        "replay: bundle {} (shard {}/{}, sample {}, generation {}, {} windows, digest {:016x})",
        bundle.id,
        bundle.shard,
        bundle.shards,
        bundle.sample_index,
        bundle.generation,
        bundle.windows.len(),
        bundle.verdict_digest
    );
    for t in &bundle.triggers {
        eprintln!(
            "replay: trigger {} [{}] {}: observed {:.6} vs threshold {:.6}",
            t.rule,
            t.severity,
            if t.firing { "fired" } else { "resolved" },
            t.observed,
            t.threshold
        );
    }
    if bundle.windows.is_empty() {
        fail("bundle holds no windows");
    }

    // v2 bundles embed the promoted flagged stage traces; assert they
    // survive a serialize → parse round trip byte-for-byte and that
    // every cumulative stage array is monotone (v1 bundles carry none)
    for t in &bundle.traces {
        if t.stage_ns.windows(2).any(|w| w[1] < w[0]) {
            fail(&format!("trace at sample {} has non-monotone stage ends", t.sample));
        }
        let text = t.to_json().to_string();
        let back = WindowTrace::from_json(
            &Json::parse(&text).unwrap_or_else(|e| fail(&format!("trace re-parse failed: {e}"))),
        )
        .unwrap_or_else(|e| fail(&format!("trace round-trip failed: {e}")));
        if back != *t {
            fail(&format!("trace at sample {} did not round-trip", t.sample));
        }
    }

    // rebuild the serving universe at the recorded seed. Generation 0
    // falls out of the training pipeline directly; later generations
    // need the recorded fleet re-run with history retention so the hub
    // can hand back the exact promoted artifacts.
    let needs_fleet = bundle.windows.iter().any(|w| w.generation > 0);
    let mut cfg = bundle.config.clone();
    eprintln!(
        "replay: rebuilding artifacts (seed {}, {})...",
        cfg.base_seed,
        if needs_fleet {
            format!("re-running {}-shard fleet for generation history", bundle.shards)
        } else {
            "generation 0, training pipeline only".to_owned()
        }
    );
    let fleet = if needs_fleet {
        cfg.retain_generations = true;
        let mut fleet = FleetSession::start(&cfg, bundle.shards)
            .unwrap_or_else(|e| fail(&format!("fleet rebuild failed: {e}")));
        fleet
            .run()
            .unwrap_or_else(|e| fail(&format!("fleet re-run failed: {e}")));
        Some(fleet)
    } else {
        None
    };
    // one artifacts handle per distinct generation in the bundle
    let mut generations: Vec<u64> = bundle.windows.iter().map(|w| w.generation).collect();
    generations.sort_unstable();
    generations.dedup();
    let pinned: Vec<(u64, Arc<ServingArtifacts>)> = generations
        .iter()
        .map(|&g| {
            let artifacts = match &fleet {
                Some(fleet) => fleet
                    .hub()
                    .unwrap_or_else(|| fail("bundle pins generations but the config never retrains"))
                    .artifacts_at(g)
                    .unwrap_or_else(|| fail(&format!("generation {g} not in retained history"))),
                None => Arc::new(
                    Framework::new(bundle.config.framework.clone())
                        .prepare_serving(bundle.config.kind)
                        .unwrap_or_else(|e| fail(&format!("training failed: {e}"))),
                ),
            };
            (g, artifacts)
        })
        .collect();
    let artifacts_at = |g: u64| -> &Arc<ServingArtifacts> {
        pinned
            .iter()
            .find(|(gen, _)| *gen == g)
            .map(|(_, a)| a)
            .unwrap_or_else(|| fail(&format!("generation {g} not pinned")))
    };

    // re-classify the windows, grouped into consecutive same-generation
    // runs (a ring can straddle a hot swap), preserving ring order so
    // the digest chain matches the recorded one
    let width = bundle.windows[0].row.len();
    let mut replayed: Vec<Verdict> = Vec::with_capacity(bundle.windows.len());
    let mut start = 0;
    while start < bundle.windows.len() {
        let generation = bundle.windows[start].generation;
        let mut end = start;
        while end < bundle.windows.len() && bundle.windows[end].generation == generation {
            end += 1;
        }
        let artifacts = artifacts_at(generation);
        let mut flat = Vec::with_capacity((end - start) * width);
        for w in &bundle.windows[start..end] {
            if w.row.len() != width {
                fail(&format!("window {} row width {} != {width}", w.sample, w.row.len()));
            }
            flat.extend_from_slice(&w.row);
        }
        let verdicts = artifacts
            .detector
            .classify_batch(&flat, width)
            .unwrap_or_else(|e| fail(&format!("replay classification failed: {e}")));
        replayed.extend(verdicts);
        start = end;
    }

    // every window explained at its own generation: the per-model
    // probabilities (v3 bundles do not record them) plus the values
    // the recorder did record, cross-checked below
    let explained: Vec<ExplainTrace> = bundle
        .windows
        .iter()
        .map(|w| {
            artifacts_at(w.generation)
                .detector
                .classify_explain(&w.row)
                .unwrap_or_else(|e| fail(&format!("explain failed: {e}")))
        })
        .collect();

    // the forensic contract: replayed verdicts (and their digest) are
    // byte-identical to what the live shard served, and so is every
    // other value the recorder kept
    let mut mismatches = 0usize;
    let checked = bundle.windows.iter().zip(replayed.iter().zip(&explained));
    for (i, (w, (&got, trace))) in checked.enumerate() {
        let mut diverged = Vec::new();
        if got != w.verdict {
            diverged.push(format!(
                "recorded {} replayed {}",
                verdict_name(w.verdict),
                verdict_name(got)
            ));
        }
        if trace.adv_score.to_bits() != w.adv_score.to_bits() {
            let (recorded, replayed) = (w.adv_score, trace.adv_score);
            diverged.push(format!("adv_score recorded {recorded} replayed {replayed}"));
        }
        if trace.selected_model != w.selected_model {
            diverged.push(format!(
                "selected_model recorded {} replayed {}",
                w.selected_model, trace.selected_model
            ));
        }
        if let Some(probs) = recorded_probs.as_ref().map(|p| &p[i]) {
            if !bits_equal(probs, &trace.model_probs) {
                diverged.push(format!(
                    "model_probs recorded {probs:?} replayed {:?}",
                    trace.model_probs
                ));
            }
        }
        for d in &diverged {
            eprintln!("replay: MISMATCH sample {} gen {}: {d}", w.sample, w.generation);
        }
        mismatches += diverged.len();
    }
    let digest = verdict_digest(replayed.iter().copied());
    eprintln!(
        "replay: {} windows re-classified; digest recorded {:016x} replayed {digest:016x}",
        replayed.len(),
        bundle.verdict_digest
    );
    eprintln!(
        "replay: cross-checked adv_score, selected_model{} against the bundle",
        if recorded_probs.is_some() { ", model_probs" } else { "" }
    );

    // explanation traces for the most recent windows: why each verdict
    // fell out of the critic threshold and the routed model
    if explain > 0 {
        let skip = bundle.windows.len().saturating_sub(explain);
        for (w, trace) in bundle.windows.iter().zip(&explained).skip(skip) {
            let probs: Vec<String> = bundle
                .model_names
                .iter()
                .zip(&trace.model_probs)
                .map(|(name, p)| format!("{name}={p:.4}"))
                .collect();
            println!(
                "sample {:>6} gen {} verdict {:<11} critic {:+.4} vs {:+.4} ({}) routed {} [{}]",
                w.sample,
                w.generation,
                verdict_name(trace.verdict),
                trace.adv_score,
                trace.adv_threshold,
                if trace.flagged { "flagged" } else { "clean" },
                bundle.model_names.get(trace.selected_model).map_or("?", String::as_str),
                probs.join(" ")
            );
        }
    }

    if mismatches > 0 || digest != bundle.verdict_digest {
        eprintln!(
            "replay: FAILED — {mismatches} mismatch(es), digest {}",
            if digest == bundle.verdict_digest { "matches" } else { "DIVERGED" }
        );
        std::process::exit(1);
    }
    println!("REPLAY_TRACES {} embedded stage trace(s) round-tripped", bundle.traces.len());
    println!("REPLAY_OK {} windows digest {digest:016x}", replayed.len());
}

/// The per-model probabilities a v1/v2 bundle recorded, one array per
/// window; `None` for v3 bundles, which leave them to replay.
fn recorded_model_probs(doc: &Json) -> Result<Option<Vec<Vec<f64>>>, JsonError> {
    if doc.get("schema").and_then(Json::as_str) == Some(BUNDLE_SCHEMA) {
        return Ok(None);
    }
    let windows = doc.get("windows").and_then(Json::as_arr).unwrap_or_default();
    windows.iter().map(|w| float_array(w, "model_probs")).collect::<Result<_, _>>().map(Some)
}

/// Whether two float slices are equal bit for bit (length included).
fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
