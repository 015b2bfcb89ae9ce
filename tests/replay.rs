//! Forensic replay of incident bundles through the built `replay`
//! binary: a committed `hmd-incident-v2` fixture (captured while the
//! flight recorder still stored every zoo model's probability) must
//! keep replaying, with its recorded per-model probabilities matching
//! the ones replay derives bit for bit; a bundle captured now
//! (`hmd-incident-v3`) must replay too; and a bundle whose recorded
//! fields were tampered with must fail.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use hmd::{IncidentBundle, ServingConfig, ServingSession};
use hmd_util::json::Json;

/// `ServingConfig::quick(23)`, 250 samples, a 16-window recorder: the
/// first incident of shard 0.
const V2_FIXTURE: &str = "tests/fixtures/incident_v2_quick23.json";

fn fixture_text() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(V2_FIXTURE);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Writes `text` to a per-test file and runs `replay` on it.
fn replay(name: &str, text: &str) -> Output {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write bundle");
    Command::new(env!("CARGO_BIN_EXE_replay"))
        .arg(&path)
        .args(["--explain", "2"])
        .output()
        .expect("run replay")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Replaces `key` of window `i` in a bundle document.
fn set_window_field(doc: &mut Json, i: usize, key: &str, edit: impl FnOnce(&mut Json)) {
    let Json::Obj(fields) = doc else { panic!("bundle is an object") };
    let (_, Json::Arr(windows)) =
        fields.iter_mut().find(|(k, _)| k == "windows").expect("windows key")
    else {
        panic!("windows is an array")
    };
    let Json::Obj(window) = &mut windows[i] else { panic!("window is an object") };
    let (_, value) = window.iter_mut().find(|(k, _)| k == key).expect("window field");
    edit(value);
}

#[test]
fn v2_fixture_replays_and_its_recorded_probabilities_match() {
    let text = fixture_text();
    assert!(text.contains("\"schema\":\"hmd-incident-v2\""), "fixture must stay a v2 bundle");
    let out = replay("fixture_v2.json", &text);
    assert!(out.status.success(), "replay failed:\n{}", stderr(&out));
    assert!(stdout(&out).contains("REPLAY_OK 16 windows"), "stdout:\n{}", stdout(&out));
    assert!(
        stderr(&out).contains("cross-checked adv_score, selected_model, model_probs"),
        "a v2 bundle must have its recorded probabilities cross-checked:\n{}",
        stderr(&out)
    );
}

#[test]
fn tampered_recorded_fields_fail_replay() {
    let doc = Json::parse(&fixture_text()).expect("fixture is JSON");
    type Tamper = fn(&mut Json);
    let tampers: [(&str, Tamper); 3] = [
        ("model_probs", |v| {
            let Json::Arr(probs) = v else { panic!("model_probs is an array") };
            let p = probs[2].as_f64().expect("number");
            probs[2] = Json::Float(f64::from_bits(p.to_bits() + 1));
        }),
        ("adv_score", |v| {
            let s = v.as_f64().expect("number");
            *v = Json::Float(f64::from_bits(s.to_bits() + 1));
        }),
        ("selected_model", |v| *v = Json::UInt(0)),
    ];
    for (key, tamper) in tampers {
        let mut doc = doc.clone();
        set_window_field(&mut doc, 3, key, tamper);
        let out = replay(&format!("tampered_{key}.json"), &doc.to_string());
        assert_eq!(out.status.code(), Some(1), "tampered {key} must fail:\n{}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!("MISMATCH sample 107 gen 0: {key} recorded")),
            "tampered {key} must be named:\n{}",
            stderr(&out)
        );
    }
}

/// The fixture's configuration captured today yields a v3 bundle that
/// records the same windows (wall-clock latency aside) and replays.
#[test]
fn captured_v3_bundle_matches_the_fixture_and_replays() {
    let mut cfg = ServingConfig::quick(23);
    cfg.samples = 250;
    cfg.recorder = 16;
    let mut session = ServingSession::start(cfg).expect("training succeeds");
    session.run_to_completion().expect("run");
    let bundle = session.incidents().first().cloned().expect("the burst trips an alert");
    let text = bundle.to_json().to_string();
    assert!(text.contains("\"schema\":\"hmd-incident-v3\""));
    assert!(!text.contains("model_probs"), "v3 bundles leave per-model probabilities to replay");

    let fixture = IncidentBundle::parse(&fixture_text()).expect("fixture parses");
    assert_eq!(bundle.id, fixture.id);
    assert_eq!(bundle.verdict_digest, fixture.verdict_digest);
    assert_eq!(bundle.windows.len(), fixture.windows.len());
    for (now, then) in bundle.windows.iter().zip(&fixture.windows) {
        let mut then = then.clone();
        then.model_latency_ns = now.model_latency_ns; // wall-clock
        assert_eq!(*now, then, "window {} drifted from the v2 capture", now.sample);
    }

    let out = replay("captured_v3.json", &text);
    assert!(out.status.success(), "replay failed:\n{}", stderr(&out));
    assert!(stdout(&out).contains("REPLAY_OK 16 windows"), "stdout:\n{}", stdout(&out));
}
