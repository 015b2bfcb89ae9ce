//! Cross-crate substrate integration: simulator → tabular → ML, and the
//! integrity layer guarding fitted models.

use hmd::integrity::{MetricMonitor, ModelRegistry};
use hmd::ml::{all_models, evaluate, Classifier, MlError, Mlp, RandomForest};
use hmd::sim::{build_corpus, CorpusConfig, HpcEvent, IsolationMode, WorkloadClass};
use hmd::tabular::{rank_features_by_mi, split::stratified_split, Class, StandardScaler};
use hmd_util::rng::prelude::*;

#[test]
fn corpus_feeds_detectors_above_chance() {
    let corpus = build_corpus(&CorpusConfig::quick(31));
    let mut rng = StdRng::seed_from_u64(1);
    let (train, test) = stratified_split(&corpus.dataset, 0.25, &mut rng).unwrap();
    let scaler = StandardScaler::fit(&train).unwrap();
    let train = scaler.transform(&train).unwrap();
    let test = scaler.transform(&test).unwrap();
    let train_targets = train.binary_targets(Class::is_attack);
    let test_targets = test.binary_targets(Class::is_attack);
    let mut rf = RandomForest::new();
    rf.fit(&train, &train_targets).unwrap();
    let m = evaluate(&rf, &test, &test_targets).unwrap();
    assert!(m.auc > 0.75, "RF AUC on quick corpus {}", m.auc);
}

#[test]
fn mi_ranking_prefers_microarchitectural_events_over_constants() {
    let corpus = build_corpus(&CorpusConfig::quick(32));
    let ranked = rank_features_by_mi(&corpus.dataset, 24).unwrap();
    // the top-ranked feature must be informative; the bottom should be
    // near-constant events (e.g. major faults on a quick corpus)
    assert!(ranked[0].1 > ranked[ranked.len() - 1].1);
    assert!(ranked[0].1 > 0.05, "top MI {}", ranked[0].1);
}

#[test]
fn vm_isolation_degrades_detection_quality() {
    // The LXC-vs-VirtualBox argument of §2.1: emulated counters carry
    // bias+jitter and should not beat clean LXC counters.
    let clean = build_corpus(&CorpusConfig::quick(33));
    let noisy = build_corpus(&CorpusConfig {
        isolation: IsolationMode::VmEmulated { bias: 0.3, jitter: 0.6 },
        ..CorpusConfig::quick(33)
    });
    let auc_of = |corpus: &hmd::sim::Corpus| {
        let mut rng = StdRng::seed_from_u64(2);
        let (train, test) = stratified_split(&corpus.dataset, 0.25, &mut rng).unwrap();
        let train_targets = train.binary_targets(Class::is_attack);
        let test_targets = test.binary_targets(Class::is_attack);
        let mut rf = RandomForest::new();
        rf.fit(&train, &train_targets).unwrap();
        evaluate(&rf, &test, &test_targets).unwrap().auc
    };
    let clean_auc = auc_of(&clean);
    let noisy_auc = auc_of(&noisy);
    assert!(
        clean_auc >= noisy_auc - 0.02,
        "VM emulation should not improve detection: clean {clean_auc} vs vm {noisy_auc}"
    );
}

#[test]
fn corpus_contains_every_family_with_plausible_counters() {
    let corpus = build_corpus(&CorpusConfig::quick(34));
    for class in WorkloadClass::BENIGN.into_iter().chain(WorkloadClass::MALWARE) {
        assert!(corpus.row_classes.contains(&class), "{class} missing");
    }
    let instr_idx = HpcEvent::Instructions.index();
    let cyc_idx = HpcEvent::Cycles.index();
    for i in 0..corpus.dataset.len() {
        let row = corpus.dataset.row(i).unwrap();
        assert!(row[instr_idx] > 0.0, "row {i} has zero instructions");
        assert!(row[cyc_idx] > 0.0, "row {i} has zero cycles");
        // IPC plausibility on a 4-wide core
        let ipc = row[instr_idx] / row[cyc_idx];
        assert!(ipc < 4.0, "row {i} has impossible IPC {ipc}");
    }
}

#[test]
fn integrity_layer_guards_fitted_models() {
    let corpus = build_corpus(&CorpusConfig::quick(35));
    let targets = corpus.dataset.binary_targets(Class::is_attack);
    let mut mlp = Mlp::new();
    mlp.fit(&corpus.dataset, &targets).unwrap();

    let registry = ModelRegistry::new();
    let bytes = mlp.params_bytes().unwrap();
    registry.register("MLP", &bytes, 1_720_000_000);
    assert!(registry.verify("MLP", &bytes).is_verified());

    // tamper one weight byte → detected
    let mut tampered = bytes.clone();
    tampered[0] ^= 0xFF;
    assert!(!registry.verify("MLP", &tampered).is_verified());

    // metric drift detection
    let monitor = MetricMonitor::new(0.05);
    let baseline = evaluate(&mlp, &corpus.dataset, &targets).unwrap();
    monitor.record_baseline("MLP", baseline);
    assert!(monitor.assess("MLP", &baseline).is_stable());
    let degraded = hmd::ml::BinaryMetrics { accuracy: baseline.accuracy - 0.3, ..baseline };
    assert!(!monitor.assess("MLP", &degraded).is_stable());
}

#[test]
fn every_model_scores_a_batch_exactly_as_its_rows() {
    // The batch contract of the routed path (`predict_proba_into`,
    // which serving calls once per batch) against per-row scoring, for
    // every model in the zoo, bit for bit, plus its error cases.
    let corpus = build_corpus(&CorpusConfig::quick(36));
    let scaler = StandardScaler::fit(&corpus.dataset).unwrap();
    let data = scaler.transform(&corpus.dataset).unwrap();
    let targets = data.binary_targets(Class::is_attack);
    let width = data.n_features();
    let rows: Vec<f64> = (0..32).flat_map(|i| data.row(i * 3).unwrap().to_vec()).collect();
    for mut model in all_models() {
        let name = model.name();
        let mut out = Vec::new();
        let mut scratch = model.make_scratch(32);
        assert_eq!(
            model.predict_proba_into(&rows, width, &mut scratch, &mut out),
            Err(MlError::NotFitted),
            "{name} unfitted"
        );

        model.fit(&data, &targets).unwrap();
        let mut scratch = model.make_scratch(32);
        let per_row: Vec<f64> =
            rows.chunks(width).map(|row| model.predict_proba_row(row).unwrap()).collect();
        let bits = |ps: &[f64]| ps.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        for batch in [1, 7, 32] {
            for (chunk, expected) in rows.chunks(batch * width).zip(per_row.chunks(batch)) {
                model.predict_proba_into(chunk, width, &mut scratch, &mut out).unwrap();
                assert_eq!(bits(&out), bits(expected), "{name} at batch {batch}");
            }
        }

        let narrow = &rows[..2 * (width - 1)];
        assert!(
            matches!(
                model.predict_proba_into(narrow, width - 1, &mut scratch, &mut out),
                Err(MlError::DimensionMismatch { .. })
            ),
            "{name} wrong width"
        );
        out.push(f64::NAN);
        model.predict_proba_into(&[], width, &mut scratch, &mut out).unwrap();
        assert!(out.is_empty(), "{name} empty batch");
    }
}
