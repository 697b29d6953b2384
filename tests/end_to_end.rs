//! Cross-crate integration tests: the full Vada-SA pipeline from synthetic
//! data generation through categorization, risk estimation, anonymization
//! and empirical attack validation.

use vadalog::Value;
use vadasa_core::categorize::{Categorizer, ExperienceBase};
use vadasa_core::maybe_match::NullSemantics;
use vadasa_core::prelude::*;
use vadasa_datagen::generator::{generate, DatasetSpec, Regime};
use vadasa_datagen::oracle::IdentityOracle;
use vadasa_linkage::attack;

fn small_u() -> (MicrodataDb, MetadataDictionary) {
    generate(&DatasetSpec::new(2_000, 4, Regime::U), 11)
}

#[test]
fn full_pipeline_generate_categorize_anonymize() {
    let (db, reference_dict) = small_u();

    // re-categorize from scratch with Algorithm 1 and verify it recovers
    // the generator's ground truth
    let mut dict = MetadataDictionary::new();
    for attr in db.attributes() {
        dict.register_attr(&db.name, attr, "");
    }
    let mut categorizer = Categorizer::new(ExperienceBase::financial_defaults());
    categorizer.threshold = 0.6;
    categorizer
        .categorize(&mut dict, &db.name)
        .expect("categorizes");
    for attr in db.attributes() {
        let truth = reference_dict.category(&db.name, attr).unwrap();
        let inferred = dict.category(&db.name, attr).unwrap();
        if let (Some(t), Some(i)) = (truth, inferred) {
            assert_eq!(t, i, "attribute {attr} categorized differently");
        }
    }

    // run the cycle with the recovered dictionary (fall back to the
    // reference for anything the experience base could not cover)
    let work_dict = if dict.fully_categorized(&db.name).unwrap() {
        dict
    } else {
        reference_dict.clone()
    };
    let risk = KAnonymity::new(2);
    let anonymizer = LocalSuppression::default();
    let cycle = AnonymizationCycle::new(&risk, &anonymizer, CycleConfig::default());
    let outcome = cycle.run(&db, &work_dict).expect("cycle converges");
    assert_eq!(outcome.final_risky, 0);
    assert!(outcome.nulls_injected > 0, "the U regime has risky tuples");
    assert!(outcome.information_loss > 0.0 && outcome.information_loss <= 1.0);
}

#[test]
fn every_risk_measure_drives_the_cycle_to_convergence() {
    let (db, dict) = small_u();
    let anonymizer = LocalSuppression::default();
    let measures: Vec<Box<dyn RiskMeasure>> = vec![
        Box::new(KAnonymity::new(2)),
        Box::new(ReIdentification),
        Box::new(IndividualRisk::new(IrEstimator::PosteriorMean)),
        Box::new(Suda {
            msu_threshold: 3,
            max_msu_size: Some(3),
        }),
    ];
    for measure in measures {
        let cycle = AnonymizationCycle::new(measure.as_ref(), &anonymizer, CycleConfig::default());
        let outcome = cycle.run(&db, &dict).expect("cycle converges");
        assert_eq!(
            outcome.final_risky,
            0,
            "{} left risky tuples",
            measure.name()
        );
        // post-condition: no tuple over the threshold in the final report
        assert!(outcome.final_report.risky_tuples(0.5).is_empty());
    }
}

#[test]
fn anonymization_defeats_the_linkage_attacker() {
    let (db, dict) = small_u();
    let oracle = IdentityOracle::from_microdata(&db, &dict, "Id", 3, 60).expect("oracle");

    let before = attack(&db, &dict, &oracle, "Id").expect("attack");
    let risk = KAnonymity::new(2);
    let anonymizer = LocalSuppression::default();
    let cycle = AnonymizationCycle::new(&risk, &anonymizer, CycleConfig::default());
    let outcome = cycle.run(&db, &dict).expect("cycle converges");
    let after = attack(&outcome.db, &dict, &oracle, "Id").expect("attack");

    assert!(
        after.mean_success <= before.mean_success,
        "attack got easier: {} -> {}",
        before.mean_success,
        after.mean_success
    );
    assert!(after.certain_reidentifications <= before.certain_reidentifications);
    // the tuples that were anonymized have strictly larger blocks
    let mut improved = 0;
    for (b, a) in before.tuples.iter().zip(after.tuples.iter()) {
        assert!(a.candidates >= b.candidates);
        if a.candidates > b.candidates {
            improved += 1;
        }
    }
    assert!(improved > 0, "suppressions must widen some blocks");
}

#[test]
fn global_recoding_cycle_on_geography() {
    use vadasa_core::anonymize::italian_geography;
    // a geography-keyed table where recoding (not suppression) resolves risk
    let mut db = MicrodataDb::new("geo", ["id", "Area", "sector", "w"]).expect("schema");
    let rows = [
        ("a", "Milano", "Commerce", 50),
        ("b", "Torino", "Commerce", 50),
        ("c", "Roma", "Commerce", 60),
        ("d", "Firenze", "Commerce", 60),
        ("e", "Napoli", "Commerce", 70),
        ("f", "Bari", "Commerce", 70),
    ];
    for (id, area, sector, w) in rows {
        db.push_row(vec![
            Value::str(id),
            Value::str(area),
            Value::str(sector),
            Value::Int(w),
        ])
        .expect("row");
    }
    let mut dict = MetadataDictionary::new();
    for a in ["id", "Area", "sector", "w"] {
        dict.register_attr("geo", a, "");
    }
    dict.set_category("geo", "id", Category::Identifier)
        .unwrap();
    dict.set_category("geo", "Area", Category::QuasiIdentifier)
        .unwrap();
    dict.set_category("geo", "sector", Category::QuasiIdentifier)
        .unwrap();
    dict.set_category("geo", "w", Category::Weight).unwrap();

    let risk = KAnonymity::new(2);
    let anonymizer = GlobalRecoding::new(italian_geography());
    let cycle = AnonymizationCycle::new(&risk, &anonymizer, CycleConfig::default());
    let outcome = cycle.run(&db, &dict).expect("cycle converges");
    assert_eq!(outcome.final_risky, 0);
    assert_eq!(outcome.nulls_injected, 0, "recoding never injects nulls");
    assert!(outcome.recodings > 0);
    // every city must have been rolled up to its region (or further)
    for i in 0..outcome.db.len() {
        let area = outcome.db.value(i, "Area").expect("cell");
        let s = area.as_str().expect("constant");
        assert!(
            ["North", "Center", "South", "Italy"].contains(&s),
            "unexpected area {s}"
        );
    }
}

#[test]
fn cycle_with_standard_semantics_exhausts_risky_tuples() {
    let (db, dict) = generate(&DatasetSpec::new(500, 4, Regime::V), 2);
    let risk = KAnonymity::new(2);
    let anonymizer = LocalSuppression::default();
    let config = CycleConfig {
        semantics: NullSemantics::Standard,
        ..CycleConfig::default()
    };
    let cycle = AnonymizationCycle::new(&risk, &anonymizer, config);
    let outcome = cycle.run(&db, &dict).expect("terminates");
    // under the standard semantics nulls never help: risky tuples are
    // suppressed to exhaustion (4 nulls each) and stay risky
    if outcome.initial_risky > 0 {
        assert!(outcome.final_risky > 0);
        assert_eq!(outcome.nulls_injected % 4, 0);
        assert!(outcome.nulls_injected >= outcome.final_risky * 4);
    }
}

#[test]
fn audit_log_covers_every_change() {
    let (db, dict) = small_u();
    let risk = KAnonymity::new(3);
    let anonymizer = LocalSuppression::default();
    let cycle = AnonymizationCycle::new(&risk, &anonymizer, CycleConfig::default());
    let outcome = cycle.run(&db, &dict).expect("converges");
    assert_eq!(outcome.audit.suppressions(), outcome.nulls_injected);
    // each suppressed cell in the output table corresponds to a decision
    let qis = dict.quasi_identifiers(&db.name).unwrap();
    assert_eq!(outcome.db.null_cells(&qis), outcome.nulls_injected);
}

/// A converged release summarizes the cycle's own final report instead of
/// re-scoring the released table; the summary must read exactly as one
/// rendered from a fresh evaluation.
#[test]
fn converged_summary_equals_a_fresh_evaluation() {
    use vadasa_core::pipeline::Vadasa;
    use vadasa_core::report::render_summary;
    use vadasa_datagen::fixtures::{inflation_growth_fig1, local_suppression_fig5a};

    let tables = [
        ("fig1", inflation_growth_fig1()),
        ("fig5a", local_suppression_fig5a()),
        ("R-U", generate(&DatasetSpec::new(400, 4, Regime::U), 7)),
        ("R-V", generate(&DatasetSpec::new(400, 4, Regime::V), 7)),
        ("R-W", generate(&DatasetSpec::new(400, 4, Regime::W), 7)),
    ];
    let mut converged = 0;
    for (table, (db, dict)) in &tables {
        let measures: [(Vadasa, Box<dyn RiskMeasure>, f64); 4] = [
            (
                Vadasa::new().k_anonymity(2),
                Box::new(KAnonymity::new(2)),
                0.5,
            ),
            (
                Vadasa::new().re_identification().threshold(0.2),
                Box::new(ReIdentification),
                0.2,
            ),
            (
                Vadasa::new()
                    .individual_risk(IrEstimator::PosteriorMean)
                    .threshold(0.2),
                Box::new(IndividualRisk::new(IrEstimator::PosteriorMean)),
                0.2,
            ),
            (Vadasa::new().suda(3), Box::new(Suda::new(3)), 0.5),
        ];
        for (pipeline, measure, threshold) in measures {
            let release = pipeline.with_dictionary(dict.clone()).run(db).unwrap();
            if !release.outcome.termination.is_converged() {
                continue;
            }
            converged += 1;
            let view = MicrodataView::from_db(&release.outcome.db, dict).unwrap();
            let fresh = measure.evaluate(&view).unwrap();
            assert_eq!(
                release.summary,
                render_summary(&view, &fresh, threshold, 5),
                "{table}, {}",
                measure.name()
            );
        }
    }
    assert_eq!(converged, 20, "every run must converge");
}
