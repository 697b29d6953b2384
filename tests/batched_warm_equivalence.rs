//! Batched cycles keep their group statistics warm between iterations,
//! repairing them through the postings index, and regroup only when an
//! iteration's repairs have visited more rows than the table holds. A
//! warm batched run must release exactly what the cold per-iteration
//! rebuild (`warm_start: false`) releases — the same table, null labels
//! included, the same audit log and the same final report, bit for bit —
//! under `TopN(8)` and `PerClass`, on the scale regime, on the Figure 6
//! U/V/W regimes, on a low-cardinality table where the cost rule trips,
//! and on a geography table whose global recodes trip it mid-recode.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vadalog::Value;
use vadasa_core::anonymize::italian_geography;
use vadasa_core::prelude::*;
use vadasa_datagen::{generate, generate_scale, DatasetSpec, Regime, ScaleSpec};

/// Everything a run releases or records, in comparable form.
fn released(o: &CycleOutcome) -> String {
    let rows: Vec<Vec<Value>> = o.db.iter_rows().map(<[Value]>::to_vec).collect();
    let risks: Vec<u64> = o.final_report.risks.iter().map(|r| r.to_bits()).collect();
    format!(
        "iterations={} nulls={} recodings={} minted={} final_risky={} termination={:?}\n{rows:?}\n{:?}\n{risks:?}\n{:?}",
        o.iterations,
        o.nulls_injected,
        o.recodings,
        o.db.nulls_minted(),
        o.final_risky,
        o.termination,
        o.audit.decisions,
        o.final_report.details
    )
}

/// 300 rows drawn over the given quasi-identifier alphabets, with integer
/// weights.
fn random_table(name: &str, qis: &[(&str, &[&str])]) -> (MicrodataDb, MetadataDictionary) {
    let mut attrs = vec!["Id"];
    attrs.extend(qis.iter().map(|(q, _)| *q));
    attrs.push("Weight");
    let mut db = MicrodataDb::new(name, attrs.clone()).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    for i in 0..300 {
        let mut row = vec![Value::Int(i)];
        for (_, values) in qis {
            row.push(Value::str(values[rng.gen_range(0..values.len())]));
        }
        row.push(Value::Int(rng.gen_range(1..=6)));
        db.push_row(row).unwrap();
    }
    let mut dict = MetadataDictionary::new();
    for a in &attrs {
        dict.register_attr(name, *a, "");
    }
    dict.set_category(name, "Id", Category::Identifier).unwrap();
    for (q, _) in qis {
        dict.set_category(name, q, Category::QuasiIdentifier)
            .unwrap();
    }
    dict.set_category(name, "Weight", Category::Weight).unwrap();
    (db, dict)
}

/// Five quasi-identifiers over three values each (243 combinations):
/// many singleton classes, and every pivot value is shared by about a
/// third of the table, so eight classes' repairs outrun one regroup.
fn low_cardinality() -> (MicrodataDb, MetadataDictionary) {
    const V: &[&str] = &["v0", "v1", "v2"];
    let qis = ["Area", "Sector", "Employees", "ResRev", "Age"].map(|q| (q, V));
    random_table("low", &qis)
}

/// Eight cities × three sectors × three sizes: a global recode rewrites
/// every row of a city, ~37 repairs over a third of the table each.
fn geography() -> (MicrodataDb, MetadataDictionary) {
    let cities: &[&str] = &[
        "Milano", "Torino", "Venezia", "Roma", "Firenze", "Napoli", "Bari", "Palermo",
    ];
    random_table(
        "geo",
        &[
            ("Area", cities),
            ("Sector", &["a", "b", "c"]),
            ("Employees", &["s", "m", "l"]),
        ],
    )
}

#[test]
fn warm_batched_cycles_release_what_cold_cycles_release() {
    let tables = [
        ("scale", {
            let mut spec = ScaleSpec::new(1_200);
            spec.risky = 24;
            generate_scale(&spec)
        }),
        ("R-U", generate(&DatasetSpec::new(400, 4, Regime::U), 7)),
        ("R-V", generate(&DatasetSpec::new(400, 4, Regime::V), 7)),
        ("R-W", generate(&DatasetSpec::new(400, 4, Regime::W), 7)),
        ("low-cardinality", low_cardinality()),
        ("geography", geography()),
    ];
    let risk = KAnonymity::new(2);
    let suppression = LocalSuppression::default();
    let recoding = GlobalRecoding::new(italian_geography());
    for (table, (db, dict)) in &tables {
        let anonymizer: &dyn Anonymizer = if *table == "geography" {
            &recoding
        } else {
            &suppression
        };
        for batch in [BatchStrategy::TopN(8), BatchStrategy::PerClass] {
            let run = |warm_start: bool| {
                let config = CycleConfig {
                    batch: Some(batch),
                    warm_start,
                    ..CycleConfig::default()
                };
                AnonymizationCycle::new(&risk, anonymizer, config)
                    .run(db, dict)
                    .unwrap()
            };
            let (warm, cold) = (run(true), run(false));
            assert_eq!(released(&warm), released(&cold), "{table}, {batch:?}");
            assert!(
                cold.iterations > 1,
                "{table}, {batch:?}: the cycle must work"
            );
            let (warm_evals, cold_evals) =
                (warm.profile.warm.warm_evals, warm.profile.warm.cold_evals);
            if *table != "geography" {
                assert!(warm_evals > 0, "{table}, {batch:?}");
            }
            match (*table, batch) {
                // only the first evaluation regroups
                ("scale", _) => assert_eq!(cold_evals, 1, "{batch:?}"),
                // eight classes per iteration trip the cost rule
                ("low-cardinality", BatchStrategy::TopN(8)) => {
                    assert!(cold_evals > 1, "cost rule never tripped")
                }
                // so does recoding a city, mid-recode
                ("geography", _) => {
                    assert!(warm.recodings > 0, "{batch:?}");
                    assert!(cold_evals > 1, "{batch:?}: cost rule never tripped");
                }
                _ => {}
            }
        }
    }
}
