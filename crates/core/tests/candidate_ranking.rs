//! Differential pins for `rank_candidates`, the postings-backed ranking
//! kernel: for every `AttributeOrder` it must rank exactly like the
//! row-by-row `Value` scan it replaced (`support/ranking_oracle.rs`), on
//! random tables with shared labelled nulls and duplicate rows, and stay
//! exact while the view is patched between rankings — suppressions
//! (`patch_cell` to a fresh null), cells overwritten back to constants and
//! global recodings (`patch_recode`, including back-and-forth recodes that
//! leave stale and repeated postings entries behind).

#[path = "support/ranking_oracle.rs"]
mod ranking_oracle;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use ranking_oracle::{oracle_candidate_attrs, OracleSuppression};
use vadalog::Value;
use vadasa_core::anonymize::{rank_candidates, Anonymizer, AttributeOrder, LocalSuppression};
use vadasa_core::dictionary::{Category, MetadataDictionary};
use vadasa_core::model::MicrodataDb;
use vadasa_core::risk::MicrodataView;

const ORDERS: [AttributeOrder; 3] = [
    AttributeOrder::MostRiskyFirst,
    AttributeOrder::MostSelectiveFirst,
    AttributeOrder::SchemaOrder,
];

/// Quasi-identifier names, deliberately not in alphabetical order so the
/// name tie-break differs from column order.
const QI_NAMES: [&str; 5] = ["Sector", "Area", "Revenue", "Employees", "Age"];

/// A random table: an identifier column, then 1–5 quasi-identifiers over
/// tiny alphabets (duplicate rows are common), about one cell in six a
/// labelled null drawn from a small label pool (so labels repeat).
fn random_table(rng: &mut StdRng) -> (MicrodataDb, MetadataDictionary) {
    let width = rng.gen_range(1..=5usize);
    let rows = rng.gen_range(1..=40usize);
    let qis = &QI_NAMES[..width];
    let mut attrs = vec!["Id"];
    attrs.extend_from_slice(qis);
    let mut db = MicrodataDb::new("t", attrs.clone()).unwrap();
    let alphabet: Vec<usize> = (0..width).map(|_| rng.gen_range(1..=4usize)).collect();
    for r in 0..rows {
        let mut row = vec![Value::Int(r as i64)];
        for &k in &alphabet {
            row.push(if rng.gen_bool(0.16) {
                Value::Null(rng.gen_range(0..4u64))
            } else {
                Value::str(format!("v{}", rng.gen_range(0..k)))
            });
        }
        db.push_row(row).unwrap();
    }
    db.reserve_nulls(4);
    let mut dict = MetadataDictionary::new();
    for a in &attrs {
        dict.register_attr("t", *a, "");
    }
    dict.set_category("t", "Id", Category::Identifier).unwrap();
    for q in qis {
        dict.set_category("t", q, Category::QuasiIdentifier)
            .unwrap();
    }
    (db, dict)
}

fn ranked_names(view: &MicrodataView, row: usize, order: AttributeOrder) -> Vec<String> {
    rank_candidates(view, row, order)
        .into_iter()
        .map(|c| view.qi_names[c].clone())
        .collect()
}

fn assert_ranks_like_oracle(
    db: &MicrodataDb,
    dict: &MetadataDictionary,
    view: &MicrodataView,
    row: usize,
) {
    for order in ORDERS {
        assert_eq!(
            ranked_names(view, row, order),
            oracle_candidate_attrs(db, dict, row, order).unwrap(),
            "row {row}, {order:?}"
        );
    }
}

/// Drive random rankings and patches against a table and its live view,
/// applying every patch to both.
fn differential_run(seed: u64) {
    let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let (mut db, dict) = random_table(&mut rng);
    let mut view = MicrodataView::from_db(&db, &dict).unwrap();
    let qis = view.qi_names.clone();
    let n = db.len();
    for _ in 0..24 {
        let row = rng.gen_range(0..n);
        let col = rng.gen_range(0..qis.len());
        match rng.gen_range(0..5u32) {
            // rank (the first one builds the postings index)
            0 | 1 => assert_ranks_like_oracle(&db, &dict, &view, row),
            // suppress one cell
            2 => {
                let null = db.fresh_null();
                db.set_value(row, &qis[col], null.clone()).unwrap();
                view.patch_cell(row, col, &null, None);
            }
            // overwrite a cell with a constant (a null may come back)
            3 => {
                let v = Value::str(format!("v{}", rng.gen_range(0..3)));
                db.set_value(row, &qis[col], v.clone()).unwrap();
                view.patch_cell(row, col, &v, None);
            }
            // global recode of the row's value, sometimes back to a value
            // the column held before
            _ => {
                let from = db.value(row, &qis[col]).unwrap().clone();
                let to = Value::str(format!("v{}", rng.gen_range(0..5)));
                let expected: Vec<usize> = (0..n)
                    .filter(|&r| db.value(r, &qis[col]).unwrap() == &from)
                    .collect();
                for &r in &expected {
                    db.set_value(r, &qis[col], to.clone()).unwrap();
                }
                assert_eq!(view.rows_holding(col, &from), expected);
                assert_eq!(view.patch_recode(col, &from, &to, None), expected);
            }
        }
    }
    for row in 0..n {
        assert_ranks_like_oracle(&db, &dict, &view, row);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every order, random tables, random patch sequences in between.
    #[test]
    fn rank_candidates_matches_the_value_scan(seed in 0u64..1_000_000) {
        differential_run(seed);
    }

    /// The view-building `anonymize_step` suppresses exactly what the
    /// oracle-ranked anonymizer suppresses.
    #[test]
    fn anonymize_step_matches_oracle_suppression(seed in 0u64..1_000_000) {
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let (db, dict) = random_table(&mut rng);
        let order = ORDERS[rng.gen_range(0..3usize)];
        let (mut ours, mut oracle) = (db.clone(), db.clone());
        for _ in 0..6 {
            let row = rng.gen_range(0..db.len());
            let a = LocalSuppression::new(order)
                .anonymize_step(&mut ours, &dict, row)
                .unwrap();
            let b = OracleSuppression { attr_order: order }
                .anonymize_step(&mut oracle, &dict, row)
                .unwrap();
            prop_assert_eq!(a, b);
        }
        let rows = |d: &MicrodataDb| d.iter_rows().map(<[Value]>::to_vec).collect::<Vec<_>>();
        prop_assert_eq!(rows(&ours), rows(&oracle));
    }
}

/// Targets with no, one and several non-null quasi-identifiers, and a
/// one-column table.
#[test]
fn targets_of_every_null_shape() {
    let rows: [[Option<&str>; 3]; 5] = [
        [None, None, None],
        [Some("a"), None, None],
        [Some("a"), Some("x"), None],
        [Some("a"), Some("x"), Some("p")],
        [Some("b"), Some("x"), Some("p")],
    ];
    let mut db = MicrodataDb::new("t", ["Id", "Sector", "Area", "Age"]).unwrap();
    for (i, r) in rows.iter().enumerate() {
        let mut row = vec![Value::Int(i as i64)];
        for (c, v) in r.iter().enumerate() {
            row.push(match v {
                Some(s) => Value::str(*s),
                None => Value::Null((i * 3 + c) as u64),
            });
        }
        db.push_row(row).unwrap();
    }
    let mut dict = MetadataDictionary::new();
    for a in ["Id", "Sector", "Area", "Age"] {
        dict.register_attr("t", a, "");
    }
    dict.set_category("t", "Id", Category::Identifier).unwrap();
    for q in ["Sector", "Area", "Age"] {
        dict.set_category("t", q, Category::QuasiIdentifier)
            .unwrap();
    }
    let view = MicrodataView::from_db(&db, &dict).unwrap();
    for row in 0..rows.len() {
        assert_ranks_like_oracle(&db, &dict, &view, row);
    }
    assert!(rank_candidates(&view, 0, AttributeOrder::MostRiskyFirst).is_empty());
    assert_eq!(
        ranked_names(&view, 1, AttributeOrder::MostRiskyFirst),
        vec!["Sector"]
    );

    let mut one = MicrodataDb::new("one", ["Area"]).unwrap();
    for v in ["x", "x", "y"] {
        one.push_row(vec![Value::str(v)]).unwrap();
    }
    one.push_row(vec![Value::Null(0)]).unwrap();
    let mut dict = MetadataDictionary::new();
    dict.register_attr("one", "Area", "");
    dict.set_category("one", "Area", Category::QuasiIdentifier)
        .unwrap();
    let view = MicrodataView::from_db(&one, &dict).unwrap();
    for row in 0..one.len() {
        assert_ranks_like_oracle(&one, &dict, &view, row);
    }
}
