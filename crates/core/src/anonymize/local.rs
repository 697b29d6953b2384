//! Local suppression with labelled nulls (paper Algorithm 7).
//!
//! For a tuple flagged by `anonymize(I)`, one non-null quasi-identifier is
//! replaced by a fresh labelled null `⊥_z`:
//!
//! ```text
//! Tuple(M, I, VSet), anonymize(I), Cat(M, A, Quasi-identifier),
//! VSet[A] is not null  →  ∃Z Tuple(M, I, (A, Z) ∪ (VSet \ (A, _)))
//! ```
//!
//! Under the maybe-match semantics the null widens the tuple's equivalence
//! group — and everyone else's it may now match — so a single suppression
//! can defuse several risky tuples at once (Figure 5).

use super::{rank_candidates, AnonymizationAction, AnonymizeError, Anonymizer, AttributeOrder};
use crate::dictionary::MetadataDictionary;
use crate::model::MicrodataDb;
use crate::risk::MicrodataView;

/// Local suppression anonymizer (Algorithm 7).
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalSuppression {
    /// Which quasi-identifier to suppress first.
    pub attr_order: AttributeOrder,
}

impl LocalSuppression {
    /// Local suppression with the given attribute-order heuristic.
    pub fn new(attr_order: AttributeOrder) -> Self {
        LocalSuppression { attr_order }
    }
}

impl Anonymizer for LocalSuppression {
    fn name(&self) -> &str {
        "local-suppression"
    }

    fn anonymize_step_on(
        &self,
        db: &mut MicrodataDb,
        _dict: &MetadataDictionary,
        view: &MicrodataView,
        row: usize,
    ) -> Result<AnonymizationAction, AnonymizeError> {
        let Some(&col) = rank_candidates(view, row, self.attr_order).first() else {
            return Ok(AnonymizationAction::Exhausted { row });
        };
        let attr = view.qi_names[col].clone();
        let previous = db.value(row, &attr)?.clone();
        let null = db.fresh_null();
        db.set_value(row, &attr, null)?;
        Ok(AnonymizationAction::Suppress {
            row,
            attr,
            previous,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::Category;
    use vadalog::Value;

    fn tiny() -> (MicrodataDb, MetadataDictionary) {
        let mut db = MicrodataDb::new("t", ["a", "b"]).unwrap();
        db.push_row(vec![Value::str("x"), Value::str("rare")])
            .unwrap();
        db.push_row(vec![Value::str("x"), Value::str("common")])
            .unwrap();
        db.push_row(vec![Value::str("x"), Value::str("common")])
            .unwrap();
        let mut dict = MetadataDictionary::new();
        dict.register_attr("t", "a", "");
        dict.register_attr("t", "b", "");
        dict.set_category("t", "a", Category::QuasiIdentifier)
            .unwrap();
        dict.set_category("t", "b", Category::QuasiIdentifier)
            .unwrap();
        (db, dict)
    }

    #[test]
    fn suppression_injects_fresh_null() {
        let (mut db, dict) = tiny();
        let action = LocalSuppression::default()
            .anonymize_step(&mut db, &dict, 0)
            .unwrap();
        match action {
            AnonymizationAction::Suppress {
                row,
                attr,
                previous,
            } => {
                assert_eq!(row, 0);
                assert_eq!(attr, "b"); // "rare" occurs once → most selective
                assert_eq!(previous, Value::str("rare"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(db.value(0, "b").unwrap().is_null());
        assert_eq!(db.null_cells(&[]), 1);
    }

    #[test]
    fn repeated_steps_exhaust_the_tuple() {
        let (mut db, dict) = tiny();
        let anon = LocalSuppression::default();
        let a1 = anon.anonymize_step(&mut db, &dict, 0).unwrap();
        let a2 = anon.anonymize_step(&mut db, &dict, 0).unwrap();
        assert!(matches!(a1, AnonymizationAction::Suppress { .. }));
        assert!(matches!(a2, AnonymizationAction::Suppress { .. }));
        let a3 = anon.anonymize_step(&mut db, &dict, 0).unwrap();
        assert_eq!(a3, AnonymizationAction::Exhausted { row: 0 });
    }

    #[test]
    fn each_suppression_uses_a_distinct_null() {
        let (mut db, dict) = tiny();
        let anon = LocalSuppression::default();
        anon.anonymize_step(&mut db, &dict, 0).unwrap();
        anon.anonymize_step(&mut db, &dict, 1).unwrap();
        let n0 = db.value(0, "b").unwrap().clone();
        // row 1's most selective non-null attr after row 0's suppression:
        // whichever was suppressed, nulls must be distinct labels
        let v1a = db.value(1, "a").unwrap().clone();
        let v1b = db.value(1, "b").unwrap().clone();
        let n1 = if v1a.is_null() { v1a } else { v1b };
        assert!(n0.is_null() && n1.is_null());
        assert_ne!(n0, n1);
    }

    #[test]
    fn schema_order_suppresses_first_attribute() {
        let (mut db, dict) = tiny();
        let anon = LocalSuppression::new(AttributeOrder::SchemaOrder);
        let action = anon.anonymize_step(&mut db, &dict, 0).unwrap();
        assert!(matches!(
            action,
            AnonymizationAction::Suppress { ref attr, .. } if attr == "a"
        ));
    }
}
