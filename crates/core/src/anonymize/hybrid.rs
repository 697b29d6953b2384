//! Hybrid anonymization: global recoding when the hierarchy allows it,
//! local suppression otherwise.
//!
//! The paper ships the two methods separately and notes (§4.3) that
//! recoding "can be effectively applied to the entire microdata DB" while
//! suppression introduces uncertainty. Operationally the RDC wants both:
//! coarsen values that have a meaningful roll-up (geography, size bands)
//! and only fall back to `⊥` when no domain knowledge applies. This
//! anonymizer realizes that policy as a single plug-in for the cycle.

use super::{AnonymizationAction, AnonymizeError, Anonymizer, GlobalRecoding, LocalSuppression};
use crate::dictionary::MetadataDictionary;
use crate::model::MicrodataDb;
use crate::risk::MicrodataView;

/// Recoding-first anonymizer with suppression fallback.
#[derive(Debug, Clone, Default)]
pub struct HybridAnonymizer {
    /// The recoding stage (carries the domain hierarchy).
    pub recoder: GlobalRecoding,
    /// The suppression fallback.
    pub suppressor: LocalSuppression,
}

impl HybridAnonymizer {
    /// Hybrid anonymizer over the given recoder; suppression uses the
    /// recoder's attribute-order heuristic.
    pub fn new(recoder: GlobalRecoding) -> Self {
        let suppressor = LocalSuppression::new(recoder.attr_order);
        HybridAnonymizer {
            recoder,
            suppressor,
        }
    }
}

impl Anonymizer for HybridAnonymizer {
    fn name(&self) -> &str {
        "hybrid-recode-then-suppress"
    }

    fn anonymize_step_on(
        &self,
        db: &mut MicrodataDb,
        dict: &MetadataDictionary,
        view: &MicrodataView,
        row: usize,
    ) -> Result<AnonymizationAction, AnonymizeError> {
        match self.recoder.anonymize_step_on(db, dict, view, row)? {
            AnonymizationAction::Exhausted { .. } => {
                // no roll-up available anywhere on this tuple (so `db` is
                // unchanged and `view` still mirrors it): suppress
                self.suppressor.anonymize_step_on(db, dict, view, row)
            }
            action => Ok(action),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{italian_geography, AttributeOrder};
    use super::*;
    use crate::dictionary::Category;
    use crate::prelude::*;
    use vadalog::Value;

    fn mixed_db() -> (MicrodataDb, MetadataDictionary) {
        // Area has a hierarchy; Sector does not.
        let mut db = MicrodataDb::new("mix", ["id", "Area", "Sector", "w"]).unwrap();
        let rows = [
            ("a", "Milano", "Commerce", 50),
            ("b", "Torino", "Commerce", 50),
            ("c", "Roma", "Quarrying", 5), // unique sector, no roll-up
            ("d", "Roma", "Commerce", 60),
            ("e", "Roma", "Commerce", 60),
        ];
        for (id, area, sector, w) in rows {
            db.push_row(vec![
                Value::str(id),
                Value::str(area),
                Value::str(sector),
                Value::Int(w),
            ])
            .unwrap();
        }
        let mut dict = MetadataDictionary::new();
        for a in ["id", "Area", "Sector", "w"] {
            dict.register_attr("mix", a, "");
        }
        dict.set_category("mix", "id", Category::Identifier)
            .unwrap();
        dict.set_category("mix", "Area", Category::QuasiIdentifier)
            .unwrap();
        dict.set_category("mix", "Sector", Category::QuasiIdentifier)
            .unwrap();
        dict.set_category("mix", "w", Category::Weight).unwrap();
        (db, dict)
    }

    #[test]
    fn recodes_when_hierarchy_applies() {
        let (mut db, dict) = mixed_db();
        let anon = HybridAnonymizer::new(GlobalRecoding::new(italian_geography()));
        let action = anon.anonymize_step(&mut db, &dict, 0).unwrap();
        assert!(matches!(action, AnonymizationAction::Recode { .. }));
    }

    #[test]
    fn falls_back_to_suppression() {
        let (mut db, dict) = mixed_db();
        // empty hierarchy → recoding always exhausted → suppression
        let anon = HybridAnonymizer::new(GlobalRecoding::default());
        let action = anon.anonymize_step(&mut db, &dict, 2).unwrap();
        assert!(matches!(action, AnonymizationAction::Suppress { .. }));
    }

    #[test]
    fn cycle_mixes_recodings_and_suppressions() {
        let (db, dict) = mixed_db();
        let risk = KAnonymity::new(2);
        let mut recoder = GlobalRecoding::new(italian_geography());
        recoder.attr_order = AttributeOrder::MostRiskyFirst;
        let anon = HybridAnonymizer::new(recoder);
        let out = AnonymizationCycle::new(&risk, &anon, CycleConfig::default())
            .run(&db, &dict)
            .unwrap();
        assert_eq!(out.final_risky, 0);
        // tuple c's unique Quarrying sector has no roll-up, so at least one
        // suppression happens; Milano/Torino can merge via recoding
        assert!(out.recodings + out.nulls_injected > 0);
    }

    #[test]
    fn hybrid_preserves_more_information_than_pure_suppression() {
        let (db, dict) = mixed_db();
        let risk = KAnonymity::new(2);
        let hybrid = HybridAnonymizer::new(GlobalRecoding::new(italian_geography()));
        let h = AnonymizationCycle::new(&risk, &hybrid, CycleConfig::default())
            .run(&db, &dict)
            .unwrap();
        let suppress_only = LocalSuppression::default();
        let s = AnonymizationCycle::new(&risk, &suppress_only, CycleConfig::default())
            .run(&db, &dict)
            .unwrap();
        assert!(
            h.nulls_injected <= s.nulls_injected,
            "hybrid should not need more nulls ({} vs {})",
            h.nulls_injected,
            s.nulls_injected
        );
    }
}
