//! Test support: the row-by-row `Value` scan that ranked suppression
//! candidates before `rank_candidates` moved onto the columnar view. It is
//! the oracle the ranking tests compare against, plus a local-suppression
//! anonymizer that ranks with it (and ignores the view it is handed).

#![allow(dead_code)]

use vadasa_core::anonymize::{AnonymizationAction, AnonymizeError, Anonymizer, AttributeOrder};
use vadasa_core::dictionary::MetadataDictionary;
use vadasa_core::maybe_match::{values_match, NullSemantics};
use vadasa_core::model::MicrodataDb;
use vadasa_core::risk::MicrodataView;

/// Rank a tuple's candidate quasi-identifiers according to `order` by
/// scanning every row of `db`. Returns attribute names, most preferred
/// first; attributes whose cell is already a labelled null are excluded.
pub fn oracle_candidate_attrs(
    db: &MicrodataDb,
    dict: &MetadataDictionary,
    row: usize,
    order: AttributeOrder,
) -> Result<Vec<String>, AnonymizeError> {
    let qis = dict.quasi_identifiers(&db.name)?;
    let mut candidates: Vec<String> = Vec::new();
    for attr in &qis {
        if !db.value(row, attr)?.is_null() {
            candidates.push(attr.clone());
        }
    }
    match order {
        AttributeOrder::SchemaOrder => Ok(candidates),
        AttributeOrder::MostSelectiveFirst => {
            // frequency of this row's value within each candidate column
            let mut keyed: Vec<(usize, String)> = Vec::with_capacity(candidates.len());
            for attr in candidates {
                let v = db.value(row, &attr)?.clone();
                let freq = db.column(&attr)?.into_iter().filter(|x| **x == v).count();
                keyed.push((freq, attr));
            }
            keyed.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            Ok(keyed.into_iter().map(|(_, a)| a).collect())
        }
        AttributeOrder::MostRiskyFirst => {
            // widest lift: class size after suppressing each candidate
            // (match on the remaining quasi-identifiers, null-tolerantly),
            // largest first; ties break toward the rarer value. A row
            // contributes to candidate `j`'s lift iff its only
            // quasi-identifier mismatch with the target (if any) is at `j`.
            let cols: Vec<usize> = qis
                .iter()
                .map(|q| db.attr_position(q))
                .collect::<Result<_, _>>()?;
            let target = db.row(row)?.to_vec();
            let mut lift = vec![0usize; qis.len()];
            let mut exact_and_all = vec![0usize; qis.len()];
            let mut value_freq = vec![0usize; qis.len()];
            for r in db.iter_rows() {
                let mut mismatch: Option<usize> = None;
                let mut multi = false;
                for (qi_idx, &c) in cols.iter().enumerate() {
                    if !values_match(&r[c], &target[c], NullSemantics::MaybeMatch) {
                        if mismatch.is_some() {
                            multi = true;
                        }
                        mismatch = Some(qi_idx);
                    }
                    if r[c] == target[c] {
                        value_freq[qi_idx] += 1;
                    }
                }
                if multi {
                    continue;
                }
                match mismatch {
                    None => {
                        for e in exact_and_all.iter_mut() {
                            *e += 1;
                        }
                    }
                    Some(j) => lift[j] += 1,
                }
            }
            let mut keyed: Vec<(usize, usize, String)> = Vec::with_capacity(candidates.len());
            for attr in candidates {
                let j = qis.iter().position(|q| *q == attr).expect("attr is a QI");
                keyed.push((lift[j] + exact_and_all[j], value_freq[j], attr));
            }
            keyed.sort_by(|a, b| {
                b.0.cmp(&a.0)
                    .then_with(|| a.1.cmp(&b.1))
                    .then_with(|| a.2.cmp(&b.2))
            });
            Ok(keyed.into_iter().map(|(_, _, a)| a).collect())
        }
    }
}

/// Local suppression (Algorithm 7) ranking candidates with the oracle
/// scan; same name and same action shape as `LocalSuppression`.
pub struct OracleSuppression {
    /// Which quasi-identifier to suppress first.
    pub attr_order: AttributeOrder,
}

impl Anonymizer for OracleSuppression {
    fn name(&self) -> &str {
        "local-suppression"
    }

    fn anonymize_step_on(
        &self,
        db: &mut MicrodataDb,
        dict: &MetadataDictionary,
        _view: &MicrodataView,
        row: usize,
    ) -> Result<AnonymizationAction, AnonymizeError> {
        let candidates = oracle_candidate_attrs(db, dict, row, self.attr_order)?;
        let Some(attr) = candidates.into_iter().next() else {
            return Ok(AnonymizationAction::Exhausted { row });
        };
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
