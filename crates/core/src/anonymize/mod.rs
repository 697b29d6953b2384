//! Anonymization methods (paper §4.3, Algorithms 7 and 8).
//!
//! An [`Anonymizer`] applies **one minimal step** to a risky tuple: the
//! anonymization cycle then re-evaluates risk, so each threshold violation
//! removes the least information possible (preemptive, active and
//! statistics-preserving by construction). Two methods ship off the shelf,
//! as in the paper:
//!
//! - [`LocalSuppression`] — replace one quasi-identifier value with a fresh
//!   labelled null (Algorithm 7);
//! - [`GlobalRecoding`] — climb the domain hierarchy and coarsen a value
//!   *everywhere* it occurs (Algorithm 8).

mod hybrid;
mod local;
mod microagg;
mod recode;

pub use hybrid::HybridAnonymizer;
pub use local::LocalSuppression;
pub use microagg::{microaggregate, microaggregate_numeric_qis, MicroaggregationOutcome};
pub use recode::{band_hierarchy, italian_geography, DomainHierarchy, GlobalRecoding};

use crate::columnar::Postings;
use crate::dictionary::{DictionaryError, MetadataDictionary};
use crate::maybe_match::NullSemantics;
use crate::model::{MicrodataDb, ModelError};
use crate::risk::{MicrodataView, RiskError};
use std::fmt;
use vadalog::Value;

/// Which quasi-identifier of a risky tuple to act on first (paper §4.4,
/// "prioritization of quasi-identifiers").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AttributeOrder {
    /// The "most risky first" greedy strategy as the paper describes it:
    /// "the strategy itself would rely on a Vadalog program computing the
    /// risk, in order to take informed decisions". For each candidate
    /// attribute we compute the equivalence-class size the tuple would
    /// have after suppressing it (matching on the remaining
    /// quasi-identifiers, null-tolerantly) and act on the attribute giving
    /// the **widest lift** — in Figure 5a this suppresses
    /// `Sector = Textiles` for tuple 1, which "removes any sample unique
    /// of the tuple, which then occurs with frequency 5".
    #[default]
    MostRiskyFirst,
    /// A cheaper proxy: act on the attribute whose value is most selective
    /// (smallest value frequency in its own column).
    MostSelectiveFirst,
    /// Schema order: first candidate attribute wins. Mirrors an unguided
    /// binding order and serves as the ablation baseline.
    SchemaOrder,
}

/// The concrete change an anonymization step performed.
#[derive(Debug, Clone, PartialEq)]
pub enum AnonymizationAction {
    /// A single cell was replaced by a labelled null.
    Suppress {
        /// Row index.
        row: usize,
        /// Attribute name.
        attr: String,
        /// The suppressed constant.
        previous: Value,
    },
    /// A value was rolled up to its parent across the whole column.
    Recode {
        /// Attribute name.
        attr: String,
        /// Original (finer) value.
        from: Value,
        /// Replacement (coarser) value.
        to: Value,
        /// Number of cells rewritten.
        rows_affected: usize,
    },
    /// The tuple cannot be anonymized further (e.g. every quasi-identifier
    /// is already suppressed, or no hierarchy step applies).
    Exhausted {
        /// Row index.
        row: usize,
    },
}

/// Anonymization failures.
#[derive(Debug)]
pub enum AnonymizeError {
    /// Dictionary lookup failed.
    Dictionary(DictionaryError),
    /// Microdata access failed.
    Model(ModelError),
    /// The table has no usable quasi-identifier view.
    View(String),
}

impl fmt::Display for AnonymizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnonymizeError::Dictionary(e) => write!(f, "{e}"),
            AnonymizeError::Model(e) => write!(f, "{e}"),
            AnonymizeError::View(m) => write!(f, "invalid view: {m}"),
        }
    }
}

impl std::error::Error for AnonymizeError {}

impl From<DictionaryError> for AnonymizeError {
    fn from(e: DictionaryError) -> Self {
        AnonymizeError::Dictionary(e)
    }
}
impl From<ModelError> for AnonymizeError {
    fn from(e: ModelError) -> Self {
        AnonymizeError::Model(e)
    }
}
impl From<RiskError> for AnonymizeError {
    fn from(e: RiskError) -> Self {
        match e {
            RiskError::Dictionary(e) => AnonymizeError::Dictionary(e),
            RiskError::Model(e) => AnonymizeError::Model(e),
            RiskError::View(m) => AnonymizeError::View(m),
        }
    }
}

/// A pluggable anonymization method: the `anonymize` atom of Algorithm 2.
pub trait Anonymizer {
    /// Name used in audit logs.
    fn name(&self) -> &str;

    /// Apply one minimal anonymization step to `row`, returning what was
    /// done. Implementations must guarantee *progress or exhaustion*: a
    /// sequence of steps on the same tuple eventually returns
    /// [`AnonymizationAction::Exhausted`].
    ///
    /// `view` is the quasi-identifier projection of `db` as it stands
    /// (what [`MicrodataView::from_db_with`] builds with no restriction);
    /// candidates are ranked on it. The step changes `db` only: the caller
    /// reflects the returned action into `view` — the cycle does so after
    /// every action (`patch_cell` / `patch_recode`).
    fn anonymize_step_on(
        &self,
        db: &mut MicrodataDb,
        dict: &MetadataDictionary,
        view: &MicrodataView,
        row: usize,
    ) -> Result<AnonymizationAction, AnonymizeError>;

    /// [`anonymize_step_on`](Self::anonymize_step_on) over a view built
    /// for this one call: an O(cells) build, for callers that hold no
    /// live view.
    fn anonymize_step(
        &self,
        db: &mut MicrodataDb,
        dict: &MetadataDictionary,
        row: usize,
    ) -> Result<AnonymizationAction, AnonymizeError> {
        if dict.quasi_identifiers(&db.name)?.is_empty() {
            return Ok(AnonymizationAction::Exhausted { row });
        }
        let view = MicrodataView::from_db_with(db, dict, NullSemantics::MaybeMatch, None)?;
        self.anonymize_step_on(db, dict, &view, row)
    }
}

/// Rank `row`'s candidate quasi-identifiers by `order`, most preferred
/// first, as column indices into `view`; columns where the row holds a
/// labelled null are not candidates.
///
/// - [`AttributeOrder::SchemaOrder`]: column order.
/// - [`AttributeOrder::MostSelectiveFirst`]: ascending frequency of the
///   row's value in its column.
/// - [`AttributeOrder::MostRiskyFirst`]: descending size of the
///   maybe-match class the row would have with the column suppressed,
///   i.e. the rows with no mismatch against it outside that column.
///
/// Ties break by ascending value frequency, then attribute name.
/// Frequencies are read off the view's postings index (built on the first
/// ranking). For `MostRiskyFirst` a row with at most one mismatch agrees
/// with the target on one of any two of its non-null columns, or is null
/// there; so only the rows sharing the target's code on its two rarest
/// columns and the null-carrying rows are visited, not the whole table.
pub fn rank_candidates(view: &MicrodataView, row: usize, order: AttributeOrder) -> Vec<usize> {
    let mask = view.null_mask(row);
    let mut candidates: Vec<usize> = (0..view.width()).filter(|&c| mask >> c & 1 == 0).collect();
    if order == AttributeOrder::SchemaOrder || candidates.len() < 2 {
        return candidates;
    }
    let target = view.row_codes(row);
    let postings = view.postings();
    let freq = |c: usize| postings.count(c, target[c]);
    let name = |c: usize| view.qi_names[c].as_str();
    if order == AttributeOrder::MostSelectiveFirst {
        candidates.sort_by(|&a, &b| freq(a).cmp(&freq(b)).then_with(|| name(a).cmp(name(b))));
        return candidates;
    }

    // MostRiskyFirst. `zero` counts rows matching the target everywhere,
    // `one[c]` rows whose only mismatch is at column `c`.
    let mut by_freq = candidates.clone();
    by_freq.sort_by_key(|&c| freq(c));
    let (a, b) = (by_freq[0], by_freq[1]);
    let (bit_a, bit_b) = (1u64 << a, 1u64 << b);
    let code = |r: usize, c: usize| view.row_codes(r)[c];
    let mut zero = 0usize;
    let mut one = vec![0usize; view.width()];
    let mut visit = |r: u32| {
        let (codes, m) = (view.row_codes(r as usize), view.null_mask(r as usize));
        let mut miss = None;
        for &c in &candidates {
            if m >> c & 1 == 0 && codes[c] != target[c] {
                if miss.is_some() {
                    return;
                }
                miss = Some(c);
            }
        }
        match miss {
            None => zero += 1,
            Some(c) => one[c] += 1,
        }
    };
    // Three disjoint sources: agrees at `a`; agrees at `b` but not `a`;
    // null at `a` or `b`. Every other row mismatches at both.
    let (ta, tb) = (target[a], target[b]);
    for r in Postings::current(postings.list(a, ta), |r| code(r, a) == ta) {
        visit(r);
    }
    for r in Postings::current(postings.list(b, tb), |r| {
        code(r, b) == tb && code(r, a) != ta
    }) {
        visit(r);
    }
    for r in Postings::current(postings.null_rows(), |r| {
        view.null_mask(r) & (bit_a | bit_b) != 0 && code(r, a) != ta && code(r, b) != tb
    }) {
        visit(r);
    }
    candidates.sort_by(|&x, &y| {
        (zero + one[y])
            .cmp(&(zero + one[x]))
            .then_with(|| freq(x).cmp(&freq(y)))
            .then_with(|| name(x).cmp(name(y)))
    });
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::Category;

    fn fig5a() -> (MicrodataDb, MetadataDictionary) {
        let mut db =
            MicrodataDb::new("fig5", ["Id", "Area", "Sector", "Employees", "ResRev"]).unwrap();
        let rows = [
            ("099876", "Roma", "Textiles", "1000+", "0-30"),
            ("765389", "Roma", "Commerce", "1000+", "0-30"),
            ("231654", "Roma", "Commerce", "1000+", "0-30"),
            ("097302", "Roma", "Financial", "1000+", "0-30"),
            ("120967", "Roma", "Financial", "1000+", "0-30"),
            ("232498", "Milano", "Construction", "0-200", "60-90"),
            ("340901", "Torino", "Construction", "0-200", "60-90"),
        ];
        for (id, a, s, e, r) in rows {
            db.push_row(vec![
                Value::str(id),
                Value::str(a),
                Value::str(s),
                Value::str(e),
                Value::str(r),
            ])
            .unwrap();
        }
        let mut dict = MetadataDictionary::new();
        for a in ["Id", "Area", "Sector", "Employees", "ResRev"] {
            dict.register_attr("fig5", a, "");
        }
        dict.set_category("fig5", "Id", Category::Identifier)
            .unwrap();
        for a in ["Area", "Sector", "Employees", "ResRev"] {
            dict.set_category("fig5", a, Category::QuasiIdentifier)
                .unwrap();
        }
        (db, dict)
    }

    fn ranked(db: &MicrodataDb, dict: &MetadataDictionary, order: AttributeOrder) -> Vec<String> {
        let view = MicrodataView::from_db(db, dict).unwrap();
        rank_candidates(&view, 0, order)
            .into_iter()
            .map(|c| view.qi_names[c].clone())
            .collect()
    }

    #[test]
    fn most_selective_first_picks_textiles_for_tuple_1() {
        let (db, dict) = fig5a();
        let order = ranked(&db, &dict, AttributeOrder::MostSelectiveFirst);
        assert_eq!(order[0], "Sector"); // Textiles occurs once
    }

    #[test]
    fn most_risky_first_picks_textiles_for_tuple_1() {
        // Figure 5a: suppressing Sector lifts tuple 1 into a class of 5.
        let (db, dict) = fig5a();
        let order = ranked(&db, &dict, AttributeOrder::MostRiskyFirst);
        assert_eq!(order, vec!["Sector", "Area", "Employees", "ResRev"]);
    }

    #[test]
    fn schema_order_keeps_declaration_order() {
        let (db, dict) = fig5a();
        let order = ranked(&db, &dict, AttributeOrder::SchemaOrder);
        assert_eq!(order, vec!["Area", "Sector", "Employees", "ResRev"]);
    }

    #[test]
    fn null_cells_are_not_candidates() {
        let (mut db, dict) = fig5a();
        let n = db.fresh_null();
        db.set_value(0, "Sector", n).unwrap();
        let order = ranked(&db, &dict, AttributeOrder::MostSelectiveFirst);
        assert!(!order.contains(&"Sector".to_string()));
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn patched_views_rank_like_fresh_ones() {
        // Stale postings entries (a row moved away and back) must neither
        // be counted nor counted twice.
        let (db, dict) = fig5a();
        let mut view = MicrodataView::from_db(&db, &dict).unwrap();
        let fresh = rank_candidates(&view, 1, AttributeOrder::MostRiskyFirst);
        view.patch_recode(1, &Value::str("Commerce"), &Value::str("Trade"), None);
        view.patch_recode(1, &Value::str("Trade"), &Value::str("Commerce"), None);
        view.patch_cell(3, 1, &Value::Null(7), None);
        view.patch_cell(3, 1, &Value::str("Financial"), None);
        for order in [
            AttributeOrder::MostRiskyFirst,
            AttributeOrder::MostSelectiveFirst,
        ] {
            let rebuilt = MicrodataView::from_rows(
                view.qi_names.clone(),
                view.to_rows(),
                None,
                NullSemantics::MaybeMatch,
            );
            assert_eq!(
                rank_candidates(&view, 1, order),
                rank_candidates(&rebuilt, 1, order)
            );
        }
        assert_eq!(
            rank_candidates(&view, 1, AttributeOrder::MostRiskyFirst),
            fresh
        );
        assert_eq!(
            view.rows_holding(1, &Value::str("Commerce")),
            vec![1, 2],
            "ascending, no repeats"
        );
    }
}
