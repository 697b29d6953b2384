//! Statistical disclosure risk estimation (paper §4.2).
//!
//! All measures implement [`RiskMeasure`] over a [`MicrodataView`] — the
//! projection of a microdata DB onto its quasi-identifiers plus the
//! sampling weights, with a chosen null semantics. The `risk` atom of the
//! anonymization cycle (Algorithm 2) is *polymorphic*; the cycle accepts
//! any `dyn RiskMeasure`, mirroring Vada-SA's plug-in mechanism.
//!
//! Off-the-shelf measures, as in the paper:
//!
//! - [`ReIdentification`] — Algorithm 3: `ρ = 1 / Σ weights of the group`;
//! - [`KAnonymity`] — Algorithm 4: `1` iff the equivalence class is
//!   smaller than `k`;
//! - [`IndividualRisk`] — Algorithm 5: Benedetti–Franconi style posterior
//!   estimation of `1/F_k` from sample frequency and weight sum;
//! - [`Suda`] — Algorithm 6: minimal sample uniques.
//!
//! Since the million-row rework the view stores its quasi-identifier
//! cells *columnarly* (per-column [`ColumnDict`]s, flat `u32` codes and a
//! per-row null bitmask — see [`crate::columnar`]) instead of
//! `Vec<Vec<Value>>`, so group formation and per-row scoring never clone
//! a `Value` and can shard across `risk_threads` scoped workers.

mod individual;
mod kanon;
mod ldiversity;
mod presence;
mod reident;
mod suda;
mod tcloseness;

pub use individual::{bf_posterior_mean, IndividualRisk, IrEstimator};
pub use kanon::KAnonymity;
pub use ldiversity::LDiversity;
pub use presence::PresenceRisk;
pub use reident::ReIdentification;
pub use suda::{dis_scores, minimal_sample_uniques, MsuSet, Suda};
pub use tcloseness::TCloseness;

use crate::columnar::{
    apply_cell_change_codes, codes_match, group_stats_codes, ColumnDict, Postings,
};
use crate::dictionary::{Category, DictionaryError, MetadataDictionary};
use crate::maybe_match::{GroupStats, NullSemantics};
use crate::model::{MicrodataDb, ModelError};
use std::fmt;
use std::sync::OnceLock;
use vadalog::Value;

/// Errors building a view or evaluating risk.
#[derive(Debug)]
pub enum RiskError {
    /// Dictionary lookup failed.
    Dictionary(DictionaryError),
    /// Microdata access failed.
    Model(ModelError),
    /// The view is unusable for this measure (e.g. missing weights).
    View(String),
}

impl fmt::Display for RiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RiskError::Dictionary(e) => write!(f, "{e}"),
            RiskError::Model(e) => write!(f, "{e}"),
            RiskError::View(m) => write!(f, "invalid view: {m}"),
        }
    }
}

impl std::error::Error for RiskError {}

impl From<DictionaryError> for RiskError {
    fn from(e: DictionaryError) -> Self {
        RiskError::Dictionary(e)
    }
}
impl From<ModelError> for RiskError {
    fn from(e: ModelError) -> Self {
        RiskError::Model(e)
    }
}

/// The projection of a microdata DB a risk measure works on:
/// dictionary-encoded QI columns, optional sampling weights and the null
/// semantics for group formation.
///
/// Storage is columnar: `dicts[c]` interns every distinct `Value` of
/// column `c`, `codes` holds the row-major `u32` codes (stride =
/// [`width`](Self::width)), and `null_masks[r]` has bit `c` set when row
/// `r` is a labelled null in column `c`. Cells are reached through
/// [`value`](Self::value) / [`patch_cell`](Self::patch_cell); the
/// row-major `Vec<Vec<Value>>` of earlier versions is gone from the hot
/// path (use [`to_rows`](Self::to_rows) where owned rows are genuinely
/// needed).
#[derive(Debug, Clone)]
pub struct MicrodataView {
    /// Names of the projected quasi-identifier attributes.
    pub qi_names: Vec<String>,
    /// Per-column value dictionaries (code → `Value`).
    dicts: Vec<ColumnDict>,
    /// Row-major cell codes, `len = rows × width`.
    codes: Vec<u32>,
    /// Per-row bitmask of null columns.
    null_masks: Vec<u64>,
    /// Sampling weights, if a weight column is categorized.
    pub weights: Option<Vec<f64>>,
    /// Null semantics used to form equivalence groups.
    pub semantics: NullSemantics,
    /// Worker threads for group formation and per-row scoring (1 =
    /// sequential; sharding only engages when exact, see
    /// [`crate::columnar`]).
    pub risk_threads: usize,
    /// Code → rows index, built on the first candidate ranking or
    /// statistics repair (risk-only views never pay for it) and kept
    /// current by [`patch_cell`](Self::patch_cell).
    postings: OnceLock<Postings>,
}

impl MicrodataView {
    /// Build the view of `db` according to the dictionary's categories:
    /// quasi-identifiers are projected, the weight column (if any) is read
    /// numerically, identifiers and non-identifying attributes are dropped
    /// (Algorithm 2, Rule 1).
    pub fn from_db(db: &MicrodataDb, dict: &MetadataDictionary) -> Result<Self, RiskError> {
        Self::from_db_with(db, dict, NullSemantics::MaybeMatch, None)
    }

    /// Like [`MicrodataView::from_db`], choosing the semantics and
    /// optionally restricting to a subset `q̂ ⊆ q` of quasi-identifiers
    /// (the paper's `AnonSet`).
    pub fn from_db_with(
        db: &MicrodataDb,
        dict: &MetadataDictionary,
        semantics: NullSemantics,
        restrict_to: Option<&[String]>,
    ) -> Result<Self, RiskError> {
        let mut qi_names = dict.quasi_identifiers(&db.name)?;
        if let Some(subset) = restrict_to {
            qi_names.retain(|q| subset.contains(q));
            if qi_names.is_empty() {
                return Err(RiskError::View(
                    "the restriction removed every quasi-identifier".into(),
                ));
            }
        }
        if qi_names.is_empty() {
            return Err(RiskError::View(format!(
                "microdata DB '{}' has no categorized quasi-identifiers",
                db.name
            )));
        }
        if qi_names.len() > 64 {
            return Err(RiskError::View(format!(
                "{} quasi-identifiers exceed the 64-column null-bitmask limit",
                qi_names.len()
            )));
        }
        let cols: Vec<usize> = qi_names
            .iter()
            .map(|q| db.attr_position(q))
            .collect::<Result<_, _>>()?;
        let width = cols.len();
        let mut dicts: Vec<ColumnDict> = (0..width).map(|_| ColumnDict::new()).collect();
        let mut codes: Vec<u32> = Vec::with_capacity(db.len() * width);
        let mut null_masks: Vec<u64> = Vec::with_capacity(db.len());
        for r in db.iter_rows() {
            let mut mask = 0u64;
            for (k, &c) in cols.iter().enumerate() {
                let v = &r[c];
                if v.is_null() {
                    mask |= 1 << k;
                }
                codes.push(dicts[k].intern(v));
            }
            null_masks.push(mask);
        }
        let weights = match dict
            .attrs_with_category(&db.name, Category::Weight)?
            .first()
        {
            Some(w) => Some(db.numeric_column(w)?),
            None => None,
        };
        Ok(MicrodataView {
            qi_names,
            dicts,
            codes,
            null_masks,
            weights,
            semantics,
            risk_threads: 1,
            postings: OnceLock::new(),
        })
    }

    /// Build a view directly from owned rows (row-major, one `Value` per
    /// quasi-identifier). `rows` must all have `qi_names.len()` cells.
    pub fn from_rows(
        qi_names: Vec<String>,
        rows: Vec<Vec<Value>>,
        weights: Option<Vec<f64>>,
        semantics: NullSemantics,
    ) -> Self {
        let width = qi_names.len();
        let mut dicts: Vec<ColumnDict> = (0..width).map(|_| ColumnDict::new()).collect();
        let mut codes: Vec<u32> = Vec::with_capacity(rows.len() * width);
        let mut null_masks: Vec<u64> = Vec::with_capacity(rows.len());
        for r in &rows {
            debug_assert_eq!(r.len(), width, "row arity must match qi_names");
            let mut mask = 0u64;
            for (k, v) in r.iter().enumerate() {
                if v.is_null() {
                    mask |= 1 << k;
                }
                codes.push(dicts[k].intern(v));
            }
            null_masks.push(mask);
        }
        MicrodataView {
            qi_names,
            dicts,
            codes,
            null_masks,
            weights,
            semantics,
            risk_threads: 1,
            postings: OnceLock::new(),
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.null_masks.len()
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.null_masks.is_empty()
    }

    /// Number of quasi-identifier columns.
    pub fn width(&self) -> usize {
        self.qi_names.len()
    }

    /// Borrow the cell value at `(row, col)`.
    pub fn value(&self, row: usize, col: usize) -> &Value {
        self.dicts[col].value(self.codes[row * self.width() + col])
    }

    /// The row's coded cells (stride slice into the flat code array).
    pub fn row_codes(&self, row: usize) -> &[u32] {
        let w = self.width();
        &self.codes[row * w..(row + 1) * w]
    }

    /// The row's null bitmask (bit `c` ⇔ column `c` holds a labelled null).
    pub fn null_mask(&self, row: usize) -> u64 {
        self.null_masks[row]
    }

    /// Owned clone of one row's quasi-identifier cells.
    pub fn row_values(&self, row: usize) -> Vec<Value> {
        (0..self.width())
            .map(|c| self.value(row, c).clone())
            .collect()
    }

    /// Materialize the whole projection as owned rows (compatibility /
    /// test escape hatch — O(cells) clones, avoid on hot paths).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.len()).map(|r| self.row_values(r)).collect()
    }

    /// Do rows `i` and `j` match on every column under the view's
    /// semantics?
    pub fn rows_match(&self, i: usize, j: usize) -> bool {
        self.rows_match_with(i, j, self.semantics)
    }

    /// Like [`rows_match`](Self::rows_match) with explicit semantics.
    pub fn rows_match_with(&self, i: usize, j: usize, sem: NullSemantics) -> bool {
        codes_match(
            self.row_codes(i),
            self.null_masks[i],
            self.row_codes(j),
            self.null_masks[j],
            sem,
        )
    }

    /// Equivalence-group statistics under the view's own weights,
    /// semantics and thread count.
    pub fn group_stats(&self) -> GroupStats {
        self.group_stats_with(self.weights.as_deref(), self.semantics)
    }

    /// Column dictionaries in column order (spill/restore path).
    pub(crate) fn dicts(&self) -> &[ColumnDict] {
        &self.dicts
    }

    /// The flat row-major code matrix (spill/restore path).
    pub(crate) fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Per-row null bitmasks (spill/restore path).
    pub(crate) fn null_masks(&self) -> &[u64] {
        &self.null_masks
    }

    /// Reassemble a view from its constituent parts. Used by the
    /// out-of-core store ([`crate::colstore`]) when materializing a
    /// spilled view; callers are responsible for internal consistency
    /// (codes length = rows × width, masks length = rows, codes within
    /// their column dictionaries).
    pub(crate) fn from_parts(
        qi_names: Vec<String>,
        dicts: Vec<ColumnDict>,
        codes: Vec<u32>,
        null_masks: Vec<u64>,
        weights: Option<Vec<f64>>,
        semantics: NullSemantics,
        risk_threads: usize,
    ) -> Self {
        MicrodataView {
            qi_names,
            dicts,
            codes,
            null_masks,
            weights,
            semantics,
            risk_threads,
            postings: OnceLock::new(),
        }
    }

    /// Group statistics with explicit weights and semantics (threads from
    /// the view).
    pub fn group_stats_with(&self, weights: Option<&[f64]>, sem: NullSemantics) -> GroupStats {
        let all: Vec<usize> = (0..self.width()).collect();
        group_stats_codes(
            &self.codes,
            &self.null_masks,
            self.width(),
            &all,
            weights,
            sem,
            self.risk_threads,
        )
    }

    /// Group statistics over a sub-projection: only the listed column
    /// positions participate in matching (SUDA's per-subset scans).
    pub fn group_stats_on(
        &self,
        positions: &[usize],
        weights: Option<&[f64]>,
        sem: NullSemantics,
    ) -> GroupStats {
        group_stats_codes(
            &self.codes,
            &self.null_masks,
            self.width(),
            positions,
            weights,
            sem,
            self.risk_threads,
        )
    }

    /// The code → rows index, built on first use.
    pub(crate) fn postings(&self) -> &Postings {
        self.postings.get_or_init(|| {
            let lens: Vec<usize> = self.dicts.iter().map(ColumnDict::len).collect();
            Postings::build(&self.codes, &self.null_masks, &lens)
        })
    }

    /// Rows whose cell at `col` currently equals `v`, ascending (read off
    /// the postings index, which this builds on first use).
    pub fn rows_holding(&self, col: usize, v: &Value) -> Vec<usize> {
        let Some(code) = self.dicts[col].code(v) else {
            return Vec::new();
        };
        let postings = self.postings();
        let list = if v.is_null() {
            postings.null_rows()
        } else {
            postings.list(col, code)
        };
        let w = self.width();
        Postings::current(list, |r| self.codes[r * w + col] == code)
            .into_iter()
            .map(|r| r as usize)
            .collect()
    }

    /// Overwrite the cell at `(row, col)` and, when `stats` is given,
    /// incrementally repair the group statistics (columnar
    /// flip-then-rescan, same exactness caveat as
    /// [`GroupStats::apply_row_change`]). The repair visits only the
    /// candidate rows the postings index names (see
    /// `Postings::repair_candidates`), building the index first if no
    /// ranking has; a built index is updated either way. Returns the
    /// number of rows the repair visited (0 without `stats`).
    pub fn patch_cell(
        &mut self,
        row: usize,
        col: usize,
        v: &Value,
        stats: Option<&mut GroupStats>,
    ) -> usize {
        let w = self.width();
        let old_mask = self.null_masks[row];
        let code = self.dicts[col].intern(v);
        let mut old_codes = [0u32; 64];
        let old_codes = &mut old_codes[..w];
        old_codes.copy_from_slice(&self.codes[row * w..(row + 1) * w]);
        self.codes[row * w + col] = code;
        if v.is_null() {
            self.null_masks[row] |= 1 << col;
        } else {
            self.null_masks[row] &= !(1 << col);
        }
        if let Some(postings) = self.postings.get_mut() {
            postings.moved(
                row,
                col,
                (old_codes[col], old_mask),
                (code, self.null_masks[row]),
            );
        }
        let Some(stats) = stats else {
            return 0;
        };
        // An index built here indexes the patched state directly.
        let candidates = self.postings().repair_candidates(
            &self.codes,
            &self.null_masks,
            w,
            (row, col),
            self.semantics,
        );
        apply_cell_change_codes(
            &self.codes,
            &self.null_masks,
            w,
            self.weights.as_deref(),
            self.semantics,
            row,
            old_codes,
            old_mask,
            &candidates,
            stats,
        );
        candidates.len()
    }

    /// Rewrite every cell of column `col` equal to `from` into `to`,
    /// repairing `stats` row by row when given (mirrors the sequential
    /// per-row patch order of the cycle's recode path). Walks the
    /// [`rows_holding`](Self::rows_holding) list, so the rows are exactly
    /// the ones a recoding anonymizer rewrote, in ascending order; returns
    /// them.
    pub fn patch_recode(
        &mut self,
        col: usize,
        from: &Value,
        to: &Value,
        stats: Option<&mut GroupStats>,
    ) -> Vec<usize> {
        self.patch_recode_within(col, from, to, stats, usize::MAX).0
    }

    /// [`patch_recode`](Self::patch_recode) under a repair budget: once
    /// the repairs have visited more than `budget` rows, the remaining
    /// rows are patched without repair, and the caller must drop `stats`.
    /// Returns the rows patched and the rows the repairs visited.
    pub(crate) fn patch_recode_within(
        &mut self,
        col: usize,
        from: &Value,
        to: &Value,
        mut stats: Option<&mut GroupStats>,
        budget: usize,
    ) -> (Vec<usize>, usize) {
        let rows = self.rows_holding(col, from);
        let mut visited = 0;
        for &r in &rows {
            let repair = if visited > budget {
                None
            } else {
                stats.as_deref_mut()
            };
            visited += self.patch_cell(r, col, to, repair);
        }
        (rows, visited)
    }

    /// Number of null quasi-identifier cells across the view.
    pub fn null_cell_count(&self) -> usize {
        self.null_masks
            .iter()
            .map(|m| m.count_ones() as usize)
            .sum()
    }

    /// Approximate retained heap bytes of the columnar storage.
    pub fn retained_bytes(&self) -> usize {
        self.codes.len() * std::mem::size_of::<u32>()
            + self.null_masks.len() * std::mem::size_of::<u64>()
            + self
                .dicts
                .iter()
                .map(ColumnDict::retained_bytes)
                .sum::<usize>()
            + self
                .weights
                .as_ref()
                .map(|w| w.len() * std::mem::size_of::<f64>())
                .unwrap_or(0)
    }
}

/// Per-tuple diagnostic detail accompanying a risk score.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TupleRiskDetail {
    /// Size of the tuple's equivalence group under the view's semantics.
    pub frequency: usize,
    /// Sum of sampling weights over the group (frequency if unweighted).
    pub weight_sum: f64,
    /// Measure-specific annotation (e.g. MSU sizes for SUDA).
    pub note: String,
}

/// The outcome of evaluating a risk measure over a view.
#[derive(Debug, Clone)]
pub struct RiskReport {
    /// Name of the measure that produced this report.
    pub measure: String,
    /// Per-tuple risk in `[0, 1]`, same order as the view rows.
    pub risks: Vec<f64>,
    /// Per-tuple diagnostics (same order).
    pub details: Vec<TupleRiskDetail>,
}

impl RiskReport {
    /// Indices of tuples whose risk strictly exceeds the threshold `t`
    /// (Algorithm 2, Rule 2: `R > T → anonymize`).
    pub fn risky_tuples(&self, t: f64) -> Vec<usize> {
        self.risks
            .iter()
            .enumerate()
            .filter(|(_, &r)| r > t)
            .map(|(i, _)| i)
            .collect()
    }

    /// Maximum risk over all tuples (0.0 for an empty view).
    pub fn max_risk(&self) -> f64 {
        self.risks.iter().copied().fold(0.0, f64::max)
    }

    /// Mean risk (0.0 for an empty view).
    pub fn mean_risk(&self) -> f64 {
        if self.risks.is_empty() {
            0.0
        } else {
            self.risks.iter().sum::<f64>() / self.risks.len() as f64
        }
    }
}

/// A pluggable statistical disclosure risk measure.
pub trait RiskMeasure {
    /// Name used in reports and audit logs.
    fn name(&self) -> &str;
    /// Evaluate per-tuple risk over a view.
    fn evaluate(&self, view: &MicrodataView) -> Result<RiskReport, RiskError>;

    /// Fast single-tuple re-evaluation against a (possibly partially
    /// anonymized) view, used by the cycle to honour the monotonic-
    /// aggregation semantics of §4.3: a tuple whose risk has already been
    /// defused by *someone else's* suppression in the current iteration is
    /// skipped, so no information is removed needlessly. Measures without
    /// a cheap incremental form return `None` and are re-checked only at
    /// the next full evaluation.
    fn evaluate_tuple(&self, _view: &MicrodataView, _row: usize) -> Option<f64> {
        None
    }

    /// Constant-time single-tuple risk from maintained group statistics.
    /// Where [`RiskMeasure::evaluate_tuple`] rescans the table (`O(n)`),
    /// this hook reads the tuple's `(frequency, weight_sum)` straight out
    /// of `stats` — which the cycle keeps patched across suppressions —
    /// so per-row rechecks cost `O(1)`. Implementations must return
    /// exactly the value `evaluate_tuple` would compute on the same view;
    /// the default `None` falls back to the scanning path.
    fn tuple_risk_from_stats(
        &self,
        _view: &MicrodataView,
        _stats: &crate::maybe_match::GroupStats,
        _row: usize,
    ) -> Option<f64> {
        None
    }

    /// Warm-start hook: produce the full report from precomputed
    /// equivalence-group statistics instead of regrouping the whole view.
    /// The cycle maintains `stats` incrementally across suppressions
    /// (`GroupStats::apply_row_change`) and serves every re-evaluation
    /// after the first through this hook.
    ///
    /// A measure may implement this only when its report is a pure,
    /// deterministic function of per-tuple `(frequency, weight_sum)` — the
    /// default `None` declares the measure unsupported and forces the
    /// cycle back to a cold [`RiskMeasure::evaluate`] (correctness first).
    fn report_from_groups(
        &self,
        _view: &MicrodataView,
        _stats: &crate::maybe_match::GroupStats,
    ) -> Option<Result<RiskReport, RiskError>> {
        None
    }
}

/// Count the rows of `view` matching `row` on every quasi-identifier under
/// the view's null semantics, and their weight sum. Shared by the
/// incremental fast paths.
pub(crate) fn tuple_group(view: &MicrodataView, row: usize) -> (usize, f64) {
    let mut count = 0usize;
    let mut wsum = 0.0f64;
    for i in 0..view.len() {
        if view.rows_match(row, i) {
            count += 1;
            wsum += view.weights.as_ref().map(|w| w[i]).unwrap_or(1.0);
        }
    }
    (count, wsum)
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// A small helper building a view directly from string rows.
    pub fn view_of(rows: Vec<Vec<&str>>, weights: Option<Vec<f64>>) -> MicrodataView {
        let width = rows.first().map(|r| r.len()).unwrap_or(0);
        MicrodataView::from_rows(
            (0..width).map(|i| format!("q{i}")).collect(),
            rows.into_iter()
                .map(|r| r.into_iter().map(Value::str).collect())
                .collect(),
            weights,
            NullSemantics::MaybeMatch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::view_of;
    use super::*;
    use crate::dictionary::Category;

    #[test]
    fn view_from_db_projects_qis_and_weights() {
        let mut db = MicrodataDb::new("m", ["id", "area", "w", "note"]).unwrap();
        db.push_row(vec![
            Value::Int(1),
            Value::str("North"),
            Value::Int(10),
            Value::str("x"),
        ])
        .unwrap();
        let mut dict = MetadataDictionary::new();
        for a in ["id", "area", "w", "note"] {
            dict.register_attr("m", a, "");
        }
        dict.set_category("m", "id", Category::Identifier).unwrap();
        dict.set_category("m", "area", Category::QuasiIdentifier)
            .unwrap();
        dict.set_category("m", "w", Category::Weight).unwrap();
        dict.set_category("m", "note", Category::NonIdentifying)
            .unwrap();

        let view = MicrodataView::from_db(&db, &dict).unwrap();
        assert_eq!(view.qi_names, vec!["area"]);
        assert_eq!(view.value(0, 0), &Value::str("North"));
        assert_eq!(view.row_values(0), vec![Value::str("North")]);
        assert_eq!(view.weights, Some(vec![10.0]));
    }

    #[test]
    fn restriction_to_subset() {
        let mut db = MicrodataDb::new("m", ["a", "b"]).unwrap();
        db.push_row(vec![Value::str("x"), Value::str("y")]).unwrap();
        let mut dict = MetadataDictionary::new();
        dict.register_attr("m", "a", "");
        dict.register_attr("m", "b", "");
        dict.set_category("m", "a", Category::QuasiIdentifier)
            .unwrap();
        dict.set_category("m", "b", Category::QuasiIdentifier)
            .unwrap();
        let restricted = ["b".to_string()];
        let view =
            MicrodataView::from_db_with(&db, &dict, NullSemantics::MaybeMatch, Some(&restricted))
                .unwrap();
        assert_eq!(view.qi_names, vec!["b"]);
        // restricting away everything is an error
        let none: [String; 0] = [];
        assert!(
            MicrodataView::from_db_with(&db, &dict, NullSemantics::MaybeMatch, Some(&none))
                .is_err()
        );
    }

    #[test]
    fn risky_tuples_thresholding() {
        let report = RiskReport {
            measure: "test".into(),
            risks: vec![0.1, 0.6, 0.5, 1.0],
            details: vec![TupleRiskDetail::default(); 4],
        };
        assert_eq!(report.risky_tuples(0.5), vec![1, 3]);
        assert_eq!(report.max_risk(), 1.0);
        assert!((report.mean_risk() - 0.55).abs() < 1e-12);
    }

    #[test]
    fn no_quasi_identifiers_is_an_error() {
        let mut db = MicrodataDb::new("m", ["a"]).unwrap();
        db.push_row(vec![Value::str("x")]).unwrap();
        let mut dict = MetadataDictionary::new();
        dict.register_attr("m", "a", "");
        dict.set_category("m", "a", Category::NonIdentifying)
            .unwrap();
        assert!(MicrodataView::from_db(&db, &dict).is_err());
    }

    #[test]
    fn helper_builds_views() {
        let v = view_of(vec![vec!["a", "b"], vec!["a", "c"]], None);
        assert_eq!(v.len(), 2);
        assert_eq!(v.width(), 2);
    }

    #[test]
    fn patch_cell_updates_values_masks_and_stats() {
        let mut v = view_of(vec![vec!["a", "x"], vec!["b", "x"], vec!["b", "y"]], None);
        let mut stats = v.group_stats();
        assert_eq!(stats.count, vec![1, 1, 1]);
        v.patch_cell(0, 0, &Value::Null(0), Some(&mut stats));
        assert_eq!(v.null_mask(0), 1);
        assert!(v.value(0, 0).is_null());
        // ⊥,x maybe-matches b,x
        assert_eq!(stats.count, vec![2, 2, 1]);
        let cold = v.group_stats();
        assert_eq!(stats.count, cold.count);
        assert_eq!(stats.weight_sum, cold.weight_sum);
    }

    #[test]
    fn patch_recode_rewrites_all_matching_cells() {
        let mut v = view_of(vec![vec!["a"], vec!["b"], vec!["a"]], None);
        let mut stats = v.group_stats();
        let patched = v.patch_recode(0, &Value::str("a"), &Value::str("b"), Some(&mut stats));
        assert_eq!(patched, vec![0, 2]);
        assert_eq!(stats.count, vec![3, 3, 3]);
        assert_eq!(v.value(0, 0), &Value::str("b"));
        // recoding a value the column never held is a no-op
        let none = v.patch_recode(0, &Value::str("zz"), &Value::str("b"), Some(&mut stats));
        assert!(none.is_empty());
    }

    #[test]
    fn recode_repairs_stop_past_the_budget() {
        let rows = vec![
            vec!["a", "x"],
            vec!["a", "x"],
            vec!["a", "y"],
            vec!["a", "y"],
            vec!["a", "z"],
            vec!["a", "z"],
        ];
        let (a, b) = (Value::str("a"), Value::str("b"));
        // each repair pivots on column 1 and visits the row's pair
        let mut v = view_of(rows.clone(), None);
        let mut stats = v.group_stats();
        let (patched, visited) = v.patch_recode_within(0, &a, &b, Some(&mut stats), usize::MAX);
        assert_eq!((patched.len(), visited), (6, 12));
        assert_eq!(stats.count, v.group_stats().count);
        // a zero budget stops after the first repair; every cell still moves
        let mut v = view_of(rows, None);
        let mut stats = v.group_stats();
        let (patched, visited) = v.patch_recode_within(0, &a, &b, Some(&mut stats), 0);
        assert_eq!((patched.len(), visited), (6, 2));
        assert!((0..6).all(|r| v.value(r, 0) == &b));
    }

    #[test]
    fn to_rows_roundtrips_through_from_rows() {
        let rows = vec![
            vec![Value::str("a"), Value::Null(3)],
            vec![Value::Int(7), Value::str("b")],
        ];
        let v = MicrodataView::from_rows(
            vec!["q0".into(), "q1".into()],
            rows.clone(),
            None,
            NullSemantics::Standard,
        );
        assert_eq!(v.to_rows(), rows);
        assert_eq!(v.null_cell_count(), 1);
        assert!(v.retained_bytes() > 0);
    }
}
