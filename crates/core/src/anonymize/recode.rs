//! Global recoding over a domain hierarchy (paper Algorithm 8).
//!
//! Besides suppression, disclosure risk can be controlled by *coarsening*
//! values using domain knowledge stored in the KB:
//!
//! ```text
//! Att(I&G, Area).  TypeOf(Area, City).  SubTypeOf(City, Region).
//! InstOf(Milano, City).  InstOf(North, Region).  IsA(Milano, North).
//! ```
//!
//! For a risky tuple, a quasi-identifier's value is replaced by its parent
//! in the hierarchy — `Milano → North` — and, because the recoding is
//! *global*, every other occurrence of the value in the column is rewritten
//! too (Figure 5b: both `Milano` and `Torino` become `North`, merging
//! tuples 6 and 7 into one equivalence class). Recoding is inherently
//! recursive: several roll-ups may be needed before the risk drops.

use super::{rank_candidates, AnonymizationAction, AnonymizeError, Anonymizer, AttributeOrder};
use crate::dictionary::MetadataDictionary;
use crate::model::MicrodataDb;
use crate::risk::MicrodataView;
use std::collections::HashMap;
use vadalog::Value;

/// Domain knowledge: value-level `IsA` edges plus type-level structure.
///
/// The hierarchy mirrors the paper's KB facts: `TypeOf` assigns a type to
/// an attribute, `SubTypeOf` orders types from finer to coarser, `InstOf`
/// types each value, and `IsA` links a value to its coarser parent.
#[derive(Debug, Clone, Default)]
pub struct DomainHierarchy {
    /// attribute name → its (finest) type.
    attr_type: HashMap<String, String>,
    /// finer type → coarser type (`SubTypeOf`).
    super_type: HashMap<String, String>,
    /// value → its type (`InstOf`).
    inst_of: HashMap<Value, String>,
    /// value → parent values (`IsA`); usually one parent per level.
    is_a: HashMap<Value, Vec<Value>>,
}

impl DomainHierarchy {
    /// Empty hierarchy.
    pub fn new() -> Self {
        Self::default()
    }

    /// `TypeOf(attr, ty)`.
    pub fn set_attr_type(&mut self, attr: impl Into<String>, ty: impl Into<String>) {
        self.attr_type.insert(attr.into(), ty.into());
    }

    /// `SubTypeOf(finer, coarser)`.
    pub fn set_super_type(&mut self, finer: impl Into<String>, coarser: impl Into<String>) {
        self.super_type.insert(finer.into(), coarser.into());
    }

    /// `InstOf(value, ty)`.
    pub fn set_instance(&mut self, value: Value, ty: impl Into<String>) {
        self.inst_of.insert(value, ty.into());
    }

    /// `IsA(child, parent)`.
    pub fn add_is_a(&mut self, child: Value, parent: Value) {
        self.is_a.entry(child).or_default().push(parent);
    }

    /// Register a full `child → parent` edge in one call: types the child
    /// and parent and records the `IsA` link.
    pub fn link(
        &mut self,
        child: Value,
        child_ty: impl Into<String>,
        parent: Value,
        parent_ty: impl Into<String>,
    ) {
        let child_ty = child_ty.into();
        let parent_ty = parent_ty.into();
        self.set_instance(child.clone(), child_ty.clone());
        self.set_instance(parent.clone(), parent_ty.clone());
        self.set_super_type(child_ty, parent_ty);
        self.add_is_a(child, parent);
    }

    /// Type declared for an attribute, if any.
    pub fn attr_type(&self, attr: &str) -> Option<&str> {
        self.attr_type.get(attr).map(|s| s.as_str())
    }

    /// One roll-up step per Algorithm 8: for value `v` of type `X`, return
    /// the parent `Z` with `IsA(v, Z)` and `InstOf(Z, Y)` where
    /// `SubTypeOf(X, Y)`.
    pub fn roll_up(&self, v: &Value) -> Option<Value> {
        let ty = self.inst_of.get(v)?;
        let coarser = self.super_type.get(ty)?;
        self.is_a
            .get(v)?
            .iter()
            .find(|p| self.inst_of.get(*p).map(|t| t == coarser).unwrap_or(false))
            .cloned()
    }

    /// Height of `v` in the hierarchy: number of roll-ups until a root.
    pub fn height(&self, v: &Value) -> usize {
        let mut h = 0;
        let mut cur = v.clone();
        while let Some(p) = self.roll_up(&cur) {
            h += 1;
            cur = p;
            if h > 64 {
                break; // cyclic KB guard
            }
        }
        h
    }
}

/// Global recoding anonymizer (Algorithm 8).
#[derive(Debug, Clone, Default)]
pub struct GlobalRecoding {
    /// The domain hierarchy driving roll-ups.
    pub hierarchy: DomainHierarchy,
    /// Which quasi-identifier to recode first.
    pub attr_order: AttributeOrder,
}

impl GlobalRecoding {
    /// Global recoding over the given hierarchy.
    pub fn new(hierarchy: DomainHierarchy) -> Self {
        GlobalRecoding {
            hierarchy,
            attr_order: AttributeOrder::default(),
        }
    }
}

impl Anonymizer for GlobalRecoding {
    fn name(&self) -> &str {
        "global-recoding"
    }

    fn anonymize_step_on(
        &self,
        db: &mut MicrodataDb,
        _dict: &MetadataDictionary,
        view: &MicrodataView,
        row: usize,
    ) -> Result<AnonymizationAction, AnonymizeError> {
        // Among the candidate attributes, use the first whose value can be
        // rolled up.
        for col in rank_candidates(view, row, self.attr_order) {
            let attr = &view.qi_names[col];
            let from = db.value(row, attr)?.clone();
            let Some(to) = self.hierarchy.roll_up(&from) else {
                continue;
            };
            // global: rewrite every occurrence in the column
            let rows_to_change = view.rows_holding(col, &from);
            for &r in &rows_to_change {
                db.set_value(r, attr, to.clone())?;
            }
            return Ok(AnonymizationAction::Recode {
                attr: attr.clone(),
                from,
                to,
                rows_affected: rows_to_change.len(),
            });
        }
        Ok(AnonymizationAction::Exhausted { row })
    }
}

/// Merge two band labels: `"0-30" + "30-60" → "0-60"`, `"60-90" + "90+"
/// → "60+"`; anything unparsable joins with `∪`.
fn merge_bands(a: &str, b: &str) -> String {
    let lo = a.split('-').next().map(str::trim);
    let hi_plus = b.ends_with('+');
    let hi = if hi_plus {
        None
    } else {
        b.rsplit('-').next().map(str::trim)
    };
    match (lo, hi, hi_plus) {
        (Some(lo), _, true) if lo.parse::<f64>().is_ok() => format!("{lo}+"),
        (Some(lo), Some(hi), false) if lo.parse::<f64>().is_ok() && hi.parse::<f64>().is_ok() => {
            format!("{lo}-{hi}")
        }
        _ => format!("{a}∪{b}"),
    }
}

/// Build a generalization hierarchy for an ordered sequence of band values
/// (e.g. revenue shares `["0-30", "30-60", "60-90", "90+"]`): each level
/// merges adjacent pairs until a single `*` root remains, so global
/// recoding can coarsen banded numeric attributes step by step.
pub fn band_hierarchy(attr: &str, bands: &[&str]) -> DomainHierarchy {
    let mut h = DomainHierarchy::new();
    let base_ty = format!("{attr}-L0");
    h.set_attr_type(attr, base_ty.clone());
    let mut level: Vec<String> = bands.iter().map(|b| b.to_string()).collect();
    let mut level_no = 0usize;
    for b in &level {
        h.set_instance(Value::str(b), base_ty.clone());
    }
    while level.len() > 1 {
        let child_ty = format!("{attr}-L{level_no}");
        let parent_ty = format!("{attr}-L{}", level_no + 1);
        h.set_super_type(child_ty, parent_ty.clone());
        let mut next: Vec<String> = Vec::new();
        let mut i = 0;
        while i < level.len() {
            let parent = if i + 1 < level.len() {
                merge_bands(&level[i], &level[i + 1])
            } else {
                level[i].clone()
            };
            // a singleton tail still needs a *distinct* parent label so the
            // hierarchy keeps making progress
            let parent = if next.len() + 1 == 1 && level.len() <= 2 && i + 1 >= level.len() {
                parent
            } else if i + 1 >= level.len() && parent == level[i] {
                format!("{parent}·")
            } else {
                parent
            };
            h.set_instance(Value::str(&parent), parent_ty.clone());
            h.add_is_a(Value::str(&level[i]), Value::str(&parent));
            if i + 1 < level.len() {
                h.add_is_a(Value::str(&level[i + 1]), Value::str(&parent));
            }
            next.push(parent);
            i += 2;
        }
        level = next;
        level_no += 1;
    }
    // root rolls up to "*"
    if let Some(root) = level.first() {
        let root_ty = format!("{attr}-L{level_no}");
        h.set_super_type(root_ty, format!("{attr}-top"));
        h.set_instance(Value::str("*"), format!("{attr}-top"));
        h.add_is_a(Value::str(root), Value::str("*"));
    }
    h
}

/// Build the paper's Italian-geography example hierarchy (Figure 5 /
/// Algorithm 8 narrative): cities roll up to regions, regions to country.
pub fn italian_geography() -> DomainHierarchy {
    let mut h = DomainHierarchy::new();
    h.set_attr_type("Area", "City");
    for (city, region) in [
        ("Milano", "North"),
        ("Torino", "North"),
        ("Venezia", "North"),
        ("Roma", "Center"),
        ("Firenze", "Center"),
        ("Napoli", "South"),
        ("Bari", "South"),
        ("Palermo", "South"),
    ] {
        h.link(Value::str(city), "City", Value::str(region), "Region");
    }
    for region in ["North", "Center", "South"] {
        h.link(Value::str(region), "Region", Value::str("Italy"), "Country");
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::Category;

    fn fig5_db() -> (MicrodataDb, MetadataDictionary) {
        let mut db = MicrodataDb::new("fig5", ["Area", "Sector"]).unwrap();
        for (a, s) in [
            ("Milano", "Construction"),
            ("Torino", "Construction"),
            ("Roma", "Textiles"),
        ] {
            db.push_row(vec![Value::str(a), Value::str(s)]).unwrap();
        }
        let mut dict = MetadataDictionary::new();
        dict.register_attr("fig5", "Area", "");
        dict.register_attr("fig5", "Sector", "");
        dict.set_category("fig5", "Area", Category::QuasiIdentifier)
            .unwrap();
        dict.set_category("fig5", "Sector", Category::QuasiIdentifier)
            .unwrap();
        (db, dict)
    }

    #[test]
    fn band_hierarchy_rolls_up_pairwise() {
        let h = band_hierarchy("ResRev", &["0-30", "30-60", "60-90", "90+"]);
        assert_eq!(h.roll_up(&Value::str("0-30")), Some(Value::str("0-60")));
        assert_eq!(h.roll_up(&Value::str("30-60")), Some(Value::str("0-60")));
        assert_eq!(h.roll_up(&Value::str("60-90")), Some(Value::str("60+")));
        assert_eq!(h.roll_up(&Value::str("90+")), Some(Value::str("60+")));
        // next level merges to the full range, then the * root
        assert_eq!(h.roll_up(&Value::str("0-60")), Some(Value::str("0+")));
        assert_eq!(h.roll_up(&Value::str("0+")), Some(Value::str("*")));
        assert_eq!(h.roll_up(&Value::str("*")), None);
        assert_eq!(h.height(&Value::str("0-30")), 3);
    }

    #[test]
    fn band_hierarchy_handles_odd_counts_and_unparsable_labels() {
        let h = band_hierarchy("x", &["low", "mid", "high"]);
        // low+mid merge with the ∪ join; high is carried up alone
        assert_eq!(h.roll_up(&Value::str("low")), Some(Value::str("low∪mid")));
        let carried = h.roll_up(&Value::str("high")).unwrap();
        // every chain eventually reaches the root
        let mut cur = Value::str("low");
        let mut steps = 0;
        while let Some(p) = h.roll_up(&cur) {
            cur = p;
            steps += 1;
            assert!(steps < 10, "no runaway chains");
        }
        assert_eq!(cur, Value::str("*"));
        drop(carried);
    }

    #[test]
    fn band_hierarchy_drives_global_recoding() {
        use crate::dictionary::Category;
        let mut db = MicrodataDb::new("b", ["ResRev"]).unwrap();
        for v in ["0-30", "30-60", "60-90", "90+"] {
            db.push_row(vec![Value::str(v)]).unwrap();
        }
        let mut dict = MetadataDictionary::new();
        dict.register_attr("b", "ResRev", "");
        dict.set_category("b", "ResRev", Category::QuasiIdentifier)
            .unwrap();
        let anon =
            GlobalRecoding::new(band_hierarchy("ResRev", &["0-30", "30-60", "60-90", "90+"]));
        anon.anonymize_step(&mut db, &dict, 0).unwrap();
        assert_eq!(db.value(0, "ResRev").unwrap(), &Value::str("0-60"));
        // recoding is global per *value*: the sibling band keeps its label
        // until its own step merges it into the same parent
        assert_eq!(db.value(1, "ResRev").unwrap(), &Value::str("30-60"));
        anon.anonymize_step(&mut db, &dict, 1).unwrap();
        assert_eq!(db.value(1, "ResRev").unwrap(), &Value::str("0-60"));
        assert_eq!(
            db.value(0, "ResRev").unwrap(),
            db.value(1, "ResRev").unwrap()
        );
    }

    #[test]
    fn roll_up_follows_type_hierarchy() {
        let h = italian_geography();
        assert_eq!(h.roll_up(&Value::str("Milano")), Some(Value::str("North")));
        assert_eq!(h.roll_up(&Value::str("North")), Some(Value::str("Italy")));
        assert_eq!(h.roll_up(&Value::str("Italy")), None);
        assert_eq!(h.roll_up(&Value::str("unknown")), None);
    }

    #[test]
    fn height_counts_roll_ups() {
        let h = italian_geography();
        assert_eq!(h.height(&Value::str("Milano")), 2);
        assert_eq!(h.height(&Value::str("North")), 1);
        assert_eq!(h.height(&Value::str("Italy")), 0);
    }

    #[test]
    fn recoding_is_global_across_the_column() {
        let (mut db, dict) = fig5_db();
        let anon = GlobalRecoding::new(italian_geography());
        // tuple 0 (Milano) is risky; Area is recodeable
        let action = anon.anonymize_step(&mut db, &dict, 0).unwrap();
        match action {
            AnonymizationAction::Recode {
                attr,
                from,
                to,
                rows_affected,
            } => {
                assert_eq!(attr, "Area");
                assert_eq!(from, Value::str("Milano"));
                assert_eq!(to, Value::str("North"));
                assert_eq!(rows_affected, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // a second step on tuple 1 folds Torino into North: now both match
        anon.anonymize_step(&mut db, &dict, 1).unwrap();
        assert_eq!(db.value(0, "Area").unwrap(), db.value(1, "Area").unwrap());
    }

    #[test]
    fn recursive_roll_ups_climb_to_the_root() {
        let (mut db, dict) = fig5_db();
        let anon = GlobalRecoding::new(italian_geography());
        anon.anonymize_step(&mut db, &dict, 0).unwrap(); // Milano → North
        anon.anonymize_step(&mut db, &dict, 0).unwrap(); // North → Italy
        assert_eq!(db.value(0, "Area").unwrap(), &Value::str("Italy"));
        // exhausted on Area; Sector has no hierarchy → Exhausted overall
        let a = anon.anonymize_step(&mut db, &dict, 0).unwrap();
        assert_eq!(a, AnonymizationAction::Exhausted { row: 0 });
    }

    #[test]
    fn attribute_without_hierarchy_is_skipped() {
        let (mut db, dict) = fig5_db();
        let anon = GlobalRecoding::new(italian_geography());
        // Sector is most selective for tuple 2 (Textiles, unique), but has
        // no hierarchy: the step must fall through to Area.
        let action = anon.anonymize_step(&mut db, &dict, 2).unwrap();
        assert!(matches!(
            action,
            AnonymizationAction::Recode { ref attr, .. } if attr == "Area"
        ));
    }
}
