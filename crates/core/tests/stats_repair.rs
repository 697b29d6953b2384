//! Differential pins for the postings-driven statistics repair: after
//! every `patch_cell` / `patch_recode` on a live view, the group
//! statistics it repaired over the postings candidates must be bitwise
//! equal to the full-scan repair (`apply_cell_change_codes` over every
//! row), for fractional weights too, and bitwise equal to a cold
//! `group_stats()` whenever the weights are exactly summable.
//!
//! Tables have 1–4 quasi-identifiers over 1–3-value alphabets (duplicate
//! rows are common) and labelled nulls drawn from a small shared pool.
//! Between checks they take random suppressions, overwrites back to
//! constants and back-and-forth recodes, which leave stale and repeated
//! postings entries behind; both null semantics run.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use vadalog::Value;
use vadasa_core::columnar::apply_cell_change_codes;
use vadasa_core::maybe_match::{weights_exactly_summable, GroupStats, NullSemantics};
use vadasa_core::risk::MicrodataView;

/// A live view plus the statistics repaired two ways.
struct Repaired {
    view: MicrodataView,
    /// Repaired by the view over the postings candidates.
    fast: GroupStats,
    /// Repaired by the kernel over every row.
    full: GroupStats,
    next_null: u64,
}

fn random_view(rng: &mut StdRng, sem: NullSemantics) -> MicrodataView {
    let width = rng.gen_range(1..=4usize);
    let rows = rng.gen_range(1..=40usize);
    let alphabet: Vec<usize> = (0..width).map(|_| rng.gen_range(1..=3usize)).collect();
    let table: Vec<Vec<Value>> = (0..rows)
        .map(|_| {
            alphabet
                .iter()
                .map(|&k| {
                    if rng.gen_bool(0.16) {
                        Value::Null(rng.gen_range(0..4u64))
                    } else {
                        Value::str(format!("v{}", rng.gen_range(0..k)))
                    }
                })
                .collect()
        })
        .collect();
    let weights = match rng.gen_range(0..3u32) {
        0 => None,
        1 => Some((0..rows).map(|_| rng.gen_range(1..=9u32) as f64).collect()),
        // fractional: incremental sums are not exact, but the candidate
        // repair must still reproduce the full scan bit for bit
        _ => Some(
            (0..rows)
                .map(|_| rng.gen_range(1..=9u32) as f64 * 0.1 + 0.05)
                .collect(),
        ),
    };
    let names = (0..width).map(|c| format!("q{c}")).collect();
    MicrodataView::from_rows(names, table, weights, sem)
}

/// The view's coded table, flattened row-major.
fn flat(view: &MicrodataView) -> (Vec<u32>, Vec<u64>) {
    let codes = (0..view.len())
        .flat_map(|r| view.row_codes(r).to_vec())
        .collect();
    let masks = (0..view.len()).map(|r| view.null_mask(r)).collect();
    (codes, masks)
}

fn assert_bitwise(a: &GroupStats, b: &GroupStats, what: &str) {
    assert_eq!(a.count, b.count, "{what}: counts");
    let bits = |s: &GroupStats| s.weight_sum.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a), bits(b), "{what}: weight sums");
}

impl Repaired {
    fn new(view: MicrodataView) -> Self {
        let stats = view.group_stats();
        Repaired {
            view,
            fast: stats.clone(),
            full: stats,
            next_null: 100,
        }
    }

    /// Full-scan repair of `full` for `rows` having moved, in order, from
    /// the `before` table to their current cells at `col`.
    fn repair_full(
        &mut self,
        (mut codes, mut masks): (Vec<u32>, Vec<u64>),
        col: usize,
        rows: &[usize],
    ) {
        let width = self.view.width();
        let every: Vec<u32> = (0..self.view.len() as u32).collect();
        for &row in rows {
            let old_codes = codes[row * width..(row + 1) * width].to_vec();
            let old_mask = masks[row];
            codes[row * width + col] = self.view.row_codes(row)[col];
            masks[row] = (masks[row] & !(1 << col)) | (self.view.null_mask(row) & (1 << col));
            apply_cell_change_codes(
                &codes,
                &masks,
                width,
                self.view.weights.as_deref(),
                self.view.semantics,
                row,
                &old_codes,
                old_mask,
                &every,
                &mut self.full,
            );
        }
        assert_eq!((codes, masks), flat(&self.view), "reference table drifted");
    }

    /// Overwrite one cell; returns the rows the repair visited.
    fn set(&mut self, row: usize, col: usize, v: &Value) -> usize {
        let before = flat(&self.view);
        let visited = self.view.patch_cell(row, col, v, Some(&mut self.fast));
        self.repair_full(before, col, &[row]);
        self.check();
        visited
    }

    fn recode(&mut self, col: usize, from: &Value, to: &Value) {
        let before = flat(&self.view);
        let rows = self.view.patch_recode(col, from, to, Some(&mut self.fast));
        self.repair_full(before, col, &rows);
        self.check();
    }

    fn check(&self) {
        assert_bitwise(&self.fast, &self.full, "candidate vs full-scan repair");
        if weights_exactly_summable(self.view.weights.as_deref()) {
            assert_bitwise(
                &self.fast,
                &self.view.group_stats(),
                "repair vs cold regroup",
            );
        }
    }

    fn fresh_null(&mut self) -> Value {
        self.next_null += 1;
        Value::Null(self.next_null)
    }
}

fn differential_run(seed: u64) {
    let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let sem = if rng.gen_bool(0.25) {
        NullSemantics::Standard
    } else {
        NullSemantics::MaybeMatch
    };
    let mut r = Repaired::new(random_view(&mut rng, sem));
    let (n, width) = (r.view.len(), r.view.width());
    for _ in 0..32 {
        let row = rng.gen_range(0..n);
        let col = rng.gen_range(0..width);
        match rng.gen_range(0..4u32) {
            // suppress one cell
            0 | 1 => {
                let null = r.fresh_null();
                r.set(row, col, &null);
            }
            // overwrite back to a constant (a null may turn constant)
            2 => {
                let v = Value::str(format!("v{}", rng.gen_range(0..3)));
                r.set(row, col, &v);
            }
            // recode the row's value, often back to one the column held
            _ => {
                let from = r.view.value(row, col).clone();
                let to = Value::str(format!("v{}", rng.gen_range(0..4)));
                r.recode(col, &from, &to);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random tables, random patch sequences, both semantics.
    #[test]
    fn candidate_repair_equals_full_scan_and_cold(seed in 0u64..1_000_000) {
        differential_run(seed);
    }
}

fn view_of(rows: &[&[&str]], weights: Option<Vec<f64>>, sem: NullSemantics) -> MicrodataView {
    let width = rows[0].len();
    let cell = |s: &str| match s.strip_prefix('_') {
        Some(label) => Value::Null(label.parse().unwrap()),
        None => Value::str(s),
    };
    MicrodataView::from_rows(
        (0..width).map(|c| format!("q{c}")).collect(),
        rows.iter()
            .map(|r| r.iter().map(|s| cell(s)).collect())
            .collect(),
        weights,
        sem,
    )
}

/// With no other non-null column to pivot on, every row is visited;
/// with one, only the pivot's holders and the rows null there are.
#[test]
fn candidates_fall_back_to_every_row_without_a_pivot() {
    for sem in [NullSemantics::MaybeMatch, NullSemantics::Standard] {
        // width 1
        let mut r = Repaired::new(view_of(&[&["a"], &["b"], &["a"], &["c"]], None, sem));
        assert_eq!(r.set(0, 0, &Value::Null(9)), 4);
        assert_eq!(r.set(3, 0, &Value::str("a")), 4);

        // every other cell of the row null
        let rows: &[&[&str]] = &[
            &["a", "_1", "_2"],
            &["a", "x", "p"],
            &["b", "x", "p"],
            &["a", "y", "q"],
            &["c", "_1", "q"],
        ];
        let mut r = Repaired::new(view_of(rows, Some(vec![3.0, 1.0, 2.0, 5.0, 4.0]), sem));
        assert_eq!(r.set(0, 0, &Value::Null(7)), 5);
        // row 1 pivots on column 1 (`x`: rows 1, 2) or 2 (`p`: rows 1, 2);
        // under maybe-match the rows null there (0, 4) join them
        let expected = if sem == NullSemantics::MaybeMatch {
            4
        } else {
            2
        };
        assert_eq!(r.set(1, 0, &Value::Null(8)), expected);
    }
}

/// Rows moved away from a code and back leave stale and repeated
/// postings entries; the repair must filter them.
#[test]
fn stale_postings_entries_are_filtered() {
    let rows: &[&[&str]] = &[
        &["a", "x"],
        &["a", "x"],
        &["b", "x"],
        &["a", "y"],
        &["b", "y"],
    ];
    let mut r = Repaired::new(view_of(
        rows,
        Some(vec![0.3, 1.7, 2.2, 0.9, 4.1]),
        NullSemantics::MaybeMatch,
    ));
    // build the index, then churn column 1 so `x`'s list goes stale
    assert_eq!(r.view.rows_holding(1, &Value::str("x")), vec![0, 1, 2]);
    r.recode(1, &Value::str("x"), &Value::str("z"));
    r.recode(1, &Value::str("z"), &Value::str("x"));
    r.set(0, 1, &Value::str("y"));
    r.set(0, 1, &Value::str("x"));
    // each repair pivots on column 1 now and visits only current holders
    assert_eq!(r.set(2, 0, &Value::Null(5)), 3);
    assert_eq!(r.set(2, 0, &Value::str("a")), 3);
    assert_eq!(r.view.rows_holding(1, &Value::str("x")), vec![0, 1, 2]);
}
