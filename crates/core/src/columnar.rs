//! Columnar quasi-identifier storage and partitioned group statistics.
//!
//! The row-based [`group_stats`](crate::maybe_match::group_stats) pass
//! clones and hashes `Value`s per cell, which caps the cycle at tens of
//! thousands of rows. This module stores the projected quasi-identifier
//! table *columnarly*: every column gets a [`ColumnDict`] interning each
//! distinct `Value` once, rows become flat `u32` code slices, and labelled
//! nulls are additionally tracked in a per-row bitmask. Group formation
//! then runs over integer codes — no `Value` clones, no deep hashing —
//! and, because equivalence classes are disjoint by construction, the
//! regrouping and per-row scoring passes shard across a
//! [`std::thread::scope`] pool with a deterministic sequential merge (the
//! same discipline the engine uses for parallel rule evaluation).
//!
//! # Determinism
//!
//! Counts are integers and therefore exact regardless of evaluation
//! order. Weight sums are `f64` additions, whose bit pattern depends on
//! association order, so the parallel path is only taken when
//! [`weights_exactly_summable`] holds (every weight an integer-valued
//! `f64` below `2^53`, where addition is exact and order-free). Under
//! that gate the result is bit-identical at *any* thread count; without
//! it the kernel silently falls back to the sequential order. The
//! maybe-match null phases iterate masks in sorted order (`BTreeMap`),
//! never in hash order, so repeated runs are byte-stable even for
//! non-summable weights.

use crate::maybe_match::{weights_exactly_summable, GroupStats, NullSemantics};
use std::collections::{BTreeMap, HashMap};
use vadalog::Value;

/// Rows below this count are never sharded: thread spawn overhead
/// dominates the work.
const MIN_ROWS_PER_THREAD: usize = 4096;

/// Per-column dictionary interning each distinct cell `Value` once.
///
/// Codes are dense (`0..len`) and assigned in first-appearance order, so
/// building a dictionary from the same column always yields the same
/// codes — snapshots and fingerprints may rely on this.
#[derive(Debug, Clone, Default)]
pub struct ColumnDict {
    values: Vec<Value>,
    lookup: HashMap<Value, u32>,
}

impl ColumnDict {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Code for `v`, interning it on first sight. Clones `v` only when it
    /// is new to the column.
    pub fn intern(&mut self, v: &Value) -> u32 {
        if let Some(&c) = self.lookup.get(v) {
            return c;
        }
        let c = self.values.len() as u32;
        self.values.push(v.clone());
        self.lookup.insert(v.clone(), c);
        c
    }

    /// The value a code stands for.
    pub fn value(&self, code: u32) -> &Value {
        &self.values[code as usize]
    }

    /// Code for `v` if it is already interned.
    pub fn code(&self, v: &Value) -> Option<u32> {
        self.lookup.get(v).copied()
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Is the dictionary empty?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Distinct values in code order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Approximate retained heap bytes (dictionary side only).
    pub fn retained_bytes(&self) -> usize {
        self.values.len() * (std::mem::size_of::<Value>() + std::mem::size_of::<u64>())
    }
}

/// Per-column postings index over a coded table (code → rows), the access
/// path of candidate ranking ([`crate::anonymize::rank_candidates`]) and
/// global recoding.
///
/// Invariant: for every column `c` and non-null code `k`, `rows[c][k]` ⊇
/// the rows whose *current* code at `c` is `k`, and `null_rows` ⊇ the rows
/// carrying at least one labelled null. A build lists every row once in
/// ascending order; patches only append, so an entry goes stale when its
/// row moves to another code, and repeats when the row moves back.
/// Readers therefore filter every list by the current code
/// ([`Postings::current`]). `counts[c][k]` is exact: the number of rows
/// whose current code at `c` is `k`. Labelled nulls are never posted per
/// code — each one is a distinct code — only through `null_rows`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Postings {
    rows: Vec<Vec<Vec<u32>>>,
    counts: Vec<Vec<u32>>,
    null_rows: Vec<u32>,
}

impl Postings {
    /// Index a row-major coded table (`dict_lens[c]` = codes in use at
    /// column `c`).
    pub(crate) fn build(codes: &[u32], null_masks: &[u64], dict_lens: &[usize]) -> Self {
        let width = dict_lens.len();
        let mut counts: Vec<Vec<u32>> = dict_lens.iter().map(|&len| vec![0; len]).collect();
        for (r, &mask) in null_masks.iter().enumerate() {
            for (c, col_counts) in counts.iter_mut().enumerate() {
                if mask >> c & 1 == 0 {
                    col_counts[codes[r * width + c] as usize] += 1;
                }
            }
        }
        let mut rows: Vec<Vec<Vec<u32>>> = counts
            .iter()
            .map(|cc| cc.iter().map(|&k| Vec::with_capacity(k as usize)).collect())
            .collect();
        let mut null_rows = Vec::new();
        for (r, &mask) in null_masks.iter().enumerate() {
            if mask != 0 {
                null_rows.push(r as u32);
            }
            for (c, col_rows) in rows.iter_mut().enumerate() {
                if mask >> c & 1 == 0 {
                    col_rows[codes[r * width + c] as usize].push(r as u32);
                }
            }
        }
        Postings {
            rows,
            counts,
            null_rows,
        }
    }

    /// Exact number of rows holding the non-null `code` at `col`.
    pub(crate) fn count(&self, col: usize, code: u32) -> usize {
        self.counts[col]
            .get(code as usize)
            .map_or(0, |&k| k as usize)
    }

    /// The (superset) postings list of the non-null `code` at `col`.
    pub(crate) fn list(&self, col: usize, code: u32) -> &[u32] {
        self.rows[col].get(code as usize).map_or(&[], Vec::as_slice)
    }

    /// Superset of the rows carrying a labelled null.
    pub(crate) fn null_rows(&self) -> &[u32] {
        &self.null_rows
    }

    /// Record that `row` moved from `old` to `new` at `col` (`old_mask` /
    /// `new_mask` are the row's null masks around the change).
    pub(crate) fn moved(
        &mut self,
        row: usize,
        col: usize,
        (old, old_mask): (u32, u64),
        (new, new_mask): (u32, u64),
    ) {
        if old == new {
            return;
        }
        if old_mask >> col & 1 == 0 {
            self.counts[col][old as usize] -= 1;
        }
        if new_mask >> col & 1 == 0 {
            // `counts[col]` and `rows[col]` always have the same length
            let k = new as usize;
            if self.counts[col].len() <= k {
                self.counts[col].resize(k + 1, 0);
                self.rows[col].resize_with(k + 1, Vec::new);
            }
            self.counts[col][k] += 1;
            self.rows[col][k].push(row as u32);
        }
        if old_mask == 0 && new_mask != 0 {
            self.null_rows.push(row as u32);
        }
    }

    /// The rows of `list` for which `keep` holds, ascending and without
    /// repeats (the shape a fresh build would have listed them in).
    pub(crate) fn current(list: &[u32], keep: impl Fn(usize) -> bool) -> Vec<u32> {
        let mut out: Vec<u32> = list.iter().copied().filter(|&r| keep(r as usize)).collect();
        if !out.windows(2).all(|w| w[0] < w[1]) {
            out.sort_unstable();
            out.dedup();
        }
        out
    }

    /// The rows a statistics repair must visit after `row` changed its
    /// cell at `col` (`codes`/`null_masks` already hold the new contents):
    /// ascending, without repeats, and covering every row that matches the
    /// row's old or new contents under `sem` — the candidate list of
    /// [`apply_cell_change_codes`].
    ///
    /// The pivot is the column `d ≠ col` the row holds non-null (so it
    /// held the same code before the change) with the fewest rows sharing
    /// that code. A row matching either version agrees with it at `d` or,
    /// under maybe-match, is null there; so the candidates are the rows
    /// holding the code at `d` merged with the rows null at `d`. Without
    /// such a column (width 1, or every other cell null) every row is a
    /// candidate.
    pub(crate) fn repair_candidates(
        &self,
        codes: &[u32],
        null_masks: &[u64],
        width: usize,
        (row, col): (usize, usize),
        sem: NullSemantics,
    ) -> Vec<u32> {
        let mask = null_masks[row];
        let own = &codes[row * width..(row + 1) * width];
        let pivot = (0..width)
            .filter(|&d| d != col && mask >> d & 1 == 0)
            .min_by_key(|&d| self.count(d, own[d]));
        let Some(d) = pivot else {
            return (0..null_masks.len() as u32).collect();
        };
        let k = own[d];
        let holding = Self::current(self.list(d, k), |r| codes[r * width + d] == k);
        if sem == NullSemantics::Standard {
            // a null at `d` never equals the constant `k`
            return holding;
        }
        let nulled = Self::current(&self.null_rows, |r| null_masks[r] >> d & 1 == 1);
        if nulled.is_empty() {
            return holding;
        }
        // The two lists are disjoint (non-null vs null at `d`).
        let mut out = Vec::with_capacity(holding.len() + nulled.len());
        let (mut a, mut b) = (holding.as_slice(), nulled.as_slice());
        while let (Some(&x), Some(&y)) = (a.first(), b.first()) {
            if x < y {
                out.push(x);
                a = &a[1..];
            } else {
                out.push(y);
                b = &b[1..];
            }
        }
        out.extend_from_slice(a);
        out.extend_from_slice(b);
        out
    }
}

/// Do two coded rows match under `sem`? `am`/`bm` are the rows' null
/// bitmasks over the same column positions as the code slices.
#[inline]
pub fn codes_match(a: &[u32], am: u64, b: &[u32], bm: u64, sem: NullSemantics) -> bool {
    match sem {
        // Labelled nulls intern to distinct codes, so plain code equality
        // is exactly Skolem-chase equality.
        NullSemantics::Standard => a == b,
        NullSemantics::MaybeMatch => {
            let union = am | bm;
            if union == 0 {
                a == b
            } else {
                a.iter()
                    .zip(b.iter())
                    .enumerate()
                    .all(|(c, (x, y))| (union >> c) & 1 == 1 || x == y)
            }
        }
    }
}

/// Even row-range split for `threads` workers over `n` rows.
fn chunk_ranges(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let t = threads.max(1).min(n.max(1));
    let base = n / t;
    let extra = n % t;
    let mut out = Vec::with_capacity(t);
    let mut start = 0;
    for i in 0..t {
        let len = base + usize::from(i < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// How many shards to actually use for `n` rows, honouring the
/// summability gate (parallel weight sums must be exact to stay
/// bit-identical to the sequential order).
fn effective_threads(n: usize, threads: usize, weights: Option<&[f64]>) -> usize {
    if threads <= 1 || n < 2 * MIN_ROWS_PER_THREAD || !weights_exactly_summable(weights) {
        1
    } else {
        threads.min(n / MIN_ROWS_PER_THREAD).max(1)
    }
}

/// Map rows `0..n` through `f` into a fresh `Vec`, sharding across
/// `threads` scoped workers. Chunks are written into pre-allocated slots
/// and concatenated in chunk order, so the output is identical to the
/// sequential map for any thread count.
pub fn par_map_rows<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let t = if threads <= 1 || n < 2 * MIN_ROWS_PER_THREAD {
        1
    } else {
        threads.min(n / MIN_ROWS_PER_THREAD).max(1)
    };
    if t == 1 {
        return (0..n).map(f).collect();
    }
    let ranges = chunk_ranges(n, t);
    let mut slots: Vec<Option<Vec<T>>> = Vec::new();
    slots.resize_with(ranges.len(), || None);
    std::thread::scope(|s| {
        for (slot, &(lo, hi)) in slots.iter_mut().zip(ranges.iter()) {
            let f = &f;
            s.spawn(move || {
                *slot = Some((lo..hi).map(f).collect());
            });
        }
    });
    let mut out = Vec::with_capacity(n);
    for chunk in slots.into_iter().flatten() {
        out.extend(chunk);
    }
    out
}

/// Group statistics over a coded table restricted to the listed column
/// `positions`, the columnar equivalent of
/// [`group_stats_on`](crate::maybe_match::group_stats_on) (pass all
/// positions for the full [`group_stats`](crate::maybe_match::group_stats)
/// semantics). `codes` is row-major with stride `width`;
/// `null_masks[i] & (1 << c)` says row `i` is null in column `c`.
///
/// Produces exactly the per-row counts and weight sums of the row-based
/// pass; see the module docs for when the sharded path engages and why
/// it is bit-identical.
pub fn group_stats_codes(
    codes: &[u32],
    null_masks: &[u64],
    width: usize,
    positions: &[usize],
    weights: Option<&[f64]>,
    sem: NullSemantics,
    threads: usize,
) -> GroupStats {
    let n = null_masks.len();
    let w = |i: usize| weights.map(|w| w[i]).unwrap_or(1.0);
    if n == 0 {
        return GroupStats {
            count: Vec::new(),
            weight_sum: Vec::new(),
        };
    }
    if positions.is_empty() {
        // Zero projected columns: every row matches every row.
        let total: f64 = (0..n).map(w).sum();
        return GroupStats {
            count: vec![n; n],
            weight_sum: vec![total; n],
        };
    }

    let pos_bits: u64 = positions.iter().fold(0u64, |m, &p| m | (1 << p));
    let full = positions.len() == width && positions.iter().enumerate().all(|(i, &p)| i == p);

    // Under standard semantics — or maybe-match with no null in any
    // projected cell — matching is exact code equality, a single
    // shardable hash-grouping pass.
    let no_nulls = null_masks.iter().all(|&m| m & pos_bits == 0);
    if sem == NullSemantics::Standard || no_nulls {
        return exact_grouping(codes, width, positions, full, None, n, weights, threads);
    }

    // --- maybe-match with nulls present ---
    let nulled: Vec<usize> = (0..n).filter(|&i| null_masks[i] & pos_bits != 0).collect();

    // Exact grouping of the complete rows (rows with no projected null).
    let skip_mask = pos_bits;
    let mut stats = exact_grouping(
        codes,
        width,
        positions,
        full,
        Some((null_masks, skip_mask)),
        n,
        weights,
        threads,
    );

    // Group nulled rows by their projected null mask; masks iterate in
    // sorted order so the accumulation order never depends on hash seeds.
    let mut by_mask: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for &i in &nulled {
        by_mask.entry(null_masks[i] & pos_bits).or_default().push(i);
    }

    for (mask, members) in &by_mask {
        let const_cols: Vec<usize> = positions
            .iter()
            .copied()
            .filter(|&c| mask & (1 << c) == 0)
            .collect();
        // Index the complete rows on the mask's constant positions.
        let mut index: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
        for i in 0..n {
            if null_masks[i] & pos_bits != 0 {
                continue;
            }
            let key: Vec<u32> = const_cols.iter().map(|&c| codes[i * width + c]).collect();
            index.entry(key).or_default().push(i);
        }
        for &i in members {
            let key: Vec<u32> = const_cols.iter().map(|&c| codes[i * width + c]).collect();
            if let Some(bucket) = index.get(&key) {
                // Nulled row i matches every complete row in the bucket,
                // and vice versa (maybe-match is symmetric).
                stats.count[i] += bucket.len();
                for &j in bucket {
                    stats.weight_sum[i] += w(j);
                    stats.count[j] += 1;
                    stats.weight_sum[j] += w(i);
                }
            }
        }
    }

    // Nulled-vs-nulled (including self): pairwise over the null-carrying
    // rows, mirroring the row-based pass increment for increment.
    for (a_pos, &i) in nulled.iter().enumerate() {
        stats.count[i] += 1; // self
        stats.weight_sum[i] += w(i);
        for &j in nulled.iter().skip(a_pos + 1) {
            if projected_maybe_match(codes, null_masks, width, positions, pos_bits, i, j) {
                stats.count[i] += 1;
                stats.weight_sum[i] += w(j);
                stats.count[j] += 1;
                stats.weight_sum[j] += w(i);
            }
        }
    }

    stats
}

/// Maybe-match between rows `i` and `j` on the projected positions.
#[inline]
fn projected_maybe_match(
    codes: &[u32],
    null_masks: &[u64],
    width: usize,
    positions: &[usize],
    pos_bits: u64,
    i: usize,
    j: usize,
) -> bool {
    let union = (null_masks[i] | null_masks[j]) & pos_bits;
    positions
        .iter()
        .all(|&c| (union >> c) & 1 == 1 || codes[i * width + c] == codes[j * width + c])
}

/// One exact hash-grouping pass over the coded table. `skip` optionally
/// excludes rows whose null mask intersects the given bits (their slots
/// stay zero for the caller's null phases). Shards when profitable and
/// exact; merges shard subtotals in chunk order.
#[allow(clippy::too_many_arguments)]
fn exact_grouping(
    codes: &[u32],
    width: usize,
    positions: &[usize],
    full: bool,
    skip: Option<(&[u64], u64)>,
    n: usize,
    weights: Option<&[f64]>,
    threads: usize,
) -> GroupStats {
    let w = |i: usize| weights.map(|w| w[i]).unwrap_or(1.0);
    let skipped = |i: usize| match skip {
        Some((masks, bits)) => masks[i] & bits != 0,
        None => false,
    };
    let key_of =
        |i: usize| -> Vec<u32> { positions.iter().map(|&p| codes[i * width + p]).collect() };

    let t = effective_threads(n, threads, weights);

    // Aggregate. Full-width keys borrow the code slice directly (zero
    // allocation); sub-projections build small `Vec<u32>` keys.
    let mut count = vec![0usize; n];
    let mut weight_sum = vec![0.0f64; n];
    if full {
        let agg: HashMap<&[u32], (usize, f64)> = if t == 1 {
            let mut agg: HashMap<&[u32], (usize, f64)> = HashMap::with_capacity(n.min(1 << 20));
            for i in 0..n {
                if skipped(i) {
                    continue;
                }
                let e = agg
                    .entry(&codes[i * width..(i + 1) * width])
                    .or_insert((0, 0.0));
                e.0 += 1;
                e.1 += w(i);
            }
            agg
        } else {
            let ranges = chunk_ranges(n, t);
            type ShardAgg<'a> = Option<HashMap<&'a [u32], (usize, f64)>>;
            let mut slots: Vec<ShardAgg<'_>> = Vec::new();
            slots.resize_with(ranges.len(), || None);
            std::thread::scope(|s| {
                for (slot, &(lo, hi)) in slots.iter_mut().zip(ranges.iter()) {
                    s.spawn(move || {
                        let mut local: HashMap<&[u32], (usize, f64)> = HashMap::new();
                        for i in lo..hi {
                            if skipped(i) {
                                continue;
                            }
                            let e = local
                                .entry(&codes[i * width..(i + 1) * width])
                                .or_insert((0, 0.0));
                            e.0 += 1;
                            e.1 += w(i);
                        }
                        *slot = Some(local);
                    });
                }
            });
            // Deterministic sequential merge in chunk order; integer
            // counts and gate-exact weight sums make the grouping of the
            // additions immaterial to the result bits.
            let mut agg: HashMap<&[u32], (usize, f64)> = HashMap::with_capacity(n.min(1 << 20));
            for slot in slots.into_iter().flatten() {
                for (k, (c, s2)) in slot {
                    let e = agg.entry(k).or_insert((0, 0.0));
                    e.0 += c;
                    e.1 += s2;
                }
            }
            agg
        };
        // Fill phase: read-only lookups into disjoint output chunks.
        if t == 1 {
            for i in 0..n {
                if skipped(i) {
                    continue;
                }
                if let Some(&(c, s2)) = agg.get(&codes[i * width..(i + 1) * width]) {
                    count[i] = c;
                    weight_sum[i] = s2;
                }
            }
            return GroupStats { count, weight_sum };
        }
        let ranges = chunk_ranges(n, t);
        std::thread::scope(|s| {
            let mut crem: &mut [usize] = &mut count;
            let mut wrem: &mut [f64] = &mut weight_sum;
            for &(lo, hi) in &ranges {
                let (chead, ctail) = crem.split_at_mut(hi - lo);
                let (whead, wtail) = wrem.split_at_mut(hi - lo);
                crem = ctail;
                wrem = wtail;
                let agg = &agg;
                s.spawn(move || {
                    for i in lo..hi {
                        if skipped(i) {
                            continue;
                        }
                        if let Some(&(c, s2)) = agg.get(&codes[i * width..(i + 1) * width]) {
                            chead[i - lo] = c;
                            whead[i - lo] = s2;
                        }
                    }
                });
            }
        });
    } else {
        // Sub-projection path (SUDA's subset sweeps): small tables,
        // sequential is fine.
        let mut agg: HashMap<Vec<u32>, (usize, f64)> = HashMap::with_capacity(n);
        for i in 0..n {
            if skipped(i) {
                continue;
            }
            let e = agg.entry(key_of(i)).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += w(i);
        }
        for i in 0..n {
            if skipped(i) {
                continue;
            }
            if let Some(&(c, s2)) = agg.get(&key_of(i)) {
                count[i] = c;
                weight_sum[i] = s2;
            }
        }
    }
    GroupStats { count, weight_sum }
}

/// Incrementally repair `stats` after row `row` changed a single cell:
/// the columnar analogue of
/// [`GroupStats::apply_row_change`](crate::maybe_match::GroupStats::apply_row_change),
/// with the same flip-then-rescan shape and the same exactness caveat
/// (gate on [`weights_exactly_summable`] for bit-identical warm ≡ cold).
/// `codes`/`null_masks` must already hold the *new* contents;
/// `old_codes`/`old_mask` are the row's previous coded contents.
///
/// Only the `candidates` are visited. They must be ascending, without
/// repeats, include `row`, and cover every row that matches the old or
/// the new contents (a superset is fine: the rest match neither and are
/// skipped). Pass every row for the full scan. The changed row's own
/// weight sum adds its matches' weights in ascending row order either
/// way, so any such candidate list repairs bit-identically to the full
/// scan, for any weights.
#[allow(clippy::too_many_arguments)]
pub fn apply_cell_change_codes(
    codes: &[u32],
    null_masks: &[u64],
    width: usize,
    weights: Option<&[f64]>,
    sem: NullSemantics,
    row: usize,
    old_codes: &[u32],
    old_mask: u64,
    candidates: &[u32],
    stats: &mut GroupStats,
) {
    let w = |i: usize| weights.map(|w| w[i]).unwrap_or(1.0);
    let w_row = w(row);
    let new_codes = &codes[row * width..(row + 1) * width];
    let new_mask = null_masks[row];
    // The changed row's own group may have been reshaped arbitrarily:
    // recount it while flipping the others.
    let mut c = 0usize;
    let mut s = 0.0f64;
    for &j in candidates {
        let j = j as usize;
        let other = &codes[j * width..(j + 1) * width];
        let om = null_masks[j];
        let now = codes_match(new_codes, new_mask, other, om, sem);
        if now {
            c += 1;
            s += w(j);
        }
        if j == row || now == codes_match(old_codes, old_mask, other, om, sem) {
            continue;
        }
        if now {
            stats.count[j] += 1;
            stats.weight_sum[j] += w_row;
        } else {
            stats.count[j] -= 1;
            stats.weight_sum[j] -= w_row;
        }
    }
    stats.count[row] = c;
    stats.weight_sum[row] = s;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maybe_match::{group_stats, group_stats_on};

    /// Encode a row-major `Value` table into (codes, masks, width).
    fn encode(rows: &[Vec<Value>]) -> (Vec<u32>, Vec<u64>, usize) {
        let width = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut dicts: Vec<ColumnDict> = (0..width).map(|_| ColumnDict::new()).collect();
        let mut codes = Vec::with_capacity(rows.len() * width);
        let mut masks = Vec::with_capacity(rows.len());
        for r in rows {
            let mut m = 0u64;
            for (c, v) in r.iter().enumerate() {
                if v.is_null() {
                    m |= 1 << c;
                }
                codes.push(dicts[c].intern(v));
            }
            masks.push(m);
        }
        (codes, masks, width)
    }

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    fn mixed_table() -> Vec<Vec<Value>> {
        vec![
            vec![s("Roma"), Value::Null(0), s("1000+"), s("0-30")],
            vec![s("Roma"), s("Commerce"), s("1000+"), s("0-30")],
            vec![s("Roma"), s("Commerce"), s("1000+"), s("0-30")],
            vec![s("Roma"), s("Financial"), s("1000+"), s("0-30")],
            vec![s("Roma"), s("Financial"), Value::Null(3), s("0-30")],
            vec![s("Milano"), s("Construction"), s("0-200"), s("60-90")],
            vec![
                Value::Null(1),
                s("Construction"),
                s("0-200"),
                Value::Null(2),
            ],
        ]
    }

    fn assert_same(a: &GroupStats, b: &GroupStats) {
        assert_eq!(a.count, b.count, "counts diverged");
        assert_eq!(a.weight_sum, b.weight_sum, "weight sums diverged");
    }

    #[test]
    fn matches_row_based_group_stats_on_mixed_nulls() {
        let rows = mixed_table();
        let (codes, masks, width) = encode(&rows);
        let all: Vec<usize> = (0..width).collect();
        let weights: Vec<f64> = (0..rows.len()).map(|i| (i as f64 + 1.0) * 2.0).collect();
        for sem in [NullSemantics::MaybeMatch, NullSemantics::Standard] {
            for w in [None, Some(weights.as_slice())] {
                let colv = group_stats_codes(&codes, &masks, width, &all, w, sem, 1);
                let rowv = group_stats(&rows, w, sem);
                assert_same(&colv, &rowv);
            }
        }
    }

    #[test]
    fn matches_row_based_on_sub_projections() {
        let rows = mixed_table();
        let (codes, masks, width) = encode(&rows);
        let weights: Vec<f64> = vec![10.0, 20.0, 20.0, 30.0, 30.0, 5.0, 5.0];
        for positions in [vec![0], vec![1, 3], vec![0, 2, 3], vec![2]] {
            for sem in [NullSemantics::MaybeMatch, NullSemantics::Standard] {
                let colv =
                    group_stats_codes(&codes, &masks, width, &positions, Some(&weights), sem, 1);
                let rowv = group_stats_on(&rows, &positions, Some(&weights), sem);
                assert_same(&colv, &rowv);
            }
        }
    }

    #[test]
    fn sharded_equals_sequential_bitwise() {
        // Large enough to clear the per-thread row floor; integer weights
        // keep the parallel sums exact.
        let n = 3 * MIN_ROWS_PER_THREAD;
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                if i % 97 == 0 {
                    vec![Value::Null(i as u64), Value::Int((i % 7) as i64)]
                } else {
                    vec![Value::Int((i % 23) as i64), Value::Int((i % 7) as i64)]
                }
            })
            .collect();
        let weights: Vec<f64> = (0..n).map(|i| ((i % 13) + 1) as f64).collect();
        let (codes, masks, width) = encode(&rows);
        let all: Vec<usize> = (0..width).collect();
        for sem in [NullSemantics::MaybeMatch, NullSemantics::Standard] {
            let seq = group_stats_codes(&codes, &masks, width, &all, Some(&weights), sem, 1);
            let par = group_stats_codes(&codes, &masks, width, &all, Some(&weights), sem, 4);
            assert_same(&seq, &par);
            let rowv = group_stats(&rows, Some(&weights), sem);
            assert_same(&par, &rowv);
        }
    }

    #[test]
    fn non_summable_weights_fall_back_to_sequential() {
        let n = 3 * MIN_ROWS_PER_THREAD;
        let rows: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Int((i % 11) as i64)]).collect();
        let weights: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64 * 0.25).collect();
        let (codes, masks, width) = encode(&rows);
        let seq = group_stats_codes(
            &codes,
            &masks,
            width,
            &[0],
            Some(&weights),
            NullSemantics::MaybeMatch,
            1,
        );
        let par = group_stats_codes(
            &codes,
            &masks,
            width,
            &[0],
            Some(&weights),
            NullSemantics::MaybeMatch,
            8,
        );
        // The gate forces both through the same sequential order.
        assert_same(&seq, &par);
    }

    #[test]
    fn cell_patch_matches_cold_recompute() {
        let mut rows = mixed_table();
        let weights: Vec<f64> = vec![10.0, 20.0, 20.0, 30.0, 30.0, 5.0, 5.0];
        let (mut codes, mut masks, width) = encode(&rows);
        let all: Vec<usize> = (0..width).collect();
        let mut dicts: Vec<ColumnDict> = (0..width).map(|_| ColumnDict::new()).collect();
        for (i, r) in rows.iter().enumerate() {
            for (c, v) in r.iter().enumerate() {
                assert_eq!(dicts[c].intern(v), codes[i * width + c]);
            }
        }
        for sem in [NullSemantics::MaybeMatch, NullSemantics::Standard] {
            let mut stats = group_stats_codes(&codes, &masks, width, &all, Some(&weights), sem, 1);
            // Suppress row 3's sector, then recode row 5's area.
            for (row, col, v) in [(3usize, 1usize, Value::Null(9)), (5, 0, s("Torino"))] {
                let old_codes: Vec<u32> = codes[row * width..(row + 1) * width].to_vec();
                let old_mask = masks[row];
                let code = dicts[col].intern(&v);
                codes[row * width + col] = code;
                if v.is_null() {
                    masks[row] |= 1 << col;
                } else {
                    masks[row] &= !(1 << col);
                }
                rows[row][col] = v;
                let every_row: Vec<u32> = (0..rows.len() as u32).collect();
                apply_cell_change_codes(
                    &codes,
                    &masks,
                    width,
                    Some(&weights),
                    sem,
                    row,
                    &old_codes,
                    old_mask,
                    &every_row,
                    &mut stats,
                );
                let cold = group_stats_codes(&codes, &masks, width, &all, Some(&weights), sem, 1);
                assert_same(&stats, &cold);
                let rowv = group_stats(&rows, Some(&weights), sem);
                assert_same(&stats, &rowv);
            }
            // restore for the next semantics round
            rows = mixed_table();
            let (c2, m2, _) = encode(&rows);
            codes = c2;
            masks = m2;
            dicts = (0..width).map(|_| ColumnDict::new()).collect();
            for r in &rows {
                for (c, v) in r.iter().enumerate() {
                    dicts[c].intern(v);
                }
            }
        }
    }

    #[test]
    fn par_map_rows_preserves_order() {
        let n = 3 * MIN_ROWS_PER_THREAD;
        let seq = par_map_rows(n, 1, |i| i * 3);
        let par = par_map_rows(n, 4, |i| i * 3);
        assert_eq!(seq, par);
        assert_eq!(seq[17], 51);
        assert_eq!(seq.len(), n);
    }

    #[test]
    fn dictionary_interning_is_stable_and_cheap() {
        let mut d = ColumnDict::new();
        let a = d.intern(&s("x"));
        let b = d.intern(&s("y"));
        assert_eq!(d.intern(&s("x")), a);
        assert_ne!(a, b);
        assert_eq!(d.value(b), &s("y"));
        assert_eq!(d.code(&s("y")), Some(b));
        assert_eq!(d.code(&s("z")), None);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn empty_and_zero_width_inputs() {
        let gs = group_stats_codes(&[], &[], 0, &[], None, NullSemantics::MaybeMatch, 4);
        assert!(gs.count.is_empty());
        // zero projected columns over 3 rows: one universal group
        let gs = group_stats_codes(&[], &[0, 0, 0], 0, &[], None, NullSemantics::Standard, 1);
        assert_eq!(gs.count, vec![3, 3, 3]);
        assert_eq!(gs.weight_sum, vec![3.0, 3.0, 3.0]);
    }
}
