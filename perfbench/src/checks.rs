//! Output checks. Each returns `Err` with a reason when an op's output is
//! wrong; the caller counts the op as failed.
//!
//! The release check re-scores k-anonymity under maybe-match semantics
//! with its own CSV reader and its own grouping, sharing no code with the
//! risk layer it checks.

use std::collections::HashMap;
use vadalog::Value;

/// Split CSV text into a header and rows of raw cells (RFC 4180 quoting).
pub fn parse_csv(text: &str) -> Result<(Vec<String>, Vec<Vec<String>>), String> {
    let mut records: Vec<Vec<String>> = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut cell = String::new();
    let mut quoted = false;
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match (quoted, c) {
            (true, '"') if chars.peek() == Some(&'"') => {
                chars.next();
                cell.push('"');
            }
            (true, '"') => quoted = false,
            (true, c) => cell.push(c),
            (false, '"') if cell.is_empty() => quoted = true,
            (false, ',') => record.push(std::mem::take(&mut cell)),
            (false, '\r') => {}
            (false, '\n') => {
                record.push(std::mem::take(&mut cell));
                records.push(std::mem::take(&mut record));
            }
            (false, c) => cell.push(c),
        }
    }
    if quoted {
        return Err("unterminated quoted cell".into());
    }
    if !cell.is_empty() || !record.is_empty() {
        record.push(cell);
        records.push(record);
    }
    let mut it = records.into_iter();
    let header = it.next().ok_or("empty csv")?;
    let rows: Vec<Vec<String>> = it.collect();
    if let Some((i, r)) = rows
        .iter()
        .enumerate()
        .find(|(_, r)| r.len() != header.len())
    {
        return Err(format!(
            "row {i} has {} cells, header has {}",
            r.len(),
            header.len()
        ));
    }
    Ok((header, rows))
}

/// Is a released cell a labelled null (`⊥N`)?
pub fn is_null_cell(cell: &str) -> bool {
    cell.strip_prefix('⊥')
        .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
}

/// Check a released table against its input: same header and rows, every
/// cell unchanged or (in a quasi-identifier column) suppressed to a
/// labelled null, and every row maybe-matching at least `k` rows on the
/// quasi-identifiers (a null matches anything), i.e. no k-anonymity risk
/// above any `T < 1`. Returns the number of labelled nulls.
pub fn check_release(
    input_csv: &str,
    released_csv: &str,
    qis: &[&str],
    k: usize,
) -> Result<usize, String> {
    let (in_header, in_rows) = parse_csv(input_csv).map_err(|e| format!("input: {e}"))?;
    let (header, rows) = parse_csv(released_csv).map_err(|e| format!("released: {e}"))?;
    if header != in_header {
        return Err(format!("header changed: {header:?} vs {in_header:?}"));
    }
    if rows.len() != in_rows.len() {
        return Err(format!(
            "{} rows released, {} in",
            rows.len(),
            in_rows.len()
        ));
    }
    let qi_idx = qi_columns(&header, qis)?;
    let mut nulls = 0usize;
    for (i, (row, orig)) in rows.iter().zip(&in_rows).enumerate() {
        for (c, (cell, was)) in row.iter().zip(orig).enumerate() {
            if cell == was {
                continue;
            }
            if qi_idx.contains(&c) && is_null_cell(cell) {
                nulls += 1;
            } else {
                return Err(format!(
                    "row {i} column {} changed from {was:?} to {cell:?}",
                    header[c]
                ));
            }
        }
    }
    let counts = maybe_match_counts(&rows, &qi_idx);
    if let Some((i, &c)) = counts.iter().enumerate().find(|(_, &c)| c < k) {
        return Err(format!(
            "row {i} maybe-matches {c} row(s), below k = {k}: {:?}",
            rows[i]
        ));
    }
    Ok(nulls)
}

/// Rows of `csv` that maybe-match fewer than `k` rows on `qis`: the rows
/// at risk under k-anonymity.
pub fn risky_rows(csv: &str, qis: &[&str], k: usize) -> Result<usize, String> {
    let (header, rows) = parse_csv(csv)?;
    let qi_idx = qi_columns(&header, qis)?;
    Ok(maybe_match_counts(&rows, &qi_idx)
        .into_iter()
        .filter(|&c| c < k)
        .count())
}

fn qi_columns(header: &[String], qis: &[&str]) -> Result<Vec<usize>, String> {
    if qis.len() > 16 {
        return Err("more than 16 quasi-identifiers".into());
    }
    qis.iter()
        .map(|q| {
            header
                .iter()
                .position(|h| h == q)
                .ok_or_else(|| format!("quasi-identifier {q} missing"))
        })
        .collect()
}

/// For each row, the number of rows (itself included) that agree with it
/// on every quasi-identifier where neither cell is null. Rows are bucketed
/// by null pattern, so the cost is `O(patterns² · rows)`, not `O(rows²)`.
fn maybe_match_counts(rows: &[Vec<String>], qi_idx: &[usize]) -> Vec<usize> {
    let mask_of = |row: &[String]| -> u32 {
        qi_idx
            .iter()
            .enumerate()
            .filter(|(_, &c)| is_null_cell(&row[c]))
            .fold(0u32, |m, (j, _)| m | (1 << j))
    };
    let masks: Vec<u32> = rows.iter().map(|r| mask_of(r)).collect();
    let mut by_mask: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, &m) in masks.iter().enumerate() {
        by_mask.entry(m).or_default().push(i);
    }
    fn key<'r>(row: &'r [String], qi_idx: &[usize], free: u32) -> Vec<&'r str> {
        qi_idx
            .iter()
            .enumerate()
            .filter(|(j, _)| free & (1 << j) != 0)
            .map(|(_, &c)| row[c].as_str())
            .collect()
    }
    let full = (1u32 << qi_idx.len()) - 1;
    let mut counts = vec![0usize; rows.len()];
    for (&m_self, selves) in &by_mask {
        for (&m_other, others) in &by_mask {
            let free = full & !(m_self | m_other);
            let mut table: HashMap<Vec<&str>, usize> = HashMap::new();
            for &o in others {
                *table.entry(key(&rows[o], qi_idx, free)).or_default() += 1;
            }
            for &s in selves {
                counts[s] += table
                    .get(&key(&rows[s], qi_idx, free))
                    .copied()
                    .unwrap_or(0);
            }
        }
    }
    counts
}

/// A server job's released table must equal the reference byte for byte.
pub fn check_job(got: Option<&str>, want: &str) -> Result<(), String> {
    let got = got.ok_or("job has no released table")?;
    if got == want {
        return Ok(());
    }
    let at = got
        .bytes()
        .zip(want.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    Err(format!(
        "released table differs from the reference at byte {at} ({} vs {} bytes)",
        got.len(),
        want.len()
    ))
}

/// A goal answer must equal the same rows of the full scoring (order
/// ignored).
pub fn check_goal(got: &[Vec<Value>], want: &[Vec<Value>]) -> Result<(), String> {
    let mut got = got.to_vec();
    let mut want = want.to_vec();
    got.sort();
    want.sort();
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "goal answer {got:?} differs from the full scoring {want:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_quoting_round_trips() {
        let (h, rows) = parse_csv("a,b\n\"x,1\",\"say \"\"hi\"\"\"\n2,3").unwrap();
        assert_eq!(h, vec!["a", "b"]);
        assert_eq!(rows, vec![vec!["x,1", "say \"hi\""], vec!["2", "3"]]);
        assert!(parse_csv("a,b\n1\n").is_err());
    }

    #[test]
    fn maybe_match_counts_nulls_as_wildcards() {
        let input = "Id,A,B\n1,x,p\n2,x,p\n3,y,q\n4,x,q\n";
        assert!(check_release(input, input, &["A", "B"], 2).is_err());
        let released = "Id,A,B\n1,x,p\n2,x,p\n3,⊥0,q\n4,⊥1,q\n";
        assert_eq!(check_release(input, released, &["A", "B"], 2), Ok(2));
        assert_eq!(risky_rows(input, &["A", "B"], 2), Ok(2));
        // suppressing a non-QI cell, or changing a value, is refused
        let bad = "Id,A,B\n⊥0,x,p\n2,x,p\n3,⊥0,q\n4,⊥1,q\n";
        assert!(check_release(input, bad, &["A", "B"], 2).is_err());
    }
}
