//! Loading real benchmark data in the Magellan/DeepMatcher layout.
//!
//! The paper's datasets ship as `tableA.csv` / `tableB.csv` plus
//! `train.csv` / `valid.csv` / `test.csv` files of
//! `(ltable_id, rtable_id, label)` rows. This module parses that layout
//! so the library runs on the real corpora when a user has them — the
//! synthetic generator (`em-synth`) is the substitute, not the only
//! path.
//!
//! The CSV parser is self-contained (RFC-4180 quoting: quoted fields,
//! doubled quotes, embedded commas and newlines) — no third-party
//! dependency.

use std::collections::HashMap;
use std::path::Path;

use crate::dataset::{Dataset, Split};
use crate::error::{EmError, Result};
use crate::pair::{CandidatePair, Label};
use crate::record::{RecordId, Schema, Table};

/// Parse one CSV document into rows of fields (RFC-4180).
pub fn parse_csv(text: &str) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => row.push(std::mem::take(&mut field)),
                '\r' => {} // swallow; \n terminates the row
                '\n' => {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                _ => field.push(c),
            }
        }
    }
    if !field.is_empty() || !row.is_empty() {
        row.push(field);
        rows.push(row);
    }
    rows
}

/// Load a Magellan-format record table: first column `id`, remaining
/// columns are attributes. Returns the table plus the mapping from the
/// file's id column to our positional [`RecordId`]s.
pub fn load_table(path: &Path, name: &str) -> Result<(Table, HashMap<String, RecordId>)> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| EmError::InvalidConfig(format!("cannot read {}: {e}", path.display())))?;
    let rows = parse_csv(&text);
    let header = rows
        .first()
        .ok_or_else(|| EmError::EmptyInput(format!("{} is empty", path.display())))?;
    if header.is_empty() || header[0].to_lowercase() != "id" {
        return Err(EmError::InvalidConfig(format!(
            "{}: first column must be `id`, got {:?}",
            path.display(),
            header.first()
        )));
    }
    let schema = Schema::new(header[1..].iter().cloned())?;
    let n_attrs = schema.len();
    let mut table = Table::new(name, schema);
    let mut id_map = HashMap::with_capacity(rows.len());
    for (line, row) in rows.iter().enumerate().skip(1) {
        if row.iter().all(String::is_empty) {
            continue; // trailing blank line
        }
        if row.len() != n_attrs + 1 {
            return Err(EmError::InvalidConfig(format!(
                "{} line {}: expected {} fields, got {}",
                path.display(),
                line + 1,
                n_attrs + 1,
                row.len()
            )));
        }
        let rid = table.push(row[1..].iter().cloned())?;
        if id_map.insert(row[0].clone(), rid).is_some() {
            return Err(EmError::InconsistentDataset(format!(
                "{}: duplicate id `{}`",
                path.display(),
                row[0]
            )));
        }
    }
    Ok((table, id_map))
}

/// One split file's pairs: `(ltable_id, rtable_id, label)` rows.
fn load_pairs_file(
    path: &Path,
    left_ids: &HashMap<String, RecordId>,
    right_ids: &HashMap<String, RecordId>,
) -> Result<Vec<(CandidatePair, Label)>> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| EmError::InvalidConfig(format!("cannot read {}: {e}", path.display())))?;
    let rows = parse_csv(&text);
    let header = rows
        .first()
        .ok_or_else(|| EmError::EmptyInput(format!("{} is empty", path.display())))?;
    let col = |name: &str| -> Result<usize> {
        header
            .iter()
            .position(|h| h.eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                EmError::InvalidConfig(format!("{}: missing column `{name}`", path.display()))
            })
    };
    let l_col = col("ltable_id")?;
    let r_col = col("rtable_id")?;
    let y_col = col("label")?;
    let width = l_col.max(r_col).max(y_col) + 1;
    let mut out = Vec::with_capacity(rows.len());
    for (line, row) in rows.iter().enumerate().skip(1) {
        if row.iter().all(String::is_empty) {
            continue;
        }
        if row.len() < width {
            return Err(EmError::InvalidConfig(format!(
                "{} line {}: expected at least {width} fields, got {}",
                path.display(),
                line + 1,
                row.len()
            )));
        }
        let lookup = |ids: &HashMap<String, RecordId>, key: &str, side: &str| {
            ids.get(key).copied().ok_or_else(|| {
                EmError::InconsistentDataset(format!(
                    "{} line {}: unknown {side} id `{key}`",
                    path.display(),
                    line + 1
                ))
            })
        };
        let l = lookup(left_ids, &row[l_col], "left")?;
        let r = lookup(right_ids, &row[r_col], "right")?;
        let label = match row[y_col].trim() {
            "1" => Label::Match,
            "0" => Label::NonMatch,
            other => {
                return Err(EmError::InvalidConfig(format!(
                    "{} line {}: label `{other}` is not 0/1",
                    path.display(),
                    line + 1
                )))
            }
        };
        out.push((CandidatePair::new(l, r), label));
    }
    Ok(out)
}

/// Load a complete Magellan-layout dataset directory:
/// `tableA.csv`, `tableB.csv`, `train.csv`, `valid.csv`, `test.csv`.
pub fn load_magellan_dir(dir: &Path, name: &str) -> Result<Dataset> {
    let (left, left_ids) = load_table(&dir.join("tableA.csv"), &format!("{name}-left"))?;
    let (right, right_ids) = load_table(&dir.join("tableB.csv"), &format!("{name}-right"))?;
    let mut pairs = Vec::new();
    let mut truth = Vec::new();
    let mut split = Split {
        train: Vec::new(),
        valid: Vec::new(),
        test: Vec::new(),
    };
    for (file, part) in [("train.csv", 0usize), ("valid.csv", 1), ("test.csv", 2)] {
        let loaded = load_pairs_file(&dir.join(file), &left_ids, &right_ids)?;
        for (pair, label) in loaded {
            let idx = pairs.len();
            pairs.push(pair);
            truth.push(label);
            match part {
                0 => split.train.push(idx),
                1 => split.valid.push(idx),
                _ => split.test.push(idx),
            }
        }
    }
    Dataset::new(name, left, right, pairs, truth, split)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_csv_basics() {
        let rows = parse_csv("a,b,c\n1,2,3\n");
        assert_eq!(rows, vec![vec!["a", "b", "c"], vec!["1", "2", "3"]]);
    }

    #[test]
    fn parse_csv_quoting() {
        let rows = parse_csv("id,title\n1,\"sims 2, deluxe\"\n2,\"say \"\"hi\"\"\"\n");
        assert_eq!(rows[1][1], "sims 2, deluxe");
        assert_eq!(rows[2][1], "say \"hi\"");
    }

    #[test]
    fn parse_csv_embedded_newline_and_crlf() {
        let rows = parse_csv("id,notes\r\n1,\"line one\nline two\"\r\n");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1][1], "line one\nline two");
    }

    #[test]
    fn parse_csv_no_trailing_newline() {
        let rows = parse_csv("a,b\n1,2");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], vec!["1", "2"]);
    }

    fn write(dir: &Path, file: &str, content: &str) {
        std::fs::write(dir.join(file), content).unwrap();
    }

    fn magellan_fixture() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "em-core-csv-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        write(
            &dir,
            "tableA.csv",
            "id,title,price\na1,sims 2 glamour,24.99\na2,other game,9.99\n",
        );
        write(
            &dir,
            "tableB.csv",
            "id,title,price\nb1,\"sims 2, glamour\",23.44\nb2,unrelated,1.00\n",
        );
        write(
            &dir,
            "train.csv",
            "ltable_id,rtable_id,label\na1,b1,1\na2,b2,0\n",
        );
        write(&dir, "valid.csv", "ltable_id,rtable_id,label\na1,b2,0\n");
        write(&dir, "test.csv", "ltable_id,rtable_id,label\na2,b1,0\n");
        dir
    }

    #[test]
    fn load_magellan_roundtrip() {
        let dir = magellan_fixture();
        let d = load_magellan_dir(&dir, "toy").unwrap();
        assert_eq!(d.len(), 4);
        assert_eq!(d.split().train.len(), 2);
        assert_eq!(d.split().valid.len(), 1);
        assert_eq!(d.split().test.len(), 1);
        assert_eq!(d.left.schema.attrs(), &["title", "price"]);
        assert_eq!(d.ground_truth(0), Label::Match);
        let (l, r) = d.pair_records(0).unwrap();
        assert_eq!(l.value(0), Some("sims 2 glamour"));
        assert_eq!(r.value(0), Some("sims 2, glamour"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_unknown_ids_and_bad_labels() {
        let dir = magellan_fixture();
        write(&dir, "train.csv", "ltable_id,rtable_id,label\nzz,b1,1\n");
        assert!(load_magellan_dir(&dir, "toy").is_err());
        write(
            &dir,
            "train.csv",
            "ltable_id,rtable_id,label\na1,b1,maybe\n",
        );
        assert!(load_magellan_dir(&dir, "toy").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_split_row_is_an_error_not_a_panic() {
        let dir = magellan_fixture();
        write(&dir, "tableA.csv", "id,title\n1,x\n");
        write(&dir, "tableB.csv", "id,title\n2,y\n");
        write(&dir, "train.csv", "ltable_id,rtable_id,label\n1,2\n");
        let err = load_magellan_dir(&dir, "toy").unwrap_err();
        assert!(matches!(err, EmError::InvalidConfig(_)), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("train.csv line 2"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_table_validates_header_and_arity() {
        let dir = magellan_fixture();
        write(&dir, "tableA.csv", "name,title\nx,y\n");
        assert!(load_magellan_dir(&dir, "toy").is_err());
        write(&dir, "tableA.csv", "id,title,price\na1,only-two\n");
        assert!(load_magellan_dir(&dir, "toy").is_err());
        write(&dir, "tableA.csv", "id,title,price\na1,t,1\na1,t,2\n");
        assert!(load_magellan_dir(&dir, "toy").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
