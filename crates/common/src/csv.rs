//! Minimal CSV writing for experiment results.
//!
//! The figure harness in `ars-bench` emits one CSV per reproduced figure.
//! The format is deliberately simple (comma separation, quoting only when a
//! field contains a comma, quote, or newline) — enough for gnuplot, pandas,
//! or a spreadsheet.

use std::fmt::Write as _;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

/// An in-memory CSV table with a fixed header.
#[derive(Debug, Clone)]
pub struct CsvTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Create a table with the given column names.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> CsvTable {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        assert!(!header.is_empty(), "CSV header must be non-empty");
        CsvTable {
            header,
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header width.
    pub fn push_row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, row: I) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width {} does not match header width {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Render the table to a CSV string.
    pub(crate) fn to_csv_string(&self) -> String {
        let mut out = String::new();
        write_record(&mut out, &self.header);
        for row in &self.rows {
            write_record(&mut out, row);
        }
        out
    }

    /// Write the table to a file, creating parent directories as needed.
    pub fn write_to<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut f = File::create(path)?;
        f.write_all(self.to_csv_string().as_bytes())
    }
}

fn write_record(out: &mut String, fields: &[String]) {
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if f.contains(',') || f.contains('"') || f.contains('\n') {
            let escaped = f.replace('"', "\"\"");
            let _ = write!(out, "\"{escaped}\"");
        } else {
            out.push_str(f);
        }
    }
    out.push('\n');
}

/// Format a float with enough precision for plotting without noise digits.
pub fn fmt_f64(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows() {
        let mut t = CsvTable::new(["a", "b"]);
        t.push_row(["1", "2"]);
        t.push_row(["3", "4"]);
        assert_eq!(t.to_csv_string(), "a,b\n1,2\n3,4\n");
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn quotes_special_fields() {
        let mut t = CsvTable::new(["x"]);
        t.push_row(["has,comma"]);
        t.push_row(["has\"quote"]);
        assert_eq!(t.to_csv_string(), "x\n\"has,comma\"\n\"has\"\"quote\"\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let mut t = CsvTable::new(["a", "b"]);
        t.push_row(["only-one"]);
    }

    #[test]
    fn write_creates_dirs() {
        let dir = std::env::temp_dir().join(format!("ars-csv-test-{}", std::process::id()));
        let path = dir.join("nested/out.csv");
        let mut t = CsvTable::new(["v"]);
        t.push_row(["7"]);
        t.write_to(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "v\n7\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fmt_f64_style() {
        assert_eq!(fmt_f64(3.0), "3.0");
        assert_eq!(fmt_f64(0.25), "0.250000");
    }
}
