//! # vliw-bench — paper-figure regeneration harness
//!
//! The library behind the `paper` binary. [`exhibits::EXHIBITS`] lists
//! every table and figure with the sweep it reads; [`figures`] renders
//! each one as a human-readable text block plus machine-readable CSV,
//! which the binary writes to stdout and `results/`.
//!
//! [`snapshot`] is the one harness of the crate's benches: each bench
//! names its cells, pairs of runs that compute the same thing, and the
//! harness times them, writes the committed `BENCH_<bench>.json` and gates
//! a run against it under `BENCH_CHECK=1`.

use std::fmt::Write as _;
use std::path::Path;

pub mod exhibits;
pub mod figures;
pub mod snapshot;

/// A rendered exhibit: text to print + CSV to save.
#[derive(Debug, Clone)]
pub struct Exhibit {
    /// Human-readable block.
    pub text: String,
    /// CSV content (with header).
    pub csv: String,
}

impl Exhibit {
    /// Write the CSV under `dir/<name>.csv`.
    pub fn save_csv(&self, dir: &Path, name: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{name}.csv")), &self.csv)
    }
}

/// Simple fixed-width text table builder.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:>w$}", c, w = width[i]);
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = width.iter().sum::<usize>() + 2 * (ncol - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            fmt_row(&mut out, r);
        }
        out
    }

    /// An exhibit of this table: `title`, then the rendered table, plus
    /// its CSV.
    pub fn exhibit(&self, title: &str) -> Exhibit {
        Exhibit {
            text: format!("{title}\n{}", self.render()),
            csv: self.to_csv(),
        }
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') {
                format!("\"{s}\"")
            } else {
                s.to_string()
            }
        };
        out.push_str(
            &self
                .header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = TextTable::new(&["name", "ipc"]);
        t.row(vec!["mcf".into(), "0.96".into()]);
        t.row(vec!["colorspace".into(), "5.47".into()]);
        let s = t.render();
        assert!(s.contains("colorspace"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn csv_escaping() {
        let mut t = TextTable::new(&["a,b", "c"]);
        t.row(vec!["1".into(), "2".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("\"a,b\",c\n"));
    }
}
