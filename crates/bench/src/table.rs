//! Plain-text table rendering for experiment outputs.

use crate::json::{Param, Record};
use std::fmt::Write as _;

/// A printable experiment table: a title, column headers, and rows.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells are any displayable values).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                let pad = w - cell.chars().count();
                let _ = write!(s, " {}{} |", cell, " ".repeat(pad));
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{}|", "-".repeat(w + 2));
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Formats a float compactly for table cells.
pub fn fnum(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else if x.abs() >= 0.01 {
        format!("{x:.3}")
    } else {
        format!("{x:.2e}")
    }
}

/// The printable form of a bench report: one row per record, times in
/// milliseconds.
pub fn records_table(title: impl Into<String>, records: &[Record]) -> Table {
    let mut t = Table::new(
        title,
        &["layer", "record", "median ms", "p10 ms", "p90 ms", "params"],
    );
    for r in records {
        let ms = |q| fnum(r.quantile_ns(q) as f64 / 1e6);
        let params: Vec<String> = r
            .params
            .iter()
            .map(|(k, v)| match v {
                Param::Text(s) => format!("{k}={s}"),
                v => format!("{k}={v}"),
            })
            .collect();
        t.row(vec![
            r.layer.into(),
            r.name.clone(),
            ms(0.5),
            ms(0.1),
            ms(0.9),
            params.join(" "),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["short".into(), "1".into()]);
        t.row(vec!["a-much-longer-name".into(), "23456".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("| name"));
        assert!(s.lines().count() >= 5);
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.title(), "demo");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(12345.6), "12346");
        assert_eq!(fnum(42.26), "42.3");
        assert_eq!(fnum(1.5), "1.500");
        assert_eq!(fnum(0.0001), "1.00e-4");
    }
}
