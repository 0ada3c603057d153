//! Plain-text rendering for the `repro-*` binaries: a [`Table`] pads its
//! columns, a [`Report`] is the text one experiment prints — the one code
//! path from experiment data to `artifacts/<name>.txt`.

use std::fmt::Write;

/// A fixed-width text table.
///
/// # Examples
///
/// ```
/// use lems_bench::render::Table;
///
/// let mut t = Table::new(vec!["host", "server", "users"]);
/// t.row(vec!["H1".into(), "S1".into(), "50".into()]);
/// let s = t.render();
/// assert!(s.contains("host") && s.contains("50"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<&str>) -> Self {
        Table {
            headers: headers.into_iter().map(str::to_owned).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no data rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with column-wise padding.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>width$}", width = widths[i]);
            }
            out.push('\n');
        };
        line(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

/// What one `repro-*` binary prints: a title, then prose lines, tables
/// and key/value groups in the order they were added.
///
/// # Examples
///
/// ```
/// use lems_bench::render::{Report, Table};
///
/// let mut r = Report::new("DEMO — heading");
/// r.note("a prose line");
/// let mut t = Table::new(vec!["k", "v"]);
/// t.row(vec!["a".into(), "1".into()]);
/// r.table(&t);
/// r.kv(&[("sum".into(), "1".into())]);
/// assert!(r.text().starts_with("DEMO — heading\n\na prose line\n\n"));
/// assert!(r.text().ends_with("  sum = 1\n"));
/// ```
#[derive(Clone, Debug)]
pub struct Report {
    text: String,
}

impl Report {
    /// Starts a report with its heading and a blank line.
    pub fn new(title: impl Into<String>) -> Self {
        let mut text = title.into();
        text.push_str("\n\n");
        Report { text }
    }

    /// Appends a prose line (headings, shape checks, paper quotes).
    pub fn note(&mut self, text: impl AsRef<str>) {
        self.text.push_str(text.as_ref());
        self.text.push('\n');
    }

    /// Appends a table, set off by a blank line on either side.
    pub fn table(&mut self, table: &Table) {
        self.text.push('\n');
        self.text.push_str(&table.render());
        self.text.push('\n');
    }

    /// Appends named scalar results, one indented `key = value` a line.
    pub fn kv(&mut self, pairs: &[(String, String)]) {
        for (k, v) in pairs {
            let _ = writeln!(self.text, "  {k} = {v}");
        }
    }

    /// Everything added so far.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Writes the report to stdout.
    pub fn print(&self) {
        print!("{}", self.text);
    }
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a", "bbbb"]);
        t.row(vec!["12345".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains('a') && lines[0].contains("bbbb"));
        assert!(lines[2].contains("12345"));
        assert!(!t.is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }
}
