//! Plain-text rendering for `repro`: a [`Table`] pads its columns, a
//! [`Report`] is the text one experiment prints — the one code path from
//! experiment data to `artifacts/repro-<name>.txt`.

use std::fmt::Write;

/// A fixed-width text table.
#[derive(Clone, Debug)]
pub(crate) struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub(crate) fn new(headers: Vec<&str>) -> Self {
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
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Renders the table with column-wise padding.
    pub(crate) fn render(&self) -> String {
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

/// What one experiment prints: a title, then prose lines, tables and
/// key/value groups in the order they were added.
#[derive(Clone, Debug)]
pub(crate) struct Report {
    text: String,
}

impl Report {
    /// Starts a report with its heading and a blank line.
    pub(crate) fn new(title: impl Into<String>) -> Self {
        let mut text = title.into();
        text.push_str("\n\n");
        Report { text }
    }

    /// Appends a prose line (headings, shape checks, paper quotes).
    pub(crate) fn note(&mut self, text: impl AsRef<str>) {
        self.text.push_str(text.as_ref());
        self.text.push('\n');
    }

    /// Appends a table, set off by a blank line on either side.
    pub(crate) fn table(&mut self, table: &Table) {
        self.text.push('\n');
        self.text.push_str(&table.render());
        self.text.push('\n');
    }

    /// Appends named scalar results, one indented `key = value` a line.
    pub(crate) fn kv(&mut self, pairs: &[(String, String)]) {
        for (k, v) in pairs {
            let _ = writeln!(self.text, "  {k} = {v}");
        }
    }

    /// Writes the report to stdout.
    pub(crate) fn print(&self) {
        print!("{}", self.text);
    }
}

/// Formats a float with 3 decimals.
pub(crate) fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 1 decimal.
pub(crate) fn f1(x: f64) -> String {
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
    }

    #[test]
    fn table_renders_headers_and_cells() {
        let mut t = Table::new(vec!["host", "server", "users"]);
        t.row(vec!["H1".into(), "S1".into(), "50".into()]);
        let s = t.render();
        assert!(s.contains("host") && s.contains("50"));
    }

    #[test]
    fn report_keeps_sections_in_order() {
        let mut r = Report::new("DEMO — heading");
        r.note("a prose line");
        let mut t = Table::new(vec!["k", "v"]);
        t.row(vec!["a".into(), "1".into()]);
        r.table(&t);
        r.kv(&[("sum".into(), "1".into())]);
        assert!(r.text.starts_with("DEMO — heading\n\na prose line\n\n"));
        assert!(r.text.ends_with("  sum = 1\n"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }
}
