//! Markdown table rendering for experiment output.

use std::fmt::Write as _;

/// A simple aligned markdown table builder.
///
/// # Example
///
/// ```
/// use treenet_bench::Table;
///
/// let mut t = Table::new("demo", &["n", "value"]);
/// t.row(&["8".into(), "1.25".into()]);
/// let rendered = t.render();
/// assert!(rendered.contains("| n "));
/// assert!(rendered.contains("1.25"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned markdown.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "### {}", self.title);
        let _ = writeln!(out);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for i in 0..cols {
                let _ = write!(line, " {:<width$} |", cells[i], width = widths[i]);
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{}|", "-".repeat(w + 2));
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new("t", &["a", "long-header"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["333".into(), "4".into()]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let r = t.render();
        assert!(r.contains("### t"));
        assert!(r.contains("| a   | long-header |"));
        assert!(r.contains("| 333 | 4           |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_mismatched_rows() {
        let mut t = Table::new("t", &["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f2(1.2), "1.20");
    }
}
