//! Plain-text table rendering for the repro binaries.

/// A simple left-programmed text table: first column left-aligned,
/// remaining columns right-aligned, widths fitted to content.
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header arity.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity mismatch"
        );
        self.rows.push(cells);
    }

    /// Renders to a string.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> =
            self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i == 0 {
                    line.push_str(&format!("{cell:<w$}"));
                } else {
                    line.push_str(&format!("  {cell:>w$}"));
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let total: usize =
            widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Prints a titled table.
pub fn emit(title: &str, table: &TextTable) {
    println!("== {title} ==");
    print!("{}", table.render());
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = TextTable::new(vec!["config", "progress"]);
        t.row(vec!["Local + I/O-H", "51.0%"]);
        t.row(vec!["Local + I/O-NC", "84.2%"]);
        let s = t.render();
        assert!(s.contains("config"));
        assert!(s.lines().count() == 4);
        // Right alignment of the numeric column.
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[2].ends_with("51.0%"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5123), "51.2%");
    }
}
