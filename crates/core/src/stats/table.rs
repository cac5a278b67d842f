//! Plain-text table rendering for the `repro` binary.
//!
//! The paper's evaluation is presented as numbered tables; the
//! regeneration harness prints the same rows through this renderer so
//! output can be compared side-by-side with the paper.

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        TextTable {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a data row. Rows shorter than the header are padded with
    /// empty cells; longer rows are allowed and widen the table.
    pub fn row<S: ToString>(&mut self, cells: &[S]) -> &mut Self {
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Render the table to a string with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(cell);
                let pad = width.saturating_sub(cell.chars().count());
                if i + 1 < ncols {
                    line.extend(std::iter::repeat_n(' ', pad));
                }
            }
            line
        };
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&self.title);
            out.push('\n');
        }
        let total_width: usize = widths.iter().sum::<usize>() + 2 * ncols.saturating_sub(1);
        if !self.header.is_empty() {
            out.push_str(&fmt_row(&self.header));
            out.push('\n');
            out.extend(std::iter::repeat_n('-', total_width));
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Format a signed percent-change, paper-style (`+80.84%` / `-26.86%`).
pub fn pct_change(change: f64) -> String {
    format!("{:+.2}%", change)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new("Demo", &["Name", "#"]);
        t.row(&["alpha", "1"]);
        t.row(&["b", "100"]);
        let r = t.render();
        assert!(r.starts_with("Demo\n"));
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines[1], "Name   #");
        assert_eq!(lines[3], "alpha  1");
        assert_eq!(lines[4], "b      100");
    }

    #[test]
    fn short_rows_padded() {
        let mut t = TextTable::new("", &["A", "B", "C"]);
        t.row(&["x"]);
        let r = t.render();
        assert!(r.contains('x'));
    }

    #[test]
    fn pct_change_formats() {
        assert_eq!(pct_change(80.84), "+80.84%");
        assert_eq!(pct_change(-26.86), "-26.86%");
    }

    #[test]
    fn empty_table() {
        let t = TextTable::new("t", &[]);
        assert_eq!(t.render(), "t\n");
    }
}
