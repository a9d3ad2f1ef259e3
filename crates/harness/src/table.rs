//! Plain-text table rendering for experiment output.

/// A rendered experiment table (one per paper table/figure).
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table caption (e.g. `"Figure 8(a): GPT-2 memory efficiency"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and headers.
    pub fn new<H: ToString>(
        title: impl Into<String>,
        headers: impl IntoIterator<Item = H>,
    ) -> Self {
        Self {
            title: title.into(),
            headers: headers.into_iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.headers.len());
        self.rows.push(row);
    }

    /// Renders the table as aligned monospace text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!(" {:<w$} |", c, w = widths[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats bytes as GiB with two decimals.
pub fn gib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1u64 << 30) as f64)
}

/// Formats a 0..1 ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("Demo", ["name", "value"]);
        t.push_row(vec!["a".into(), "1".into()]);
        t.push_row(vec!["long-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("## Demo"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[1].len(), lines[3].len(), "aligned rows");
    }

    #[test]
    fn formatters() {
        assert_eq!(gib(1 << 30), "1.00");
        assert_eq!(pct(0.851), "85.1%");
    }
}
