//! Plain-text table rendering for experiment output.
//!
//! The `repro` binary prints the same rows/series the paper's figures
//! plot; a small column-aligned renderer keeps that output readable and
//! diffable.

/// A simple table: a header row plus data rows of strings.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row; missing cells render empty, extras are kept.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Access to the raw rows (tests).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        let measure = |row: &[String], widths: &mut Vec<usize>| {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        };
        measure(&self.header, &mut widths);
        for r in &self.rows {
            measure(r, &mut widths);
        }
        let fmt_row = |row: &[String]| -> String {
            let mut s = String::new();
            for (i, width) in widths.iter().enumerate().take(cols) {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    s.push_str("  ");
                }
                s.push_str(cell);
                for _ in cell.chars().count()..*width {
                    s.push(' ');
                }
            }
            s.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }
}

/// Arithmetic mean (0 for empty input).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Sample standard deviation (0 for < 2 samples).
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["method", "F1"]);
        t.row(vec!["Top-Down(E,PED)".into(), "0.71".into()]);
        t.row(vec!["RL4QDTS".into(), "0.83".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("method"));
        assert!(lines[2].contains("0.71"));
        // Columns align: "F1" column starts at the same offset everywhere.
        let off = lines[0].find("F1").unwrap();
        assert_eq!(&lines[3][off..off + 4], "0.83");
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
        assert!((std_dev(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
    }
}
