//! Plain-text and Markdown table rendering for experiment output.

/// A simple column-aligned table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Title of the table.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Append a row (must match the header arity).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity must match header arity"
        );
        self.rows.push(cells);
    }

    /// Append a row of displayable cells.
    pub fn push_display_row<T: std::fmt::Display>(&mut self, cells: &[T]) {
        self.push_row(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Append a footnote rendered below the table.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    fn column_widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        widths
    }

    /// Render as an aligned plain-text table.
    pub fn render(&self) -> String {
        let widths = self.column_widths();
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("== {} ==\n", self.title));
        }
        let render_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                let pad = widths[i].saturating_sub(cell.chars().count());
                line.push_str(cell);
                line.push_str(&" ".repeat(pad));
                if i + 1 < cells.len() {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&render_row(&self.headers));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1))),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// Render as a GitHub-flavoured Markdown table.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("### {}\n\n", self.title));
        }
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", " --- |".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        for note in &self.notes {
            out.push_str(&format!("\n*{note}*\n"));
        }
        out
    }
}

/// Mean of the finite samples, formatted with [`fmt_float`]; `"—"` when no
/// finite sample remains. The cell renderer for metrics that use NaN as a
/// no-data sentinel (no rejoins to measure, a column not computable for
/// one protocol): dropping the sentinels must surface as "not measured",
/// never collapse to a `0` a reader would take for a measured zero.
pub fn fmt_mean_or_dash(samples: impl IntoIterator<Item = f64>) -> String {
    let summary = crate::stats::Summary::of_finite(samples);
    if summary.count == 0 {
        "—".to_string()
    } else {
        fmt_float(summary.mean)
    }
}

/// Format a float compactly for table cells (3 significant decimals, or
/// scientific notation for very small/large magnitudes).
pub fn fmt_float(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.is_nan() {
        "nan".to_string()
    } else if x.abs() >= 1e6 || x.abs() < 1e-3 {
        format!("{x:.2e}")
    } else if x.fract() == 0.0 && x.abs() < 1e6 {
        format!("{x:.0}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["n", "messages", "model"]);
        t.push_row(vec!["256".into(), "1024".into(), "n log n".into()]);
        t.push_display_row(&["65536", "131072", "n"]);
        t.push_note("twenty trials per row");
        t
    }

    #[test]
    fn render_contains_all_cells_and_alignment() {
        let text = sample().render();
        assert!(text.contains("== Demo =="));
        assert!(text.contains("n log n"));
        assert!(text.contains("65536"));
        assert!(text.contains("note: twenty trials per row"));
        // header and separator lines exist
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].starts_with('n'));
        assert!(lines[2].starts_with('-'));
    }

    #[test]
    fn render_markdown_is_well_formed() {
        let md = sample().render_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| n | messages | model |"));
        assert!(md.contains("| --- | --- | --- |"));
        assert!(md.lines().filter(|l| l.starts_with('|')).count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_rejected() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn fmt_float_covers_ranges() {
        assert_eq!(fmt_float(0.0), "0");
        assert_eq!(fmt_float(3.0), "3");
        assert_eq!(fmt_float(1.23456), "1.235");
        assert_eq!(fmt_float(1.5e7), "1.50e7");
        assert_eq!(fmt_float(0.00001), "1.00e-5");
        assert_eq!(fmt_float(f64::NAN), "nan");
    }

    #[test]
    fn mean_or_dash_isolates_nan_sentinels() {
        // A mixed cell: the sentinel must not drag the mean to NaN.
        assert_eq!(fmt_mean_or_dash([2.0, f64::NAN, 4.0]), "3");
        // An all-sentinel cell renders "—", never a fake measured zero.
        assert_eq!(fmt_mean_or_dash([f64::NAN, f64::NAN]), "—");
        assert_eq!(fmt_mean_or_dash(std::iter::empty()), "—");
        // Infinities are sentinels too (unmeasurable, not huge).
        assert_eq!(fmt_mean_or_dash([f64::INFINITY, 7.0]), "7");
    }

    #[test]
    fn num_rows_and_title() {
        let t = sample();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.title(), "Demo");
    }
}
