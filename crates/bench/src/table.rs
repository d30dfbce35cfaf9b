//! Minimal aligned-table printing for experiment output.

/// A text table with a title, aligned columns, and an optional note.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Experiment title, printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows (already formatted cells).
    pub rows: Vec<Vec<String>>,
    /// Free-form note printed under the table (the "expected shape").
    pub note: String,
}

impl Table {
    /// Starts a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            note: String::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Sets the trailing note.
    pub fn with_note(mut self, note: impl Into<String>) -> Table {
        self.note = note.into();
        self
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate().take(widths.len()) {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = widths[i].saturating_sub(cell.chars().count());
                line.push_str(cell);
                line.push_str(&" ".repeat(pad));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        if !self.note.is_empty() {
            out.push_str(&format!("note: {}\n", self.note));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["a", "longer"]);
        t.row(vec!["xxxx".into(), "1".into()]);
        t.row(vec!["y".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[1], "a     longer");
        assert_eq!(lines[3], "xxxx  1");
        assert_eq!(lines[4], "y     22");
    }

    #[test]
    fn note_printed() {
        let t = Table::new("t", &["c"]).with_note("hello");
        assert!(t.render().contains("note: hello"));
    }
}
