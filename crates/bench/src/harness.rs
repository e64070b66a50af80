//! Figures, series and table rendering.

/// One measured series: a named curve over a swept parameter.
#[derive(Debug, Clone)]
pub struct Series {
    /// Series label (e.g. "SCA incremental").
    pub name: String,
    /// (x, y) points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// An empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Growth factor between the first and last point (`y_last / y_first`),
    /// the scalar the shape assertions test.
    pub fn growth(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some(&(_, y0)), Some(&(_, y1))) if y0 > 0.0 => y1 / y0,
            _ => f64::NAN,
        }
    }
}

/// A derived figure: a titled set of series over one swept parameter.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure id and title (e.g. "E1 — maintenance vs chronicle size").
    pub title: String,
    /// The swept parameter's name.
    pub x_label: String,
    /// The measured quantity's name.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
    /// Free-form notes (expected shape, paper reference).
    pub notes: Vec<String>,
}

impl Figure {
    /// An empty figure.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Add a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Find a series by name.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Render as a fixed-width text table (markdown-compatible).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        for n in &self.notes {
            out.push_str(&format!("> {n}\n"));
        }
        if !self.notes.is_empty() {
            out.push('\n');
        }
        // Header.
        out.push_str(&format!("| {} |", self.x_label));
        for s in &self.series {
            out.push_str(&format!(" {} |", s.name));
        }
        out.push('\n');
        out.push_str("|---|");
        for _ in &self.series {
            out.push_str("---|");
        }
        out.push('\n');
        // Rows, keyed by the x values of the first series.
        let xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|&(x, _)| x).collect())
            .unwrap_or_default();
        for (i, x) in xs.iter().enumerate() {
            out.push_str(&format!("| {} |", fmt_num(*x)));
            for s in &self.series {
                match s.points.get(i) {
                    Some(&(_, y)) => out.push_str(&format!(" {} |", fmt_num(y))),
                    None => out.push_str(" – |"),
                }
            }
            out.push('\n');
        }
        out.push_str(&format!("\n_{} vs {}._\n", self.y_label, self.x_label));
        out
    }
}

/// Human-friendly number formatting for tables.
pub fn fmt_num(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let a = v.abs();
    if a >= 1_000_000.0 {
        format!("{:.2}M", v / 1_000_000.0)
    } else if a >= 10_000.0 {
        format!("{:.1}k", v / 1_000.0)
    } else if a >= 100.0 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_growth() {
        let mut s = Series::new("x");
        s.push(1.0, 10.0);
        s.push(2.0, 40.0);
        assert_eq!(s.growth(), 4.0);
        assert!(Series::new("empty").growth().is_nan());
    }

    #[test]
    fn figure_render_is_markdown_table() {
        let mut f = Figure::new("E0 — demo", "n", "work");
        let mut a = Series::new("flat");
        a.push(10.0, 5.0);
        a.push(100.0, 5.0);
        f.series.push(a);
        f.note("expected flat");
        let out = f.render();
        assert!(out.contains("### E0 — demo"));
        assert!(out.contains("| n | flat |"));
        assert!(out.contains("> expected flat"));
        assert!(out.contains("| 10.00 | 5.00 |"));
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(2_500_000.0), "2.50M");
        assert_eq!(fmt_num(12_000.0), "12.0k");
        assert_eq!(fmt_num(250.0), "250");
        assert_eq!(fmt_num(2.5), "2.50");
        assert_eq!(fmt_num(0.25), "0.2500");
    }
}
