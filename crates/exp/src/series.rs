//! Result series and table rendering for the experiment harness.

use std::fmt::Write as _;

/// A named series of (processors, value) points.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Display label (e.g. `"Embar"` or `"MipsRatio=0.5"`).
    pub label: String,
    /// `(processor count, value)` points.
    pub points: Vec<(usize, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Series {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, procs: usize, value: f64) {
        self.points.push((procs, value));
    }

    /// The value at a given processor count.
    pub fn at(&self, procs: usize) -> Option<f64> {
        self.points.iter().find(|p| p.0 == procs).map(|p| p.1)
    }

    /// The processor count with the minimum value (e.g. best execution
    /// time — the Fig. 7 "minimum execution time" analysis).
    pub fn argmin(&self) -> Option<usize> {
        self.points
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN in series"))
            .map(|p| p.0)
    }
}

/// Renders series as an aligned text table with processor counts as
/// columns.
pub fn render_table(title: &str, unit: &str, series: &[Series]) -> String {
    let mut procs: Vec<usize> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.0))
        .collect();
    procs.sort_unstable();
    procs.dedup();

    let mut out = String::new();
    let _ = writeln!(out, "## {title} [{unit}]");
    let label_w = series
        .iter()
        .map(|s| s.label.len())
        .max()
        .unwrap_or(8)
        .max(8);
    let _ = write!(out, "{:label_w$}", "series");
    for p in &procs {
        let _ = write!(out, " {:>12}", format!("P={p}"));
    }
    let _ = writeln!(out);
    for s in series {
        let _ = write!(out, "{:label_w$}", s.label);
        for p in &procs {
            match s.at(*p) {
                Some(v) => {
                    let _ = write!(out, " {v:>12.3}");
                }
                None => {
                    let _ = write!(out, " {:>12}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders series as CSV (`series,procs,value` rows).
pub fn render_csv(series: &[Series]) -> String {
    let mut out = String::from("series,procs,value\n");
    for s in series {
        for (p, v) in &s.points {
            let _ = writeln!(out, "{},{},{}", s.label, p, v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Series {
        let mut s = Series::new("test");
        s.push(1, 10.0);
        s.push(2, 6.0);
        s.push(4, 8.0);
        s
    }

    #[test]
    fn at_and_argmin() {
        let s = sample();
        assert_eq!(s.at(2), Some(6.0));
        assert_eq!(s.at(8), None);
        assert_eq!(s.argmin(), Some(2));
    }

    #[test]
    fn table_renders_all_points() {
        let t = render_table("demo", "ms", &[sample()]);
        assert!(t.contains("P=1"));
        assert!(t.contains("P=4"));
        assert!(t.contains("6.000"));
    }

    #[test]
    fn csv_rows() {
        let csv = render_csv(&[sample()]);
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.contains("test,2,6"));
    }
}
