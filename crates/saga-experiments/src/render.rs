//! Text rendering of the paper's heatmaps and CSV serialization.

/// Formats a ratio the way the paper's heatmap cells do.
pub fn cell(r: f64) -> String {
    saga_pisa::PairwiseMatrix::format_cell(r)
}

/// A labelled matrix rendered twice: as report text (the title, an aligned
/// table and a blank line), and as the CSV file `name`. `rows[i][j]` pairs
/// with `row_names[i]` and `col_names[j]`.
pub fn matrix(
    title: &str,
    name: &str,
    row_names: &[String],
    col_names: &[String],
    rows: &[Vec<f64>],
) -> (String, (String, String)) {
    let mut out = format!("{title}\n");
    let rw = row_names.iter().map(|s| s.len()).max().unwrap_or(4).max(4);
    let cw = col_names.iter().map(|s| s.len()).max().unwrap_or(6).max(6) + 1;
    out.push_str(&format!("{:>rw$} ", ""));
    for c in col_names {
        out.push_str(&format!("{c:>cw$}"));
    }
    out.push('\n');
    for (label, row) in row_names.iter().zip(rows) {
        out.push_str(&format!("{label:>rw$} "));
        for &v in row {
            out.push_str(&format!("{:>cw$}", cell(v)));
        }
        out.push('\n');
    }
    out.push('\n');
    (
        out,
        (name.to_string(), matrix_csv(row_names, col_names, rows)),
    )
}

/// A labelled matrix as CSV (`inf` for unbounded cells).
fn matrix_csv(row_names: &[String], col_names: &[String], rows: &[Vec<f64>]) -> String {
    let mut out = String::from("baseline");
    for c in col_names {
        out.push(',');
        out.push_str(c);
    }
    out.push('\n');
    for (name, row) in row_names.iter().zip(rows) {
        out.push_str(name);
        for &v in row {
            out.push(',');
            if v.is_infinite() {
                out.push_str("inf");
            } else {
                out.push_str(&format!("{v:.6}"));
            }
        }
        out.push('\n');
    }
    out
}

/// Five-number summary line for a makespan sample (the information content
/// of the paper's box plots in Figs. 7b/8b).
pub fn five_number_summary(label: &str, xs: &[f64]) -> String {
    let mut s: Vec<f64> = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let q = |p: f64| s[((s.len() - 1) as f64 * p).round() as usize];
    format!(
        "{label:>8}: min {:8.3}  q1 {:8.3}  median {:8.3}  q3 {:8.3}  max {:8.3}",
        s[0],
        q(0.25),
        q(0.5),
        q(0.75),
        s[s.len() - 1]
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_renders_all_cells() {
        let rows = vec![vec![1.0, 2.5], vec![f64::INFINITY, 1.0]];
        let names = vec!["A".to_string(), "B".to_string()];
        let (s, (name, csv)) = matrix("T", "t.csv", &names, &names, &rows);
        assert!(s.contains("2.50"));
        assert!(s.contains("> 1000"));
        assert_eq!(s.lines().count(), 5); // title + header + 2 rows + blank
        assert_eq!(name, "t.csv");
        assert_eq!(csv, "baseline,A,B\nA,1.000000,2.500000\nB,inf,1.000000\n");
    }

    #[test]
    fn csv_round_trips_infinity_as_token() {
        let rows = vec![vec![f64::INFINITY]];
        let s = matrix_csv(&["r".to_string()], &["c".to_string()], &rows);
        assert!(s.contains("inf"));
        assert!(s.starts_with("baseline,c\n"));
    }

    #[test]
    fn five_number_summary_is_sorted() {
        let s = five_number_summary("x", &[3.0, 1.0, 2.0]);
        assert!(s.contains("min    1.000"));
        assert!(s.contains("max    3.000"));
    }
}
