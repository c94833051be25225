//! The one layout of every result `figures` prints: a [`Table`] is a file
//! stem, a title, named columns and rows of cells. [`Table::text`] lays it
//! out for the terminal, each column as wide as its widest cell and each
//! number at its column's decimals; [`Table::csv`] writes the same columns
//! with every number at full precision, so a byte diff of the CSV sees
//! what the text rounds away.

use multicube_mva::{FigurePoint, FigureSeries};

/// One cell of a [`Table`] row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A count, printed exactly.
    Int(u64),
    /// A measurement: its column's decimals in text, Rust's `{}` in CSV.
    Num(f64),
    /// Text, left-aligned in its column.
    Text(String),
    /// No value: `-` in text, an empty field in CSV.
    Missing,
}

impl Cell {
    fn text(&self, decimals: Option<usize>) -> String {
        match (self, decimals) {
            (Cell::Num(x), Some(d)) => format!("{x:.d$}"),
            (Cell::Text(s), _) => s.clone(),
            (Cell::Missing, _) => "-".to_string(),
            _ => self.csv(),
        }
    }

    fn csv(&self) -> String {
        match self {
            Cell::Int(n) => n.to_string(),
            Cell::Num(x) => x.to_string(),
            Cell::Text(s) => csv_field(s),
            Cell::Missing => String::new(),
        }
    }
}

impl From<u64> for Cell {
    fn from(n: u64) -> Self {
        Cell::Int(n)
    }
}

impl From<u32> for Cell {
    fn from(n: u32) -> Self {
        Cell::Int(n.into())
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Self {
        Cell::Int(n as u64)
    }
}

impl From<f64> for Cell {
    fn from(x: f64) -> Self {
        Cell::Num(x)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

impl<T: Into<Cell>> From<Option<T>> for Cell {
    fn from(value: Option<T>) -> Self {
        value.map_or(Cell::Missing, Into::into)
    }
}

/// A CSV field: `s` itself, or `s` quoted (its quotes doubled) when it
/// holds a comma, a quote or a line break.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// One column of [`Table::new`]: its name, the decimals its text prints
/// a [`Cell::Num`] at (`None`: Rust's `{}`, as in CSV), and its cell of
/// a row.
pub type Column<'a, R> = (&'a str, Option<usize>, &'a dyn Fn(&R) -> Cell);

/// A titled table of named columns. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The name of the table's CSV file, without `.csv`.
    pub stem: String,
    /// The heading of the text block.
    pub title: String,
    /// Each column's name and decimals (see [`Column`]).
    columns: Vec<(String, Option<usize>)>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// The table of one line per item of `rows`, with a cell from each
    /// of `columns`.
    pub fn new<R>(
        stem: &str,
        title: impl Into<String>,
        rows: &[R],
        columns: &[Column<'_, R>],
    ) -> Table {
        Table {
            stem: stem.to_string(),
            title: title.into(),
            columns: columns
                .iter()
                .map(|&(name, decimals, _)| (name.to_string(), decimals))
                .collect(),
            rows: rows
                .iter()
                .map(|row| columns.iter().map(|(_, _, cell)| cell(row)).collect())
                .collect(),
        }
    }

    /// The table as text: `== title ==`, then the header and one line
    /// per row. Each column is as wide as its widest cell; a column that
    /// holds text is left-aligned and every other column right-aligned.
    pub fn text(&self) -> String {
        let header: Vec<String> = self.columns.iter().map(|(name, _)| name.clone()).collect();
        let lines: Vec<Vec<String>> = std::iter::once(header)
            .chain(self.rows.iter().map(|row| {
                row.iter()
                    .zip(&self.columns)
                    .map(|(cell, &(_, decimals))| cell.text(decimals))
                    .collect()
            }))
            .collect();
        let width = |j: usize| lines.iter().map(|l| l[j].chars().count()).max();
        let left = |j: usize| self.rows.iter().any(|r| matches!(r[j], Cell::Text(_)));
        let layout: Vec<(usize, bool)> = (0..self.columns.len())
            .map(|j| (width(j).unwrap_or(0), left(j)))
            .collect();
        let mut out = format!("== {} ==\n", self.title);
        for line in &lines {
            let cells: Vec<String> = line
                .iter()
                .zip(&layout)
                .map(|(cell, &(w, left))| {
                    if left {
                        format!("{cell:<w$}")
                    } else {
                        format!("{cell:>w$}")
                    }
                })
                .collect();
            out.push_str(cells.join(" ").trim_end());
            out.push('\n');
        }
        out
    }

    /// The table as CSV: the column names, then one line per row, every
    /// number at full precision.
    pub fn csv(&self) -> String {
        let line = |fields: Vec<String>| fields.join(",") + "\n";
        let mut out = line(
            self.columns
                .iter()
                .map(|(name, _)| csv_field(name))
                .collect(),
        );
        for row in &self.rows {
            out.push_str(&line(row.iter().map(Cell::csv).collect()));
        }
        out
    }

    /// A figure's curves side by side: a `rate_per_ms` column of `rates`,
    /// then one column per series of `value` at each of its points. A
    /// series without a point at some rate (a failed point, say) shows
    /// [`Cell::Missing`] there.
    ///
    /// # Errors
    ///
    /// A series with a point whose rate is not on `rates`, or out of
    /// their order: a shared rate column would mislabel that point.
    pub fn series(
        stem: &str,
        title: &str,
        rates: &[f64],
        series: &[FigureSeries],
        value: impl Fn(&FigurePoint) -> f64,
    ) -> Result<Table, String> {
        let mut table = Table {
            stem: stem.to_string(),
            title: title.to_string(),
            columns: std::iter::once(("rate_per_ms".to_string(), Some(1)))
                .chain(series.iter().map(|s| (s.label.clone(), Some(4))))
                .collect(),
            rows: rates
                .iter()
                .map(|&rate| {
                    let mut row = vec![Cell::Missing; series.len() + 1];
                    row[0] = rate.into();
                    row
                })
                .collect(),
        };
        for (column, s) in series.iter().enumerate().map(|(j, s)| (j + 1, s)) {
            let mut next = 0;
            for p in &s.points {
                let Some(at) = rates[next..].iter().position(|&r| r == p.rate_per_ms) else {
                    return Err(format!(
                        "series {} has a point at {} requests/ms that is not on the rate \
                         grid {rates:?} after its previous point; a shared rate_per_ms \
                         column would mislabel it",
                        s.label, p.rate_per_ms
                    ));
                };
                table.rows[next + at][column] = value(p).into();
                next += at + 1;
            }
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(rate_per_ms: f64, efficiency: f64) -> FigurePoint {
        FigurePoint {
            rate_per_ms,
            efficiency,
            rho_row: 0.0,
            rho_col: 0.0,
        }
    }

    fn curve(label: &str, points: Vec<FigurePoint>) -> FigureSeries {
        FigureSeries {
            label: label.into(),
            points,
        }
    }

    #[test]
    fn a_cell_wider_than_its_header_widens_its_column() {
        let rows = [(123_456u64, "a longer name"), (7, "b")];
        let t = Table::new(
            "t",
            "widths",
            &rows,
            &[
                ("n", None, &|r| r.0.into()),
                ("name", None, &|r| r.1.into()),
            ],
        );
        assert_eq!(
            t.text(),
            "== widths ==\n     n name\n123456 a longer name\n     7 b\n"
        );
    }

    #[test]
    fn numbers_print_at_their_column_decimals_in_text_and_in_full_in_csv() {
        let t = Table::new(
            "t",
            "t",
            &[(0.123_456, 2.5)],
            &[
                ("x", Some(2), &|r| r.0.into()),
                ("y", None, &|r| r.1.into()),
            ],
        );
        assert_eq!(t.text(), "== t ==\n   x   y\n0.12 2.5\n");
        assert_eq!(t.csv(), "x,y\n0.123456,2.5\n");
    }

    #[test]
    fn a_text_cell_with_a_comma_survives_the_csv() {
        let t = Table::new(
            "t",
            "t",
            &[("READ, line \"unmodified\"", 2.0)],
            &[
                ("scenario", None, &|r| r.0.into()),
                ("ops", Some(1), &|r| r.1.into()),
            ],
        );
        assert_eq!(
            t.csv(),
            "scenario,ops\n\"READ, line \"\"unmodified\"\"\",2\n"
        );
        assert!(t.text().contains("READ, line \"unmodified\" 2.0"));
    }

    #[test]
    fn a_missing_cell_prints_a_dash_in_text_and_nothing_in_csv() {
        let t = Table::new(
            "t",
            "t",
            &[(None, Some(9u64))],
            &[
                ("p50", None, &|r: &(Option<u64>, Option<u64>)| r.0.into()),
                ("p99", None, &|r| r.1.into()),
            ],
        );
        assert_eq!(t.text(), "== t ==\np50 p99\n  -   9\n");
        assert_eq!(t.csv(), "p50,p99\n,9\n");
    }

    #[test]
    fn csv_roundtrip_shape() {
        let series = [
            curve("a", vec![point(1.0, 0.9), point(2.0, 0.8)]),
            curve("b,with-comma", vec![point(1.0, 0.7)]),
        ];
        let t = Table::series("fig", "t", &[1.0, 2.0], &series, |p| p.efficiency).unwrap();
        let csv = t.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "rate_per_ms,a,\"b,with-comma\"");
        assert!(lines[1].starts_with("1,0.9,0.7"));
        assert!(lines[2].starts_with("2,0.8,"));
    }

    /// A series that lost a point shows it as missing at its own rate,
    /// not as the next point moved up a row.
    #[test]
    fn a_failed_point_leaves_its_rate_missing() {
        let series = [
            curve(
                "a",
                vec![point(2.0, 0.9), point(10.0, 0.8), point(25.0, 0.7)],
            ),
            curve("b", vec![point(2.0, 0.6), point(25.0, 0.5)]),
        ];
        let t = Table::series("s", "t", &[2.0, 10.0, 25.0], &series, |p| p.efficiency).unwrap();
        assert_eq!(t.csv(), "rate_per_ms,a,b\n2,0.9,0.6\n10,0.8,\n25,0.7,0.5\n");
        assert!(t.text().contains("10.0 0.8000      -"), "{}", t.text());
    }

    /// Two curves swept over different rate grids: a shared rate column
    /// would label series b's 5.0-requests/ms point as 1.0, so neither the
    /// text nor the CSV of such a table exists.
    #[test]
    fn mismatched_rate_grids_are_rejected() {
        let series = [
            curve("a", vec![point(1.0, 0.9)]),
            curve("b", vec![point(5.0, 0.7)]),
        ];
        let err = Table::series("fig", "t", &[1.0], &series, |p| p.efficiency).unwrap_err();
        assert!(err.contains("series b") && err.contains(" 5 "), "{err}");
        // Out of order is off the grid too.
        let backwards = [curve("c", vec![point(2.0, 0.8), point(1.0, 0.9)])];
        let err = Table::series("fig", "t", &[1.0, 2.0], &backwards, |p| p.efficiency).unwrap_err();
        assert!(err.contains("series c") && err.contains(" 1 "), "{err}");
    }
}
