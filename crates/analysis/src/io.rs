//! Plain-text trace I/O.
//!
//! The analysis toolkit is simulator-agnostic; these helpers let it consume
//! and produce loss traces as plain text (one timestamp per line, `#`
//! comments allowed) and export study series as simple TSV — the formats
//! tcpdump post-processing scripts of the paper's era produced, and easy to
//! plot with gnuplot/matplotlib.
//!
//! The file-level entry points ([`write_loss_trace`], [`write_series`],
//! [`read_loss_trace_file`]) take anything path-like and return the
//! crate-level [`Error`]; the `*_to` / reader-generic variants work over
//! arbitrary `Write`/`BufRead` streams for tests and in-memory use.

use crate::error::{Error, Result};
use std::fs::File;
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

/// Create `path` and hand `body` a buffered writer over it — the `*_to`
/// bodies write line by line, which on a bare `File` is one `write(2)` per
/// line. Flushes before returning, so a write error surfaces here rather
/// than being dropped with the buffer.
fn write_file(
    path: impl AsRef<Path>,
    body: impl FnOnce(&mut BufWriter<File>) -> Result<()>,
) -> Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    body(&mut w)?;
    w.flush()?;
    Ok(())
}

/// Parse a loss trace: one timestamp (seconds, f64) per line. Empty lines
/// and lines starting with `#` are skipped. Returns an error naming the
/// first malformed line (1-based) — a token that is not a finite number —
/// and an I/O error for input that is not UTF-8. Every line is read
/// through one reused buffer.
pub fn read_loss_trace<R: BufRead>(mut reader: R) -> Result<Vec<f64>> {
    let mut out = Vec::new();
    let mut line = String::new();
    let mut number = 0;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(out);
        }
        number += 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        // Accept "<time>" or "<time> <anything else>" (extra columns are
        // common in router logs).
        let first = t
            .split_once(char::is_whitespace)
            .map_or(t, |(first, _)| first);
        match first.parse::<f64>() {
            Ok(v) if v.is_finite() => out.push(v),
            _ => {
                return Err(Error::Parse {
                    line: number,
                    token: first.to_string(),
                })
            }
        }
    }
}

/// Parse a loss trace from a file on disk; see [`read_loss_trace`].
pub fn read_loss_trace_file(path: impl AsRef<Path>) -> Result<Vec<f64>> {
    read_loss_trace(std::io::BufReader::new(File::open(path)?))
}

/// Write a loss trace to `path`, one timestamp per line, with a header
/// comment.
pub fn write_loss_trace(path: impl AsRef<Path>, header: &str, times: &[f64]) -> Result<()> {
    write_file(path, |w| write_loss_trace_to(w, header, times))
}

/// Write a loss trace to an arbitrary writer; see [`write_loss_trace`].
pub fn write_loss_trace_to<W: Write>(mut w: W, header: &str, times: &[f64]) -> Result<()> {
    writeln!(w, "# {header}")?;
    writeln!(
        w,
        "# one loss timestamp (seconds) per line; {} records",
        times.len()
    )?;
    for t in times {
        writeln!(w, "{t:.9}")?;
    }
    Ok(())
}

/// Write a multi-series table (e.g. measured-vs-Poisson PDF) to `path` as
/// TSV.
pub fn write_series(
    path: impl AsRef<Path>,
    header: &str,
    columns: &[&str],
    rows: &[Vec<f64>],
) -> Result<()> {
    write_file(path, |w| write_series_to(w, header, columns, rows))
}

/// Write a multi-series table to an arbitrary writer; see [`write_series`].
pub fn write_series_to<W: Write>(
    mut w: W,
    header: &str,
    columns: &[&str],
    rows: &[Vec<f64>],
) -> Result<()> {
    writeln!(w, "# {header}")?;
    writeln!(w, "{}", columns.join("\t"))?;
    for row in rows {
        let cells: Vec<String> = row.iter().map(|v| format!("{v:.6e}")).collect();
        writeln!(w, "{}", cells.join("\t"))?;
    }
    Ok(())
}

/// Write a multi-series table to `path` from column slices — same output
/// as [`write_series`] without materializing per-row vectors. All columns
/// must have the same length, matched pairwise with `columns` labels.
pub fn write_series_columns(
    path: impl AsRef<Path>,
    header: &str,
    columns: &[&str],
    cols: &[&[f64]],
) -> Result<()> {
    write_file(path, |w| write_series_columns_to(w, header, columns, cols))
}

/// Write a multi-series table from column slices to an arbitrary writer;
/// see [`write_series_columns`].
pub(crate) fn write_series_columns_to<W: Write>(
    mut w: W,
    header: &str,
    columns: &[&str],
    cols: &[&[f64]],
) -> Result<()> {
    assert_eq!(columns.len(), cols.len(), "one label per column");
    let rows = cols.first().map(|c| c.len()).unwrap_or(0);
    assert!(
        cols.iter().all(|c| c.len() == rows),
        "all columns must have the same length"
    );
    writeln!(w, "# {header}")?;
    writeln!(w, "{}", columns.join("\t"))?;
    for i in 0..rows {
        let cells: Vec<String> = cols.iter().map(|c| format!("{:.6e}", c[i])).collect();
        writeln!(w, "{}", cells.join("\t"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trips_a_trace() {
        let times = vec![0.001, 0.0015, 2.5, 100.0];
        let mut buf = Vec::new();
        write_loss_trace_to(&mut buf, "test trace", &times).unwrap();
        let back = read_loss_trace(Cursor::new(&buf)).unwrap();
        assert_eq!(back.len(), times.len());
        for (a, b) in back.iter().zip(times.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = "# header\n\n1.5\n# mid comment\n2.5 extra columns here\n";
        let v = read_loss_trace(Cursor::new(text)).unwrap();
        assert_eq!(v, vec![1.5, 2.5]);
    }

    #[test]
    fn rejects_malformed_lines_with_location() {
        let text = "1.0\nnot-a-number\n2.0\n";
        let err = read_loss_trace(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        // Non-finite values are rejected with the typed variant.
        match read_loss_trace(Cursor::new("inf\n")).unwrap_err() {
            Error::Parse { line, token } => {
                assert_eq!(line, 1);
                assert_eq!(token, "inf");
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn series_writer_is_tab_separated() {
        let mut buf = Vec::new();
        write_series_to(
            &mut buf,
            "pdf",
            &["bin", "measured", "poisson"],
            &[vec![0.01, 0.95, 0.02], vec![0.03, 0.01, 0.019]],
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next().unwrap(), "# pdf");
        assert_eq!(lines.next().unwrap(), "bin\tmeasured\tpoisson");
        assert_eq!(lines.next().unwrap().split('\t').count(), 3);
    }

    #[test]
    fn column_writer_matches_row_writer() {
        let centers = [0.01, 0.03, 0.05];
        let measured = [0.95, 0.01, 0.002];
        let poisson = [0.02, 0.019, 0.018];
        let rows: Vec<Vec<f64>> = (0..3)
            .map(|i| vec![centers[i], measured[i], poisson[i]])
            .collect();
        let labels = ["bin", "measured", "poisson"];
        let mut by_rows = Vec::new();
        write_series_to(&mut by_rows, "pdf", &labels, &rows).unwrap();
        let mut by_cols = Vec::new();
        write_series_columns_to(
            &mut by_cols,
            "pdf",
            &labels,
            &[&centers, &measured, &poisson],
        )
        .unwrap();
        assert_eq!(
            by_rows, by_cols,
            "the two writers must emit identical bytes"
        );
    }

    #[test]
    fn path_writers_put_the_stream_writers_bytes_on_disk() {
        // Long enough to fill the file writers' buffer several times over.
        let times: Vec<f64> = (0..5_000).map(|i| i as f64 * 0.0123).collect();
        let half = times.len() / 2;
        let (a, b) = (&times[..half], &times[half..]);
        let rows: Vec<Vec<f64>> = a.iter().zip(b).map(|(&x, &y)| vec![x, y]).collect();
        let labels = ["a", "b"];
        let path =
            std::env::temp_dir().join(format!("lossburst_io_bytes_{}.txt", std::process::id()));
        let on_disk = |write: &dyn Fn(&Path) -> Result<()>| {
            write(&path).unwrap();
            std::fs::read(&path).unwrap()
        };

        let mut expected = Vec::new();
        write_loss_trace_to(&mut expected, "bytes", &times).unwrap();
        assert_eq!(on_disk(&|p| write_loss_trace(p, "bytes", &times)), expected);

        expected.clear();
        write_series_to(&mut expected, "bytes", &labels, &rows).unwrap();
        assert_eq!(
            on_disk(&|p| write_series(p, "bytes", &labels, &rows)),
            expected
        );
        assert_eq!(
            on_disk(&|p| write_series_columns(p, "bytes", &labels, &[a, b])),
            expected
        );
        std::fs::remove_file(&path).ok();

        // An unwritable path is an error from every writer, not a panic.
        let nowhere = "/nonexistent/lossburst/out.txt";
        assert!(matches!(
            write_loss_trace(nowhere, "x", &times),
            Err(Error::Io(_))
        ));
        assert!(matches!(
            write_series(nowhere, "x", &labels, &rows),
            Err(Error::Io(_))
        ));
    }

    /// A trace smaller than the buffer reaches the device only in the
    /// final flush; `/dev/full` refuses every write, so this fails unless
    /// the flush error is returned rather than dropped with the buffer.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_final_flush_is_reported() {
        if !Path::new("/dev/full").exists() {
            return;
        }
        let err = write_loss_trace("/dev/full", "tiny", &[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err:?}");
    }

    #[test]
    fn trace_file_survives_disk_round_trip() {
        let path =
            std::env::temp_dir().join(format!("lossburst_io_test_{}.txt", std::process::id()));
        let times = vec![0.5, 1.0, 1.00001];
        write_loss_trace(&path, "disk", &times).unwrap();
        let back = read_loss_trace_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn missing_file_surfaces_an_io_error() {
        let err = read_loss_trace_file("/nonexistent/lossburst/trace.txt").unwrap_err();
        assert!(matches!(err, Error::Io(_)));
    }
}
