//! Error paths of the trace I/O layer: unwritable destinations must
//! surface `Error::Io` (not panic), a truncated trace file must either
//! parse as an exact prefix of the original or fail loudly — never return
//! silently corrupted data — and hostile bytes (invalid UTF-8, flipped
//! bits, an oversize token, non-finite words, CRLF, no final newline) give
//! the exact values or a typed error, never a panic.

use lossburst_analysis::error::Error;
use lossburst_analysis::io::{
    read_loss_trace, read_loss_trace_file, write_loss_trace, write_loss_trace_to, write_series,
    write_series_columns,
};
use lossburst_testkit::sweep::{sweep, RngExt};
use std::io::Cursor;

const NO_SUCH_DIR: &str = "/nonexistent/lossburst/out.txt";

#[test]
fn unwritable_trace_path_surfaces_io_error() {
    let err = write_loss_trace(NO_SUCH_DIR, "hdr", &[0.5, 1.0]).unwrap_err();
    assert!(matches!(err, Error::Io(_)), "got {err:?}");
    assert!(err.to_string().starts_with("I/O error: "), "{err}");
    assert!(std::error::Error::source(&err).is_some());
}

#[test]
fn unwritable_series_path_surfaces_io_error() {
    let err = write_series(NO_SUCH_DIR, "hdr", &["a", "b"], &[vec![1.0, 2.0]]).unwrap_err();
    assert!(matches!(err, Error::Io(_)), "got {err:?}");

    let err = write_series_columns(NO_SUCH_DIR, "hdr", &["a", "b"], &[&[1.0], &[2.0]]).unwrap_err();
    assert!(matches!(err, Error::Io(_)), "got {err:?}");
}

#[test]
fn reading_a_directory_surfaces_io_error() {
    let err = read_loss_trace_file(std::env::temp_dir()).unwrap_err();
    assert!(matches!(err, Error::Io(_)), "got {err:?}");
}

/// Truncating a written trace at any byte boundary must never yield extra
/// or reordered records: the reader returns a prefix of the original (the
/// final record possibly cut short mid-digits) or a typed error.
#[test]
fn truncated_read_round_trip_is_a_prefix_or_an_error() {
    sweep(0x70c8, 30, |case, gen| {
        let n = gen.random_range(1..40usize);
        let times: Vec<f64> = (0..n).map(|_| gen.random_range(0.0..500.0)).collect();
        let mut buf = Vec::new();
        write_loss_trace_to(&mut buf, "truncation property", &times).unwrap();

        let cut = gen.random_range(0..buf.len() + 1);
        match read_loss_trace(Cursor::new(&buf[..cut])) {
            Ok(back) => {
                assert!(
                    back.len() <= times.len(),
                    "truncation invented records (case {case})"
                );
                // Every record but the last comes from an intact line and
                // must match exactly (the writer uses 9 decimal places).
                for (i, (a, b)) in back.iter().zip(times.iter()).enumerate() {
                    if i + 1 < back.len() {
                        assert!(
                            (a - b).abs() < 1e-8,
                            "intact record {i} corrupted: {a} vs {b} (case {case})"
                        );
                    }
                }
            }
            Err(Error::Parse { .. }) | Err(Error::Io(_)) => {}
        }
    });
}

fn read(bytes: &[u8]) -> Result<Vec<f64>, Error> {
    read_loss_trace(Cursor::new(bytes))
}

fn parse_error_at(bytes: &[u8]) -> (usize, String) {
    match read(bytes) {
        Err(Error::Parse { line, token }) => (line, token),
        other => panic!("expected a parse error, got {other:?}"),
    }
}

#[test]
fn line_endings_and_signed_zero_read_exactly() {
    let crlf = read(b"# header\r\n1.5\r\n\r\n2.25 extra\r\n").unwrap();
    assert_eq!(crlf, [1.5, 2.25]);
    assert_eq!(read(b"1.5\n2.25").unwrap(), [1.5, 2.25]);
    assert_eq!(read(b"").unwrap(), Vec::<f64>::new());
    let zero = read(b"-0\n0\n").unwrap();
    assert_eq!(bits(&zero), bits(&[-0.0, 0.0]));
    // A numbering that counts CRLF, blank and comment lines.
    assert_eq!(parse_error_at(b"# c\r\n\r\n1\r\nx 2\r\n"), (4, "x".into()));
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn non_finite_words_are_parse_errors_with_their_line() {
    for word in ["nan", "NaN", "inf", "-inf", "infinity", "+inf"] {
        let text = format!("0.5\n{word}\n1.0\n");
        assert_eq!(parse_error_at(text.as_bytes()), (2, word.to_string()));
    }
    // A finite literal too large for f64 reads as infinite: an error too.
    assert_eq!(parse_error_at(b"1e999\n"), (1, "1e999".into()));
}

#[test]
fn invalid_utf8_is_an_io_error() {
    for bytes in [&b"\xff\n"[..], b"1.5\n\xc3\x28\n", b"1.5\n2.\xa05\n"] {
        match read(bytes) {
            Err(Error::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            other => panic!("{bytes:?}: expected an I/O error, got {other:?}"),
        }
    }
}

#[test]
fn a_one_mib_token_reads_exactly_or_fails_typed() {
    const MIB: usize = 1 << 20;
    // Digits that round to a finite value parse to the exact same f64.
    let tiny = format!("0.{}5\n", "0".repeat(MIB));
    assert_eq!(bits(&read(tiny.as_bytes()).unwrap()), bits(&[0.0]));
    let long = format!("1.{}\n7\n", "0".repeat(MIB));
    assert_eq!(read(long.as_bytes()).unwrap(), [1.0, 7.0]);
    // Too many digits: infinite, so a parse error naming the whole token.
    let (line, token) = parse_error_at(format!("2\n{}\n", "9".repeat(MIB)).as_bytes());
    assert_eq!((line, token.len()), (2, MIB));
    let (line, token) = parse_error_at(format!("{} 1\n", "z".repeat(MIB)).as_bytes());
    assert_eq!((line, token.len()), (1, MIB));
}

/// Whether `b` is `a` with at most one record changed, dropped or added.
fn one_edit_apart(a: &[f64], b: &[f64]) -> bool {
    let head = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    let (a_rest, b_rest) = (&a[head..], &b[head..]);
    let tail = (a_rest.iter().rev().zip(b_rest.iter().rev()))
        .take_while(|(x, y)| x == y)
        .count();
    a.len().max(b.len()) - head - tail <= 1
}

/// One flipped bit anywhere in a written trace: the reader returns a typed
/// error, or the records with at most one edit — a digit changed, two lines
/// merged by a newline turned whitespace (the second dropped), or a comment
/// whose `#` turned into a digit.
#[test]
fn a_flipped_bit_gives_a_typed_error_or_at_most_one_changed_record() {
    assert!(one_edit_apart(&[1.0, 2.0, 3.0], &[1.0, 3.0]));
    assert!(one_edit_apart(&[1.0, 2.0], &[3.0, 1.0, 2.0]));
    assert!(!one_edit_apart(&[1.0, 2.0, 3.0], &[1.0, 9.0, 8.0]));
    sweep(0xF11B, 400, |case, gen| {
        let n = gen.random_range(1..30usize);
        let times: Vec<f64> = (0..n).map(|_| gen.random_range(0.0..500.0)).collect();
        let mut buf = Vec::new();
        write_loss_trace_to(&mut buf, "bit flips", &times).unwrap();
        let written = read(&buf).unwrap();
        let at = gen.random_range(0..buf.len());
        buf[at] ^= 1 << gen.random_range(0..8u32);
        match read(&buf) {
            Ok(back) => assert!(
                one_edit_apart(&written, &back),
                "byte {at}: {written:?} read back as {back:?} (case {case})"
            ),
            Err(Error::Parse { .. }) | Err(Error::Io(_)) => {}
        }
    });
}
