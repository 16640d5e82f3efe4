//! The crate-level error type.
//!
//! Hand-rolled in the `thiserror` style (the toolkit carries no
//! dependencies): one enum, a `Display` that reads like a sentence, and
//! `source()` wired through for the I/O case.

use std::fmt;

/// Any failure the analysis toolkit can produce.
#[derive(Debug)]
pub enum Error {
    /// An underlying I/O failure (opening, reading, or writing a file).
    Io(std::io::Error),
    /// A trace file line that could not be parsed as a timestamp.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// The token that failed to parse.
        token: String,
    },
}

/// Crate-local result alias.
pub(crate) type Result<T> = std::result::Result<T, Error>;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "I/O error: {e}"),
            Error::Parse { line, token } => {
                write!(f, "line {line}: cannot parse timestamp {token:?}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            Error::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_line() {
        let e = Error::Parse {
            line: 7,
            token: "x".into(),
        };
        assert!(e.to_string().contains("line 7"));
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: Error = io.into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("gone"));
    }
}
