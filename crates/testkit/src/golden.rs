//! Golden-fixture regression: compact, versioned summaries of reference
//! runs, stored as plain text under `crates/testkit/fixtures/` and compared
//! with tolerance-aware diffs that name exactly which scalar or bin
//! drifted.
//!
//! Workflow:
//!
//! * normal test runs load `fixtures/<name>.golden`, compare, and on drift
//!   fail with a per-key diff (also written to `target/golden-diff/` so CI
//!   can upload it as an artifact);
//! * `LOSSBURST_BLESS=1 cargo test -p lossburst-testkit` regenerates every
//!   fixture from the current code. Blessing is deterministic: running it
//!   twice must produce byte-identical files.

use std::fmt;
use std::path::{Path, PathBuf};

/// Environment variable that switches golden checks into "bless"
/// (regenerate-fixtures) mode.
pub(crate) const BLESS_ENV: &str = "LOSSBURST_BLESS";

/// Environment variable overriding where drift reports are written
/// (default: `target/golden-diff/` at the workspace root).
pub(crate) const DIFF_DIR_ENV: &str = "LOSSBURST_GOLDEN_DIFF_DIR";

/// Format version stamped into every fixture; bump on layout changes so
/// stale fixtures fail loudly instead of mis-parsing.
pub(crate) const FORMAT_VERSION: u32 = 1;

/// A compact summary of one reference run: named scalars plus named series
/// (e.g. a coarse loss-interval PDF, per-flow throughputs). Everything a
/// golden fixture stores, in insertion order.
#[derive(Clone, Debug, PartialEq)]
pub struct GoldenSummary {
    /// Fixture name (also the file stem under `fixtures/`).
    pub(crate) name: String,
    /// Named scalar statistics, in insertion order.
    pub(crate) scalars: Vec<(String, f64)>,
    /// Named series, in insertion order.
    pub(crate) series: Vec<(String, Vec<f64>)>,
}

impl GoldenSummary {
    /// Start an empty summary.
    pub fn new(name: &str) -> GoldenSummary {
        GoldenSummary {
            name: name.to_string(),
            scalars: Vec::new(),
            series: Vec::new(),
        }
    }

    /// Append a named scalar (builder style).
    pub fn scalar(mut self, key: &str, value: f64) -> GoldenSummary {
        self.scalars.push((key.to_string(), value));
        self
    }

    /// Append a named series (builder style).
    pub fn series(mut self, key: &str, values: Vec<f64>) -> GoldenSummary {
        self.series.push((key.to_string(), values));
        self
    }

    /// Render to the fixture text format. Deterministic: fixed float
    /// formatting (`{:.9e}`), insertion order preserved, `\n` endings.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# lossburst golden summary v{FORMAT_VERSION}\n"));
        out.push_str(&format!("name {}\n", self.name));
        for (k, v) in &self.scalars {
            out.push_str(&format!("scalar {k} {v:.9e}\n"));
        }
        for (k, vs) in &self.series {
            out.push_str(&format!("series {k}"));
            for v in vs {
                out.push_str(&format!(" {v:.9e}"));
            }
            out.push('\n');
        }
        out
    }

    /// Parse the fixture text format back. Errors carry the offending line.
    pub fn parse(text: &str) -> Result<GoldenSummary, String> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or("empty fixture")?;
        let expect = format!("# lossburst golden summary v{FORMAT_VERSION}");
        if header != expect {
            return Err(format!(
                "fixture header {header:?} does not match {expect:?} — re-bless with {BLESS_ENV}=1"
            ));
        }
        let mut name = None;
        let mut sum = GoldenSummary::new("");
        for (idx, line) in lines {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let mut toks = line.split_whitespace();
            let kind = toks.next().unwrap();
            let parse_f64 = |t: &str| {
                t.parse::<f64>()
                    .map_err(|_| format!("line {}: bad float {t:?}", idx + 1))
            };
            match kind {
                "name" => {
                    name = Some(
                        toks.next()
                            .ok_or(format!("line {}: name missing value", idx + 1))?
                            .to_string(),
                    );
                }
                "scalar" => {
                    let key = toks
                        .next()
                        .ok_or(format!("line {}: scalar missing key", idx + 1))?;
                    let v = parse_f64(
                        toks.next()
                            .ok_or(format!("line {}: scalar {key} missing value", idx + 1))?,
                    )?;
                    sum.scalars.push((key.to_string(), v));
                }
                "series" => {
                    let key = toks
                        .next()
                        .ok_or(format!("line {}: series missing key", idx + 1))?;
                    let vs = toks.map(parse_f64).collect::<Result<Vec<f64>, _>>()?;
                    sum.series.push((key.to_string(), vs));
                }
                other => return Err(format!("line {}: unknown record {other:?}", idx + 1)),
            }
        }
        sum.name = name.ok_or("fixture has no name record")?;
        Ok(sum)
    }
}

/// Per-key comparison tolerance: a value passes when
/// `|actual − expected| ≤ abs + rel·|expected|`.
#[derive(Clone, Copy, Debug)]
pub struct Tolerance {
    /// Relative component.
    pub(crate) rel: f64,
    /// Absolute component.
    pub(crate) abs: f64,
}

impl Tolerance {
    /// The default for deterministic fixtures: just enough slack to absorb
    /// the 9-significant-digit fixture encoding, nothing more. Runs are
    /// pure functions of their seeds, so real drift means the code changed.
    pub fn exact() -> Tolerance {
        Tolerance {
            rel: 1e-6,
            abs: 1e-9,
        }
    }

    /// A loose tolerance for statistics expected to wobble (e.g. when a
    /// fixture is shared across platforms with different float libraries).
    pub fn loose(rel: f64) -> Tolerance {
        Tolerance { rel, abs: 1e-9 }
    }

    /// Whether `actual` is within tolerance of `expected`.
    pub(crate) fn accepts(&self, expected: f64, actual: f64) -> bool {
        (actual - expected).abs() <= self.abs + self.rel * expected.abs()
    }
}

/// One drifted value in a golden comparison.
#[derive(Clone, Debug)]
pub(crate) struct Drift {
    /// Scalar or series key.
    pub(crate) key: String,
    /// Bin index within the series (`None` for scalars).
    pub(crate) bin: Option<usize>,
    /// Value the fixture expects.
    pub(crate) expected: f64,
    /// Value the current code produced.
    pub(crate) actual: f64,
}

impl fmt::Display for Drift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.bin {
            Some(b) => write!(
                f,
                "series {} bin {b}: expected {:.9e}, got {:.9e} (delta {:+.3e})",
                self.key,
                self.expected,
                self.actual,
                self.actual - self.expected
            ),
            None => write!(
                f,
                "scalar {}: expected {:.9e}, got {:.9e} (delta {:+.3e})",
                self.key,
                self.expected,
                self.actual,
                self.actual - self.expected
            ),
        }
    }
}

/// Full diff between a fixture and a freshly computed summary.
#[derive(Clone, Debug, Default)]
pub struct GoldenDiff {
    /// Values present in both but outside tolerance.
    pub(crate) drifted: Vec<Drift>,
    /// Structural mismatches (missing/extra keys, length changes).
    pub(crate) structural: Vec<String>,
}

impl GoldenDiff {
    /// True when nothing differs.
    pub(crate) fn is_empty(&self) -> bool {
        self.drifted.is_empty() && self.structural.is_empty()
    }
}

impl fmt::Display for GoldenDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.structural {
            writeln!(f, "structure: {s}")?;
        }
        for d in &self.drifted {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Compare a freshly computed summary against the blessed fixture.
/// `tol_for` maps each key to its tolerance (use `|_| Tolerance::exact()`
/// unless a key needs per-key slack).
pub fn compare(
    expected: &GoldenSummary,
    actual: &GoldenSummary,
    tol_for: impl Fn(&str) -> Tolerance,
) -> Result<(), GoldenDiff> {
    let mut diff = GoldenDiff::default();
    if expected.name != actual.name {
        diff.structural.push(format!(
            "fixture name {:?} vs computed {:?}",
            expected.name, actual.name
        ));
    }
    let akeys: Vec<&str> = actual.scalars.iter().map(|(k, _)| k.as_str()).collect();
    for (k, ev) in &expected.scalars {
        match actual.scalars.iter().find(|(ak, _)| ak == k) {
            None => diff
                .structural
                .push(format!("scalar {k} missing from computed summary")),
            Some((_, av)) => {
                if !tol_for(k).accepts(*ev, *av) {
                    diff.drifted.push(Drift {
                        key: k.clone(),
                        bin: None,
                        expected: *ev,
                        actual: *av,
                    });
                }
            }
        }
    }
    for k in akeys {
        if !expected.scalars.iter().any(|(ek, _)| ek == k) {
            diff.structural
                .push(format!("scalar {k} not in fixture (re-bless?)"));
        }
    }
    for (k, evs) in &expected.series {
        match actual.series.iter().find(|(ak, _)| ak == k) {
            None => diff
                .structural
                .push(format!("series {k} missing from computed summary")),
            Some((_, avs)) => {
                if evs.len() != avs.len() {
                    diff.structural.push(format!(
                        "series {k} length {} vs computed {}",
                        evs.len(),
                        avs.len()
                    ));
                } else {
                    let tol = tol_for(k);
                    for (i, (ev, av)) in evs.iter().zip(avs.iter()).enumerate() {
                        if !tol.accepts(*ev, *av) {
                            diff.drifted.push(Drift {
                                key: k.clone(),
                                bin: Some(i),
                                expected: *ev,
                                actual: *av,
                            });
                        }
                    }
                }
            }
        }
    }
    for (k, _) in &actual.series {
        if !expected.series.iter().any(|(ek, _)| ek == k) {
            diff.structural
                .push(format!("series {k} not in fixture (re-bless?)"));
        }
    }
    if diff.is_empty() {
        Ok(())
    } else {
        Err(diff)
    }
}

/// Directory holding the blessed fixtures (inside this crate, committed).
pub(crate) fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// Where drift reports go: `$LOSSBURST_GOLDEN_DIFF_DIR` or
/// `target/golden-diff/` at the workspace root.
pub(crate) fn diff_report_dir() -> PathBuf {
    match std::env::var_os(DIFF_DIR_ENV) {
        Some(d) => PathBuf::from(d),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/golden-diff"),
    }
}

/// Whether this process runs in bless (fixture-regeneration) mode.
pub(crate) fn blessing() -> bool {
    std::env::var_os(BLESS_ENV).is_some_and(|v| !v.is_empty() && v != "0")
}

/// The golden-test entry point: in bless mode, write `actual` as the new
/// fixture; otherwise load the fixture, compare under `tol_for`, and on
/// drift write a report file and fail with the full per-key diff.
pub fn check_or_bless(
    actual: &GoldenSummary,
    tol_for: impl Fn(&str) -> Tolerance,
) -> Result<(), String> {
    let path = fixtures_dir().join(format!("{}.golden", actual.name));
    if blessing() {
        std::fs::create_dir_all(fixtures_dir())
            .map_err(|e| format!("creating {:?}: {e}", fixtures_dir()))?;
        std::fs::write(&path, actual.render()).map_err(|e| format!("writing {path:?}: {e}"))?;
        return Ok(());
    }
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!("no blessed fixture at {path:?} ({e}); generate it with {BLESS_ENV}=1")
    })?;
    let expected = GoldenSummary::parse(&text).map_err(|e| format!("parsing {path:?}: {e}"))?;
    match compare(&expected, actual, tol_for) {
        Ok(()) => Ok(()),
        Err(diff) => {
            let dir = diff_report_dir();
            let report = format!(
                "golden fixture {} drifted ({} values, {} structural):\n{diff}",
                actual.name,
                diff.drifted.len(),
                diff.structural.len()
            );
            let mut note = String::new();
            if std::fs::create_dir_all(&dir).is_ok() {
                let rp = dir.join(format!("{}.diff.txt", actual.name));
                if std::fs::write(&rp, &report).is_ok() {
                    note = format!("\nreport written to {rp:?}");
                }
            }
            Err(format!(
                "{report}{note}\nif the change is intended, re-bless with {BLESS_ENV}=1"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GoldenSummary {
        GoldenSummary::new("unit")
            .scalar("frac", 0.979)
            .scalar("idc", 725.25)
            .series("pdf", vec![0.9, 0.05, 0.001])
    }

    #[test]
    fn render_parse_round_trip() {
        let s = sample();
        let back = GoldenSummary::parse(&s.render()).unwrap();
        assert_eq!(back.name, "unit");
        assert_eq!(back.scalars.len(), 2);
        assert_eq!(back.series[0].1.len(), 3);
        compare(&back, &s, |_| Tolerance::exact()).unwrap();
        // Render is deterministic.
        assert_eq!(s.render(), back.render());
    }

    #[test]
    fn drift_names_the_offending_bin() {
        let a = sample();
        let mut b = sample();
        b.series[0].1[1] = 0.06;
        let diff = compare(&a, &b, |_| Tolerance::exact()).unwrap_err();
        assert_eq!(diff.drifted.len(), 1);
        let d = &diff.drifted[0];
        assert_eq!(d.key, "pdf");
        assert_eq!(d.bin, Some(1));
        assert!(d.to_string().contains("bin 1"), "{d}");
    }

    #[test]
    fn structural_changes_are_reported() {
        let a = sample();
        let b = GoldenSummary::new("unit")
            .scalar("frac", 0.979)
            .series("pdf", vec![0.9, 0.05]);
        let diff = compare(&a, &b, |_| Tolerance::exact()).unwrap_err();
        let text = diff.to_string();
        assert!(text.contains("scalar idc missing"), "{text}");
        assert!(text.contains("length 3 vs computed 2"), "{text}");
    }

    #[test]
    fn tolerance_is_rel_plus_abs() {
        let t = Tolerance {
            rel: 0.1,
            abs: 0.01,
        };
        assert!(t.accepts(1.0, 1.1));
        assert!(t.accepts(0.0, 0.009));
        assert!(!t.accepts(1.0, 1.2));
    }

    #[test]
    fn wrong_version_header_is_rejected() {
        let text = "# lossburst golden summary v999\nname x\n";
        assert!(GoldenSummary::parse(text).unwrap_err().contains("header"));
    }
}
