//! Doc-drift gate. README.md, DESIGN.md, EXPERIMENTS.md, the verify skill
//! and the CI workflow name bins, examples, tests, packages, files,
//! functions and metric keys by hand; a name that no longer resolves fails
//! here, with its line, not in front of a reader.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
];

/// Names the docs quote as history: `(name, PR that deleted or renamed
/// it)`. The only escape hatch — and each entry must itself stay true:
/// quoted somewhere, and absent from the tree.
const GONE: &[(&str, u32)] = &[
    ("streaming_perf", 15),
    ("BENCH_STREAMING.json", 15),
    ("campaign_perf", 18),
    ("bsp_perf", 18),
    ("supervisor_smoke", 18),
    ("BENCH_EVENTLOOP.json", 18),
    ("BENCH_FAIRNESS.json", 18),
    ("try_measure_path_grid", 13),
    ("calendar_agrees_with_the_heap_oracle", 20),
    ("calendar_backs_off_when_a_rebuild_cannot_help", 20),
    ("bucket_reclaims_popped_space", 20),
    (
        "queue_agrees_with_the_oracle_while_the_calendar_retunes",
        20,
    ),
    ("calendar_stays_tuned_on_the_dumbbell_at_three_scales", 20),
    ("socklane_perf", 21),
    ("BENCH_SOCKLANE.json", 21),
];

/// Parts (`_`-separated) from which a backticked snake_case name is taken
/// for an identifier — a test, a function, a config field, a metric key —
/// and has to occur in the code. Shorter ones are too often plain words.
const IDENTIFIER_PARTS: usize = 4;

/// A backticked word with a `/` and one of these extensions is a repo path.
const PATH_EXTENSIONS: [&str; 10] = [
    "rs", "toml", "sh", "yml", "md", "json", "jsonl", "csv", "tsv", "txt",
];

/// The repo root, its package directories (root, `crates/*`, `compat/*`)
/// and every identifier its code uses.
struct Repo {
    root: PathBuf,
    packages: Vec<PathBuf>,
    /// Each maximal `[A-Za-z0-9_]+` run of every `.rs` file, `//` comments
    /// aside (string literals count: metric keys and CSV headers live in
    /// them), and of `BENCHMARK.json`.
    identifiers: HashSet<String>,
}

/// The maximal `[A-Za-z0-9_]+` runs of `text`.
fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|run| !run.is_empty())
}

/// Add the identifiers of every `.rs` file under `dir` to `into` — but for
/// this file, whose `GONE` list names what must not be found.
fn collect_identifiers(dir: &Path, into: &mut HashSet<String>) {
    for entry in std::fs::read_dir(dir).expect("source directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() && !name.starts_with('.') && name != "target" {
            collect_identifiers(&path, into);
        } else if path.extension().is_some_and(|e| e == "rs") && !path.ends_with(file!()) {
            let text = std::fs::read_to_string(&path).expect("source file");
            let code = text.lines().map(|l| l.split("//").next().unwrap_or(l));
            into.extend(code.flat_map(identifiers).map(str::to_string));
        }
    }
}

impl Repo {
    fn open() -> Repo {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let mut packages = vec![root.clone()];
        for group in ["crates", "compat"] {
            let dir = std::fs::read_dir(root.join(group)).expect("workspace member directory");
            packages.extend(dir.map(|e| e.expect("directory entry").path()));
        }
        packages.retain(|p| p.join("Cargo.toml").exists());
        let mut names = HashSet::new();
        collect_identifiers(&root, &mut names);
        let manifest =
            std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
        names.extend(identifiers(&manifest).map(str::to_string));
        Repo {
            root,
            packages,
            identifiers: names,
        }
    }

    fn has_package(&self, name: &str) -> bool {
        let needle = format!("name = \"{name}\"");
        self.packages.iter().any(|p| {
            let manifest = std::fs::read_to_string(p.join("Cargo.toml")).expect("manifest");
            manifest.lines().any(|l| l == needle)
        })
    }

    /// What `cargo <verb> <flag> <name>` would have to find.
    fn has_target(&self, flag: &str, name: &str) -> bool {
        let file = format!("{name}.rs");
        match flag {
            "--bin" => ["crates/bench/src/bin", "src/bin"]
                .iter()
                .any(|d| self.root.join(d).join(&file).exists()),
            "--example" => self.root.join("examples").join(&file).exists(),
            "--test" => self
                .packages
                .iter()
                .any(|p| p.join("tests").join(&file).exists()),
            "-p" => self.has_package(name),
            _ => unreachable!("not a target flag: {flag}"),
        }
    }

    /// A path as the docs write it: from the root, from `crates/` or
    /// `compat/`, or from inside one package.
    fn has_path(&self, path: &str) -> bool {
        let groups = [self.root.join("crates"), self.root.join("compat")];
        self.packages
            .iter()
            .chain(&groups)
            .any(|base| base.join(path).exists())
    }
}

fn gone(name: &str) -> bool {
    GONE.iter().any(|&(n, _)| n == name)
}

/// The argument of every `flag` in `text`, with its byte offset. Line
/// wraps between flag and argument are fine; a placeholder argument
/// (`<name>`, `…`) yields nothing.
fn flag_args<'a>(text: &'a str, flag: &'a str) -> impl Iterator<Item = (usize, &'a str)> {
    text.match_indices(flag).filter_map(move |(at, _)| {
        let glued = |c: char| c.is_alphanumeric() || c == '-';
        let rest = &text[at + flag.len()..];
        let arg = rest.trim_start();
        if text[..at].ends_with(glued) || arg.len() == rest.len() {
            return None; // part of a longer word: `cp -pr`, `--binary`
        }
        let end = arg
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
            .unwrap_or(arg.len());
        (end > 0).then(|| (at, &arg[..end]))
    })
}

/// Every whitespace-separated word inside backticks (code spans and
/// fenced blocks alike), as written, with its byte offset.
fn raw_code_words(text: &str) -> Vec<(usize, &str)> {
    let mut words = Vec::new();
    let mut at = 0;
    for (i, span) in text.split('`').enumerate() {
        if i % 2 == 1 {
            for word in span.split_whitespace() {
                let offset = at + (word.as_ptr() as usize - span.as_ptr() as usize);
                words.push((offset, word));
            }
        }
        at += span.len() + 1;
    }
    words
}

/// [`raw_code_words`] stripped of the punctuation prose puts around them
/// and of a `::item` or `:line` suffix.
fn code_words(text: &str) -> Vec<(usize, &str)> {
    fn strip((offset, word): (usize, &str)) -> (usize, &str) {
        let word = word.trim_matches(|c: char| "()[]\"',;".contains(c));
        let word = word.split("::").next().unwrap_or(word);
        let word = match word.rsplit_once(':') {
            Some((path, line)) if line.parse::<u32>().is_ok() => path,
            _ => word,
        };
        (offset, word.trim_end_matches(['.', ':']))
    }
    raw_code_words(text).into_iter().map(strip).collect()
}

/// The identifiers quoted in backticks in `text`, with their byte offsets:
/// every snake_case run of [`IDENTIFIER_PARTS`] parts or more, wherever in
/// a code word it sits (`mod::tests::a_test_by_name`, `layer.ns_per_op_deep`,
/// `a_function_of_note(arg)`), except inside a file path.
fn quoted_identifiers(text: &str) -> Vec<(usize, &str)> {
    let snake = |run: &&str| {
        run.starts_with(|c: char| c.is_ascii_lowercase())
            && !run.contains(|c: char| c.is_ascii_uppercase())
            && run.split('_').filter(|part| !part.is_empty()).count() >= IDENTIFIER_PARTS
    };
    raw_code_words(text)
        .into_iter()
        .filter(|(_, word)| !word.contains('/'))
        .flat_map(|(at, word)| identifiers(word).filter(snake).map(move |run| (at, run)))
        .collect()
}

fn is_repo_path(word: &str) -> bool {
    let skipped = word.contains(['{', '<', '*'])
        || word.contains("://")
        || word.starts_with('/')
        || word.starts_with("target/");
    let extension = Path::new(word).extension().and_then(|e| e.to_str());
    word.contains('/') && !skipped && extension.is_some_and(|e| PATH_EXTENSIONS.contains(&e))
}

fn is_root_artefact(word: &str) -> bool {
    word.rsplit_once('.').is_some_and(|(stem, ext)| {
        !stem.is_empty()
            && stem.chars().all(|c| c.is_ascii_uppercase() || c == '_')
            && ["json", "jsonl", "csv", "md"].contains(&ext)
    })
}

#[test]
fn docs_name_only_what_exists() {
    let repo = Repo::open();
    let mut findings = Vec::new();
    let mut corpus = String::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(repo.root.join(doc)).expect(doc);
        let mut report = |at: usize, what: String| {
            let line = text[..at].matches('\n').count() + 1;
            findings.push(format!("{doc}:{line}: {what}"));
        };
        for flag in ["--bin", "--example", "--test", "-p"] {
            for (at, name) in flag_args(&text, flag) {
                if !repo.has_target(flag, name) && !gone(name) {
                    report(at, format!("`{flag} {name}` resolves to nothing"));
                }
            }
        }
        for (at, word) in code_words(&text) {
            if is_repo_path(word) && !repo.has_path(word) && !gone(word) {
                report(at, format!("no file `{word}`"));
            }
            if is_root_artefact(word) && !repo.root.join(word).exists() && !gone(word) {
                report(at, format!("no `{word}` at the repo root"));
            }
        }
        for (at, name) in quoted_identifiers(&text) {
            if !repo.identifiers.contains(name) && !gone(name) {
                report(at, format!("no identifier `{name}` in the code"));
            }
        }
        corpus.push_str(&text);
    }
    for &(name, pr) in GONE {
        if !corpus.contains(name) {
            findings.push(format!(
                "GONE: `{name}` (PR {pr}) is quoted nowhere; drop it"
            ));
        }
        if repo.has_target("--bin", name) || repo.has_path(name) || repo.identifiers.contains(name)
        {
            findings.push(format!("GONE: `{name}` (PR {pr}) exists"));
        }
    }
    assert!(
        findings.is_empty(),
        "the docs name things that are not there:\n{}",
        findings.join("\n")
    );
}
