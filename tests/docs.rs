//! Doc-drift gate. README.md, DESIGN.md, EXPERIMENTS.md, the verify skill
//! and the CI workflow name bins, examples, tests, packages and files by
//! hand; a name that no longer resolves fails here, with its line, not
//! in front of a reader.

use std::path::{Path, PathBuf};

const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
];

/// Names the docs quote as history: `(name, PR that deleted it)`. The only
/// escape hatch — and each entry must itself stay true: quoted somewhere,
/// and absent from the tree.
const GONE: &[(&str, u32)] = &[
    ("streaming_perf", 15),
    ("BENCH_STREAMING.json", 15),
    ("campaign_perf", 18),
    ("bsp_perf", 18),
    ("supervisor_smoke", 18),
    ("BENCH_EVENTLOOP.json", 18),
    ("BENCH_FAIRNESS.json", 18),
];

/// A backticked word with a `/` and one of these extensions is a repo path.
const PATH_EXTENSIONS: [&str; 10] = [
    "rs", "toml", "sh", "yml", "md", "json", "jsonl", "csv", "tsv", "txt",
];

/// The repo root and its package directories (root, `crates/*`, `compat/*`).
struct Repo {
    root: PathBuf,
    packages: Vec<PathBuf>,
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
        Repo { root, packages }
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
/// fenced blocks alike), with its byte offset, stripped of the punctuation
/// prose puts around it and of a `::item` or `:line` suffix.
fn code_words(text: &str) -> Vec<(usize, &str)> {
    let mut words = Vec::new();
    let mut at = 0;
    for (i, span) in text.split('`').enumerate() {
        if i % 2 == 1 {
            for word in span.split_whitespace() {
                let offset = at + (word.as_ptr() as usize - span.as_ptr() as usize);
                let word = word.trim_matches(|c: char| "()[]\"',;".contains(c));
                let word = word.split("::").next().unwrap_or(word);
                let word = match word.rsplit_once(':') {
                    Some((path, line)) if line.parse::<u32>().is_ok() => path,
                    _ => word,
                };
                words.push((offset, word.trim_end_matches(['.', ':'])));
            }
        }
        at += span.len() + 1;
    }
    words
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
        corpus.push_str(&text);
    }
    for &(name, pr) in GONE {
        if !corpus.contains(name) {
            findings.push(format!(
                "GONE: `{name}` (PR {pr}) is quoted nowhere; drop it"
            ));
        }
        if repo.has_target("--bin", name) || repo.has_path(name) {
            findings.push(format!("GONE: `{name}` (PR {pr}) exists"));
        }
    }
    assert!(
        findings.is_empty(),
        "the docs name things that are not there:\n{}",
        findings.join("\n")
    );
}
