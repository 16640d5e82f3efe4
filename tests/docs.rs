//! Doc-drift gate. README.md, DESIGN.md, EXPERIMENTS.md, the verify skill
//! and the CI workflow name bins, examples, tests, packages, files,
//! functions, `crate::module::item` paths and metric keys by hand; a name
//! that no longer resolves fails here, with its line, not in front of a
//! reader. The same index of the sources holds the public-surface floor:
//! a `pub fn` / `const` / `static` nothing outside its crate names fails.

use std::collections::{HashMap, HashSet};
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
    ("testbed::run", 24),
    ("inet::report", 24),
    ("topology::full_mesh", 24),
    ("dummynet_study_supervised", 24),
];

/// Parts (`_`-separated) from which a backticked snake_case name is taken
/// for an identifier — a test, a function, a config field, a metric key —
/// and has to occur in the code. Shorter ones are too often plain words.
const IDENTIFIER_PARTS: usize = 4;

/// A backticked word with a `/` and one of these extensions is a repo path.
const PATH_EXTENSIONS: [&str; 10] = [
    "rs", "toml", "sh", "yml", "md", "json", "jsonl", "csv", "tsv", "txt",
];

/// What one library crate (`crates/<name>/src/`, its `bin/` aside) holds.
#[derive(Default)]
struct Library {
    /// Identifiers of its code lines, `//` comments aside.
    code: HashSet<String>,
    /// Identifiers of its `///` and `//!` lines: doc-tests compile outside
    /// the crate, so what they name is named from outside.
    docs: HashSet<String>,
    /// Names in definition position (after `fn`, `struct`, `mod`, …).
    defined: HashSet<String>,
    /// Its module names: every `.rs` file stem and directory under `src/`.
    modules: HashSet<String>,
    /// Every `pub fn` / `pub const` / `pub static`: `(file:line, name)`.
    public: Vec<(String, String)>,
}

/// The repo root, its package directories (root, `crates/*`, `compat/*`)
/// and every identifier its code uses.
struct Repo {
    root: PathBuf,
    packages: Vec<PathBuf>,
    /// Each maximal `[A-Za-z0-9_]+` run of every `.rs` file, `//` comments
    /// aside (string literals count: metric keys and CSV headers live in
    /// them), and of `BENCHMARK.json`.
    identifiers: HashSet<String>,
    /// The library crates under `crates/`, by directory name.
    libraries: HashMap<String, Library>,
    /// Identifiers of the code that belongs to no library: root `src/`,
    /// `tests/`, `examples/`, `benchmark/`, `compat/`, every `src/bin/`
    /// and `crates/*/tests/`.
    elsewhere: HashSet<String>,
}

/// The maximal `[A-Za-z0-9_]+` runs of `text`.
fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|run| !run.is_empty())
}

/// Keywords whose next identifier is a definition.
const DEFINERS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

/// The name a line exports, if it opens a `pub fn` / `const` / `static`.
fn public_item(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let kinds = ["const fn ", "unsafe fn ", "fn ", "const ", "static "];
    let rest = kinds.iter().find_map(|kind| rest.strip_prefix(kind))?;
    identifiers(rest).next()
}

/// The library a file under the repo root belongs to: `crates/<name>/src/`
/// but not its `bin/`, whose files are callers like any other crate.
fn library_of(relative: &Path) -> Option<String> {
    let parts: Vec<&str> = relative.iter().filter_map(|p| p.to_str()).collect();
    match parts.as_slice() {
        ["crates", name, "src", rest @ ..] if rest.first() != Some(&"bin") => {
            Some(name.to_string())
        }
        _ => None,
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
        let mut repo = Repo {
            root: root.clone(),
            packages,
            identifiers: HashSet::new(),
            libraries: HashMap::new(),
            elsewhere: HashSet::new(),
        };
        repo.index(&root);
        let manifest =
            std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
        repo.identifiers
            .extend(identifiers(&manifest).map(str::to_string));
        repo
    }

    /// Index every `.rs` file under `dir` — but for this file, whose `GONE`
    /// list names what must not be found.
    fn index(&mut self, dir: &Path) {
        for entry in std::fs::read_dir(dir).expect("source directory") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let relative = path.strip_prefix(&self.root).expect("under the root");
            let stem = path.file_stem().and_then(|n| n.to_str()).unwrap_or("");
            let library = library_of(relative);
            if let Some(lib) = &library {
                let lib = self.libraries.entry(lib.clone()).or_default();
                lib.modules.insert(stem.to_string());
            }
            if path.is_dir() && !name.starts_with('.') && name != "target" {
                self.index(&path);
            } else if path.extension().is_some_and(|e| e == "rs") && !path.ends_with(file!()) {
                let text = std::fs::read_to_string(&path).expect("source file");
                self.index_file(relative, library.as_deref(), &text);
            }
        }
    }

    fn index_file(&mut self, relative: &Path, library: Option<&str>, text: &str) {
        for (n, line) in text.lines().enumerate() {
            let code = line.split("//").next().unwrap_or(line);
            let words: Vec<String> = identifiers(code).map(str::to_string).collect();
            self.identifiers.extend(words.iter().cloned());
            let Some(lib) = library.and_then(|l| self.libraries.get_mut(l)) else {
                self.elsewhere.extend(words);
                continue;
            };
            let defined = words
                .windows(2)
                .filter(|w| DEFINERS.contains(&w[0].as_str()));
            lib.defined.extend(defined.map(|w| w[1].clone()));
            lib.code.extend(words);
            if let Some(name) = public_item(code) {
                let at = format!("{}:{}", relative.display(), n + 1);
                lib.public.push((at, name.to_string()));
            }
            let doc = line.trim_start();
            if doc.starts_with("///") || doc.starts_with("//!") {
                lib.docs.extend(identifiers(doc).map(str::to_string));
            }
        }
    }

    /// Whether `segments` — a `crate::…::item` or `module::…::item` path as
    /// the docs write one, `lossburst::` / `lossburst_` prefixes dropped —
    /// ends in something its crate defines. `None`: the path starts at
    /// neither a library crate nor one of their modules (`std::…`, a type).
    fn resolves(&self, segments: &[&str]) -> Option<bool> {
        let (first, item) = (*segments.first()?, *segments.last()?);
        let homes: Vec<&Library> = match self.libraries.get(first) {
            Some(lib) => vec![lib],
            None => (self.libraries.values())
                .filter(|lib| lib.modules.contains(first))
                .collect(),
        };
        if homes.is_empty() || segments.len() < 2 {
            return None;
        }
        // `Type::Variant` and `Type::method` tails: a variant is not behind
        // a keyword, so after a type any use in the crate's code will do.
        let after_type = segments[segments.len() - 2].starts_with(|c: char| c.is_uppercase());
        Some(
            homes
                .iter()
                .any(|lib| lib.defined.contains(item) || (after_type && lib.code.contains(item))),
        )
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

/// Whether a quoted path ends in a `GONE` path (`emu::testbed::run` is
/// `testbed::run`) or in a `GONE` name.
fn gone_path(segments: &[&str]) -> bool {
    let path = segments.join("::");
    let ends_with = |n: &str| path == n || path.ends_with(&format!("::{n}"));
    GONE.iter().any(|&(n, _)| ends_with(n))
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

/// The `a::b::item` paths quoted in backticks in `text`, as segments, with
/// their byte offsets: the leading `[A-Za-z0-9_:]` run of each code word
/// that holds a `::`, minus a `lossburst::` facade segment, a `lossburst_`
/// crate prefix and a trailing glob.
fn quoted_paths(text: &str) -> Vec<(usize, Vec<&str>)> {
    let paths = raw_code_words(text).into_iter().filter_map(|(at, word)| {
        let word = word.trim_start_matches(|c: char| !(c.is_ascii_alphabetic() || c == '_'));
        let end = word
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
            .unwrap_or(word.len());
        let mut segments: Vec<&str> = word[..end].split("::").collect();
        if segments.len() > 1 && segments[0] == "lossburst" {
            segments.remove(0);
        }
        segments[0] = segments[0]
            .strip_prefix("lossburst_")
            .unwrap_or(segments[0]);
        while segments.last().is_some_and(|s| s.is_empty()) {
            segments.pop(); // `module::*`, `module::{…}`
        }
        (segments.len() > 1 && segments.iter().all(|s| !s.is_empty())).then_some((at, segments))
    });
    paths.collect()
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
        for (at, path) in quoted_paths(&text) {
            if repo.resolves(&path) == Some(false) && !gone_path(&path) {
                let (item, path) = (path[path.len() - 1], path.join("::"));
                report(at, format!("`{path}`: its crate defines no `{item}`"));
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
        let exists = match name.contains("::") {
            true => repo.resolves(&name.split("::").collect::<Vec<_>>()) == Some(true),
            false => repo.identifiers.contains(name),
        };
        if repo.has_target("--bin", name) || repo.has_path(name) || exists {
            findings.push(format!("GONE: `{name}` (PR {pr}) exists"));
        }
    }
    assert!(
        findings.is_empty(),
        "the docs name things that are not there:\n{}",
        findings.join("\n")
    );
}

/// The floor under the public surface: a `pub fn` / `const` / `static` of a
/// library crate is named by something outside that crate's `src/` — another
/// crate, a bin, a test, an example, the benchmark, or a doc comment (whose
/// examples compile as an outside crate). `pub` hides unused code from the
/// `dead_code` lint; an item that fails here wants `pub(crate)`, and then
/// the compiler says whether anything uses it. A floor, not the method: a
/// common name (`new`) passes on someone else's `new`.
#[test]
fn every_pub_item_is_named_outside_its_crate() {
    let repo = Repo::open();
    let mut findings = Vec::new();
    for (name, lib) in &repo.libraries {
        let others = repo.libraries.iter().filter(|(other, _)| *other != name);
        let outside: Vec<&HashSet<String>> = others
            .map(|(_, other)| &other.code)
            .chain([&repo.elsewhere, &lib.docs])
            .collect();
        for (at, item) in &lib.public {
            if !outside.iter().any(|set| set.contains(item)) {
                findings.push(format!("{at}: `{item}` is `pub`, and only {name} names it"));
            }
        }
    }
    findings.sort();
    assert!(
        findings.is_empty(),
        "{} public items have no caller outside their crate:\n{}",
        findings.len(),
        findings.join("\n")
    );
}
