//! The docs name only what exists.
//!
//! Reads README.md, DESIGN.md and EXPERIMENTS.md and checks every token
//! inside an inline code span (fenced blocks are skipped):
//!
//! * a relative path with a file extension must name a file in the tree,
//!   as a full path from the repository root or as a path suffix
//!   (`proto.rs`, `hpbd/src/proto.rs`); a `:line` suffix is ignored;
//! * in `Type::item` (or `Type::{a, b}`), the type and each item must
//!   appear as identifiers in some `.rs` file under `crates/`, `src/`,
//!   `tests/`, `examples/` or `benchmark/src/`; a path rooted at `std`,
//!   `core` or `alloc` names the standard library and is not checked;
//! * a `--flag` must appear in some `.rs` or `.sh` file. The flags of a
//!   `cargo …` command line are cargo's (or libtest's) and are not checked.
//!
//! There is no allow-list: a doc that names something the tree no longer
//! has is fixed in the doc.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];
const RUST_ROOTS: [&str; 5] = ["crates", "src", "tests", "examples", "benchmark/src"];
const EXTENSIONS: [&str; 10] = [
    "rs", "toml", "md", "json", "txt", "sh", "yml", "yaml", "lock", "py",
];

/// Every file under `dir`, as a `/`-separated path relative to `root`.
/// Build output is skipped.
fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !matches!(name.as_str(), "target" | ".git" | ".bench_build") {
                walk(root, &path, out);
            }
        } else if let Ok(rel) = path.strip_prefix(root) {
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

fn identifiers(text: &str, out: &mut BTreeSet<String>) {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    for word in text.split(|c: char| !is_ident(c)) {
        if !word.is_empty() {
            out.insert(word.to_string());
        }
    }
}

/// Whether `flag` occurs in `text` not followed by another flag character,
/// so `--threads` is not found inside `--threadsafe`.
fn has_flag(text: &str, flag: &str) -> bool {
    text.match_indices(flag).any(|(at, _)| {
        !text[at + flag.len()..]
            .starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    })
}

/// Inline code spans: fenced blocks removed, then the odd pieces between
/// backticks, paragraph by paragraph so one stray backtick cannot flip
/// the rest of a file.
fn code_spans(doc: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split("\n\n")
        .flat_map(|para| {
            para.split('`')
                .skip(1)
                .step_by(2)
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// `path` with any `:line` or `:line–line` suffix cut, if it looks like a
/// relative file path with a known extension.
fn as_path(word: &str) -> Option<&str> {
    let word = word.trim_matches([',', ';', '(', ')', '"', '\'']);
    let word = word.split(':').next().unwrap_or(word);
    if word.starts_with('/')
        || word.starts_with("..")
        || word.contains(['*', '{', '<', '$', '[', '='])
    {
        return None;
    }
    let (stem, ext) = word.rsplit_once('.')?;
    let name = stem.rsplit('/').next().unwrap_or(stem);
    (!name.is_empty() && EXTENSIONS.contains(&ext)).then_some(word)
}

/// `(Type, [items])` for every `Type::item` and `Type::{a, b}` in `span`.
fn type_items(span: &str) -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    for (at, _) in span.match_indices("::") {
        let head = &span[..at];
        let path_start = head
            .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
            .map_or(0, |i| i + 1);
        let path = &head[path_start..];
        let ty = path.rsplit("::").next().unwrap_or(path).to_string();
        let root = path.split("::").next().unwrap_or(path);
        let tail = &span[at + 2..];
        if !ty.starts_with(|c: char| c.is_ascii_uppercase())
            || matches!(root, "std" | "core" | "alloc")
        {
            continue;
        }
        let items: Vec<String> = if let Some(group) = tail.strip_prefix('{') {
            let group = group.split('}').next().unwrap_or("");
            group
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| {
                    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                })
                .collect()
        } else {
            let item: String = tail
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if item.is_empty() {
                continue;
            }
            vec![item]
        };
        out.push((ty, items));
    }
    out
}

#[test]
fn docs_name_only_what_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    walk(root, root, &mut files);

    let mut idents = BTreeSet::new();
    let mut flag_text = String::new();
    for f in &files {
        let in_rust_root = RUST_ROOTS.iter().any(|r| f.starts_with(&format!("{r}/")));
        if f.ends_with(".rs") || f.ends_with(".sh") {
            let Ok(text) = fs::read_to_string(root.join(f)) else {
                continue;
            };
            if f.ends_with(".rs") && in_rust_root {
                identifiers(&text, &mut idents);
            }
            flag_text.push_str(&text);
            flag_text.push('\n');
        }
    }

    let mut missing = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("doc is readable");
        for span in code_spans(&text) {
            let cargo = span.trim_start().starts_with("cargo ");
            for word in span.split_whitespace() {
                if let Some(path) = as_path(word) {
                    let found = files
                        .iter()
                        .any(|f| f == path || f.ends_with(&format!("/{path}")));
                    if !found {
                        missing.push(format!("{doc}: file `{path}`"));
                    }
                }
                if let Some(flag) = word.strip_prefix("--").filter(|_| !cargo) {
                    let flag: String = flag
                        .chars()
                        .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                        .collect();
                    if flag.starts_with(|c: char| c.is_ascii_alphabetic())
                        && !has_flag(&flag_text, &format!("--{flag}"))
                    {
                        missing.push(format!("{doc}: flag `--{flag}`"));
                    }
                }
            }
            for (ty, items) in type_items(&span) {
                for name in std::iter::once(&ty).chain(&items) {
                    if !idents.contains(name) {
                        missing.push(format!("{doc}: `{ty}::…` names `{name}`"));
                    }
                }
            }
        }
    }
    missing.dedup();
    assert!(
        missing.is_empty(),
        "the docs name {} thing(s) the tree does not have:\n  {}",
        missing.len(),
        missing.join("\n  ")
    );
}

/// The byte size each long doc may not grow past. A change that adds prose
/// cuts as much elsewhere; one that cuts more lowers the number here.
const SIZE_CEILINGS: [(&str, u64); 2] = [("DESIGN.md", 71_246), ("EXPERIMENTS.md", 60_319)];

#[test]
fn long_docs_do_not_grow() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (doc, ceiling) in SIZE_CEILINGS {
        let size = fs::metadata(root.join(doc)).expect("doc exists").len();
        assert!(
            size <= ceiling,
            "{doc} is {size} bytes, over its ceiling of {ceiling}: cut prose elsewhere"
        );
    }
}

/// `tools/figcost.json` holds one row per build for exactly the binaries
/// `tools/figcost.py` runs.
#[test]
fn figcost_rows_name_the_binaries_the_script_runs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let script = fs::read_to_string(root.join("tools/figcost.py")).expect("script exists");
    let list = script
        .split_once("BINARIES = (")
        .and_then(|(_, rest)| rest.split('"').nth(1))
        .expect("BINARIES = (\"…\")");
    let mut runs: Vec<&str> = list.split_whitespace().collect();
    runs.sort_unstable();
    let json = fs::read_to_string(root.join("tools/figcost.json")).expect("rows exist");
    let mut rows = std::collections::BTreeMap::<&str, Vec<&str>>::new();
    for line in json.lines().filter(|line| line.contains("\"binary\": ")) {
        let field = |key: &str| {
            let (_, rest) = line
                .split_once(&format!("\"{key}\": \""))
                .unwrap_or_else(|| panic!("a row names its {key}"));
            rest.split('"').next().unwrap_or_default()
        };
        rows.entry(field("build"))
            .or_default()
            .push(field("binary"));
    }
    assert!(!rows.is_empty(), "tools/figcost.json has no rows");
    for (build, mut binaries) in rows {
        binaries.sort_unstable();
        assert_eq!(binaries, runs, "build {build}");
    }
}
