//! simlint CLI.
//!
//! ```text
//! simlint --workspace [--config simlint.toml] [--json PATH] [--verbose]
//!         [--deny-warnings] [--index-json PATH] [--changed-only REF]
//! simlint --path DIR [...]      lint a specific tree (fixture testing)
//! simlint --self-test           run embedded rule fixtures
//! simlint --list-rules          print the rule catalog
//! ```
//!
//! `--changed-only REF` reports findings only for files that differ from
//! the git ref (plus untracked files) — the full symbol index is still
//! built over the whole workspace, so linked rules keep their evidence.
//! `--index-json PATH` dumps the pass-1 symbol index (CI artifact).
//!
//! Exit codes: 0 clean, 1 unwaived findings (or self-test failure),
//! 2 usage/config error.

use simlint::config::Config;
use simlint::rules::RULES;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workspace: bool,
    paths: Vec<PathBuf>,
    config: Option<PathBuf>,
    json: Option<PathBuf>,
    index_json: Option<PathBuf>,
    changed_only: Option<String>,
    deny_warnings: bool,
    verbose: bool,
    self_test: bool,
    list_rules: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        paths: Vec::new(),
        config: None,
        json: None,
        index_json: None,
        changed_only: None,
        deny_warnings: false,
        verbose: false,
        self_test: false,
        list_rules: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => args.workspace = true,
            "--path" => {
                let p = it.next().ok_or("--path needs a directory argument")?;
                args.paths.push(PathBuf::from(p));
            }
            "--config" => {
                let p = it.next().ok_or("--config needs a file argument")?;
                args.config = Some(PathBuf::from(p));
            }
            "--json" => {
                let p = it.next().ok_or("--json needs a file argument")?;
                args.json = Some(PathBuf::from(p));
            }
            "--index-json" => {
                let p = it.next().ok_or("--index-json needs a file argument")?;
                args.index_json = Some(PathBuf::from(p));
            }
            "--changed-only" => {
                let r = it.next().ok_or("--changed-only needs a git ref argument")?;
                args.changed_only = Some(r);
            }
            "--deny-warnings" => args.deny_warnings = true,
            "--verbose" | "-v" => args.verbose = true,
            "--self-test" => args.self_test = true,
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => {
                return Err(
                    "usage: simlint --workspace | --path DIR | --self-test | --list-rules \
                            [--config FILE] [--json FILE] [--index-json FILE] \
                            [--changed-only REF] [--deny-warnings] [--verbose]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

/// Locate the workspace root: the nearest ancestor of the current
/// directory that contains `Cargo.toml` with a `[workspace]` table.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Repo-relative `.rs` files that differ from `git_ref`, plus untracked
/// ones — the report filter for `--changed-only`.
fn changed_files(root: &Path, git_ref: &str) -> Result<BTreeSet<String>, String> {
    let run = |argv: &[&str]| -> Result<String, String> {
        let out = std::process::Command::new("git")
            .arg("-C")
            .arg(root)
            .args(argv)
            .output()
            .map_err(|e| format!("cannot run git: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "`git {}` failed: {}",
                argv.join(" "),
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        Ok(String::from_utf8_lossy(&out.stdout).into_owned())
    };
    let mut set = BTreeSet::new();
    for text in [
        run(&["diff", "--name-only", git_ref, "--"])?,
        run(&["ls-files", "--others", "--exclude-standard"])?,
    ] {
        for line in text.lines() {
            let line = line.trim();
            if line.ends_with(".rs") {
                set.insert(line.replace('\\', "/"));
            }
        }
    }
    Ok(set)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simlint: {e}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for r in RULES {
            println!("{}  {}", r.id, r.summary);
        }
        return ExitCode::SUCCESS;
    }

    if args.self_test {
        let (_, failed, rules) = simlint::selftest::run();
        // Every rule in the catalog except W001 (exercised separately
        // inside run()) must have fixtures; the floor catches a rule
        // added without any.
        return if failed == 0 && rules >= 16 {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    if !args.workspace && args.paths.is_empty() {
        eprintln!("simlint: nothing to do (pass --workspace, --path, --self-test or --list-rules)");
        return ExitCode::from(2);
    }

    // Resolve the tree to lint and the config to lint it with.
    let root = if args.workspace {
        match find_workspace_root() {
            Some(r) => r,
            None => {
                eprintln!("simlint: no workspace Cargo.toml found above the current directory");
                return ExitCode::from(2);
            }
        }
    } else {
        args.paths[0].clone()
    };

    let config_path = args.config.clone().or_else(|| {
        let p = root.join("simlint.toml");
        p.is_file().then_some(p)
    });
    let config = match config_path {
        Some(p) => match std::fs::read_to_string(&p) {
            Ok(text) => match Config::parse(&text) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("simlint: {e}");
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("simlint: cannot read {}: {e}", p.display());
                return ExitCode::from(2);
            }
        },
        None => Config::builtin(),
    };

    let mut all = Vec::new();
    let roots: Vec<PathBuf> = if args.workspace {
        vec![root.clone()]
    } else {
        args.paths.clone()
    };
    for tree in &roots {
        match simlint::analyze_workspace(tree, &config) {
            Ok((report, index)) => {
                all.extend(report.findings);
                if let Some(index_path) = &args.index_json {
                    if let Err(e) = std::fs::write(index_path, index.render_json()) {
                        eprintln!("simlint: cannot write {}: {e}", index_path.display());
                        return ExitCode::from(2);
                    }
                }
            }
            Err(e) => {
                eprintln!("simlint: error walking {}: {e}", tree.display());
                return ExitCode::from(2);
            }
        }
    }

    // --changed-only filters the *report*, not the analysis: the symbol
    // index above was built over the whole tree, so linked rules judged
    // changed files with full workspace evidence.
    if let Some(git_ref) = &args.changed_only {
        let changed = match changed_files(&root, git_ref) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("simlint: {e}");
                return ExitCode::from(2);
            }
        };
        let before = all.len();
        all.retain(|f| changed.contains(&f.path));
        eprintln!(
            "simlint: --changed-only {git_ref}: {} of {} finding(s) on the {} changed file(s)",
            all.len(),
            before,
            changed.len()
        );
    }
    let report = simlint::report::Report::new(all);

    print!("{}", report.render_text(args.verbose));
    if let Some(json_path) = &args.json {
        if let Err(e) = std::fs::write(json_path, report.render_json()) {
            eprintln!("simlint: cannot write {}: {e}", json_path.display());
            return ExitCode::from(2);
        }
    }

    let errors = report.denied().count();
    let warnings = report.warnings().count();
    if errors > 0 || (args.deny_warnings && warnings > 0) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
