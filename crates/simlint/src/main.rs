//! simlint CLI.
//!
//! ```text
//! simlint --workspace [--config simlint.toml] [--json PATH] [--verbose]
//!         [--deny-warnings]
//! simlint --path DIR [...]      lint a specific tree (fixture testing)
//! simlint --self-test           run embedded rule fixtures
//! simlint --list-rules          print the rule catalog
//! ```
//!
//! Exit codes: 0 clean, 1 unwaived findings (or self-test failure),
//! 2 usage/config error.

use simlint::config::Config;
use simlint::rules::RULES;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workspace: bool,
    paths: Vec<PathBuf>,
    config: Option<PathBuf>,
    json: Option<PathBuf>,
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
            "--deny-warnings" => args.deny_warnings = true,
            "--verbose" | "-v" => args.verbose = true,
            "--self-test" => args.self_test = true,
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => {
                return Err(
                    "usage: simlint --workspace | --path DIR | --self-test | --list-rules \
                            [--config FILE] [--json FILE] [--deny-warnings] [--verbose]"
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
        return if simlint::selftest::run() {
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
        match simlint::lint_workspace(tree, &config) {
            Ok(report) => all.extend(report.findings),
            Err(e) => {
                eprintln!("simlint: error walking {}: {e}", tree.display());
                return ExitCode::from(2);
            }
        }
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
