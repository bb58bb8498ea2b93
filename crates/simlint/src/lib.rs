//! simlint — the workspace determinism & invariant analysis pass.
//!
//! A dependency-free static analyzer for the HPBD suite. It lexes every
//! `.rs` file with a small hand-rolled lexer and runs token-pattern rules
//! over each file on its own, in one pass: the properties the
//! differential tests rely on (no wall clocks, no hash-order iteration
//! feeding traces or scheduling, typed errors on protocol paths, no
//! `unsafe`, sealed wire structs, one typed submit path per layer) and
//! encode/decode roundtrip coverage next to each wire format. See DESIGN.md §12 for the rule
//! catalog and the waiver format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod selftest;
pub mod walk;

use config::Config;
use report::Report;
use rules::{check_file, FileCtx};
use std::path::Path;

/// Lint every file under the configured roots of `workspace`.
pub fn lint_workspace(workspace: &Path, config: &Config) -> std::io::Result<Report> {
    let mut findings = Vec::new();
    for rel in walk::collect(workspace, &config.roots, &config.exclude) {
        let src = std::fs::read_to_string(workspace.join(&rel))?;
        findings.extend(check_file(&mut FileCtx::new(&rel, &src), config, None));
    }
    Ok(Report::new(findings))
}
