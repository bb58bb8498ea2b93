//! `simlint.toml` — a hand-rolled parser for the small TOML subset the
//! lint policy needs: `[section]` headers, string / bool values, and
//! arrays of strings (single- or multi-line). Anything else is a parse
//! error, loudly — a silently misread policy is worse than none.

use std::collections::BTreeMap;

/// A parsed configuration value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `key = "text"`
    Str(String),
    /// `key = true`
    Bool(bool),
    /// `key = ["a", "b"]`
    List(Vec<String>),
}

/// Per-rule policy knobs.
#[derive(Clone, Debug, Default)]
pub struct RulePolicy {
    /// `enabled = false` turns the rule off entirely.
    pub enabled: Option<bool>,
    /// `severity = "warn"` demotes findings to warnings (non-fatal unless
    /// `--deny-warnings`).
    pub warn: bool,
    /// `allow = [...]` — repo-relative path prefixes exempt from the rule.
    pub allow: Vec<String>,
    /// `paths = [...]` — if non-empty, the rule only applies to files under
    /// these repo-relative path prefixes (replaces the built-in scope).
    pub paths: Vec<String>,
}

/// The whole lint policy.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Directories to walk, relative to the workspace root.
    pub roots: Vec<String>,
    /// Path prefixes skipped entirely.
    pub exclude: Vec<String>,
    /// Per-rule overrides, keyed by rule id (e.g. "D001").
    pub rules: BTreeMap<String, RulePolicy>,
}

impl Config {
    /// The built-in policy used when no `simlint.toml` is present: walk the
    /// standard workspace layout with every rule at its default scope.
    pub fn builtin() -> Config {
        Config {
            roots: vec![
                "crates".to_string(),
                "src".to_string(),
                "tests".to_string(),
                "examples".to_string(),
            ],
            exclude: Vec::new(),
            rules: BTreeMap::new(),
        }
    }

    /// Policy for a rule id (a default if the file has no section for it).
    pub fn rule(&self, id: &str) -> RulePolicy {
        self.rules.get(id).cloned().unwrap_or_default()
    }

    /// Parse the `simlint.toml` text.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut config = Config::builtin();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((n, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let Some((key, mut value_text)) = line.split_once('=') else {
                return Err(format!("simlint.toml:{}: expected `key = value`", n + 1));
            };
            let key = key.trim().to_string();
            let mut value_buf = value_text.trim().to_string();
            // Multi-line arrays: keep consuming until the bracket closes.
            if value_buf.starts_with('[') {
                while !bracket_closed(&value_buf) {
                    let Some((_, cont)) = lines.next() else {
                        return Err(format!("simlint.toml:{}: unterminated array", n + 1));
                    };
                    value_buf.push(' ');
                    value_buf.push_str(strip_comment(cont).trim());
                }
                value_text = &value_buf;
            } else {
                value_text = &value_buf;
            }
            let value =
                parse_value(value_text).map_err(|e| format!("simlint.toml:{}: {e}", n + 1))?;
            config.apply(&section, &key, value, n + 1)?;
        }
        Ok(config)
    }

    fn apply(&mut self, section: &str, key: &str, value: Value, line: usize) -> Result<(), String> {
        let fail = |what: &str| Err(format!("simlint.toml:{line}: {what}"));
        match section {
            "simlint" => match (key, value) {
                ("roots", Value::List(v)) => self.roots = v,
                ("exclude", Value::List(v)) => self.exclude = v,
                _ => return fail("unknown key in [simlint] (expected roots/exclude lists)"),
            },
            s if s.starts_with("rule.") => {
                let id = s["rule.".len()..].to_string();
                let policy = self.rules.entry(id).or_default();
                match (key, value) {
                    ("enabled", Value::Bool(b)) => policy.enabled = Some(b),
                    ("severity", Value::Str(sev)) => match sev.as_str() {
                        "warn" => policy.warn = true,
                        "deny" => policy.warn = false,
                        _ => return fail("severity must be \"warn\" or \"deny\""),
                    },
                    ("allow", Value::List(v)) => policy.allow = v,
                    ("paths", Value::List(v)) => policy.paths = v,
                    _ => {
                        return fail(
                            "unknown key in [rule.*] (expected enabled/severity/allow/paths)",
                        )
                    }
                }
            }
            "" => return fail("key outside any section"),
            _ => return fail("unknown section (expected [simlint] or [rule.<ID>])"),
        }
        Ok(())
    }
}

/// Strip a `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn bracket_closed(buf: &str) -> bool {
    let mut in_str = false;
    let mut depth = 0i32;
    let mut closed = false;
    for c in buf.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    closed = true;
                }
            }
            _ => {}
        }
    }
    closed
}

fn parse_value(text: &str) -> Result<Value, String> {
    let text = text.trim();
    if text == "true" {
        return Ok(Value::Bool(true));
    }
    if text == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(s) = text.strip_prefix('"') {
        let Some(s) = s.strip_suffix('"') else {
            return Err("unterminated string".to_string());
        };
        return Ok(Value::Str(s.to_string()));
    }
    if let Some(inner) = text.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part)? {
                Value::Str(s) => items.push(s),
                _ => return Err("arrays may only contain strings".to_string()),
            }
        }
        return Ok(Value::List(items));
    }
    Err(format!("unparseable value `{text}`"))
}

fn split_top_level(inner: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut buf = String::new();
    let mut in_str = false;
    for c in inner.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                buf.push(c);
            }
            ',' if !in_str => {
                parts.push(std::mem::take(&mut buf));
            }
            _ => buf.push(c),
        }
    }
    parts.push(buf);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_and_lists() {
        let cfg = Config::parse(
            r#"
# policy
[simlint]
roots = ["crates", "src"]
exclude = ["crates/bench"]

[rule.D004]
enabled = true
allow = [
    "crates/bench/src/runner.rs",  # cell fan-out
]

[rule.A002]
severity = "warn"
"#,
        )
        .unwrap();
        assert_eq!(cfg.roots, ["crates", "src"]);
        assert_eq!(cfg.exclude, ["crates/bench"]);
        assert_eq!(cfg.rule("D004").allow, ["crates/bench/src/runner.rs"]);
        assert!(cfg.rule("A002").warn);
        assert!(!cfg.rule("D004").warn);
    }

    #[test]
    fn rejects_unknown_keys() {
        assert!(Config::parse("[simlint]\nbogus = true\n").is_err());
        assert!(Config::parse("[rule.D001]\nseverity = \"maybe\"\n").is_err());
        assert!(Config::parse("loose = 1\n").is_err());
    }
}
