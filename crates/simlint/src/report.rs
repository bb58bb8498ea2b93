//! Diagnostic rendering: human `path:line: RULE: message` lines plus a
//! hand-rolled machine-readable JSON report. Output order is fully
//! deterministic (files sorted, findings sorted within a file).

use crate::rules::Finding;

/// Aggregate result of a lint run.
pub struct Report {
    /// All findings, already sorted by (path, line, rule).
    pub findings: Vec<Finding>,
}

impl Report {
    /// Build a report from raw findings (sorts them).
    pub fn new(mut findings: Vec<Finding>) -> Report {
        findings.sort_by(|a, b| {
            (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
        });
        Report { findings }
    }

    /// Unwaived hard findings (these fail the run).
    pub fn denied(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.waived.is_none() && !f.warning)
    }

    /// Unwaived warnings (fail only under `--deny-warnings`).
    pub fn warnings(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.waived.is_none() && f.warning)
    }

    /// Waived findings (informational).
    pub fn waived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.waived.is_some())
    }

    /// Human-readable text report.
    pub fn render_text(&self, verbose: bool) -> String {
        let mut out = String::new();
        for f in self.findings.iter().filter(|f| f.waived.is_none()) {
            let sev = if f.warning { "warning" } else { "error" };
            out.push_str(&format!(
                "{}:{}: {} [{}]: {}\n",
                f.path, f.line, sev, f.rule, f.message
            ));
        }
        if verbose {
            for f in self.waived() {
                out.push_str(&format!(
                    "{}:{}: allowed [{}]: {} (waived: {})\n",
                    f.path,
                    f.line,
                    f.rule,
                    f.message,
                    f.waived.as_deref().unwrap_or("")
                ));
            }
        }
        let denied = self.denied().count();
        let warnings = self.warnings().count();
        let waived = self.waived().count();
        out.push_str(&format!(
            "simlint: {denied} error(s), {warnings} warning(s), {waived} waived\n"
        ));
        out
    }

    /// Machine-readable JSON report.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"rule\": {}, ", json_str(f.rule)));
            out.push_str(&format!("\"path\": {}, ", json_str(&f.path)));
            out.push_str(&format!("\"line\": {}, ", f.line));
            out.push_str(&format!(
                "\"severity\": {}, ",
                json_str(if f.warning { "warn" } else { "deny" })
            ));
            match &f.waived {
                Some(j) => out.push_str(&format!("\"waived\": {}, ", json_str(j))),
                None => out.push_str("\"waived\": null, "),
            }
            out.push_str(&format!("\"message\": {}", json_str(&f.message)));
            out.push('}');
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str(&format!("  \"errors\": {},\n", self.denied().count()));
        out.push_str(&format!("  \"warnings\": {},\n", self.warnings().count()));
        out.push_str(&format!("  \"waived\": {}\n", self.waived().count()));
        out.push_str("}\n");
        out
    }
}

/// Escape a string as a JSON literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;

    fn finding(rule: &'static str, path: &str, line: u32, waived: bool) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            message: format!("msg for {rule}"),
            waived: waived.then(|| "because".to_string()),
            warning: false,
        }
    }

    #[test]
    fn text_and_json_are_sorted_and_counted() {
        let r = Report::new(vec![
            finding("I001", "b.rs", 3, false),
            finding("D001", "a.rs", 1, false),
            finding("A002", "a.rs", 9, true),
        ]);
        let text = r.render_text(false);
        let first = text.lines().next().unwrap();
        assert!(first.starts_with("a.rs:1: error [D001]"), "{text}");
        assert!(text.contains("2 error(s), 0 warning(s), 1 waived"));
        let json = r.render_json();
        assert!(json.contains("\"errors\": 2"));
        assert!(json.contains("\"waived\": \"because\""));
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
    }
}
