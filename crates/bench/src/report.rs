//! Result-table formatting shared by the figure binaries.

use crate::args::CommonArgs;
use simcore::{MetricsSnapshot, TraceSession};

/// One row of a figure's result table.
#[derive(Clone, Debug)]
pub struct Row {
    /// Configuration label.
    pub label: String,
    /// Measured value (seconds for execution times, µs for latencies).
    pub value: f64,
    /// Extra annotation (paging counters etc.).
    pub note: String,
}

impl Row {
    /// Build a row.
    pub fn new(label: impl Into<String>, value: f64, note: impl Into<String>) -> Row {
        Row {
            label: label.into(),
            value,
            note: note.into(),
        }
    }
}

/// `b / a`, guarding division by zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        f64::NAN
    } else {
        b / a
    }
}

/// Print a titled result table with a ratio column against the first row.
pub fn print_rows(title: &str, unit: &str, rows: &[Row]) {
    println!("\n{title}");
    println!("{}", "-".repeat(title.len().min(78)));
    let base = rows.first().map(|r| r.value).unwrap_or(0.0);
    println!("{:<14} {:>12} {:>10}  notes", "config", unit, "vs first");
    for r in rows {
        println!(
            "{:<14} {:>12.3} {:>9.2}x  {}",
            r.label,
            r.value,
            ratio(base, r.value),
            r.note
        );
    }
}

/// Print the paper's reported relationship for side-by-side comparison.
pub fn print_paper_note(lines: &[&str]) {
    println!("paper reports:");
    for l in lines {
        println!("  {l}");
    }
}

/// HPBD client counters for a row note — empty for non-HPBD rows.
pub fn hpbd_note(report: &workloads::RunReport) -> String {
    match &report.hpbd_client {
        Some(c) => format!(
            " stalls={} splits={} failovers={} msgs/page={:.2}",
            c.flow_stalls,
            c.split_requests,
            c.failovers,
            c.messages_per_page()
        ),
        None => String::new(),
    }
}

/// Print per-configuration metrics summaries (the `--metrics` flag).
pub fn print_metrics<'a>(runs: impl IntoIterator<Item = (&'a str, &'a MetricsSnapshot)>) {
    for (label, snapshot) in runs {
        println!("\nmetrics [{label}]");
        print!("{}", snapshot.render_text());
    }
}

/// Write the session's Chrome trace if `--trace` was given.
pub fn write_trace(args: &CommonArgs, session: &TraceSession) {
    if let Some(path) = &args.trace {
        match session.write_chrome(path) {
            Ok(()) => println!(
                "\ntrace: {} events written to {} (chrome://tracing or https://ui.perfetto.dev)",
                session.total_events(),
                path.display()
            ),
            Err(e) => {
                eprintln!("failed to write trace {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_guards_zero() {
        assert!(ratio(0.0, 5.0).is_nan());
        assert_eq!(ratio(2.0, 5.0), 2.5);
    }
}
