//! `compare A.json B.json`: set a change (B) against its parent (A), one
//! row per (workload, end-to-end metric), by the bounds of the catalogue.

use crate::metrics::{end_to_end, Better};
use crate::stats::iqr_share;
use simtrace::json::Value;
use std::collections::BTreeMap;

/// Verdict on one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Every run of B reads better than every run of A.
    Improved,
    /// Within the bound, but A's own inter-quartile spread exceeds the
    /// bound, so "no change" cannot be told from noise.
    Unresolved,
    /// Within the bound, and A is steady enough to say so.
    Unchanged,
}

/// Judge one metric from the runs of parent `a` and change `b`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (crate::stats::median(a), crate::stats::median(b));
    let worse_by = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    } / ma.abs().max(f64::MIN_POSITIVE);
    let all_better = a.iter().all(|x| {
        b.iter().all(|y| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    if worse_by > bound {
        Verdict::Regressed
    } else if all_better {
        Verdict::Improved
    } else if iqr_share(a) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// One workload's object in a result document.
fn workload<'a>(doc: &'a Value, name: &str) -> Option<&'a BTreeMap<String, Value>> {
    doc.as_object()?
        .get("workloads")?
        .as_object()?
        .get(name)?
        .as_object()
}

fn runs(doc: &Value, name: &str, metric: &str) -> Option<Vec<f64>> {
    let e2e = workload(doc, name)?.get("end_to_end")?.as_object()?;
    let values = e2e.get(metric)?.as_object()?.get("values")?.as_array()?;
    values.iter().map(Value::as_f64).collect()
}

fn per_layer(doc: &Value, name: &str, metric: &str) -> Option<f64> {
    let layers = workload(doc, name)?.get("per_layer")?.as_object()?;
    layers.get(metric)?.as_f64()
}

fn failed_share(doc: &Value, name: &str) -> Option<f64> {
    let w = workload(doc, name)?;
    Some(w.get("ops_failed")?.as_f64()? / w.get("ops_attempted")?.as_f64()?.max(1.0))
}

/// Compare two result documents (the text of two `latest.json` files).
/// Prints the table; `Ok(true)` when nothing regressed and no workload's
/// failed share rose.
pub fn compare(a_text: &str, b_text: &str) -> Result<bool, String> {
    let parse = |t: &str| {
        simtrace::json::parse(t)
            .map_err(|e| format!("bad result file: {} at byte {}", e.message, e.at))
    };
    let (a, b) = (parse(a_text)?, parse(b_text)?);
    let workloads: Vec<String> = a
        .as_object()
        .and_then(|o| o.get("workloads"))
        .and_then(Value::as_object)
        .ok_or("result file has no workloads")?
        .keys()
        .cloned()
        .collect();
    let mut ok = true;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "parent", "change", "worse_by", "bound"
    );
    for workload in &workloads {
        for m in end_to_end() {
            let (Some(ra), Some(rb)) = (runs(&a, workload, &m.name), runs(&b, workload, &m.name))
            else {
                return Err(format!(
                    "{workload}/{} is missing from one of the files",
                    m.name
                ));
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let verdict = judge(&ra, &rb, m.better, bound);
            let (ma, mb) = (crate::stats::median(&ra), crate::stats::median(&rb));
            let signed = if m.better == Better::Lower {
                mb - ma
            } else {
                ma - mb
            };
            println!(
                "{workload:<16} {:<18} {ma:>14.6} {mb:>14.6} {:>8.2}% {:>6.0}%  {}",
                m.name,
                100.0 * signed / ma.abs().max(f64::MIN_POSITIVE),
                100.0 * bound,
                format!("{verdict:?}").to_lowercase()
            );
            ok &= verdict != Verdict::Regressed;
        }
        // Counts repeat exactly for one seed, so on one commit they must
        // be equal, and between commits a difference is a fact to explain
        // (reported, not judged: a change may mean to move them).
        let mut equal = 0;
        for m in crate::metrics::per_layer()
            .iter()
            .filter(|m| m.deterministic)
        {
            match (
                per_layer(&a, workload, &m.name),
                per_layer(&b, workload, &m.name),
            ) {
                (Some(ca), Some(cb)) if ca.to_bits() != cb.to_bits() => {
                    println!("{workload:<16} {:<30} {ca:>14} {cb:>14}  differs", m.name);
                }
                _ => equal += 1,
            }
        }
        println!("{workload:<16} {equal} deterministic per-layer counts are equal");
        let (fa, fb) = (failed_share(&a, workload), failed_share(&b, workload));
        match (fa, fb) {
            (Some(fa), Some(fb)) => {
                println!(
                    "{workload:<16} {:<18} {fa:>14.6} {fb:>14.6}",
                    "failed_share"
                );
                if fb > fa {
                    println!("{workload}: failed share rose");
                    ok = false;
                }
            }
            _ => return Err(format!("{workload} has no op counts in one of the files")),
        }
    }
    Ok(ok)
}
