//! The CI bench-trend gate.
//!
//! The in-tree criterion shim appends one JSON object per metric to the
//! file named by `RECLUSTER_BENCH_JSON` (`{"id":…,"unit":…,"value":…}`).
//! This binary turns those raw lines into the committed/uploaded
//! `BENCH_*.json` artifacts and compares two of them:
//!
//! * `bench-trend finalize <raw.jsonl> <out.json>` — fold the sink lines
//!   into a JSON array (last value wins per id, ids sorted).
//! * `bench-trend compare <baseline.json> <current.json>
//!   [--time-factor T]` — fail (exit 1) if any metric moved past its
//!   gate. The baseline's unit picks the gate:
//!   - `seconds` and `mb` metrics fail only when they grow by more than
//!     `T`× (default 2.0). Wall clock and peak RSS both vary with the
//!     runner (machine speed, allocator, libc), so CI widens them to
//!     4× — wide enough to absorb runner-vs-baseline variance, tight
//!     enough that a leaked per-peer allocation at the million-peer
//!     scale still trips the one-sided gate.
//!   - Every other unit (cost, msgs, moves, proposals, queries, rate,
//!     rounds) is deterministic in the seed and must equal the baseline
//!     **exactly**. A move in either direction fails until the baseline
//!     is refreshed with a stated reason, so a higher-is-better count
//!     falling and a lower-is-better one rising are both caught.
//!
//!   A metric tracked by the baseline but **absent** from the current
//!   run also fails: a bench that crashes or is renamed must not
//!   silently disable its own gate.
//!
//! Both file formats are emitted by this repo itself, so parsing is a
//! deliberately small line-based scan, not a general JSON parser.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// One tracked metric.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    unit: String,
    value: f64,
}

/// Extracts the string after `key` up to the next unescaped quote. Our
/// ids/units never contain escapes, which `debug_assert` guards.
fn field_str(line: &str, key: &str) -> Option<String> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    let s = &rest[..end];
    debug_assert!(!s.contains('\\'), "unexpected escape in {s:?}");
    Some(s.to_string())
}

fn field_num(line: &str, key: &str) -> Option<f64> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses a sink file or a finalized array: any line containing an
/// `"id"` object contributes one metric; later lines win.
fn parse_metrics(text: &str) -> BTreeMap<String, Metric> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let Some(id) = field_str(line, "\"id\":\"") else {
            continue;
        };
        let Some(unit) = field_str(line, "\"unit\":\"") else {
            continue;
        };
        let Some(value) = field_num(line, "\"value\":") else {
            continue;
        };
        out.insert(id, Metric { unit, value });
    }
    out
}

fn finalize(raw_path: &str, out_path: &str) -> Result<(), String> {
    let text =
        std::fs::read_to_string(raw_path).map_err(|e| format!("cannot read {raw_path}: {e}"))?;
    let metrics = parse_metrics(&text);
    if metrics.is_empty() {
        return Err(format!("{raw_path} contains no metrics"));
    }
    let mut out = String::from("[\n");
    for (i, (id, m)) in metrics.iter().enumerate() {
        let comma = if i + 1 == metrics.len() { "" } else { "," };
        out.push_str(&format!(
            "  {{\"id\":{id:?},\"unit\":{:?},\"value\":{:e}}}{comma}\n",
            m.unit, m.value
        ));
    }
    out.push_str("]\n");
    std::fs::write(out_path, out).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!("wrote {} metrics to {out_path}", metrics.len());
    Ok(())
}

/// The gate of one metric, chosen by its baseline unit.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Gate {
    /// One-sided: fail only when `current / baseline` exceeds the limit.
    Band(f64),
    /// Fail on any difference from the baseline.
    Exact,
}

/// Wall clock and peak RSS ride the one-sided band; every other unit
/// is deterministic in the seed and compares exactly.
fn gate_for(unit: &str, time_factor: f64) -> Gate {
    if unit == "seconds" || unit == "mb" {
        Gate::Band(time_factor)
    } else {
        Gate::Exact
    }
}

/// The comparison result of one tracked metric.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    Ok,
    /// A banded metric grew past its limit.
    Regressed,
    /// An exact metric differs from the baseline.
    Changed,
}

/// `current / baseline`, with `0 / 0 = 1` and `x / 0 = ∞` for `x ≠ 0`.
fn ratio(base: f64, cur: f64) -> f64 {
    if base == 0.0 {
        if cur == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        cur / base
    }
}

fn verdict(base: &Metric, cur: &Metric, time_factor: f64) -> Verdict {
    match gate_for(&base.unit, time_factor) {
        Gate::Band(limit) if ratio(base.value, cur.value) > limit => Verdict::Regressed,
        Gate::Exact if cur.value != base.value => Verdict::Changed,
        _ => Verdict::Ok,
    }
}

/// Compares every baseline metric against the current run, prints one
/// row each, and returns whether all passed.
fn compare_metrics(
    baseline: &BTreeMap<String, Metric>,
    current: &BTreeMap<String, Metric>,
    time_factor: f64,
) -> bool {
    let mut ok = true;
    println!(
        "{:<55} {:>12} {:>12} {:>8}  verdict",
        "metric", "baseline", "current", "ratio"
    );
    for (id, base) in baseline {
        let Some(cur) = current.get(id) else {
            // A tracked metric that stopped reporting is a failure: a
            // renamed or crashing bench must not ungate itself.
            ok = false;
            println!(
                "{id:<55} {:>12.4e} {:>12} {:>8}  MISSING",
                base.value, "-", "-"
            );
            continue;
        };
        let v = verdict(base, cur, time_factor);
        ok &= v == Verdict::Ok;
        let label = match v {
            Verdict::Ok => "ok".to_string(),
            Verdict::Regressed => "REGRESSED".to_string(),
            // Print full precision: an exact mismatch can hide below
            // the table's four digits.
            Verdict::Changed => format!("CHANGED {:e} -> {:e}", base.value, cur.value),
        };
        println!(
            "{id:<55} {:>12.4e} {:>12.4e} {:>8.2}  {label}",
            base.value,
            cur.value,
            ratio(base.value, cur.value)
        );
    }
    for id in current.keys() {
        if !baseline.contains_key(id) {
            println!(
                "{id:<55} {:>12} — new metric, add to the baseline on the next refresh",
                "-"
            );
        }
    }
    ok
}

fn compare(baseline_path: &str, current_path: &str, time_factor: f64) -> Result<bool, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map(|text| parse_metrics(&text))
            .map_err(|e| format!("cannot read {path}: {e}"))
    };
    let baseline = read(baseline_path)?;
    let current = read(current_path)?;
    if baseline.is_empty() || current.is_empty() {
        return Err("empty metric set".into());
    }
    Ok(compare_metrics(&baseline, &current, time_factor))
}

fn usage() -> String {
    "usage: bench-trend finalize <raw.jsonl> <out.json>\n       \
     bench-trend compare <baseline.json> <current.json> [--time-factor T]"
        .into()
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("finalize") if args.len() == 3 => {
            finalize(&args[1], &args[2])?;
            Ok(true)
        }
        Some("compare") if args.len() >= 3 => {
            let mut time_factor = 2.0;
            let mut rest = args[3..].iter();
            while let Some(flag) = rest.next() {
                let value = rest
                    .next()
                    .and_then(|s| s.parse::<f64>().ok())
                    .ok_or_else(usage)?;
                match flag.as_str() {
                    "--time-factor" => time_factor = value,
                    _ => return Err(usage()),
                }
            }
            let ok = compare(&args[1], &args[2], time_factor)?;
            if ok {
                println!(
                    "bench-trend: every deterministic metric equals the baseline; \
                     no timing grew beyond {time_factor}x"
                );
            } else {
                println!("bench-trend: REGRESSION — see rows above");
            }
            Ok(ok)
        }
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIME_FACTOR: f64 = 4.0;

    fn metric(unit: &str, value: f64) -> Metric {
        Metric {
            unit: unit.to_string(),
            value,
        }
    }

    /// The one-sided rule this gate replaced: fail only when
    /// `current / baseline` exceeds 2× for every unit but `seconds` and
    /// `mb`, which got the time factor.
    fn old_rule_passes(base: &Metric, cur: &Metric) -> bool {
        let limit = if cur.unit == "seconds" || cur.unit == "mb" {
            TIME_FACTOR
        } else {
            2.0
        };
        ratio(base.value, cur.value) <= limit
    }

    /// A known hole of the old rule: it passes, the new gate fails.
    fn assert_hole_closed(unit: &str, base: f64, cur: f64) {
        let (base, cur) = (metric(unit, base), metric(unit, cur));
        assert!(old_rule_passes(&base, &cur), "old rule should pass");
        assert_eq!(verdict(&base, &cur, TIME_FACTOR), Verdict::Changed);
    }

    #[test]
    fn memo_hits_falling_to_zero_fail() {
        // round/*/proposals_memoized: higher is better.
        assert_hole_closed("proposals", 1993.0, 0.0);
    }

    #[test]
    fn doubled_repair_scost_fails() {
        // churn/*/avg_scost_after_repair.
        assert_hole_closed("cost", 0.1009, 0.2018);
    }

    #[test]
    fn halved_query_total_fails() {
        // traffic/traffic_1m/total_queries.
        assert_hole_closed("queries", 1_000_000.0, 500_000.0);
    }

    #[test]
    fn units_route_to_their_gates() {
        assert_eq!(gate_for("seconds", TIME_FACTOR), Gate::Band(TIME_FACTOR));
        assert_eq!(gate_for("mb", TIME_FACTOR), Gate::Band(TIME_FACTOR));
        for unit in [
            "cost",
            "msgs",
            "moves",
            "proposals",
            "queries",
            "rate",
            "rounds",
        ] {
            assert_eq!(gate_for(unit, TIME_FACTOR), Gate::Exact, "{unit}");
        }
        // Banded cells are one-sided: faster passes, within the band
        // passes, past it fails.
        let base = metric("seconds", 1.0);
        for (cur, want) in [
            (0.1, Verdict::Ok),
            (3.9, Verdict::Ok),
            (4.1, Verdict::Regressed),
        ] {
            assert_eq!(verdict(&base, &metric("seconds", cur), TIME_FACTOR), want);
        }
        // Exact cells fail in either direction, by any amount.
        let base = metric("msgs", 100.0);
        assert_eq!(
            verdict(&base, &metric("msgs", 100.0), TIME_FACTOR),
            Verdict::Ok
        );
        for cur in [99.0, 101.0, 100.000_000_1] {
            assert_eq!(
                verdict(&base, &metric("msgs", cur), TIME_FACTOR),
                Verdict::Changed
            );
        }
    }

    #[test]
    fn zero_baseline() {
        let zero_time = metric("seconds", 0.0);
        assert_eq!(
            verdict(&zero_time, &metric("seconds", 0.0), TIME_FACTOR),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&zero_time, &metric("seconds", 1e-9), TIME_FACTOR),
            Verdict::Regressed,
            "growth from zero is an infinite ratio"
        );
        let zero_count = metric("proposals", 0.0);
        assert_eq!(
            verdict(&zero_count, &metric("proposals", 0.0), TIME_FACTOR),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&zero_count, &metric("proposals", 1.0), TIME_FACTOR),
            Verdict::Changed
        );
    }

    #[test]
    fn missing_metric_fails() {
        let baseline: BTreeMap<String, Metric> = [
            ("a/x/msgs".to_string(), metric("msgs", 5.0)),
            ("a/x/time".to_string(), metric("seconds", 1.0)),
        ]
        .into();
        let mut current = baseline.clone();
        assert!(compare_metrics(&baseline, &current, TIME_FACTOR));
        current.remove("a/x/time");
        assert!(!compare_metrics(&baseline, &current, TIME_FACTOR));
        // A metric only the current run reports does not gate.
        let mut extra = baseline.clone();
        extra.insert("a/x/new".to_string(), metric("msgs", 1.0));
        assert!(compare_metrics(&baseline, &extra, TIME_FACTOR));
    }

    #[test]
    fn parsed_values_compare_exactly() {
        // A finalized file round-trips every f64 bit, so an exact gate
        // on parsed values cannot fail on formatting alone.
        let value = 0.100_952_808_123_456_78_f64;
        let line = format!("  {{\"id\":\"c/x/scost\",\"unit\":\"cost\",\"value\":{value:e}}},");
        let parsed = parse_metrics(&line);
        assert_eq!(parsed["c/x/scost"], metric("cost", value));
    }
}
