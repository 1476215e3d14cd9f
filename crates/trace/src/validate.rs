//! Chrome-trace JSON schema validation (the CI `trace-validate` gate).
//!
//! The document is read by the workspace's one JSON parser
//! ([`crate::minijson`]); this module checks the properties a
//! Perfetto-loadable trace must have:
//! a top-level array of objects, each with a known `ph` phase, numeric
//! non-negative `ts`, integer `pid`/`tid`, `dur >= 0` on complete events,
//! and per-(pid,tid)-track monotone non-decreasing timestamps.

use std::collections::HashMap;

use crate::minijson::Json;

/// What a successful validation found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total trace events (including metadata).
    pub events: usize,
    /// Distinct (pid, tid) tracks carrying non-metadata events.
    pub tracks: usize,
    /// Complete (`"X"`) span events.
    pub spans: usize,
    /// Counter (`"C"`) samples.
    pub counters: usize,
}

fn int_field(obj: &Json, key: &str, idx: usize) -> Result<i64, String> {
    let n = obj
        .get(key)
        .ok_or_else(|| format!("event {idx}: missing \"{key}\""))?
        .as_f64()
        .ok_or_else(|| format!("event {idx}: \"{key}\" is not a number"))?;
    if n.fract() != 0.0 || n < 0.0 {
        return Err(format!(
            "event {idx}: \"{key}\" must be a non-negative integer, got {n}"
        ));
    }
    Ok(n as i64)
}

/// Validate a Chrome trace-event JSON document.
///
/// Checks: top-level array of objects; every event has a `ph` in
/// `{"M","X","i","C"}`; non-metadata events have numeric `ts >= 0` and
/// integer `pid`/`tid`; `"X"` events have `dur >= 0`; and per-(pid,tid)
/// timestamps are monotone non-decreasing.
pub fn validate_chrome_json(json: &str) -> Result<TraceSummary, String> {
    let root = Json::parse(json)?;
    let events = match root {
        Json::Arr(items) => items,
        _ => return Err("top level must be a JSON array of trace events".into()),
    };

    let mut last_ts: HashMap<(i64, i64), f64> = HashMap::new();
    let mut summary = TraceSummary {
        events: events.len(),
        tracks: 0,
        spans: 0,
        counters: 0,
    };

    for (idx, ev) in events.iter().enumerate() {
        if !matches!(ev, Json::Obj(_)) {
            return Err(format!("event {idx}: not a JSON object"));
        }
        let ph = ev
            .get("ph")
            .ok_or_else(|| format!("event {idx}: missing \"ph\""))?
            .as_str()
            .ok_or_else(|| format!("event {idx}: \"ph\" is not a string"))?;
        match ph {
            "M" => continue, // metadata carries no timestamp
            "X" | "i" | "C" => {}
            other => return Err(format!("event {idx}: unknown phase \"{other}\"")),
        }
        let pid = int_field(ev, "pid", idx)?;
        let tid = int_field(ev, "tid", idx)?;
        let ts = ev
            .get("ts")
            .ok_or_else(|| format!("event {idx}: missing \"ts\""))?
            .as_f64()
            .ok_or_else(|| format!("event {idx}: \"ts\" is not a number"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!(
                "event {idx}: \"ts\" must be finite and >= 0, got {ts}"
            ));
        }
        if ph == "X" {
            summary.spans += 1;
            let dur = ev
                .get("dur")
                .ok_or_else(|| format!("event {idx}: \"X\" event missing \"dur\""))?
                .as_f64()
                .ok_or_else(|| format!("event {idx}: \"dur\" is not a number"))?;
            if !dur.is_finite() || dur < 0.0 {
                return Err(format!(
                    "event {idx}: \"dur\" must be finite and >= 0, got {dur}"
                ));
            }
        }
        if ph == "C" {
            summary.counters += 1;
        }
        let key = (pid, tid);
        if let Some(&prev) = last_ts.get(&key) {
            if ts < prev {
                return Err(format!(
                    "event {idx}: non-monotone ts on track (pid={pid}, tid={tid}): {ts} < {prev}"
                ));
            }
        }
        last_ts.insert(key, ts);
    }
    summary.tracks = last_ts.len();
    Ok(summary)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_minimal_valid_trace() {
        let j = r#"[
            {"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"rank 0"}},
            {"name":"lock","ph":"X","ts":0.5,"dur":1.25,"pid":0,"tid":0},
            {"name":"go","ph":"i","ts":2,"pid":0,"tid":0,"s":"t"},
            {"name":"depth","ph":"C","ts":3,"pid":1,"tid":0,"args":{"depth":2}}
        ]"#;
        let s = validate_chrome_json(j).unwrap();
        assert_eq!(s.events, 4);
        assert_eq!(s.tracks, 2);
        assert_eq!(s.spans, 1);
        assert_eq!(s.counters, 1);
    }

    #[test]
    fn accepts_empty_array() {
        let s = validate_chrome_json("[]").unwrap();
        assert_eq!(s.events, 0);
        assert_eq!(s.tracks, 0);
    }

    #[test]
    fn rejects_unknown_phase() {
        let j = r#"[{"name":"x","ph":"Z","ts":1,"pid":0,"tid":0}]"#;
        assert!(validate_chrome_json(j)
            .unwrap_err()
            .contains("unknown phase"));
    }

    #[test]
    fn rejects_missing_ts_and_negative_dur() {
        let no_ts = r#"[{"name":"x","ph":"i","pid":0,"tid":0}]"#;
        assert!(validate_chrome_json(no_ts)
            .unwrap_err()
            .contains("missing \"ts\""));
        let neg = r#"[{"name":"x","ph":"X","ts":1,"dur":-2,"pid":0,"tid":0}]"#;
        assert!(validate_chrome_json(neg).unwrap_err().contains("dur"));
    }

    #[test]
    fn rejects_non_monotone_track() {
        let j = r#"[
            {"name":"a","ph":"i","ts":5,"pid":0,"tid":0,"s":"t"},
            {"name":"b","ph":"i","ts":3,"pid":0,"tid":0,"s":"t"}
        ]"#;
        assert!(validate_chrome_json(j)
            .unwrap_err()
            .contains("non-monotone"));
    }

    #[test]
    fn different_tracks_are_independent() {
        let j = r#"[
            {"name":"a","ph":"i","ts":5,"pid":0,"tid":0,"s":"t"},
            {"name":"b","ph":"i","ts":3,"pid":0,"tid":1,"s":"t"}
        ]"#;
        validate_chrome_json(j).unwrap();
    }

    #[test]
    fn rejects_fractional_pid_and_garbage() {
        let j = r#"[{"name":"a","ph":"i","ts":1,"pid":0.5,"tid":0}]"#;
        assert!(validate_chrome_json(j).unwrap_err().contains("pid"));
        assert!(validate_chrome_json("not json").is_err());
        assert!(validate_chrome_json("{\"a\":1}")
            .unwrap_err()
            .contains("array"));
    }
}
