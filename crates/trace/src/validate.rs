//! Chrome-trace JSON schema validation (the CI `trace-validate` gate).
//!
//! The workspace builds offline with no JSON library, so this module carries
//! a minimal hand-rolled JSON parser — just enough for the trace-event array
//! format — and checks the properties a Perfetto-loadable trace must have:
//! a top-level array of objects, each with a known `ph` phase, numeric
//! non-negative `ts`, integer `pid`/`tid`, `dur >= 0` on complete events,
//! and per-(pid,tid)-track monotone non-decreasing timestamps.

use std::collections::HashMap;

/// Minimal JSON value for validation purposes.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            b: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.b.len() && self.b[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.b.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        match self.peek() {
            Some(got) if got == c => {
                self.pos += 1;
                Ok(())
            }
            Some(got) => Err(self.err(&format!(
                "expected '{}', found '{}'",
                c as char, got as char
            ))),
            None => Err(self.err(&format!("expected '{}', found end of input", c as char))),
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected literal '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.b.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .b
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.b[start..self.pos]).map_err(|_| self.err("bad utf8"))?;
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(&format!("bad number '{s}'")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.pos).copied() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.b.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x80 => {
                    out.push(c as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the whole scalar.
                    let rest = std::str::from_utf8(&self.b[self.pos..])
                        .map_err(|_| self.err("bad utf8"))?;
                    let ch = rest.chars().next().ok_or_else(|| self.err("bad utf8"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn parse(mut self) -> Result<Value, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.b.len() {
            return Err(self.err("trailing data after JSON value"));
        }
        Ok(v)
    }
}

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

fn int_field(obj: &Value, key: &str, idx: usize) -> Result<i64, String> {
    let n = obj
        .get(key)
        .ok_or_else(|| format!("event {idx}: missing \"{key}\""))?
        .as_num()
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
    let root = Parser::new(json).parse()?;
    let events = match root {
        Value::Arr(items) => items,
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
        if !matches!(ev, Value::Obj(_)) {
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
            .as_num()
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
                .as_num()
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
