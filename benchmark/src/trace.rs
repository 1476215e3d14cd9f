//! In-memory span recorder for the traced run, written out as Chrome
//! trace-event JSON when the run ends. Spans are recorded from the
//! benchmark's side of each call into the crates: run → pass → point
//! (→ call, for `native_cma`). A layer's self time is its span minus the
//! part its children cover.

use std::fmt::Write;
use std::time::Instant;

pub struct Span {
    pub name: String,
    /// Track: 0 is the generator thread; `native_cma` calls use 1.
    pub tid: u64,
    pub ts_ns: u64,
    pub dur_ns: u64,
    pub id: u64,
    /// Id of the span that caused this one (0: none).
    pub parent: u64,
    pub args: Vec<(&'static str, f64)>,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    /// The instant all span times count from; forked ranks that record
    /// their own intervals share it.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Ids start at 1 and are handed out before the span ends, so
    /// children can name their parent.
    pub fn next_id(&self) -> u64 {
        self.spans.len() as u64 + 1
    }

    /// Reserve a span that is still open; close it with [`Self::end`].
    pub fn begin(&mut self, name: String, tid: u64, parent: u64) -> u64 {
        let id = self.next_id();
        let ts_ns = self.now_ns();
        self.spans.push(Span {
            name,
            tid,
            ts_ns,
            dur_ns: 0,
            id,
            parent,
            args: Vec::new(),
        });
        id
    }

    pub fn end(&mut self, id: u64, args: Vec<(&'static str, f64)>) {
        let now = self.now_ns();
        let s = &mut self.spans[id as usize - 1];
        s.dur_ns = now - s.ts_ns;
        s.args = args;
    }

    /// A span whose interval was measured elsewhere (a forked rank).
    pub fn push_closed(
        &mut self,
        name: String,
        tid: u64,
        parent: u64,
        ts_ns: u64,
        dur_ns: u64,
        args: Vec<(&'static str, f64)>,
    ) {
        let id = self.next_id();
        self.spans.push(Span {
            name,
            tid,
            ts_ns,
            dur_ns,
            id,
            parent,
            args,
        });
    }

    /// Chrome trace-event JSON (array format): per track, spans in start
    /// order with the longer (enclosing) span first on a tie.
    pub fn to_chrome_json(&self) -> String {
        let mut order: Vec<&Span> = self.spans.iter().collect();
        order.sort_by(|a, b| {
            (a.tid, a.ts_ns, std::cmp::Reverse(a.dur_ns), a.id).cmp(&(
                b.tid,
                b.ts_ns,
                std::cmp::Reverse(b.dur_ns),
                b.id,
            ))
        });
        let mut out = String::from("[\n");
        out.push_str(
            r#"{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"kacc-benchmark"}}"#,
        );
        for (tid, name) in [(0, "generator"), (1, "native rank 0")] {
            if order.iter().any(|s| s.tid == tid) {
                let _ = write!(
                    out,
                    ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}"
                );
            }
        }
        for s in order {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}",
                escape(&s.name),
                s.ts_ns as f64 / 1000.0,
                s.dur_ns as f64 / 1000.0,
                s.tid,
                s.id,
                s.parent
            );
            for (k, v) in &s.args {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]\n");
        out
    }
}

/// JSON string escaping for the names we generate (ASCII labels).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::validate_chrome_json;

    #[test]
    fn nested_spans_make_a_valid_trace() {
        let mut r = Recorder::new(Instant::now());
        let run = r.begin("run".into(), 0, 0);
        let pass = r.begin("pass 0".into(), 0, run);
        let point = r.begin("allgather/\"Bruck\"/KNL/64/1024".into(), 0, pass);
        r.end(point, vec![("events", 12.0), ("virtual_ns", 3.5)]);
        r.push_closed("call".into(), 1, pass, 5, 7, vec![]);
        r.end(pass, vec![]);
        r.end(run, vec![]);
        let json = r.to_chrome_json();
        let summary = validate_chrome_json(&json).expect("valid chrome trace");
        assert_eq!(summary.spans, 4);
        assert_eq!(summary.tracks, 2);
        assert!(json.contains(&format!("\"id\":{point},\"parent\":{pass},\"events\":12")));
    }
}
