//! ftrace-style phase breakdown tables aggregated from trace events.
//!
//! This reproduces the paper's Fig 2–4 methodology: sum the time spent in
//! each phase of the kernel-assisted copy path (syscall / permission check /
//! page lock / pin / copy) and present calls, totals, averages, and the
//! share of overall phase time — the table that makes the super-linear
//! growth of lock time under contention visible.

use crate::{Event, EventKind};

/// Canonical copy-path phase order (paper Fig 2); phases outside this list
/// render after these, in first-seen order.
const CANONICAL: [&str; 5] = ["syscall", "check", "lock", "pin", "copy"];

/// Aggregate statistics for one named phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Phase (span) name.
    pub name: &'static str,
    /// Number of spans observed.
    pub calls: u64,
    /// Summed duration in nanoseconds, accumulated in event order, so a
    /// deterministic simulation run sums to the same bits every time.
    pub total_ns: f64,
    /// Summed bytes attributed to the phase's spans.
    pub bytes: u64,
}

impl PhaseStat {
    /// Mean span duration in nanoseconds (0 for no calls).
    pub fn avg_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns / self.calls as f64
        }
    }
}

/// Phase-breakdown table built from span events.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    phases: Vec<PhaseStat>,
}

impl Breakdown {
    /// Aggregate all span events (instants and counters are ignored).
    pub fn from_events(events: &[Event]) -> Self {
        let mut b = Breakdown::default();
        for ev in events {
            if let EventKind::Span { dur, .. } = ev.kind {
                b.add(ev.name, dur, ev.bytes);
            }
        }
        b.sort();
        b
    }

    fn add(&mut self, name: &'static str, dur: f64, bytes: u64) {
        match self.phases.iter_mut().find(|p| p.name == name) {
            Some(p) => {
                p.calls += 1;
                p.total_ns += dur;
                p.bytes += bytes;
            }
            None => self.phases.push(PhaseStat {
                name,
                calls: 1,
                total_ns: dur,
                bytes,
            }),
        }
    }

    fn sort(&mut self) {
        // Canonical copy-path phases first, then everything else in
        // first-seen order (stable sort preserves it).
        self.phases.sort_by_key(|p| {
            CANONICAL
                .iter()
                .position(|&c| c == p.name)
                .unwrap_or(CANONICAL.len())
        });
    }

    /// All phases, canonical copy-path order first.
    pub fn phases(&self) -> &[PhaseStat] {
        &self.phases
    }

    /// Look up one phase by name.
    pub fn get(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Summed duration of all phases, in nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.phases.iter().map(|p| p.total_ns).sum()
    }

    /// Fraction of total phase time spent in `name` (0 if absent or the
    /// table is empty).
    pub fn share(&self, name: &str) -> f64 {
        let total = self.total_ns();
        if total <= 0.0 {
            return 0.0;
        }
        self.get(name).map_or(0.0, |p| p.total_ns / total)
    }

    /// Render the ftrace-style table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:>8} {:>16} {:>12} {:>12} {:>7}\n",
            "phase", "calls", "total(ns)", "avg(ns)", "bytes", "share"
        ));
        let total = self.total_ns();
        for p in &self.phases {
            let share = if total > 0.0 {
                100.0 * p.total_ns / total
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<10} {:>8} {:>16.1} {:>12.1} {:>12} {:>6.1}%\n",
                p.name,
                p.calls,
                p.total_ns,
                p.avg_ns(),
                p.bytes,
                share
            ));
        }
        out.push_str(&format!(
            "{:<10} {:>8} {:>16.1}\n",
            "total",
            self.phases.iter().map(|p| p.calls).sum::<u64>(),
            total
        ));
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{Event, EventKind, Track};

    fn span(name: &'static str, dur: f64, bytes: u64) -> Event {
        Event {
            track: Track::Rank(0),
            name,
            kind: EventKind::Span { ts: 0, dur },
            bytes,
            class: None,
        }
    }

    #[test]
    fn aggregates_and_orders_canonically() {
        let evs = vec![
            span("copy", 100.0, 4096),
            span("lock", 30.0, 0),
            span("syscall", 5.0, 0),
            span("lock", 40.0, 0),
            Event {
                track: Track::Rank(0),
                name: "ignored",
                kind: EventKind::Instant { ts: 7 },
                bytes: 0,
                class: None,
            },
        ];
        let b = Breakdown::from_events(&evs);
        let names: Vec<&str> = b.phases().iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["syscall", "lock", "copy"]);
        let lock = b.get("lock").unwrap();
        assert_eq!(lock.calls, 2);
        assert_eq!(lock.total_ns, 70.0);
        assert_eq!(lock.avg_ns(), 35.0);
        assert_eq!(b.total_ns(), 175.0);
        assert!((b.share("lock") - 0.4).abs() < 1e-12);
        let table = b.to_table();
        assert!(table.contains("lock"), "{table}");
        assert!(table.contains("total"), "{table}");
    }

    #[test]
    fn empty_breakdown_is_harmless() {
        let b = Breakdown::from_events(&[]);
        assert!(b.phases().is_empty());
        assert_eq!(b.total_ns(), 0.0);
        assert_eq!(b.share("lock"), 0.0);
        assert!(b.to_table().contains("phase"));
    }
}
