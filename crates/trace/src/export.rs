//! Trace exporters: Chrome trace-event JSON, hierarchical text summary
//! and the timestamp-free span structure used by determinism tests.

use crate::{Event, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Minimal JSON string escaping (the only JSON this crate emits; parsing
/// lives in `core::json` to keep this crate dependency-free).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Chrome's `ts` field is microseconds; keep sub-µs precision.
fn ts_us(ts_ns: u64, zero_ts: bool) -> String {
    if zero_ts {
        "0.000".to_string()
    } else {
        format!("{:.3}", ts_ns as f64 / 1000.0)
    }
}

/// Span category: the dotted prefix (`sim.tran.step` → `sim`).
fn category(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

impl Trace {
    /// Renders the trace in Chrome trace-event JSON (the object form with
    /// a `traceEvents` array), loadable in `chrome://tracing` and
    /// Perfetto. With `zero_ts` every timestamp is zeroed — event order
    /// and nesting stay intact — which is what golden tests pin.
    ///
    /// Spans left open at flush are closed at the final timestamp so the
    /// output always balances begin/end pairs.
    pub fn to_chrome_json(&self, zero_ts: bool) -> String {
        let mut lines: Vec<String> = Vec::new();
        lines.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"gabm\"}}"
                .to_string(),
        );
        for (tid, th) in self.threads.iter().enumerate() {
            lines.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(&th.name)
            ));
        }
        for (tid, th) in self.threads.iter().enumerate() {
            let mut open: Vec<&'static str> = Vec::new();
            for ev in &th.events {
                match ev {
                    Event::Begin {
                        name, ts_ns, arg, ..
                    } => {
                        open.push(name);
                        let args = match arg {
                            Some((k, v)) => {
                                format!(",\"args\":{{\"{k}\":\"{}\"}}", escape(v))
                            }
                            None => String::new(),
                        };
                        lines.push(format!(
                            "{{\"name\":\"{name}\",\"cat\":\"{}\",\"ph\":\"B\",\"pid\":1,\
                             \"tid\":{tid},\"ts\":{}{args}}}",
                            category(name),
                            ts_us(*ts_ns, zero_ts)
                        ));
                    }
                    Event::End { ts_ns } => {
                        if let Some(name) = open.pop() {
                            lines.push(format!(
                                "{{\"name\":\"{name}\",\"cat\":\"{}\",\"ph\":\"E\",\"pid\":1,\
                                 \"tid\":{tid},\"ts\":{}}}",
                                category(name),
                                ts_us(*ts_ns, zero_ts)
                            ));
                        }
                    }
                }
            }
            // Close anything still open so B/E pairs always balance.
            while let Some(name) = open.pop() {
                lines.push(format!(
                    "{{\"name\":\"{name}\",\"cat\":\"{}\",\"ph\":\"E\",\"pid\":1,\
                     \"tid\":{tid},\"ts\":{}}}",
                    category(name),
                    ts_us(self.end_ns, zero_ts)
                ));
            }
        }
        for (name, value) in &self.counters {
            lines.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{},\
                 \"args\":{{\"value\":{value}}}}}",
                escape(name),
                ts_us(self.end_ns, zero_ts)
            ));
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&lines.join(",\n"));
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Walks one thread's events, calling `visit(path, duration_ns)` for
    /// every span. Paths join span names with `/`; a detached span starts
    /// a fresh path. Open spans close at `end_ns`.
    fn walk(&self, visit: &mut impl FnMut(&str, u64)) {
        for th in &self.threads {
            let mut stack: Vec<(String, u64)> = Vec::new();
            for ev in &th.events {
                match ev {
                    Event::Begin {
                        name,
                        ts_ns,
                        detached,
                        ..
                    } => {
                        let path = match stack.last() {
                            Some((parent, _)) if !detached => format!("{parent}/{name}"),
                            _ => (*name).to_string(),
                        };
                        stack.push((path, *ts_ns));
                    }
                    Event::End { ts_ns } => {
                        if let Some((path, t0)) = stack.pop() {
                            visit(&path, ts_ns.saturating_sub(t0));
                        }
                    }
                }
            }
            while let Some((path, t0)) = stack.pop() {
                visit(&path, self.end_ns.saturating_sub(t0));
            }
        }
    }

    /// The timestamp-free span structure: every logical span path mapped
    /// to its call count, merged across threads. Two runs of the same
    /// deterministic workload produce identical structures at any thread
    /// count (pool jobs are detached roots).
    pub fn structure(&self) -> BTreeMap<String, usize> {
        let mut map = BTreeMap::new();
        self.walk(&mut |path, _| *map.entry(path.to_string()).or_insert(0) += 1);
        map
    }

    /// Total number of spans (begin events) across all threads.
    pub fn span_count(&self) -> usize {
        self.threads
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| matches!(e, Event::Begin { .. }))
            .count()
    }

    /// Total number of buffered events (begin + end) across all threads.
    pub fn event_count(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Plain-text hierarchical summary: call counts and cumulative wall
    /// time per span path, then counter totals.
    pub fn summary(&self) -> String {
        let mut agg: BTreeMap<String, (usize, u64)> = BTreeMap::new();
        self.walk(&mut |path, dur| {
            let e = agg.entry(path.to_string()).or_insert((0, 0));
            e.0 += 1;
            e.1 += dur;
        });
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace summary: {} thread(s), {} span(s), {:.3} ms",
            self.threads.len(),
            self.span_count(),
            self.end_ns as f64 / 1e6
        );
        if !agg.is_empty() {
            let _ = writeln!(out, "  {:<48} {:>8} {:>12}", "span", "calls", "total");
            for (path, (calls, total_ns)) in &agg {
                let depth = path.matches('/').count();
                let name = path.rsplit('/').next().unwrap_or(path);
                let label = format!("{}{}", "  ".repeat(depth), name);
                let _ = writeln!(
                    out,
                    "  {label:<48} {calls:>8} {:>9.3} ms",
                    *total_ns as f64 / 1e6
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<48} {v:>8}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::tests::lock;
    use crate::{add, enable, finish, span, span_root};

    #[test]
    fn chrome_json_balances_and_escapes() {
        let _g = lock();
        enable();
        {
            let _a = span("x.outer");
            let _b = crate::span_with("x.inner", "k", || "a\"b\\c".to_string());
        }
        add("x.count", 2);
        let t = finish();
        let json = t.to_chrome_json(true);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
        assert!(json.contains("\\\"b\\\\c"));
        assert!(json.contains("\"x.count\""));
        assert!(json.contains("\"ts\":0.000"));
        assert!(!t.to_chrome_json(false).contains("\"ts\":0.000}"));
    }

    #[test]
    fn open_spans_are_closed_at_flush() {
        let _g = lock();
        enable();
        let s = span("x.open");
        let t = finish();
        drop(s);
        let json = t.to_chrome_json(true);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 1);
        assert_eq!(t.structure().get("x.open"), Some(&1));
    }

    #[test]
    fn structure_restarts_at_detached_roots() {
        let _g = lock();
        enable();
        {
            let _outer = span("x.caller");
            let _job = span_root("x.job");
            let _work = span("x.work");
        }
        let t = finish();
        let s = t.structure();
        assert_eq!(s.get("x.caller"), Some(&1));
        assert_eq!(s.get("x.job"), Some(&1));
        assert_eq!(s.get("x.job/x.work"), Some(&1));
        assert!(!s.keys().any(|k| k.starts_with("x.caller/")));
    }

    #[test]
    fn summary_lists_spans_and_counters() {
        let _g = lock();
        enable();
        {
            let _a = span("y.phase");
            add("y.items", 3);
        }
        let t = finish();
        let s = t.summary();
        assert!(s.starts_with("trace summary:"), "{s}");
        assert!(s.contains("y.phase"));
        assert!(s.contains("y.items"));
        assert!(s.contains("counters:"));
    }
}
