//! The harness-owned span recorder.
//!
//! Spans are recorded around calls *into* the engine, from this side of
//! its public API; spans inside the engine are a later change. They are
//! kept in memory and written once, when the run ends, as Chrome
//! trace-event JSON (loads in Perfetto) plus a per-name summary with
//! self time = a span's duration minus the part its children cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub dur_us: f64,
    pub parent: Option<usize>,
    /// Chrome "thread" lane: 0 is the harness, `1 + client` a client.
    pub lane: usize,
    pub args: Vec<(String, Json)>,
}

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// Open spans of the harness thread, innermost last.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Run `f` and return its result with the seconds it took; when
    /// tracing is on, also record it as a span nested under the
    /// innermost open span.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start = Instant::now();
        if !self.enabled {
            let out = f(self);
            return (out, start.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: 0.0,
            parent: self.open.last().copied(),
            lane: 0,
            args: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        let secs = start.elapsed().as_secs_f64();
        self.open.pop();
        self.spans[id].dur_us = secs * 1e6;
        (out, secs)
    }

    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.timed(name, f).0
    }

    /// Record a span that was timed elsewhere (a client thread's query),
    /// as a child of the innermost open span.
    pub fn record(
        &mut self,
        name: String,
        start: Instant,
        dur_s: f64,
        lane: usize,
        args: Vec<(String, Json)>,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: dur_s * 1e6,
            parent: self.open.last().copied(),
            lane,
            args,
        });
    }

    /// Attach an argument to the innermost open span.
    pub fn arg(&mut self, key: &str, value: Json) {
        if let Some(&id) = self.open.last() {
            self.spans[id].args.push((key.to_string(), value));
        }
    }

    /// Chrome trace-event JSON: one complete ("X") event per span.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![("span_id".to_string(), Json::Int(id as u64))];
                if let Some(p) = s.parent {
                    args.push(("parent_id".to_string(), Json::Int(p as u64)));
                }
                args.extend(s.args.iter().cloned());
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(s.dur_us)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(s.lane as u64)),
                    ("args", Json::Obj(args)),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }

    /// Per span name: count, total seconds and self seconds. Query spans
    /// (`query#i`) fold into one `query` row.
    pub fn layers(&self) -> Json {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us;
            }
        }
        let mut by_name: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            let name = s.name.split('#').next().unwrap_or(&s.name);
            let row = by_name.entry(name).or_default();
            row.0 += 1;
            row.1 += s.dur_us;
            // Children of a span that ran on two client lanes can cover
            // more than the span's own duration; self time stops at 0.
            row.2 += (s.dur_us - child_us[id]).max(0.0);
        }
        Json::Arr(
            by_name
                .into_iter()
                .map(|(name, (count, total_us, self_us))| {
                    Json::obj([
                        ("span", Json::str(name)),
                        ("count", Json::Int(count)),
                        ("total_s", Json::Num(total_us / 1e6)),
                        ("self_s", Json::Num(self_us / 1e6)),
                    ])
                })
                .collect(),
        )
    }
}
