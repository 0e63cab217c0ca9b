//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The tracer always reads the clock (that is how the untraced repetitions
//! get their wall time too); it keeps a span only while recording is on.
//! Spans stay in memory until [`Tracer::chrome_trace`] writes them out.

use std::time::Instant;

use crate::json::{count, num, obj, string, Json};

/// One closed span. Names use only letters, digits, `_`, `.` and `-`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, if one was open.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one solve (0 outside any solve).
    pub solve_id: u64,
}

/// An open span, to be handed back to [`Tracer::close`].
pub struct Open {
    name: String,
    start: Instant,
    solve_id: u64,
    /// Slot reserved in `spans` when recording.
    slot: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    recording: bool,
    spans: Vec<Option<Span>>,
    /// Slots of the spans currently open, innermost last.
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            recording: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Keep the spans opened from now on (or stop keeping them).
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    pub fn open(&mut self, name: &str, solve_id: u64) -> Open {
        let slot = self.recording.then(|| {
            self.spans.push(None);
            let slot = self.spans.len() - 1;
            self.stack.push(slot);
            slot
        });
        Open {
            name: name.to_string(),
            solve_id,
            slot,
            start: Instant::now(),
        }
    }

    /// Close `open`, innermost first; returns the span's seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(slot) = open.slot {
            assert_eq!(self.stack.pop(), Some(slot), "spans close innermost first");
            self.spans[slot] = Some(Span {
                name: open.name,
                start_us: (open.start - self.origin).as_secs_f64() * 1e6,
                end_us: (end - self.origin).as_secs_f64() * 1e6,
                parent: self.stack.last().copied(),
                solve_id: open.solve_id,
            });
        }
        (end - open.start).as_secs_f64()
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, name: &str, solve_id: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.open(name, solve_id);
        let out = f();
        (out, self.close(open))
    }

    /// The closed spans, in the order they were opened.
    pub fn spans(&self) -> Vec<&Span> {
        self.spans.iter().flatten().collect()
    }

    /// Chrome-trace ("traceEvents") document of the recorded spans.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans()
            .into_iter()
            .map(|s| {
                obj([
                    ("name", string(&s.name)),
                    ("cat", string(s.name.split('.').next().unwrap_or("bench"))),
                    ("ph", string("X")),
                    ("ts", num(s.start_us)),
                    ("dur", num(s.end_us - s.start_us)),
                    ("pid", count(1)),
                    ("tid", count(1)),
                    (
                        "args",
                        obj([
                            ("solve_id", num(s.solve_id as f64)),
                            (
                                "parent",
                                s.parent
                                    .and_then(|p| self.spans[p].as_ref())
                                    .map_or(Json::Null, |p| string(&p.name)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        obj([
            ("displayTimeUnit", string("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_nesting_only_while_recording() {
        let mut t = Tracer::new();
        let (_, secs) = t.time("untraced", 0, || ());
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());

        t.set_recording(true);
        let outer = t.open("repetition", 0);
        t.time("core.run_pcg.reference", 7, || ());
        t.time("core.run_pcg.failure-replace_esr", 8, || ());
        t.close(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "repetition");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[1].solve_id, 7);
        assert!(spans[1].start_us >= spans[0].start_us);
        assert!(spans[2].end_us <= spans[0].end_us);
    }

    #[test]
    fn chrome_trace_round_trips_names() {
        let mut t = Tracer::new();
        t.set_recording(true);
        let names = [
            "setup",
            "core.run_bicgstab.failure-shrink_ckpt",
            "sparsemat.spmv_fused",
            "A-b_c.9",
        ];
        let outer = t.open(names[0], 0);
        for (i, n) in names[1..].iter().enumerate() {
            t.time(n, i as u64 + 1, || ());
        }
        t.close(outer);
        let doc = Json::parse(&t.chrome_trace().write()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let got: Vec<&str> = events
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(got, names);
        for e in &events[1..] {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
            assert!(e.get("dur").unwrap().as_f64().unwrap() >= 0.0);
            let parent = e.get("args").unwrap().get("parent").unwrap();
            assert_eq!(parent.as_str(), Some("setup"));
        }
        assert_eq!(
            events[0].get("args").unwrap().get("parent"),
            Some(&Json::Null)
        );
    }
}
