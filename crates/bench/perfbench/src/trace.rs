//! The span recorder of the traced run.
//!
//! Spans are taken in the benchmark's own code, around each call it
//! makes into a layer; nothing inside the program is instrumented. A
//! disabled recorder (the timed runs) never reads the clock and keeps
//! nothing. Spans stay in memory and are written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called, as `<layer>.<operation>`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End in the same time base; equals `start_ns` while open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The campaign repetition the span belongs to.
    pub run: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// The layer a span name belongs to: the part before the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle of an open span; `None` when recording is off.
pub type SpanId = Option<usize>;

/// In-memory span recorder.
pub struct Tracer {
    origin: Option<Instant>,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_sink: Option<u64>,
    sink_gaps_ns: Vec<u64>,
}

impl Tracer {
    /// A recorder that records nothing (the timed runs).
    pub fn off() -> Self {
        Tracer {
            origin: None,
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
            last_sink: None,
            sink_gaps_ns: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            origin: Some(Instant::now()),
            ..Tracer::off()
        }
    }

    fn now_ns(&self) -> Option<u64> {
        self.origin.map(|o| o.elapsed().as_nanos() as u64)
    }

    /// Sets the repetition id stamped on later spans.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let now = self.now_ns()?;
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let (Some(id), Some(now)) = (id, self.now_ns()) else {
            return;
        };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = now;
    }

    /// Marks one record arriving at the scan sink; the gap since the
    /// previous arrival in the same scan is the wait in the scanner's
    /// discovery-order merge.
    pub fn sink_tick(&mut self) {
        let Some(now) = self.now_ns() else { return };
        if let Some(prev) = self.last_sink.replace(now) {
            self.sink_gaps_ns.push(now - prev);
        }
    }

    /// Forgets the previous sink arrival (a new scan starts).
    pub fn sink_reset(&mut self) {
        self.last_sink = None;
    }

    /// Gaps between consecutive sink arrivals, in microseconds.
    pub fn sink_gaps_us(&self) -> Vec<f64> {
        self.sink_gaps_ns.iter().map(|&g| g as f64 / 1e3).collect()
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover (children never overlap: one thread records).
    pub fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.secs();
            }
        }
        own
    }

    /// Durations of every span called `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time per layer, summed over every span below a span called
    /// `root` (the root's own self time is reported under its name).
    pub fn self_by_layer(&self, root: &str) -> Vec<(&'static str, f64)> {
        let own = self.self_secs();
        let mut under_root = vec![false; self.spans.len()];
        let mut totals: Vec<(&'static str, f64)> = Vec::new();
        for (i, span) in self.spans.iter().enumerate() {
            // Parents precede children, so one forward pass suffices.
            under_root[i] = span.name == root || span.parent.is_some_and(|p| under_root[p]);
            if !under_root[i] {
                continue;
            }
            let layer = span.layer();
            match totals.iter_mut().find(|(l, _)| *l == layer) {
                Some(entry) => entry.1 += own[i],
                None => totals.push((layer, own[i])),
            }
        }
        totals
    }

    /// The spans as tab-separated lines: run, id, parent, name, start
    /// and end in nanoseconds, self time in nanoseconds.
    pub fn to_tsv(&self) -> String {
        let own = self.self_secs();
        let mut out = String::from("run\tid\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.run,
                s.name,
                s.start_ns,
                s.end_ns,
                (own[i] * 1e9).round() as u64
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        let id = t.enter("scanner.scan");
        t.sink_tick();
        t.sink_tick();
        t.exit(id);
        assert!(t.spans().is_empty());
        assert!(t.sink_gaps_us().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::on();
        let root = t.enter("campaign");
        let scan = t.enter("scanner.scan");
        let fold = t.enter("assess.fold");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(fold);
        t.exit(scan);
        t.exit(root);
        let own = t.self_secs();
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!((own[1] - (spans[1].secs() - spans[2].secs())).abs() < 1e-12);
        let layers = t.self_by_layer("campaign");
        let total: f64 = layers.iter().map(|(_, s)| s).sum();
        assert!((total - spans[0].secs()).abs() < 1e-9);
        assert_eq!(t.to_tsv().lines().count(), 4);
    }
}
