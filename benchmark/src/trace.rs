//! Outside-in spans: the benchmark times its own calls into each crate's
//! public functions. Spans live in memory and are written once, at exit, as
//! JSON lines; a layer's self time is its span's duration minus its children.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Which part of a pass a span belongs to. Spans of one `(phase, round)` share
/// an identifier: one set-up sample, one simulate call, or the point-by-point
/// walk of the sweep manifest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Setup,
    /// The untimed first round: recorded, never summarised.
    Warmup,
    Run,
    Walk,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Warmup => "warmup",
            Phase::Run => "run",
            Phase::Walk => "walk",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    pub phase: Phase,
    pub round: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The span recorder. Disabled (the end-to-end runs), `span` is a plain call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    phase: Phase,
    round: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            phase: Phase::Setup,
            round: 0,
        }
    }

    /// Label the spans that follow.
    pub fn enter(&mut self, phase: Phase, round: u32) {
        self.phase = phase;
        self.round = round;
    }

    /// Run `f` inside a span named `name`, nested under whichever span is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            phase: self.phase,
            round: self.round,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent in spans named `name`, one total per `(phase, round)`
    /// that recorded any, warm-up aside — the samples a span metric's median
    /// is taken over.
    pub fn totals(&self, name: &str) -> Vec<f64> {
        let mut out: Vec<((Phase, u32), f64)> = Vec::new();
        let counted = |s: &&Span| s.name == name && s.phase != Phase::Warmup;
        for s in self.spans.iter().filter(counted) {
            let key = (s.phase, s.round);
            match out.iter_mut().find(|(k, _)| *k == key) {
                Some((_, total)) => *total += s.seconds(),
                None => out.push((key, s.seconds())),
            }
        }
        out.into_iter().map(|(_, total)| total).collect()
    }

    /// Duration of span `idx` minus the part its direct children cover.
    pub fn self_seconds(&self, idx: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::seconds)
            .sum();
        self.spans[idx].seconds() - children
    }

    /// Share of the root spans of `phases` that no named child span covers —
    /// the "layer rows add up" residue.
    pub fn unattributed_share(&self, phases: &[Phase]) -> f64 {
        let (mut own, mut total) = (0.0, 0.0);
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() && phases.contains(&s.phase) {
                own += self.self_seconds(i);
                total += s.seconds();
            }
        }
        if total > 0.0 {
            own / total
        } else {
            0.0
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\
                 \"parent\":{parent},\"workload\":\"{workload}\",\"phase\":\"{}\",\"round\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                (self.self_seconds(i) * 1e9).round() as u64,
                s.phase.name(),
                s.round,
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        t.span("root", |t| {
            t.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let (root, child) = (&t.spans()[0], &t.spans()[1]);
        assert_eq!(child.parent, Some(0));
        assert!((t.self_seconds(0) - (root.seconds() - child.seconds())).abs() < 1e-12);
        assert!(t.unattributed_share(&[Phase::Setup]) > 0.2);
        assert!(t.unattributed_share(&[Phase::Setup]) < 0.8);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
