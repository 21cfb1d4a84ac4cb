//! The benchmark's own tracer. It records a span around each public
//! call the benchmark makes into a workspace crate; the program itself
//! is not touched. Spans stay in memory and are written out as JSONL
//! when the run ends. A disabled tracer reads no clock and stores
//! nothing, so the untraced run pays only a branch per call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span, 0 at the top level.
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request id (the service's trace id) or 0.
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// Offset that maps `qpp_obs` timestamps onto this tracer's clock.
    obs_offset_ns: i128,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        let obs_now = qpp_obs::now_ns() as i128;
        let epoch = Instant::now();
        Tracer {
            enabled,
            epoch,
            obs_offset_ns: -obs_now,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`. `f` receives the new span's
    /// id so that calls it makes can nest under it.
    pub fn span<R>(&self, name: &str, parent: u64, req: u64, f: impl FnOnce(u64) -> R) -> R {
        if !self.enabled {
            return f(0);
        }
        // ordering: ids only need to be unique.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
            req,
        });
        out
    }

    /// Records a span measured elsewhere (for instance by the caller's
    /// own clock reads) and returns its id.
    pub fn record(&self, name: &str, parent: u64, req: u64, start_ns: u64, end_ns: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        // ordering: ids only need to be unique.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
            req,
        });
        id
    }

    /// Imports a span the program already recorded in the `qpp_obs`
    /// ring, mapped onto this tracer's clock.
    pub fn import_obs(&self, e: &qpp_obs::Event, parent: u64) -> u64 {
        let start = (e.start_ns as i128 + self.obs_offset_ns).max(0) as u64;
        self.record(
            &format!("obs.{}", e.stage.name()),
            parent,
            e.trace_id,
            start,
            start + e.dur_ns,
        )
    }

    /// Maps a tracer timestamp onto the `qpp_obs` clock.
    pub fn to_obs_ns(&self, ns: u64) -> u64 {
        (ns as i128 - self.obs_offset_ns).max(0) as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("tracer lock poisoned").push(span);
    }

    /// A copy of the spans recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("tracer lock poisoned"))
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<i128> {
    let mut child_ns = std::collections::HashMap::<u64, i128>::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns() as i128;
        }
    }
    spans
        .iter()
        .map(|s| s.dur_ns() as i128 - child_ns.get(&s.id).copied().unwrap_or(0))
        .collect()
}

/// One JSON object per span, with its self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::with_capacity(spans.len() * 120);
    for (s, self_ns) in spans.iter().zip(selfs) {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{},\"self_ns\":{}}}\n",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.req, self_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("a", 0, 0, |id| {
            assert_eq!(id, 0);
            7
        });
        assert_eq!(v, 7);
        assert_eq!(t.record("b", 0, 0, 1, 2), 0);
        assert!(t.take().is_empty());
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = Tracer::new(true);
        let root = t.record("root", 0, 0, 0, 100);
        let child = t.record("child", root, 0, 10, 50);
        t.record("grandchild", child, 0, 20, 30);
        t.record("child2", root, 0, 60, 70);
        let spans = t.take();
        assert_eq!(self_times(&spans), vec![50, 30, 10, 10]);
        let jsonl = to_jsonl(&spans);
        assert_eq!(jsonl.lines().count(), 4);
        assert!(jsonl.starts_with("{\"id\":1,\"parent\":0,\"name\":\"root\""));
        assert!(jsonl.contains("\"self_ns\":50}"));
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let t = Tracer::new(true);
        t.span("outer", 0, 9, |outer| {
            t.span("inner", outer, 9, |_| ());
        });
        let spans = t.take();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(inner.req, 9);
    }
}
