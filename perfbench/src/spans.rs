//! Host-time spans the benchmark records around its calls into each
//! layer: workload → sweep (`Executor::sweep`) → run (`run_point`,
//! `stack::run*`, `run_job*`) → export. Spans stay in memory and are
//! written out as one Chrome trace when the benchmark ends.

use edison_simtel::export::json_escape;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

static NEXT_WORKER: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static WORKER: Cell<Option<usize>> = const { Cell::new(None) };
}

/// A small dense id for the calling thread (the trace's `tid`).
pub fn worker_id() -> usize {
    WORKER.with(|w| {
        w.get().unwrap_or_else(|| {
            let id = NEXT_WORKER.fetch_add(1, Ordering::Relaxed);
            w.set(Some(id));
            id
        })
    })
}

/// One span. `width` is how many workers the span holds: a workload or
/// sweep span holds the whole pool, a run or export span one worker.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: String,
    /// Spans of one run share this id; sweep and workload spans carry
    /// their own.
    pub id: u64,
    pub parent: Option<usize>,
    pub width: u64,
    pub start: u64,
    pub end: u64,
    pub worker: usize,
}

#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Record a span; returns its index, for children to name as parent.
    pub fn push(&mut self, s: Span) -> usize {
        self.spans.push(s);
        self.spans.len() - 1
    }

    /// Set the end of a span pushed before its children.
    pub fn close(&mut self, idx: usize, end: u64) {
        self.spans[idx].end = end;
    }

    /// Self time per layer in worker-nanoseconds: each span's
    /// `width × duration` minus that of its children. A sweep's self time
    /// is therefore pool time no run used (waiting on the sweep's last
    /// run), and the workload span's self time is the harness's.
    pub fn self_ns(&self) -> BTreeMap<&'static str, f64> {
        let cap = |s: &Span| (s.width * (s.end - s.start)) as f64;
        let mut children = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += cap(s);
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(children) {
            *out.entry(s.layer).or_insert(0.0) += cap(s) - c;
        }
        out
    }

    /// The spans as Chrome trace-event JSON (times in µs since the
    /// process started), loadable in Perfetto.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("null"), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"id\":{},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                json_escape(&s.name),
                s.layer,
                s.worker,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.id,
            );
        }
        out.push_str("\n]\n");
        out
    }
}
