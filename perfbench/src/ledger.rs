//! The traced run's ledger: per-call host-time aggregates, coarse spans,
//! and the wrappers that record them around the library's public traits.
//!
//! Nothing here changes what a wrapped call computes: every wrapper
//! forwards its arguments and returns the inner value unchanged, so a
//! traced run produces the same simulated outputs (and digest) as an
//! untraced one.

use std::any::Any;
use std::time::{Duration, Instant};

use kscope_core::{MetricBackend, RawCounters, StackCounters};
use kscope_kernel::TracepointProbe;
use kscope_simcore::{Nanos, Scheduler, Simulation};
use kscope_syscalls::TracepointCtx;
use kscope_workloads::{Ev, ServerSim};

/// Count, sum and log2 histogram of host-time samples. The traced run
/// makes millions of probe calls, so individual samples are never kept.
#[derive(Debug, Clone)]
pub struct Stat {
    /// Samples recorded.
    pub count: u64,
    /// Sum of the samples in ns.
    pub sum_ns: u64,
    /// Bucket `i` counts samples with `floor(log2(ns)) == i`.
    pub hist: [u64; 64],
}

impl Default for Stat {
    fn default() -> Stat {
        Stat {
            count: 0,
            sum_ns: 0,
            hist: [0; 64],
        }
    }
}

impl Stat {
    /// Records one sample.
    pub fn add(&mut self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.hist[63 - (ns | 1).leading_zeros() as usize] += 1;
    }

    /// Runs `f`, recording its host time.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let value = f();
        self.add(started.elapsed());
        value
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &Stat) {
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        for (a, b) in self.hist.iter_mut().zip(&other.hist) {
            *a += b;
        }
    }

    /// Sum in seconds.
    pub fn secs(&self) -> f64 {
        self.sum_ns as f64 / 1e9
    }

    /// Upper edge of the log2 bucket holding the `q`-quantile sample, in
    /// ns (0 without samples).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.hist.iter().enumerate() {
            seen += n;
            if n > 0 && seen >= rank {
                return 2f64.powi(i as i32 + 1);
            }
        }
        0.0
    }

    /// Mean sample in ns (0 without samples).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

/// One coarse span: a unit, a setup, a `run_until`, a host or a rollup.
#[derive(Debug, Clone)]
pub struct Span {
    /// What the span covers.
    pub name: &'static str,
    /// Identifier, unique within the run.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin.
    pub end_ns: u64,
}

/// In-memory span log, written out once the run ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: u32) {
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(96 * self.spans.len());
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.id, parent, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Times [`MetricBackend::on_event`] — the VM or JIT executing the probe
/// programs against their maps. The first call is kept apart: it
/// includes the lazy JIT compile.
#[derive(Debug)]
pub struct TimedBackend<B> {
    /// The wrapped backend.
    pub inner: B,
    /// Every `on_event` call.
    pub on_event: Stat,
    /// The first `on_event` call.
    pub first: Option<Duration>,
}

impl<B> TimedBackend<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> TimedBackend<B> {
        TimedBackend {
            inner,
            on_event: Stat::default(),
            first: None,
        }
    }
}

impl<B: MetricBackend> MetricBackend for TimedBackend<B> {
    fn on_event(&mut self, ctx: &TracepointCtx) -> Nanos {
        let started = Instant::now();
        let charged = self.inner.on_event(ctx);
        let elapsed = started.elapsed();
        self.first.get_or_insert(elapsed);
        self.on_event.add(elapsed);
        charged
    }

    fn counters(&self) -> RawCounters {
        self.inner.counters()
    }

    fn reset_window(&mut self) {
        self.inner.reset_window();
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn poll_histogram(&self) -> Option<[u64; 64]> {
        self.inner.poll_histogram()
    }

    fn stack_histogram(&self) -> Option<[u64; 64]> {
        self.inner.stack_histogram()
    }

    fn stack_counters(&self) -> Option<StackCounters> {
        self.inner.stack_counters()
    }
}

/// Times [`TracepointProbe::fire`] — window rolling plus the backend.
#[derive(Debug)]
pub struct TimedProbe<P> {
    /// The wrapped probe.
    pub inner: P,
    /// Every `fire` call.
    pub fire: Stat,
}

impl<P> TimedProbe<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> TimedProbe<P> {
        TimedProbe {
            inner,
            fire: Stat::default(),
        }
    }
}

impl<P: TracepointProbe + 'static> TracepointProbe for TimedProbe<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fire(&mut self, ctx: &TracepointCtx) -> Nanos {
        let started = Instant::now();
        let charged = self.inner.fire(ctx);
        self.fire.add(started.elapsed());
        charged
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Times [`Simulation::handle`] on a [`ServerSim`]: the workload model
/// plus the kernel, netem and netstack work only reachable inside it
/// (and the probe fires it triggers).
#[derive(Debug)]
pub struct TimedServer {
    /// The wrapped server.
    pub inner: ServerSim,
    /// Every `handle` call.
    pub handle: Stat,
}

impl Simulation for TimedServer {
    type Event = Ev;

    fn handle(&mut self, event: Ev, sched: &mut Scheduler<'_, Ev>) {
        let started = Instant::now();
        self.inner.handle(event, sched);
        self.handle.add(started.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_read_the_log2_buckets() {
        let mut stat = Stat::default();
        for ns in [3, 5, 6, 7, 100] {
            stat.add(Duration::from_nanos(ns));
        }
        assert_eq!(stat.count, 5);
        assert_eq!(stat.sum_ns, 121);
        // 3 is in [2, 4); 5, 6, 7 in [4, 8); 100 in [64, 128).
        assert_eq!(stat.quantile_ns(0.2), 4.0);
        assert_eq!(stat.quantile_ns(0.6), 8.0);
        assert_eq!(stat.quantile_ns(0.99), 128.0);
        assert_eq!(Stat::default().quantile_ns(0.5), 0.0);
    }
}
