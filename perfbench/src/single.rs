//! Single-host units: one `ServerSim` run with a verified bytecode probe
//! on the JIT, the way `experiments::sweep::run_level` (paper sweep) and
//! `fig_netstack::run_condition` (impaired netstack) size it.
//!
//! The untraced path goes through `run_workload_with` unchanged. The
//! traced path repeats its steps around the same public pieces, with
//! timing wrappers in between, so both reach identical outputs.

use std::time::Instant;

use kscope_core::{
    BuildError, BytecodeBackend, MetricBackend, StackDelay, WindowMetrics, WindowedObserver,
    DEFAULT_SHIFT,
};
use kscope_experiments::fig_netstack::NetCondition;
use kscope_experiments::sweep::{send_events_per_request, SweepConfig};
use kscope_kernel::{IngressStats, Kernel, SchedStats, TracepointProbe, TracingStats};
use kscope_netem::NetemConfig;
use kscope_simcore::{Dist, Engine, Nanos};
use kscope_workloads::{run_workload_with, RunConfig, ServerSim, WorkloadSpec};

use crate::check::Digest;
use crate::ledger::{SpanLog, Stat, TimedBackend, TimedProbe, TimedServer};

/// One single-host simulation.
#[derive(Debug, Clone)]
pub struct Unit {
    /// The workload served.
    pub spec: WorkloadSpec,
    /// Load, warmup, measurement, seed and network.
    pub run: RunConfig,
    /// Probe observation window.
    pub window: Nanos,
    /// Attach the netstack probe pair too.
    pub netstack: bool,
}

/// One paper-sweep level, sized exactly as `sweep::run_level` sizes it.
pub fn sweep_unit(spec: &WorkloadSpec, fraction: f64, config: &SweepConfig, seed: u64) -> Unit {
    let offered_rps = spec.paper_failure_rps * fraction;
    let sends_per_req = send_events_per_request(spec);
    let window_secs =
        (config.min_send_samples as f64 * 1.3 / (offered_rps * sends_per_req)).max(0.05);
    let window = Nanos::from_secs_f64(window_secs);
    let warmup = Nanos::from_secs_f64((spec.service_time.mean() / 1e9 * 30.0).max(0.3));
    let warmup = window * warmup.as_nanos().div_ceil(window.as_nanos()).max(1);
    Unit {
        spec: spec.clone(),
        run: RunConfig {
            offered_rps,
            warmup,
            measure: window * config.windows_per_level as u64,
            seed,
            netem: config.netem.clone(),
            collect_trace: false,
        },
        window,
        netstack: false,
    }
}

/// One impaired-network condition, sized as `fig_netstack::run_condition`
/// sizes it.
pub fn netstack_unit(
    spec: &WorkloadSpec,
    condition: &NetCondition,
    offered: f64,
    measure: Nanos,
    seed: u64,
) -> Unit {
    let mut run = RunConfig::new(offered, seed);
    let mut netem = NetemConfig::impaired(condition.delay, condition.loss);
    netem.jitter = Some(Dist::exponential(condition.jitter_ns));
    run.netem = netem;
    run.measure = measure;
    run.collect_trace = false;
    Unit {
        spec: spec.clone(),
        run,
        window: measure / 8,
        netstack: true,
    }
}

/// The probe a unit attaches: the multi-process syscall programs, plus
/// the netstack pair when asked, compiled lazily by the JIT.
fn build_backend(unit: &Unit, sim: &ServerSim) -> Result<BytecodeBackend, BuildError> {
    let mut backend =
        BytecodeBackend::new_multi(sim.server_pids(), unit.spec.profile.clone(), DEFAULT_SHIFT)?;
    if unit.netstack {
        backend = backend.with_netstack()?;
    }
    Ok(backend.with_jit())
}

/// Everything a unit's simulation produced.
#[derive(Debug, Clone)]
pub struct UnitOut {
    /// Every probe window of the run, warmup included.
    pub windows: Vec<WindowMetrics>,
    /// Client completions inside the measurement window.
    pub completed: u64,
    /// Completions per second of measurement window.
    pub achieved_rps: f64,
    /// Tracepoint dispatch counts.
    pub tracing: TracingStats,
    /// Scheduler queueing.
    pub sched: SchedStats,
    /// NIC ring and softirq work.
    pub ingress: IngressStats,
    /// The netstack probe's time-in-stack state.
    pub stack: Option<StackDelay>,
}

impl UnitOut {
    fn collect<B: MetricBackend>(
        observer: &mut WindowedObserver<B>,
        unit: &Unit,
        kernel: &Kernel,
        completed: u64,
        achieved_rps: f64,
    ) -> UnitOut {
        observer.finish(unit.run.end());
        UnitOut {
            windows: observer.windows().to_vec(),
            completed,
            achieved_rps,
            tracing: *kernel.tracing.stats(),
            sched: *kernel.sched.stats(),
            ingress: *kernel.ingress.stats(),
            stack: StackDelay::from_backend(DEFAULT_SHIFT, observer.backend()),
        }
    }

    /// Windows wholly inside the measurement period.
    pub fn measured_windows<'a>(
        &'a self,
        unit: &'a Unit,
    ) -> impl Iterator<Item = &'a WindowMetrics> {
        self.windows
            .iter()
            .filter(|w| w.start >= unit.run.warmup && w.end <= unit.run.end())
    }

    /// Tracepoint firings delivered to the probe.
    pub fn fires(&self) -> u64 {
        let t = &self.tracing;
        t.enters + t.exits + t.net_rx + t.sock_drains
    }

    /// Digest of every simulated output.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        d.u64(self.windows.len() as u64);
        for w in &self.windows {
            d.u64(w.start.as_nanos());
            d.u64(w.end.as_nanos());
            d.opt_f64(w.rps_obsv);
            d.opt_f64(w.recv_rate);
            d.opt_f64(w.var_send);
            d.opt_f64(w.var_recv);
            d.opt_f64(w.poll_mean_ns);
            d.u64(w.poll_count);
            d.u64(w.send_samples);
            d.u64(w.events);
        }
        d.u64(self.completed);
        d.f64(self.achieved_rps);
        let t = &self.tracing;
        for v in [
            t.enters,
            t.exits,
            t.net_rx,
            t.sock_drains,
            t.probe_overhead.as_nanos(),
        ] {
            d.u64(v);
        }
        let s = &self.sched;
        for v in [
            s.immediate,
            s.queued,
            s.total_wait.as_nanos(),
            s.max_queue_depth as u64,
            s.busy_time.as_nanos(),
        ] {
            d.u64(v);
        }
        let i = &self.ingress;
        for v in [
            i.ring_enqueued,
            i.ring_drops,
            i.delivered,
            i.softirq_runs,
            i.deferrals,
            i.ring_high_water,
        ] {
            d.u64(v);
        }
        if let Some(stack) = &self.stack {
            d.u64(stack.count());
            d.u64(stack.misses());
            for &b in stack.hist().buckets() {
                d.u64(b);
            }
        }
        d.value()
    }
}

/// Runs `unit` through `run_workload_with`; the probe-build closure's
/// host time is added to `setup`.
pub fn run_unit(unit: &Unit, setup: &mut Stat) -> Result<UnitOut, BuildError> {
    let mut built = Ok(());
    let outcome = run_workload_with(&unit.spec, &unit.run, |sim| {
        let probe =
            setup.time(|| build_backend(unit, sim).map(|b| WindowedObserver::new(b, unit.window)));
        match probe {
            Ok(probe) => vec![Box::new(probe) as Box<dyn TracepointProbe>],
            Err(e) => {
                built = Err(e);
                Vec::new()
            }
        }
    });
    built?;
    let mut kernel = outcome.kernel;
    let Some(mut probe) = kernel.tracing.detach(outcome.probes[0]) else {
        unreachable!("probe id came from this run's attach")
    };
    let Some(observer) = probe
        .as_any_mut()
        .downcast_mut::<WindowedObserver<BytecodeBackend>>()
    else {
        unreachable!("this run attached a bytecode windowed observer")
    };
    Ok(UnitOut::collect(
        observer,
        unit,
        &kernel,
        outcome.client.completed,
        outcome.client.achieved_rps,
    ))
}

/// Host time of a traced single-host run, by layer.
#[derive(Debug, Clone, Default)]
pub struct SingleLedger {
    /// Probe-build closures.
    pub setup: Stat,
    /// `Engine::run_until`, one sample per unit.
    pub run_until: Stat,
    /// `ServerSim::handle`.
    pub handle: Stat,
    /// `TracepointProbe::fire`.
    pub fire: Stat,
    /// `MetricBackend::on_event`.
    pub on_event: Stat,
    /// The first `on_event` of each unit (lazy JIT compile included).
    pub first_fire: Stat,
    /// Engine events processed.
    pub events: u64,
    /// eBPF instructions executed.
    pub insns: u64,
}

type TracedObserver = WindowedObserver<TimedBackend<BytecodeBackend>>;

/// Runs `unit` with every layer call timed into `ledger`; the same steps
/// as `run_workload_with`, in the same order.
pub fn run_unit_traced(
    unit: &Unit,
    ledger: &mut SingleLedger,
    spans: &mut SpanLog,
    parent: u32,
) -> Result<UnitOut, BuildError> {
    let cfg = &unit.run;
    let mut sim = ServerSim::new(
        unit.spec.clone(),
        cfg.offered_rps,
        cfg.netem.clone(),
        cfg.seed,
        cfg.end(),
    );
    let span = spans.open("setup", Some(parent));
    let probe = ledger.setup.time(|| {
        build_backend(unit, &sim)
            .map(|b| TimedProbe::new(WindowedObserver::new(TimedBackend::new(b), unit.window)))
    });
    spans.close(span);
    let probe = probe?;
    sim.kernel_mut()
        .tracing
        .set_collect_trace(cfg.collect_trace);
    let id = sim.kernel_mut().tracing.attach(Box::new(probe));
    let expected_pending = ((cfg.offered_rps * 0.1) as usize).clamp(64, 16_384);
    let mut engine = Engine::with_capacity(expected_pending);
    sim.install(&mut engine);
    let mut timed = TimedServer {
        inner: sim,
        handle: Stat::default(),
    };
    let span = spans.open("run_until", Some(parent));
    let started = Instant::now();
    engine.run_until(&mut timed, cfg.end());
    ledger.run_until.add(started.elapsed());
    spans.close(span);
    ledger.events += engine.processed();
    ledger.handle.merge(&timed.handle);

    let sim = timed.inner;
    let (warmup, end) = (cfg.warmup, cfg.end());
    let completed = sim
        .completions()
        .iter()
        .filter(|c| c.finished >= warmup && c.finished < end)
        .count() as u64;
    let achieved_rps = completed as f64 / cfg.measure.as_secs_f64();
    let mut kernel = sim.into_kernel();
    let Some(mut probe) = kernel.tracing.detach(id) else {
        unreachable!("probe id came from this run's attach")
    };
    let Some(timed_probe) = probe
        .as_any_mut()
        .downcast_mut::<TimedProbe<TracedObserver>>()
    else {
        unreachable!("this run attached a timed observer")
    };
    ledger.fire.merge(&timed_probe.fire);
    let backend = timed_probe.inner.backend();
    ledger.on_event.merge(&backend.on_event);
    if let Some(first) = backend.first {
        ledger.first_fire.add(first);
    }
    ledger.insns += backend.inner.insns_executed();
    Ok(UnitOut::collect(
        &mut timed_probe.inner,
        unit,
        &kernel,
        completed,
        achieved_rps,
    ))
}
