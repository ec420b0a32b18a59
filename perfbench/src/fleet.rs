//! The fleet workload: the untraced path is `run_fleet_jobs` →
//! `FleetRun::rollup` → `report_to_json`; the traced path is a per-host
//! driver over `SimHost`'s public calls that rebuilds `FleetRun` from its
//! public fields, so its rollup JSON is byte-identical.

use std::time::Instant;

use kscope_core::BuildError;
use kscope_fleet::{
    report_to_json, run_fleet_jobs, Collector, FleetConfig, FleetRollup, FleetRun, ReportEnvelope,
    SimHost,
};
use kscope_simcore::{Engine, Nanos, Scheduler, Simulation};

use crate::ledger::{SpanLog, Stat};

/// Every request `SimHost::serve_request` serves fires exactly these
/// tracepoints: poll/recv/send enter and exit, one `net_rx_softirq`
/// and one `sock_queue_drain`.
pub const ENTERS_PER_REQUEST: u64 = 3;
/// See [`ENTERS_PER_REQUEST`].
pub const EXITS_PER_REQUEST: u64 = 3;
/// See [`ENTERS_PER_REQUEST`].
pub const NET_PER_REQUEST: u64 = 1;

/// The `fleet_scale` configuration: the scale preset with a 5% lossy
/// control channel, the default (interpreted) probes, seeded by `seed`.
pub fn config(hosts: usize, seed: u64) -> FleetConfig {
    let mut config = FleetConfig::scale(hosts).with_loss(0.05);
    config.seed = seed;
    config
}

/// Requests the whole fleet served (each one an entity draw).
pub fn requests(run: &FleetRun) -> u64 {
    run.entity_truth.iter().sum()
}

/// Tracepoint firings of the run.
pub fn fires(run: &FleetRun) -> u64 {
    requests(run) * (ENTERS_PER_REQUEST + EXITS_PER_REQUEST + 2 * NET_PER_REQUEST)
}

/// Share of the exact fleet-wide Top-K entities the sketch's Top-K holds.
pub fn topk_agreement(run: &FleetRun, rollup: &FleetRollup) -> f64 {
    let k = run.config.top_entities;
    let exact = run.exact_top_entities(k);
    let matched = rollup
        .top_entities
        .iter()
        .filter(|row| exact.contains(&row.entity))
        .count();
    matched as f64 / k.max(1) as f64
}

/// Builds every host once and drops it at once: the fleet's set-up cost
/// (assemble, verify, map allocation), timed apart from the run.
pub fn build_pass(config: &FleetConfig) -> Result<(), BuildError> {
    for id in 0..config.hosts as u32 {
        drop(SimHost::new(config, id)?);
    }
    Ok(())
}

/// The untraced fleet run: the run, its rollup and the rollup's JSON.
pub fn run(config: &FleetConfig) -> Result<(FleetRun, FleetRollup, String), BuildError> {
    let run = run_fleet_jobs(config, 1)?;
    let rollup = run.rollup(1);
    let json = report_to_json(config, &rollup);
    Ok((run, rollup, json))
}

/// Host time of a traced fleet run, by layer.
#[derive(Debug, Clone, Default)]
pub struct FleetLedger {
    /// `SimHost::new`.
    pub build: Stat,
    /// `Engine::run`, one sample per host.
    pub host_run: Stat,
    /// The per-host driver's `handle`.
    pub handle: Stat,
    /// `SimHost::serve_request`.
    pub serve: Stat,
    /// `SimHost::make_report`.
    pub report: Stat,
    /// `SimHost::offer`.
    pub offer: Stat,
    /// `Collector::receive`.
    pub receive: Stat,
    /// `FleetRun::rollup`.
    pub rollup: Stat,
    /// `report_to_json`.
    pub json: Stat,
    /// Engine events processed.
    pub events: u64,
}

#[derive(Debug)]
enum HostEvent {
    Request,
    Tick { last: bool },
    Arrive { envelope: Box<ReportEnvelope> },
    Lost,
}

/// One host's event handler, the same as the library's own per-host
/// simulation, with each `SimHost` call timed.
struct TracedHost<'a> {
    host: SimHost,
    max_inflight: usize,
    horizon: Nanos,
    arrivals: Vec<(Nanos, ReportEnvelope)>,
    ledger: &'a mut FleetLedger,
}

impl Simulation for TracedHost<'_> {
    type Event = HostEvent;

    fn handle(&mut self, event: HostEvent, sched: &mut Scheduler<'_, HostEvent>) {
        let started = Instant::now();
        let now = sched.now();
        match event {
            HostEvent::Request => {
                let horizon = self.horizon;
                let host = &mut self.host;
                if let Some(next) = self.ledger.serve.time(|| host.serve_request(now, horizon)) {
                    sched.at(next, HostEvent::Request);
                }
            }
            HostEvent::Tick { last } => {
                let finish = last.then_some(self.horizon);
                let host = &mut self.host;
                if let Some(envelope) = self.ledger.report.time(|| host.make_report(now, finish)) {
                    let bytes = envelope.wire_bytes() as u64;
                    let max_inflight = self.max_inflight;
                    if let Some(transit) =
                        self.ledger.offer.time(|| host.offer(max_inflight, bytes))
                    {
                        let event = if transit.delivered {
                            HostEvent::Arrive {
                                envelope: Box::new(envelope),
                            }
                        } else {
                            HostEvent::Lost
                        };
                        sched.after(transit.delay, event);
                    }
                }
            }
            HostEvent::Arrive { envelope } => {
                self.host.release_inflight();
                self.arrivals.push((now, *envelope));
            }
            HostEvent::Lost => self.host.release_inflight(),
        }
        self.ledger.handle.add(started.elapsed());
    }
}

/// The traced fleet run: hosts one after another in id order, each one's
/// arrivals fed to the collector as it finishes (the order
/// `run_fleet_jobs` feeds them in), then the rollup and its JSON.
pub fn run_traced(
    config: &FleetConfig,
    ledger: &mut FleetLedger,
    spans: &mut SpanLog,
    parent: u32,
) -> Result<(FleetRun, FleetRollup, String), BuildError> {
    let horizon = config.horizon();
    let mut collector = Collector::new(config.hosts, config.shift, config.min_send_samples);
    let mut truth = Vec::with_capacity(config.hosts);
    let mut entity_truth = vec![0u64; config.entities as usize];
    for id in 0..config.hosts as u32 {
        let host_span = spans.open("host", Some(parent));
        let span = spans.open("setup", Some(host_span));
        let host = ledger.build.time(|| SimHost::new(config, id));
        spans.close(span);
        let mut host = host?;
        let mut engine: Engine<HostEvent> = Engine::new();
        engine.schedule(host.first_request_at(), HostEvent::Request);
        let offset = Nanos::from_nanos(1_000_000 + 7_000 * u64::from(id));
        for w in 0..config.windows {
            let boundary = Nanos::from_nanos(config.window.as_nanos() * (w as u64 + 1));
            engine.schedule(
                boundary + offset,
                HostEvent::Tick {
                    last: w + 1 == config.windows,
                },
            );
        }
        let mut sim = TracedHost {
            host,
            max_inflight: config.max_inflight,
            horizon,
            arrivals: Vec::new(),
            ledger: &mut *ledger,
        };
        let span = spans.open("run_until", Some(host_span));
        let started = Instant::now();
        engine.run(&mut sim);
        let elapsed = started.elapsed();
        spans.close(span);
        let TracedHost {
            host,
            arrivals,
            ledger: l,
            ..
        } = sim;
        l.host_run.add(elapsed);
        l.events += engine.processed();
        for (at, envelope) in arrivals {
            l.receive.time(|| collector.receive(envelope, at));
        }
        for (slot, count) in entity_truth.iter_mut().zip(host.entity_counts()) {
            *slot += count;
        }
        truth.push(host.truth);
        spans.close(host_span);
    }
    let run = FleetRun {
        config: config.clone(),
        collector,
        truth,
        entity_truth,
        horizon,
    };
    let span = spans.open("rollup", Some(parent));
    let rollup = ledger.rollup.time(|| run.rollup(1));
    let json = ledger.json.time(|| report_to_json(config, &rollup));
    spans.close(span);
    Ok((run, rollup, json))
}
