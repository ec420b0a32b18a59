//! Metric names, per-layer derivations, the measurement loop and the
//! printed result.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use kscope_fleet::{FleetRollup, FleetRun};

use crate::fleet::{self, FleetLedger};
use crate::ledger::SpanLog;
use crate::single::{SingleLedger, UnitOut};
use crate::{check, run_rep, Rep, Size, Workload};

/// End-to-end metrics `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("ns_per_event", "ns"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed with `--trace 1`. A layer a
/// workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("simcore.engine.events", "count"),
    ("simcore.engine.self_ns_per_event", "ns"),
    ("workloads.server.self_ns_per_event", "ns"),
    ("kernel.tracing.fires", "count"),
    ("kernel.tracing.fires.enter", "count"),
    ("kernel.tracing.fires.exit", "count"),
    ("kernel.tracing.fires.net_rx", "count"),
    ("kernel.tracing.fires.sock_drain", "count"),
    ("core.observer.self_ns_per_fire", "ns"),
    ("core.estimator.rps_r2", "ratio"),
    ("ebpf.backend.ns_per_fire", "ns"),
    ("ebpf.backend.p99_ns", "ns"),
    ("ebpf.insns_per_fire", "insn"),
    ("ebpf.first_fire_us", "us"),
    ("setup.probe_builds", "count"),
    ("setup.probe_build_ms", "ms"),
    ("kernel.sched.queued_frac", "ratio"),
    ("kernel.sched.wait_ms_sim", "ms"),
    ("kernel.sched.max_queue_depth", "count"),
    ("kernel.netstack.softirq_runs", "count"),
    ("kernel.netstack.deferrals", "count"),
    ("kernel.netstack.ring_drops", "count"),
    ("kernel.netstack.ring_high_water", "count"),
    ("fleet.host.build_us", "us"),
    ("fleet.host.serve_ns_per_request", "ns"),
    ("fleet.host.report_us", "us"),
    ("fleet.host.offer_ns", "ns"),
    ("fleet.collector.receive_ns", "ns"),
    ("fleet.collector.rollup_ms", "ms"),
    ("fleet.json_ms", "ms"),
    ("fleet.reports.produced", "count"),
    ("fleet.reports.shed", "count"),
    ("fleet.reports.offered", "count"),
    ("fleet.reports.delivered", "count"),
    ("fleet.reports.dropped", "count"),
    ("fleet.reports.stale", "count"),
    ("fleet.delivered_frac", "ratio"),
    ("fleet.report_wire_bytes", "B"),
    ("fleet.sketch.topk_agreement", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.other_pct", "%"),
    ("trace.wall_s", "s"),
];

fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole * 100.0
    } else {
        0.0
    }
}

/// Per-layer metrics of a traced single-host run that took `wall`.
pub fn single_layers(
    ledger: &SingleLedger,
    outs: &[Option<UnitOut>],
    wall: Duration,
) -> BTreeMap<&'static str, f64> {
    let outs: Vec<&UnitOut> = outs.iter().flatten().collect();
    let sum = |f: &dyn Fn(&UnitOut) -> u64| outs.iter().map(|o| f(o)).sum::<u64>();
    let max = |f: &dyn Fn(&UnitOut) -> u64| outs.iter().map(|o| f(o)).max().unwrap_or(0);
    let events = ledger.events;
    let fires = ledger.fire.count;
    let handle_ns = ledger.handle.sum_ns as f64;
    let fire_ns = ledger.fire.sum_ns as f64;
    let on_event_ns = ledger.on_event.sum_ns as f64;
    let covered = ledger.setup.secs() + ledger.run_until.secs();
    let queued = sum(&|o| o.sched.queued);
    let immediate = sum(&|o| o.sched.immediate);
    let mut m = BTreeMap::new();
    m.insert("simcore.engine.events", events as f64);
    m.insert(
        "simcore.engine.self_ns_per_event",
        per(ledger.run_until.sum_ns as f64 - handle_ns, events),
    );
    m.insert(
        "workloads.server.self_ns_per_event",
        per(handle_ns - fire_ns, events),
    );
    m.insert("kernel.tracing.fires", sum(&UnitOut::fires) as f64);
    m.insert(
        "kernel.tracing.fires.enter",
        sum(&|o| o.tracing.enters) as f64,
    );
    m.insert(
        "kernel.tracing.fires.exit",
        sum(&|o| o.tracing.exits) as f64,
    );
    m.insert(
        "kernel.tracing.fires.net_rx",
        sum(&|o| o.tracing.net_rx) as f64,
    );
    m.insert(
        "kernel.tracing.fires.sock_drain",
        sum(&|o| o.tracing.sock_drains) as f64,
    );
    m.insert(
        "core.observer.self_ns_per_fire",
        per(fire_ns - on_event_ns, fires),
    );
    m.insert("ebpf.backend.ns_per_fire", ledger.on_event.mean_ns());
    m.insert("ebpf.backend.p99_ns", ledger.on_event.quantile_ns(0.99));
    m.insert(
        "ebpf.insns_per_fire",
        per(ledger.insns as f64, ledger.on_event.count),
    );
    m.insert("ebpf.first_fire_us", ledger.first_fire.mean_ns() / 1e3);
    m.insert("setup.probe_builds", ledger.setup.count as f64);
    m.insert("setup.probe_build_ms", ledger.setup.sum_ns as f64 / 1e6);
    m.insert(
        "kernel.sched.queued_frac",
        per(queued as f64, queued + immediate),
    );
    m.insert(
        "kernel.sched.wait_ms_sim",
        sum(&|o| o.sched.total_wait.as_nanos()) as f64 / 1e6,
    );
    m.insert(
        "kernel.sched.max_queue_depth",
        max(&|o| o.sched.max_queue_depth as u64) as f64,
    );
    m.insert(
        "kernel.netstack.softirq_runs",
        sum(&|o| o.ingress.softirq_runs) as f64,
    );
    m.insert(
        "kernel.netstack.deferrals",
        sum(&|o| o.ingress.deferrals) as f64,
    );
    m.insert(
        "kernel.netstack.ring_drops",
        sum(&|o| o.ingress.ring_drops) as f64,
    );
    m.insert(
        "kernel.netstack.ring_high_water",
        max(&|o| o.ingress.ring_high_water) as f64,
    );
    m.insert(
        "trace.other_pct",
        pct(wall.as_secs_f64() - covered, wall.as_secs_f64()),
    );
    m
}

/// Per-layer metrics of a traced fleet run that took `wall`.
pub fn fleet_layers(
    ledger: &FleetLedger,
    run: &FleetRun,
    rollup: &FleetRollup,
    wall: Duration,
) -> BTreeMap<&'static str, f64> {
    let requests = fleet::requests(run);
    let acc = &rollup.accounting;
    let covered = [
        &ledger.build,
        &ledger.host_run,
        &ledger.receive,
        &ledger.rollup,
        &ledger.json,
    ]
    .iter()
    .map(|s| s.secs())
    .sum::<f64>();
    let mut m = BTreeMap::new();
    m.insert("simcore.engine.events", ledger.events as f64);
    m.insert(
        "simcore.engine.self_ns_per_event",
        per(
            ledger.host_run.sum_ns as f64 - ledger.handle.sum_ns as f64,
            ledger.events,
        ),
    );
    m.insert("kernel.tracing.fires", fleet::fires(run) as f64);
    m.insert(
        "kernel.tracing.fires.enter",
        (requests * fleet::ENTERS_PER_REQUEST) as f64,
    );
    m.insert(
        "kernel.tracing.fires.exit",
        (requests * fleet::EXITS_PER_REQUEST) as f64,
    );
    m.insert(
        "kernel.tracing.fires.net_rx",
        (requests * fleet::NET_PER_REQUEST) as f64,
    );
    m.insert(
        "kernel.tracing.fires.sock_drain",
        (requests * fleet::NET_PER_REQUEST) as f64,
    );
    m.insert("setup.probe_builds", ledger.build.count as f64);
    m.insert("setup.probe_build_ms", ledger.build.sum_ns as f64 / 1e6);
    m.insert("fleet.host.build_us", ledger.build.mean_ns() / 1e3);
    m.insert("fleet.host.serve_ns_per_request", ledger.serve.mean_ns());
    m.insert("fleet.host.report_us", ledger.report.mean_ns() / 1e3);
    m.insert("fleet.host.offer_ns", ledger.offer.mean_ns());
    m.insert("fleet.collector.receive_ns", ledger.receive.mean_ns());
    m.insert(
        "fleet.collector.rollup_ms",
        ledger.rollup.sum_ns as f64 / 1e6,
    );
    m.insert("fleet.json_ms", ledger.json.sum_ns as f64 / 1e6);
    m.insert("fleet.reports.produced", acc.produced as f64);
    m.insert("fleet.reports.shed", acc.shed as f64);
    m.insert("fleet.reports.offered", acc.offered as f64);
    m.insert("fleet.reports.delivered", acc.channel_delivered as f64);
    m.insert("fleet.reports.dropped", acc.channel_dropped as f64);
    m.insert("fleet.reports.stale", acc.stale as f64);
    m.insert(
        "fleet.delivered_frac",
        per(acc.channel_delivered as f64, acc.offered),
    );
    m.insert(
        "fleet.report_wire_bytes",
        rollup.transport.report_wire_bytes as f64,
    );
    m.insert(
        "trace.other_pct",
        pct(wall.as_secs_f64() - covered, wall.as_secs_f64()),
    );
    m
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// What one benchmark invocation asks for.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// The workload.
    pub workload: Workload,
    /// Seed the inputs derive from.
    pub seed: u64,
    /// Measurement budget: repetitions start while it lasts (at least one).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Workload size.
    pub size: Size,
}

/// The benchmark's result: human-readable lines, then the result object.
#[derive(Debug)]
pub struct Outcome {
    /// Lines for people, printed before the result.
    pub lines: Vec<String>,
    /// Whether every check passed.
    pub correct: bool,
    /// Units attempted over all repetitions.
    pub attempted: u64,
    /// Units failed over all repetitions.
    pub failed: u64,
    /// `(name, value, unit)` of every reported metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Spans of the last traced repetition.
    pub spans: SpanLog,
}

impl Outcome {
    /// The one-line JSON result object.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs the benchmark as `req` asks: repetitions of the workload (each
/// traced one paired with an untraced one) until the next would overrun
/// `req.seconds`, then the checks and the metrics.
pub fn run(req: Request) -> Outcome {
    let budget = Duration::from_secs_f64(req.seconds.max(0.0));
    let started = Instant::now();
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut spans = SpanLog::default();
    let mut longest = Duration::ZERO;
    loop {
        let rep_started = Instant::now();
        untraced.push(run_rep(req.workload, req.seed, req.size, false, &mut spans));
        if req.trace {
            spans = SpanLog::default();
            traced.push(run_rep(req.workload, req.seed, req.size, true, &mut spans));
        }
        longest = longest.max(rep_started.elapsed());
        if started.elapsed() + longest > budget {
            break;
        }
    }

    let name = req.workload.name();
    let mut lines = Vec::new();
    let all: Vec<&Rep> = untraced.iter().chain(&traced).collect();
    let attempted: u64 = all.iter().map(|r| r.units).sum();
    let mut failed: u64 = all.iter().map(|r| r.failed).sum();
    for why in all.iter().flat_map(|r| &r.failures) {
        lines.push(format!("check failed: {why}"));
    }
    let first = &untraced[0];
    let mismatched: Vec<&Rep> = all
        .iter()
        .copied()
        .filter(|r| r.digest != first.digest)
        .collect();
    if !mismatched.is_empty() {
        lines.push(format!(
            "check failed: {} of {} runs digest differently from the first ({:016x})",
            mismatched.len(),
            all.len(),
            first.digest
        ));
        failed += mismatched.iter().map(|r| r.units - r.failed).sum::<u64>();
    }
    let recorded = match req.size {
        Size::Full => check::recorded_digest(name, req.seed),
        Size::Tiny => None,
    };
    match recorded {
        Some(want) if want != first.digest => {
            lines.push(format!(
                "check failed: digest {:016x} differs from the one recorded for seed {}: {want:016x}",
                first.digest, req.seed
            ));
            failed = attempted;
        }
        Some(_) => lines.push(format!(
            "digest {:016x} matches the recorded one",
            first.digest
        )),
        None => lines.push(format!(
            "digest {:016x} (none recorded for this seed)",
            first.digest
        )),
    }
    let failed = failed.min(attempted);

    let fires = first.fires as f64;
    lines.push(format!(
        "{name}: seed {}, {} untraced + {} traced runs, {} units and {} tracepoint firings per run",
        req.seed,
        untraced.len(),
        traced.len(),
        first.units,
        first.fires
    ));
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall.as_secs_f64()).collect();
    let listed: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    lines.push(format!("untraced run walls (s): {}", listed.join(" ")));
    // Each unit's median over the repetitions, summed: a full run's time
    // with bursts of interference from other tenants of the host
    // filtered out unit by unit rather than only run by run.
    let per_unit = |times: &dyn Fn(&Rep) -> &[Duration]| -> f64 {
        (0..times(first).len())
            .map(|i| {
                let samples: Vec<f64> = untraced
                    .iter()
                    .filter_map(|r| times(r).get(i))
                    .map(Duration::as_secs_f64)
                    .collect();
                median(&samples)
            })
            .sum()
    };
    let heaps: Vec<f64> = untraced
        .iter()
        .map(|r| r.peak_heap as f64 / (1 << 20) as f64)
        .collect();
    let wall = per_unit(&|r| &r.unit_walls);
    let setup = per_unit(&|r| &r.unit_setups);
    let values = [wall, wall * 1e9 / fires.max(1.0), setup, median(&heaps)];
    let end_to_end: Vec<(&'static str, f64, &'static str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    let opt = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.4}"));
    for &(name, value, unit) in &end_to_end {
        lines.push(format!("  {name:<16} {value:>14.6} {unit}"));
    }
    lines.push(format!(
        "  {:<16} {:>14.6} ratio",
        "fail_frac",
        per(failed as f64, attempted)
    ));
    lines.push(format!(
        "  {:<16} {:>14} (sim)",
        "rps_r2",
        opt(first.lowest_rps_r2())
    ));
    for (workload, r2) in &first.rps_r2 {
        lines.push(format!("    {workload:<14} {r2:>14.4}"));
    }
    lines.push(format!(
        "  {:<16} {:>14} (sim)",
        "topk_agreement",
        opt(first.topk_agreement)
    ));

    let metrics = if req.trace {
        let mut keys: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (u, t) in untraced.iter().zip(&traced) {
            let mut layers = t.layers.clone();
            let (tw, uw) = (t.wall.as_secs_f64(), u.wall.as_secs_f64());
            layers.insert("trace.overhead_pct", pct(tw - uw, uw));
            layers.insert("trace.wall_s", tw);
            for (k, v) in layers {
                keys.entry(k).or_default().push(v);
            }
        }
        let value = |name: &str| match name {
            "core.estimator.rps_r2" => first.lowest_rps_r2().unwrap_or(0.0),
            "fleet.sketch.topk_agreement" => first.topk_agreement.unwrap_or(0.0),
            _ => keys.get(name).map_or(0.0, |v| median(v)),
        };
        PER_LAYER.iter().map(|&(n, u)| (n, value(n), u)).collect()
    } else {
        end_to_end
    };
    if req.trace {
        for &(n, v, u) in &metrics {
            lines.push(format!("  {n:<36} {v:>16.4} {u}"));
        }
    }
    Outcome {
        lines,
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        spans,
    }
}
