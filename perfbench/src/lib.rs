//! kscope's end-to-end benchmark.
//!
//! Three workloads, each run on one simulation worker:
//!
//! * `paper_sweep` — the Fig. 2–4 sweep: nine paper workloads × 13 load
//!   levels, verified bytecode probe on the JIT;
//! * `netstack_impaired` — data caching at half its failure load under
//!   the six `fig_netstack` network conditions, netstack probe pair
//!   attached, on the JIT;
//! * `fleet_scale` — 2000 `FleetConfig::scale` hosts over a 5% lossy
//!   control channel, the fleet's default interpreted probes.
//!
//! An untraced run goes through the library's entry points unchanged and
//! yields the end-to-end metrics. A traced run repeats the same work
//! through timing wrappers in this crate and yields the per-layer
//! metrics. Both digest the simulated outputs; the digests must agree
//! with each other, across repetitions, and with the digest recorded for
//! the seed.

pub mod check;
pub mod fleet;
pub mod heap;
pub mod ledger;
pub mod report;
pub mod single;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use kscope_core::RpsEstimator;
use kscope_experiments::fig_netstack;
use kscope_experiments::sweep::SweepConfig;
use kscope_experiments::Scale;
use kscope_simcore::Nanos;
use kscope_workloads::{all_paper_workloads, data_caching};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

use check::Digest;
use ledger::{SpanLog, Stat};
use single::{SingleLedger, Unit, UnitOut};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's load sweep.
    PaperSweep,
    /// Data caching under impaired networks with the netstack probes.
    NetstackImpaired,
    /// A few thousand small fleet hosts.
    FleetScale,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::NetstackImpaired,
        Workload::FleetScale,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::NetstackImpaired => "netstack_impaired",
            Workload::FleetScale => "fleet_scale",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's size; recorded digests apply.
    Full,
    /// A seconds-scale configuration of the same shape, for self-tests.
    Tiny,
}

/// `fig_netstack`'s full-scale measurement period is 16 000 requests;
/// the benchmark measures this many times longer so one run is seconds.
pub const NETSTACK_LENGTHEN: f64 = 4.0;
/// Hosts in `fleet_scale`.
pub const FLEET_HOSTS: usize = 2_000;
/// The seed whose digests the benchmark records first.
pub const DEFAULT_SEED: u64 = 7;

/// The paper sweep's workloads and sweep configuration at `size`.
pub fn sweep_plan(size: Size) -> (Vec<kscope_workloads::WorkloadSpec>, SweepConfig) {
    match size {
        Size::Full => (all_paper_workloads(), SweepConfig::full()),
        Size::Tiny => {
            let mut config = SweepConfig::quick();
            config.fractions = vec![0.2, 0.5, 0.8];
            (all_paper_workloads().into_iter().take(2).collect(), config)
        }
    }
}

/// The single-host units of `workload` at `seed`, in invariant groups of
/// the returned length: one group per paper workload swept, one group
/// for all netstack conditions.
pub fn single_units(workload: Workload, seed: u64, size: Size) -> (Vec<Unit>, usize) {
    match workload {
        Workload::PaperSweep => {
            let (specs, config) = sweep_plan(size);
            let mut units = Vec::new();
            for spec in &specs {
                for (i, &fraction) in config.fractions.iter().enumerate() {
                    let level_seed = seed.wrapping_add(i as u64);
                    units.push(single::sweep_unit(spec, fraction, &config, level_seed));
                }
            }
            (units, config.fractions.len())
        }
        Workload::NetstackImpaired => {
            let spec = data_caching();
            let offered = spec.paper_failure_rps * 0.5;
            let (scale, requests) = match size {
                Size::Full => (Scale::Full, 16_000.0 * NETSTACK_LENGTHEN),
                Size::Tiny => (Scale::Quick, 3_000.0),
            };
            let measure = Nanos::from_secs_f64(requests / offered);
            let units: Vec<Unit> = fig_netstack::conditions(scale)
                .iter()
                .enumerate()
                .map(|(i, cond)| {
                    let unit_seed = seed.wrapping_add(i as u64);
                    single::netstack_unit(&spec, cond, offered, measure, unit_seed)
                })
                .collect();
            let n = units.len();
            (units, n)
        }
        Workload::FleetScale => (Vec::new(), 1),
    }
}

/// Hosts in `fleet_scale` at `size`.
pub fn fleet_hosts(size: Size) -> usize {
    match size {
        Size::Full => FLEET_HOSTS,
        Size::Tiny => 16,
    }
}

/// One complete run of a workload.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host time of the run, set-up included for single-host workloads.
    pub wall: Duration,
    /// Peak bytes live on the heap during the run, above what was live
    /// before it.
    pub peak_heap: usize,
    /// Host time of each unit (set-up included); one entry for the fleet,
    /// whose units run inside one library call.
    pub unit_walls: Vec<Duration>,
    /// Host time in constructors before each unit's first event (untraced
    /// runs); one entry for the fleet.
    pub unit_setups: Vec<Duration>,
    /// Simulated tracepoint firings.
    pub fires: u64,
    /// Units (levels, conditions, hosts) attempted.
    pub units: u64,
    /// Units that errored or failed a check.
    pub failed: u64,
    /// Why units failed.
    pub failures: Vec<String>,
    /// Digest of every unit's simulated outputs.
    pub digest: u64,
    /// Each paper workload's R² of RPS_obsv vs achieved RPS, in sweep
    /// order (`paper_sweep`).
    pub rps_r2: Vec<(String, f64)>,
    /// Sketch vs exact Top-K agreement (`fleet_scale`).
    pub topk_agreement: Option<f64>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Rep {
    /// The lowest per-workload R² (`paper_sweep`).
    pub fn lowest_rps_r2(&self) -> Option<f64> {
        self.rps_r2.iter().map(|(_, r2)| *r2).reduce(f64::min)
    }

    fn fail(&mut self, units: u64, why: String) {
        self.failed = (self.failed + units).min(self.units);
        self.failures.push(why);
    }
}

/// Runs `workload` once, untraced (`traced == false`) or traced. A
/// traced run records its coarse spans in `spans`.
pub fn run_rep(
    workload: Workload,
    seed: u64,
    size: Size,
    traced: bool,
    spans: &mut SpanLog,
) -> Rep {
    let base = heap::reset_peak();
    let mut rep = match workload {
        Workload::FleetScale => fleet_rep(seed, size, traced, spans),
        _ => single_rep(workload, seed, size, traced, spans),
    };
    rep.peak_heap = heap::peak().saturating_sub(base);
    rep
}

fn single_rep(workload: Workload, seed: u64, size: Size, traced: bool, spans: &mut SpanLog) -> Rep {
    let (units, group) = single_units(workload, seed, size);
    let mut rep = Rep {
        units: units.len() as u64,
        ..Rep::default()
    };
    let mut setup = Stat::default();
    let mut ledger = SingleLedger::default();
    let mut outs: Vec<Option<UnitOut>> = Vec::with_capacity(units.len());
    let started = Instant::now();
    for unit in &units {
        let unit_started = Instant::now();
        let setup_before = setup.sum_ns;
        let out = if traced {
            let span = spans.open("unit", None);
            let out = single::run_unit_traced(unit, &mut ledger, spans, span);
            spans.close(span);
            out
        } else {
            single::run_unit(unit, &mut setup)
        };
        rep.unit_walls.push(unit_started.elapsed());
        rep.unit_setups
            .push(Duration::from_nanos(setup.sum_ns - setup_before));
        outs.push(
            out.map_err(|e| rep.fail(1, format!("probe build: {e}")))
                .ok(),
        );
    }
    rep.wall = started.elapsed();

    let mut digest = Digest::default();
    for out in &outs {
        digest.u64(out.as_ref().map_or(0, UnitOut::digest));
        rep.fires += out.as_ref().map_or(0, UnitOut::fires);
    }
    rep.digest = digest.value();

    for (units, outs) in units.chunks(group).zip(outs.chunks(group)) {
        let done = || {
            units
                .iter()
                .zip(outs)
                .filter_map(|(u, o)| Some((u, o.as_ref()?)))
        };
        match workload {
            Workload::PaperSweep => {
                // As in fig2: windows with at least half the target send
                // samples, each against its level's achieved RPS.
                let min_samples = sweep_plan(size).1.min_send_samples / 2;
                let points: Vec<(f64, f64)> = done()
                    .flat_map(|(unit, out)| {
                        out.measured_windows(unit)
                            .filter(|w| w.send_samples >= min_samples)
                            .filter_map(|w| Some((w.rps_obsv?, out.achieved_rps)))
                    })
                    .collect();
                let r2 = check::rps_r2(&points).unwrap_or(0.0);
                rep.rps_r2.push((units[0].spec.name.clone(), r2));
                let floor = check::rps_r2_floor(&units[0].spec.name);
                if r2 < floor {
                    let why = format!("{}: RPS R² {r2:.4} < {floor:.4}", units[0].spec.name);
                    rep.fail(units.len() as u64, why);
                }
            }
            Workload::NetstackImpaired => {
                let conditions: Vec<(f64, f64)> = done()
                    .map(|(unit, out)| {
                        let windows: Vec<_> = out.measured_windows(unit).copied().collect();
                        let rps = RpsEstimator::with_min_samples(64)
                            .from_windows(&windows)
                            .unwrap_or(0.0);
                        let stack = out.stack.as_ref().and_then(|s| s.mean_ns()).unwrap_or(0.0);
                        (rps, stack)
                    })
                    .collect();
                let (inflation, divergence) = check::netstack_separation(&conditions);
                if !(inflation > check::MIN_STACK_INFLATION
                    && divergence < check::MAX_RPS_DIVERGENCE)
                {
                    let why =
                        format!("stack inflation {inflation:.3}, RPS divergence {divergence:.4}");
                    rep.fail(units.len() as u64, why);
                }
            }
            Workload::FleetScale => unreachable!("fleet runs take fleet_rep"),
        }
    }

    if traced {
        rep.layers = report::single_layers(&ledger, &outs, rep.wall);
    }
    rep
}

fn fleet_rep(seed: u64, size: Size, traced: bool, spans: &mut SpanLog) -> Rep {
    let config = fleet::config(fleet_hosts(size), seed);
    let mut rep = Rep {
        units: config.hosts as u64,
        ..Rep::default()
    };
    let mut ledger = fleet::FleetLedger::default();
    let started = Instant::now();
    let result = if traced {
        let span = spans.open("unit", None);
        let result = fleet::run_traced(&config, &mut ledger, spans, span);
        spans.close(span);
        result
    } else {
        let setup_started = Instant::now();
        let built = fleet::build_pass(&config);
        rep.unit_setups = vec![setup_started.elapsed()];
        built.and_then(|()| {
            let run_started = Instant::now();
            let result = fleet::run(&config);
            rep.wall = run_started.elapsed();
            result
        })
    };
    if traced {
        rep.wall = started.elapsed();
    }
    rep.unit_walls = vec![rep.wall];
    let (run, rollup, json) = match result {
        Ok(done) => done,
        Err(e) => {
            rep.fail(rep.units, format!("host build: {e}"));
            return rep;
        }
    };
    let mut digest = Digest::default();
    digest.bytes(json.as_bytes());
    rep.digest = digest.value();
    rep.fires = fleet::fires(&run);
    rep.topk_agreement = Some(fleet::topk_agreement(&run, &rollup));
    let unbalanced = run
        .truth
        .iter()
        .filter(|t| t.produced != t.shed + t.offered || t.offered != t.delivered + t.dropped)
        .count() as u64;
    if unbalanced > 0 {
        rep.fail(
            unbalanced,
            format!("{unbalanced} hosts' report accounting does not conserve"),
        );
    }
    if !check::fleet_conserves(&rollup) {
        rep.fail(
            rep.units,
            "fleet report accounting does not conserve".to_string(),
        );
    }
    if traced {
        rep.layers = report::fleet_layers(&ledger, &run, &rollup, rep.wall);
    }
    rep
}
