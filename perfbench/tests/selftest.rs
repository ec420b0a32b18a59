//! Self-tests of the benchmark: its metric names match `BENCHMARK.json`,
//! its correctness check passes on a tiny configuration of every
//! workload, its timing wrappers change no simulated output, and its
//! result line parses.

mod json;

use kscope_core::{BytecodeBackend, WindowedObserver, DEFAULT_SHIFT};
use kscope_kernel::TracepointProbe;
use kscope_perfbench::ledger::{SpanLog, TimedBackend, TimedProbe};
use kscope_perfbench::report::{self, Outcome, Request, END_TO_END, PER_LAYER};
use kscope_perfbench::{check, fleet, Size, Workload, DEFAULT_SEED};
use kscope_simcore::Nanos;
use kscope_syscalls::{pid_tgid, NetCtx, SyscallNo, SyscallProfile, TracePhase, TracepointCtx};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn tiny(workload: Workload, trace: bool) -> Outcome {
    report::run(Request {
        workload,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
    })
}

fn names(section: &str) -> Vec<(String, String)> {
    let bench = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let entries = bench
        .get(section)
        .and_then(json::Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {section} list"));
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| {
                e.get(k)
                    .and_then(json::Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn own(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_and_workload_names_match_benchmark_json() {
    assert_eq!(names("end_to_end"), own(&END_TO_END));
    assert_eq!(names("per_layer"), own(&PER_LAYER));
    let bench = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(json::Value::as_array)
        .expect("workloads list")
        .iter()
        .filter_map(|w| w.get("name").and_then(json::Value::as_str))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

/// Every workload passes its check at a tiny size, untraced and traced
/// (a traced run also compares its digest with an untraced one), and
/// prints exactly the metric set of its mode as a parseable result, with
/// no end-to-end metric at 0. One test, because the heap counters are
/// process-wide and parallel tests would reset each other's peaks.
#[test]
fn tiny_runs_pass_the_check_and_print_every_metric() {
    for workload in Workload::ALL {
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let outcome = tiny(workload, trace);
            assert!(
                outcome.correct && outcome.failed == 0,
                "{} (trace {trace}) failed its check: {:?}",
                workload.name(),
                outcome.lines
            );
            assert!(outcome.attempted >= 1);
            let result = json::parse(&outcome.result_line()).expect("result line parses");
            let keys: Vec<&String> = result
                .as_object()
                .expect("result is an object")
                .keys()
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&json::Value::Bool(true)));
            assert_eq!(
                result.get("failed").and_then(json::Value::as_f64),
                Some(0.0)
            );
            let metrics = result
                .get("metrics")
                .and_then(json::Value::as_object)
                .expect("metrics");
            let mut printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value").and_then(json::Value::as_f64).is_some(),
                        "{name} value"
                    );
                    let unit = m.get("unit").and_then(json::Value::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            let mut want = own(table);
            printed.sort();
            want.sort();
            assert_eq!(printed, want, "{} trace {trace}", workload.name());
            if !trace {
                for &(name, value, _) in &outcome.metrics {
                    assert!(value > 0.0, "{}: {name} = {value}", workload.name());
                }
            }
        }
    }
}

fn ctx(i: u64) -> TracepointCtx {
    let phase = if i.is_multiple_of(2) {
        TracePhase::Enter
    } else {
        TracePhase::Exit
    };
    let no = [
        SyscallNo::EPOLL_WAIT,
        SyscallNo::RECVMSG,
        SyscallNo::SENDMSG,
    ][(i / 2 % 3) as usize];
    TracepointCtx {
        phase,
        no,
        pid_tgid: pid_tgid(1200, 1201),
        ktime: Nanos::from_micros(40 * i),
        ret: 64,
        net: NetCtx::NONE,
    }
}

#[test]
fn wrappers_return_the_inner_charge_unchanged() {
    let backend = || {
        BytecodeBackend::new_multi(vec![1200], SyscallProfile::data_caching(), DEFAULT_SHIFT)
            .expect("probe verifies")
            .with_jit()
    };
    let window = Nanos::from_millis(1);
    let mut plain = WindowedObserver::new(backend(), window);
    let mut timed = TimedProbe::new(WindowedObserver::new(TimedBackend::new(backend()), window));
    for i in 0..2_000 {
        assert_eq!(plain.fire(&ctx(i)), timed.fire(&ctx(i)), "firing {i}");
    }
    plain.finish(Nanos::from_millis(81));
    timed.inner.finish(Nanos::from_millis(81));
    assert!(!plain.windows().is_empty());
    assert_eq!(plain.windows(), timed.inner.windows());
    assert_eq!(timed.fire.count, 2_000);
    assert_eq!(timed.inner.backend().on_event.count, 2_000);
    assert_eq!(
        plain.backend().insns_executed(),
        timed.inner.backend().inner.insns_executed()
    );
}

#[test]
fn traced_fleet_driver_renders_the_same_rollup_json() {
    let config = fleet::config(12, 11);
    let (_, _, untraced) = fleet::run(&config).expect("fleet builds");
    let mut ledger = fleet::FleetLedger::default();
    let mut spans = SpanLog::default();
    let parent = spans.open("unit", None);
    let (run, _, traced) =
        fleet::run_traced(&config, &mut ledger, &mut spans, parent).expect("fleet builds");
    assert_eq!(untraced, traced, "rollup JSON must be byte-identical");
    assert_eq!(ledger.build.count, 12);
    assert_eq!(ledger.serve.count, fleet::requests(&run));
}

#[test]
fn default_seed_digests_are_recorded() {
    for workload in Workload::ALL {
        assert!(
            check::recorded_digest(workload.name(), DEFAULT_SEED).is_some(),
            "no digest recorded for {} at seed {DEFAULT_SEED}",
            workload.name()
        );
    }
}
