//! Observability determinism grid: attaching the event bus must leave
//! every observed computation bit-identical to the unobserved one, and
//! the artifacts the bus produces must themselves be deterministic
//! across runs.

use ndp_checkpoint::cr_node::faults::FaultPlaneConfig;
use ndp_checkpoint::cr_node::ndp::StepOutcome;
use ndp_checkpoint::cr_node::node::{ComputeNode, NodeConfig};
use ndp_checkpoint::cr_obs::analyze::IndicatorReport;
use ndp_checkpoint::cr_obs::{Bus, VecSink};
use ndp_checkpoint::cr_sim::trace::{Lane, MarkKind, SpanKind};
use ndp_checkpoint::cr_sim::{run_engine, simulate, SimOptions, Trace};
use ndp_checkpoint::prelude::*;

fn sys() -> SystemParams {
    SystemParams::exascale_default()
}

fn strat() -> Strategy {
    Strategy::local_io_ndp(0.85, None)
}

/// The central guarantee: a pinned-seed simulation produces the same
/// SimResult whether the bus is disabled or recording.
#[test]
fn sim_results_are_identical_with_the_bus_on_or_off() {
    let opts = SimOptions::quick(20260807);
    let baseline = run_engine(&sys(), &strat(), &opts, &Bus::disabled());
    let buses: Vec<(&str, Bus)> = vec![
        ("off", Bus::disabled()),
        ("vec", Bus::with_sink(VecSink::new())),
    ];
    for (name, bus) in buses {
        let r = run_engine(&sys(), &strat(), &opts, &bus);
        assert_eq!(
            r.breakdown, baseline.breakdown,
            "breakdown drifted under sink {name}"
        );
        assert_eq!(
            r.stats, baseline.stats,
            "stats drifted under sink {name}"
        );
        assert_eq!(
            format!("{r:?}"),
            format!("{baseline:?}"),
            "debug dump drifted under sink {name}"
        );
    }
}

/// Two observed runs with the same seed must render byte-identical
/// event streams (the JSON artifact is as deterministic as the run).
#[test]
fn json_event_stream_is_deterministic() {
    let opts = SimOptions::quick(7);
    let render = |_: u32| {
        let bus = Bus::with_sink(VecSink::new());
        run_engine(&sys(), &strat(), &opts, &bus);
        bus.render()
    };
    let a = render(0);
    let b = render(1);
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

/// The Figure 3 timeline is rebuilt from the raw event stream: it must
/// come from a run bit-identical to the unobserved one, and account for
/// every simulated second and every counted failure and I/O commit.
#[test]
fn trace_rebuilt_from_events_matches_traced_run() {
    let opts = SimOptions::quick(11);
    let bus = Bus::with_sink(VecSink::new());
    let r = run_engine(&sys(), &strat(), &opts, &bus);
    let trace = Trace::from_events(&bus.drain());
    let plain = simulate(&sys(), &strat(), &opts);
    assert_eq!(r.breakdown, plain.breakdown);
    assert_eq!(r.stats, plain.stats);

    let host_secs = |kind: SpanKind| -> f64 {
        trace
            .spans
            .iter()
            .filter(|s| s.lane == Lane::Host && s.kind == kind)
            .map(|s| s.t1 - s.t0)
            .sum()
    };
    let b = r.breakdown;
    for (kind, want) in [
        (SpanKind::Compute, b.compute + b.rerun_local + b.rerun_io),
        (SpanKind::CkptLocal, b.checkpoint_local),
        (SpanKind::CkptIo, b.checkpoint_io),
        (SpanKind::RestoreLocal, b.restore_local),
        (SpanKind::RestoreIo, b.restore_io),
    ] {
        let got = host_secs(kind);
        assert!(
            (got - want).abs() <= 1e-6 * want.max(1.0),
            "{kind:?}: spans {got} vs breakdown {want}"
        );
    }
    let marks = |kind: MarkKind| {
        trace.marks.iter().filter(|m| m.kind == kind).count() as u64
    };
    assert_eq!(marks(MarkKind::Failure), r.stats.failures);
    assert_eq!(marks(MarkKind::IoDurable), r.stats.io_ckpts);
    assert!(trace.spans.iter().any(|s| s.lane == Lane::Ndp));
}

fn chaos_node(bus: Option<&Bus>) -> ComputeNode {
    let cfg = NodeConfig {
        drain_ratio: 1,
        codec: Some(("gz", 1)),
        faults: Some(FaultPlaneConfig::uniform(99, 0.05)),
        ..NodeConfig::small_test()
    };
    let mut node = ComputeNode::new(cfg);
    node.register_app("obs");
    if let Some(bus) = bus {
        node.set_observer(bus);
    }
    node
}

fn drive(node: &mut ComputeNode) {
    for i in 0..6u8 {
        let img = vec![i.wrapping_mul(37); 96 << 10];
        let _ = node.checkpoint("obs", &img);
        for _ in 0..200 {
            if matches!(node.ndp_step(), Ok(StepOutcome::Idle)) {
                break;
            }
        }
    }
}

/// The functional emulation under fault injection: the full node
/// (NVM + NDP + NIC + remote + fault plane) behaves identically with
/// an observer attached, and the bus mirrors the fault log one-to-one.
#[test]
fn node_behaviour_is_identical_with_observer_attached() {
    let mut plain = chaos_node(None);
    drive(&mut plain);

    let bus = Bus::with_sink(VecSink::new());
    let mut observed = chaos_node(Some(&bus));
    drive(&mut observed);

    assert_eq!(
        format!("{:?}", plain.ndp_stats()),
        format!("{:?}", observed.ndp_stats())
    );
    assert_eq!(
        plain.faults().render_log(),
        observed.faults().render_log()
    );
    let events = bus.drain();
    assert!(!events.is_empty(), "observed node must emit events");
    let fault_events =
        events.iter().filter(|e| e.kind.name() == "fault").count();
    assert_eq!(fault_events, observed.faults().events().len());
}

/// Event-count snapshots built from the same deterministic run are
/// byte-identical (sorted keys, stable float rendering).
#[test]
fn metrics_snapshot_is_deterministic() {
    let snapshot = |_: u32| {
        let bus = Bus::with_sink(VecSink::new());
        run_engine(&sys(), &strat(), &SimOptions::quick(3), &bus);
        let mut m = IndicatorReport::new("grid");
        for e in bus.drain() {
            m.add(&format!("events_{}", e.kind.name()), 1.0);
        }
        m.to_json()
    };
    let a = snapshot(0);
    let b = snapshot(1);
    assert!(a.contains("\"schema\": \"indicators/v1\""));
    assert!(a.contains("\"events_span\": "));
    assert_eq!(a, b);
}
