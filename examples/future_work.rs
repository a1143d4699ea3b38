//! Showcase of the paper's §7 future-work NDP optimizations, as
//! implemented in this reproduction: incremental drains, the partner
//! checkpoint level, and end-to-end integrity with corruption fallback.
//!
//! ```sh
//! cargo run --release --example future_work
//! ```

use ndp_checkpoint::cr_node::ndp::IncrementalPolicy;
use ndp_checkpoint::cr_node::node::{
    ComputeNode, FailureKind, NodeConfig, RestoreSource,
};
use ndp_checkpoint::cr_workloads::{by_name, CheckpointGenerator};

fn main() {
    incremental_drains();
    partner_and_integrity();
}

/// §7: "NDP is well suited to compare data for consecutive checkpoints".
fn incremental_drains() {
    println!("== incremental NDP drains ==");
    let mut node = ComputeNode::new(NodeConfig {
        drain_ratio: 1,
        incremental: Some(IncrementalPolicy {
            max_chain: 4,
            diff_block: 64 << 10,
        }),
        ..NodeConfig::small_test()
    });
    node.register_app("solver");
    // A solver whose working set drifts slowly between checkpoints.
    let mut state = by_name("HPCCG").unwrap().generate(8 << 20, 1);
    for step in 1..=6u64 {
        let stripe = (step as usize * 120_000) % state.len();
        let end = (stripe + 90_000).min(state.len());
        for b in &mut state[stripe..end] {
            *b = b.wrapping_add(3);
        }
        node.checkpoint("solver", &state).unwrap();
        node.drain_all().unwrap();
    }
    let stats = node.ndp_stats();
    println!(
        "  6 checkpoints drained: {} full + {} incremental; {} bytes on the wire",
        stats.drains_completed - stats.incremental_drains,
        stats.incremental_drains,
        node.io().bytes_written
    );
    node.inject_failure(FailureKind::NodeLoss);
    let restored = node.restore("solver").unwrap();
    assert_eq!(restored.data, state);
    println!(
        "  node loss -> restored checkpoint #{} by walking the delta chain, byte-exact\n",
        restored.meta.ckpt_id
    );
}

/// §3.4 partner level + CRC-64 integrity with graceful degradation.
fn partner_and_integrity() {
    println!("== partner level + integrity fallback ==");
    let mut node = ComputeNode::new(NodeConfig {
        drain_ratio: 1,
        partner_ratio: 1,
        ..NodeConfig::small_test()
    });
    node.register_app("app");
    let img = by_name("CoMD").unwrap().generate(2 << 20, 5);
    node.checkpoint("app", &img).unwrap();
    node.drain_all().unwrap();

    // NVM bit-rot: the local copy silently corrupts.
    assert!(node.tamper_local("app", 0));
    let r = node.restore("app").unwrap();
    assert_eq!(r.source, RestoreSource::Partner);
    assert_eq!(r.data, img);
    println!(
        "  local copy corrupted -> detected by CRC-64, served from the partner ({} corruption logged)",
        node.corruptions_detected()
    );

    node.inject_failure(FailureKind::PairLoss);
    let r = node.restore("app").unwrap();
    assert_eq!(r.source, RestoreSource::RemoteIo);
    assert_eq!(r.data, img);
    println!("  pair loss -> recovered from global I/O, byte-exact");
}
