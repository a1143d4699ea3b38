//! End-to-end tests of the §7 future-work NDP optimizations:
//! incremental drains (diff consecutive checkpoints, ship only changed
//! blocks) and their interaction with compression, failures and chain
//! limits.

use ndp_checkpoint::cr_node::faults::{FaultPlaneConfig, FaultSite};
use ndp_checkpoint::cr_node::ndp::{IncrementalPolicy, MAX_CHAIN};
use ndp_checkpoint::cr_node::node::{
    ComputeNode, FailureKind, NodeConfig, NodeError, RestoreSource,
};
use ndp_checkpoint::cr_node::remote::ObjectKey;
use ndp_checkpoint::cr_workloads::{by_name, CheckpointGenerator};

fn incr_cfg(max_chain: u32) -> NodeConfig {
    NodeConfig {
        drain_ratio: 1,
        incremental: Some(IncrementalPolicy {
            max_chain,
            diff_block: 16 << 10,
        }),
        block_size: 64 << 10,
        ..NodeConfig::small_test()
    }
}

/// Evolving application state: a base image with a slowly-moving dirty
/// stripe, like an iterative solver touching a working set.
fn evolve(state: &mut [u8], step: u64) {
    let stripe = (step as usize * 30_000) % state.len();
    let end = (stripe + 20_000).min(state.len());
    for b in &mut state[stripe..end] {
        *b = b.wrapping_add(13);
    }
}

#[test]
fn incremental_drains_ship_far_fewer_bytes() {
    let bytes = 4 << 20;
    let image = by_name("HPCCG").unwrap().generate(bytes, 10);

    let run = |incremental: bool| -> (u64, u64) {
        let mut cfg = if incremental {
            incr_cfg(MAX_CHAIN)
        } else {
            NodeConfig {
                drain_ratio: 1,
                ..NodeConfig::small_test()
            }
        };
        cfg.codec = None; // isolate the dedup effect from compression
        let mut node = ComputeNode::new(cfg);
        node.register_app("a");
        let mut state = image.clone();
        for step in 1..=10 {
            evolve(&mut state, step);
            node.checkpoint("a", &state).unwrap();
            node.drain_all().unwrap();
        }
        (node.io().bytes_written, node.ndp_stats().incremental_drains)
    };

    let (full_bytes, full_incr) = run(false);
    let (incr_bytes, incr_count) = run(true);
    assert_eq!(full_incr, 0);
    assert_eq!(incr_count, 9, "after the first full, all are deltas");
    assert!(
        incr_bytes < full_bytes / 5,
        "deltas should slash shipped bytes: {incr_bytes} vs {full_bytes}"
    );
}

#[test]
fn restore_walks_the_delta_chain_byte_exactly() {
    let bytes = 2 << 20;
    let mut node = ComputeNode::new(incr_cfg(MAX_CHAIN));
    node.register_app("a");
    let mut state = by_name("miniFE").unwrap().generate(bytes, 3);
    let mut final_state = state.clone();
    for step in 1..=7 {
        evolve(&mut state, step * 31);
        node.checkpoint("a", &state).unwrap();
        node.drain_all().unwrap();
        final_state = state.clone();
    }
    assert!(node.ndp_stats().incremental_drains >= 6);
    node.inject_failure(FailureKind::NodeLoss);
    let r = node.restore("a").unwrap();
    assert_eq!(r.source, RestoreSource::RemoteIo);
    assert_eq!(r.data, final_state, "chain reconstruction must be exact");
}

#[test]
fn chain_limit_forces_periodic_full_images() {
    let bytes = 1 << 20;
    let mut node = ComputeNode::new(incr_cfg(3));
    node.register_app("a");
    let mut state = by_name("CoMD").unwrap().generate(bytes, 4);
    for step in 1..=9 {
        evolve(&mut state, step * 7);
        node.checkpoint("a", &state).unwrap();
        node.drain_all().unwrap();
    }
    // Drains: full, d, d, d, full, d, d, d, full -> 6 deltas.
    assert_eq!(node.ndp_stats().incremental_drains, 6);
    node.inject_failure(FailureKind::NodeLoss);
    let r = node.restore("a").unwrap();
    assert_eq!(r.data, state);
}

/// A chain at exactly the restore bound (a keyframe plus `MAX_CHAIN`
/// deltas) still restores bit-exactly from remote I/O.
#[test]
fn chain_at_the_bound_restores_from_remote_io() {
    let bytes = 128 << 10;
    let mut node = ComputeNode::new(incr_cfg(MAX_CHAIN));
    node.register_app("a");
    let mut state = by_name("CoMD").unwrap().generate(bytes, 5);
    for step in 0..=u64::from(MAX_CHAIN) {
        evolve(&mut state, step);
        node.checkpoint("a", &state).unwrap();
        node.drain_all().unwrap();
    }
    assert_eq!(node.ndp_stats().incremental_drains, u64::from(MAX_CHAIN));
    node.inject_failure(FailureKind::NodeLoss);
    let r = node.restore("a").unwrap();
    assert_eq!(r.source, RestoreSource::RemoteIo);
    assert_eq!(r.data, state, "the longest chain must restore exactly");
}

/// A policy whose chains the restore would refuse is rejected when the
/// node is built, before any checkpoint can be drained into one.
#[test]
#[should_panic(expected = "max_chain above the restore bound")]
fn chain_limit_above_the_restore_bound_is_rejected() {
    let _ = ComputeNode::new(incr_cfg(MAX_CHAIN + 1));
}

#[test]
fn node_loss_resets_the_diff_base() {
    let bytes = 1 << 20;
    let mut node = ComputeNode::new(incr_cfg(MAX_CHAIN));
    node.register_app("a");
    let mut state = by_name("miniMD").unwrap().generate(bytes, 5);
    node.checkpoint("a", &state).unwrap();
    node.drain_all().unwrap();
    evolve(&mut state, 1);
    node.checkpoint("a", &state).unwrap();
    node.drain_all().unwrap();
    assert_eq!(node.ndp_stats().incremental_drains, 1);

    node.inject_failure(FailureKind::NodeLoss);
    let _ = node.restore("a").unwrap();

    // After node loss the encoder has no base: next drain must be full,
    // and restore from it alone must work.
    evolve(&mut state, 2);
    // The restore rolled state back; continue from the restored point.
    let mut post = node.restore("a").unwrap().data;
    evolve(&mut post, 3);
    node.checkpoint("a", &post).unwrap();
    node.drain_all().unwrap();
    assert_eq!(
        node.ndp_stats().incremental_drains,
        1,
        "post-loss drain must be a full image"
    );
    node.inject_failure(FailureKind::NodeLoss);
    let r = node.restore("a").unwrap();
    assert_eq!(r.data, post);
}

#[test]
fn incremental_composes_with_compression() {
    let bytes = 2 << 20;
    let mut cfg = incr_cfg(MAX_CHAIN);
    cfg.codec = Some(("gz", 1));
    let mut node = ComputeNode::new(cfg);
    node.register_app("a");
    let mut state = by_name("pHPCCG").unwrap().generate(bytes, 6);
    for step in 1..=5 {
        evolve(&mut state, step * 11);
        node.checkpoint("a", &state).unwrap();
        node.drain_all().unwrap();
    }
    node.inject_failure(FailureKind::NodeLoss);
    let r = node.restore("a").unwrap();
    assert_eq!(r.data, state);
    // Compressed deltas: tiny on the wire.
    let shipped = node.io().bytes_written;
    assert!(
        shipped < (bytes as u64) * 2,
        "5 checkpoints shipped in {shipped} bytes"
    );
}

#[test]
fn per_rank_chains_are_independent() {
    let bytes = 512 << 10;
    let mut node = ComputeNode::new(incr_cfg(MAX_CHAIN));
    node.register_app("a");
    let gen = by_name("HPCCG").unwrap();
    let mut states: Vec<Vec<u8>> =
        (0..4).map(|r| gen.generate_rank(bytes, 9, r)).collect();
    for round in 1..=3 {
        for (rank, st) in states.iter_mut().enumerate() {
            evolve(st, round * 17 + rank as u64);
            node.checkpoint_rank("a", rank as u32, st).unwrap();
        }
        node.drain_all().unwrap();
    }
    node.inject_failure(FailureKind::NodeLoss);
    for (rank, st) in states.iter().enumerate() {
        let r = node.restore_rank("a", rank as u32).unwrap();
        assert_eq!(&r.data, st, "rank {rank}");
    }
}

#[test]
fn missing_base_after_manual_tampering_is_detected() {
    // If the chain is broken (base object missing), restore must error
    // rather than return wrong data. Build chain, then kill before the
    // NEXT full; simulate by asking for a rank that has only deltas —
    // construct via two nodes sharing nothing.
    let bytes = 256 << 10;
    let mut node = ComputeNode::new(incr_cfg(2));
    node.register_app("a");
    let st = by_name("CoMD").unwrap().generate(bytes, 8);
    node.checkpoint("a", &st).unwrap();
    node.drain_all().unwrap();
    // Normal restore works.
    node.inject_failure(FailureKind::NodeLoss);
    assert!(node.restore("a").is_ok());
    // A bogus rank has nothing.
    assert!(matches!(
        node.restore_rank("a", 9).unwrap_err(),
        NodeError::NoCheckpoint
    ));
}

/// Whether checkpoint `ckpt_id` of app `a`, rank 0, is sealed remotely.
fn sealed(node: &ComputeNode, ckpt_id: u64) -> bool {
    let key = ObjectKey {
        app_id: "a".into(),
        rank: 0,
        ckpt_id,
    };
    node.io().peek_verified(&key).is_some()
}

#[test]
fn deltas_are_sealed_after_their_base() {
    // The I/O node crashes before sealing delta 1, which is rewound and
    // backs off while delta 2 (based on 1) ships. Sealing 2 first would
    // leave a window in which a node loss finds a newest remote object
    // whose base does not exist.
    let mut node = ComputeNode::new(NodeConfig {
        drain_ratio: 1,
        block_size: 4096,
        incremental: Some(IncrementalPolicy {
            max_chain: 4,
            diff_block: 1024,
        }),
        faults: Some(
            FaultPlaneConfig::disabled(1).with(FaultSite::IoCrash, 1.0),
        ),
        ..NodeConfig::small_test()
    });
    node.register_app("a");
    node.faults_mut().set_active(false);
    let mut state: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
    node.checkpoint("a", &state).unwrap();
    node.drain_all().unwrap();
    state[100] ^= 1;
    node.checkpoint("a", &state).unwrap();
    state[5000] ^= 1;
    node.checkpoint("a", &state).unwrap();

    node.faults_mut().set_active(true);
    for _ in 0..100 {
        node.ndp_step().unwrap();
        if node.faults().count(FaultSite::IoCrash) == 1 {
            break;
        }
    }
    assert_eq!(node.faults().count(FaultSite::IoCrash), 1);
    assert!(!sealed(&node, 1), "the crash hit delta 1's finalize");
    node.faults_mut().set_active(false);

    for _ in 0..100 {
        node.ndp_step().unwrap();
        if sealed(&node, 2) {
            break;
        }
    }
    assert!(sealed(&node, 2), "delta 2 must drain");
    assert!(sealed(&node, 1), "delta 2 was sealed before its base");
    assert_eq!(node.ndp_stats().incremental_drains, 2);
    node.inject_failure(FailureKind::NodeLoss);
    let r = node.restore("a").unwrap();
    assert_eq!(r.meta.ckpt_id, 2);
    assert_eq!(r.data, state);
}
