//! End-to-end recovery scenarios on the functional compute node,
//! driving real mini-app checkpoint data through the NVM → NDP → remote
//! I/O pipeline and back (§4.2–4.3 mechanisms under composed stress).

use ndp_checkpoint::cr_node::ndp::{BackpressurePolicy, StepOutcome};
use ndp_checkpoint::cr_node::node::{
    ComputeNode, FailureKind, NodeConfig, NodeError, RestoreSource,
};
use ndp_checkpoint::cr_workloads::{by_name, CheckpointGenerator};

fn app_image(step: u64, bytes: usize) -> Vec<u8> {
    by_name("miniFE").unwrap().generate_rank(bytes, step, 0)
}

fn cfg() -> NodeConfig {
    NodeConfig {
        drain_ratio: 2,
        block_size: 64 << 10,
        ..NodeConfig::small_test()
    }
}

#[test]
fn repeated_failure_recovery_cycles_stay_consistent() {
    let mut node = ComputeNode::new(cfg());
    node.register_app("fe");
    let bytes = 1 << 20;
    let mut latest;
    let mut latest_drained = Vec::new();

    for step in 0..20u64 {
        let img = app_image(step, bytes);
        node.checkpoint("fe", &img).unwrap();
        node.drain_all().unwrap();
        if step % 2 == 1 {
            // drain_ratio 2: odd steps (2nd, 4th, ...) are drained.
            latest_drained = img.clone();
        }
        latest = img;

        match step % 3 {
            0 => {
                node.inject_failure(FailureKind::LocalSurvivable);
                let r = node.restore("fe").unwrap();
                assert_eq!(r.source, RestoreSource::LocalNvm);
                assert_eq!(r.data, latest, "step {step}");
            }
            1 => {
                node.inject_failure(FailureKind::NodeLoss);
                let r = node.restore("fe").unwrap();
                assert_eq!(r.source, RestoreSource::RemoteIo);
                assert_eq!(r.data, latest_drained, "step {step}");
            }
            _ => {} // no failure this step
        }
    }
}

#[test]
fn node_loss_mid_drain_is_atomic() {
    // Kill the node at every possible point of a drain; recovery must
    // always produce either the previous durable checkpoint or the new
    // one — never a torn mix.
    let bytes = 512 << 10;
    let old = app_image(1, bytes);
    let new = app_image(2, bytes);

    // Number of steps a full drain takes with this geometry.
    let total_steps = {
        let mut node = ComputeNode::new(NodeConfig {
            drain_ratio: 1,
            ..cfg()
        });
        node.register_app("fe");
        node.checkpoint("fe", &new).unwrap();
        let mut n = 0;
        loop {
            match node.ndp_step().unwrap() {
                StepOutcome::Idle => break,
                _ => n += 1,
            }
        }
        n
    };
    assert!(total_steps > 4, "drain too short to be interesting");

    for kill_at in [0, 1, total_steps / 2, total_steps - 1, total_steps] {
        let mut node = ComputeNode::new(NodeConfig {
            drain_ratio: 1,
            ..cfg()
        });
        node.register_app("fe");
        node.checkpoint("fe", &old).unwrap();
        node.drain_all().unwrap();
        node.checkpoint("fe", &new).unwrap();
        for _ in 0..kill_at {
            node.ndp_step().unwrap();
        }
        node.inject_failure(FailureKind::NodeLoss);
        let r = node.restore("fe").unwrap();
        assert_eq!(r.source, RestoreSource::RemoteIo);
        assert!(
            r.data == old || r.data == new,
            "kill_at {kill_at}: torn restore (got neither image)"
        );
        if r.data == new {
            assert_eq!(r.meta.ckpt_id, 1);
        } else {
            assert_eq!(r.meta.ckpt_id, 0);
        }
    }
}

#[test]
fn spill_policy_survives_blocked_nic_then_node_loss() {
    let mut node = ComputeNode::new(NodeConfig {
        drain_ratio: 1,
        policy: BackpressurePolicy::Spill,
        nic_blocks: 2,
        ..cfg()
    });
    node.register_app("fe");
    let img = app_image(7, 1 << 20);
    node.checkpoint("fe", &img).unwrap();

    // Block the NIC: the NDP keeps compressing, spilling to NVM.
    node.nic_blocked(true);
    loop {
        match node.ndp_step().unwrap() {
            StepOutcome::Stalled | StepOutcome::Idle => break,
            _ => {}
        }
    }
    assert!(node.ndp_stats().blocks_spilled > 0);

    // Node loss while everything is spilled: nothing durable remotely.
    node.inject_failure(FailureKind::NodeLoss);
    assert!(matches!(
        node.restore("fe").unwrap_err(),
        NodeError::NoCheckpoint
    ));
}

#[test]
fn spill_policy_completes_after_nic_unblocks() {
    let mut node = ComputeNode::new(NodeConfig {
        drain_ratio: 1,
        policy: BackpressurePolicy::Spill,
        nic_blocks: 2,
        ..cfg()
    });
    node.register_app("fe");
    let img = app_image(8, 1 << 20);
    node.checkpoint("fe", &img).unwrap();
    node.nic_blocked(true);
    loop {
        match node.ndp_step().unwrap() {
            StepOutcome::Stalled | StepOutcome::Idle => break,
            _ => {}
        }
    }
    node.nic_blocked(false);
    node.drain_all().unwrap();
    node.inject_failure(FailureKind::NodeLoss);
    let r = node.restore("fe").unwrap();
    assert_eq!(r.data, img, "spilled blocks must ship in order");
}

#[test]
fn sixteen_rank_coordinated_checkpoint() {
    // The paper's study checkpoints 16 MPI ranks per app; all ranks
    // must drain and restore independently.
    let mut node = ComputeNode::new(NodeConfig {
        drain_ratio: 1,
        nvm_uncompressed: 256 << 20,
        nvm_compressed: 128 << 20,
        ..cfg()
    });
    node.register_app("fe");
    let gen = by_name("pHPCCG").unwrap();
    let images: Vec<Vec<u8>> = (0..16)
        .map(|rank| gen.generate_rank(256 << 10, 3, rank))
        .collect();
    for (rank, img) in images.iter().enumerate() {
        node.checkpoint_rank("fe", rank as u32, img).unwrap();
    }
    node.drain_all().unwrap();
    node.inject_failure(FailureKind::NodeLoss);
    for (rank, img) in images.iter().enumerate() {
        let r = node.restore_rank("fe", rank as u32).unwrap();
        assert_eq!(&r.data, img, "rank {rank}");
        assert_eq!(r.source, RestoreSource::RemoteIo);
    }
}

#[test]
fn host_waits_for_ndp_when_every_slot_is_locked() {
    let mut node = ComputeNode::new(NodeConfig {
        drain_ratio: 3,
        nvm_uncompressed: 24 << 20, // forces wraparound
        ..cfg()
    });
    node.register_app("fe");
    let bytes = 2 << 20;
    let mut last_img = Vec::new();
    let mut refused = 0u32;
    for step in 0..30u64 {
        last_img = app_image(step, bytes);
        // When the circular buffer holds only locked (draining)
        // checkpoints the commit is refused, and the host waits for the
        // NDP to read one out before retrying (§4.2.2).
        loop {
            match node.checkpoint("fe", &last_img) {
                Ok(_) => break,
                Err(NodeError::Nvm(_)) => {
                    refused += 1;
                    node.ndp_step().unwrap();
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
    }
    node.drain_all().unwrap();
    assert!(refused > 0, "no checkpoint was refused");
    assert_eq!(node.ndp_stats().drains_completed, 9);
    assert_eq!(node.nvm().evictions, 18);

    // The newest local checkpoint equals the last image.
    let r = node.restore("fe").unwrap();
    assert_eq!(r.source, RestoreSource::LocalNvm);
    assert_eq!(r.data, last_img);
}
