//! Small-scope exhaustive check of the NDP drain protocol (DESIGN §5d).
//!
//! Three fixed host scripts run on a tiny node (1 KiB blocks, images of
//! one or two blocks): a full drain, a keyframe plus two deltas, and a
//! `Spill` drain with NIC depth 1 under a blocked network. For every
//! (engine step, fault site) pair the script is replayed with exactly
//! that one fault injected at that step; then, at every later step
//! boundary, the same run is replayed on a fresh node, the node is lost
//! and its restore is checked. Invariants:
//!
//! * after every step, every sealed delta's base is sealed;
//! * after a node loss, the restore returns the newest sealed
//!   checkpoint bit-exactly, or `NoCheckpoint` when nothing is sealed;
//! * once the engine is idle, every checkpoint is sealed, no slot is
//!   locked, no remote object is incomplete, and the NIC and the spill
//!   region are empty.

use ndp_checkpoint::cr_node::faults::{FaultPlaneConfig, FaultSite, FAULT_SITES};
use ndp_checkpoint::cr_node::ndp::{
    BackpressurePolicy, IncrementalPolicy, NdpStats, StepOutcome,
};
use ndp_checkpoint::cr_node::node::{
    ComputeNode, FailureKind, NodeConfig, NodeError, RestoreSource,
};
use ndp_checkpoint::cr_node::nvm::Region;
use ndp_checkpoint::cr_node::remote::ObjectKey;

const APP: &str = "app";
const BLOCK: usize = 1024;
/// Engine steps after which a run that has not gone idle is a liveness
/// failure.
const STEP_BUDGET: usize = 200;

/// One host action.
#[derive(Clone, Copy)]
enum Op {
    /// Checkpoint the script's next image.
    Ckpt,
    /// Block or unblock the NIC.
    Nic(bool),
    /// One NDP step.
    Step,
}

struct Script {
    name: &'static str,
    cfg: NodeConfig,
    /// Image of checkpoint `i`, in checkpoint order.
    images: Vec<Vec<u8>>,
    /// Host actions; the engine is then stepped until idle.
    ops: Vec<Op>,
    /// What the fault-free run must show, so the script exercises what
    /// its name says.
    shape: fn(&NdpStats) -> bool,
}

fn image(len: usize, tag: u8) -> Vec<u8> {
    (0..len).map(|i| ((i * 7) % 251) as u8 ^ tag).collect()
}

fn tiny_node() -> NodeConfig {
    NodeConfig {
        nvm_uncompressed: 1 << 20,
        nvm_compressed: 1 << 20,
        block_size: BLOCK,
        drain_ratio: 1,
        ..NodeConfig::small_test()
    }
}

fn scripts() -> Vec<Script> {
    let base = image(2 * BLOCK, 0);
    let mut d1 = base.clone();
    d1[100] ^= 1;
    let mut d2 = d1.clone();
    d2[1500] ^= 1;
    vec![
        Script {
            name: "full drain",
            cfg: tiny_node(),
            images: vec![base.clone()],
            ops: vec![Op::Ckpt],
            shape: |s| s.blocks_compressed == 2,
        },
        Script {
            name: "keyframe and two deltas",
            cfg: NodeConfig {
                incremental: Some(IncrementalPolicy {
                    max_chain: 4,
                    diff_block: 256,
                }),
                ..tiny_node()
            },
            images: vec![base.clone(), d1, d2],
            ops: vec![Op::Ckpt, Op::Ckpt, Op::Ckpt],
            shape: |s| s.incremental_drains == 2,
        },
        Script {
            name: "spill with NIC depth 1",
            cfg: NodeConfig {
                policy: BackpressurePolicy::Spill,
                nic_blocks: 1,
                ..tiny_node()
            },
            images: vec![base, image(BLOCK, 9)],
            ops: vec![
                Op::Ckpt,
                Op::Ckpt,
                Op::Nic(true),
                Op::Step,
                Op::Step,
                Op::Step,
                Op::Nic(false),
            ],
            shape: |s| s.blocks_spilled == 2,
        },
    ]
}

fn key(ckpt_id: u64) -> ObjectKey {
    ObjectKey {
        app_id: APP.into(),
        rank: 0,
        ckpt_id,
    }
}

/// Newest checkpoint sealed on the remote node.
fn newest_sealed(node: &ComputeNode, script: &Script) -> Option<u64> {
    (0..script.images.len() as u64)
        .rev()
        .find(|&id| node.io().peek_verified(&key(id)).is_some())
}

fn check_seal_order(node: &ComputeNode, script: &Script, at: &str) {
    for id in 0..script.images.len() as u64 {
        let Some(meta) = node.io().peek_verified(&key(id)) else {
            continue;
        };
        if let Some(base) = meta.base {
            assert!(
                node.io().peek_verified(&key(base)).is_some(),
                "{at}: delta {id} sealed before its base {base}"
            );
        }
    }
}

fn check_restore_after_loss(node: &mut ComputeNode, script: &Script, at: &str) {
    node.inject_failure(FailureKind::NodeLoss);
    let newest = newest_sealed(node, script);
    match node.restore(APP) {
        Ok(r) => {
            assert_eq!(r.source, RestoreSource::RemoteIo, "{at}");
            assert_eq!(Some(r.meta.ckpt_id), newest, "{at}: not the newest");
            assert!(
                r.data == script.images[r.meta.ckpt_id as usize],
                "{at}: restored bytes differ from checkpoint {}",
                r.meta.ckpt_id
            );
        }
        Err(NodeError::NoCheckpoint) => {
            assert_eq!(newest, None, "{at}: sealed checkpoint unreachable")
        }
        Err(e) => panic!("{at}: restore failed: {e}"),
    }
}

fn check_quiescent(node: &ComputeNode, script: &Script, at: &str) {
    for id in 0..script.images.len() as u64 {
        assert!(
            node.io().peek_verified(&key(id)).is_some(),
            "{at}: idle before checkpoint {id} was sealed"
        );
    }
    let nvm = node.nvm();
    assert!(
        nvm.slots(Region::Uncompressed).all(|s| !s.locked),
        "{at}: slot left locked"
    );
    assert_eq!(nvm.used(Region::Compressed), 0, "{at}: spill leaked");
    assert_eq!(node.io().incomplete_count(), 0, "{at}: partial object");
    assert_eq!(node.nic_depth(), 0, "{at}: NIC not empty");
}

/// What one replay observed.
struct Replay {
    /// Engine steps taken (up to idle, or up to the node loss).
    steps: usize,
    /// Whether the injected fault fired.
    fired: bool,
    /// Engine counters at the end of the replay.
    stats: NdpStats,
}

/// Replays `script` on a fresh node. `fault` arms `site` for engine
/// step `k` alone (0-based); `loss_at` loses the node at the step
/// boundary after that many steps and checks the restore.
fn replay(
    script: &Script,
    fault: Option<(FaultSite, usize)>,
    loss_at: Option<usize>,
) -> Replay {
    let mut node = ComputeNode::new(NodeConfig {
        faults: fault
            .map(|(site, _)| FaultPlaneConfig::disabled(1).with(site, 1.0)),
        ..script.cfg.clone()
    });
    node.register_app(APP);
    node.faults_mut().set_active(false);
    let at = |steps: usize| {
        let f = fault.map_or("no fault".into(), |(s, k)| format!("{s}@{k}"));
        format!("{} [{f}, step {steps}]", script.name)
    };

    let mut steps = 0;
    let mut images = script.images.iter();
    let mut ops = script.ops.iter().copied();
    loop {
        match ops.next() {
            Some(Op::Ckpt) => {
                node.checkpoint(APP, images.next().unwrap()).unwrap();
                continue;
            }
            Some(Op::Nic(blocked)) => {
                node.nic_blocked(blocked);
                continue;
            }
            Some(Op::Step) | None => {}
        }
        if loss_at == Some(steps) {
            check_restore_after_loss(&mut node, script, &at(steps));
            break;
        }
        assert!(steps < STEP_BUDGET, "{}: no progress", at(steps));
        node.faults_mut()
            .set_active(fault.is_some_and(|(_, k)| k == steps));
        let outcome = node.ndp_step().unwrap();
        node.faults_mut().set_active(false);
        steps += 1;
        check_seal_order(&node, script, &at(steps));
        if outcome == StepOutcome::Idle && ops.len() == 0 {
            check_quiescent(&node, script, &at(steps));
            if loss_at == Some(steps) {
                check_restore_after_loss(&mut node, script, &at(steps));
            }
            break;
        }
    }
    Replay {
        steps,
        fired: node.faults().total_fired() > 0,
        stats: node.ndp_stats(),
    }
}

#[test]
fn every_single_fault_and_node_loss_keeps_the_restore_invariant() {
    let mut fired_sites = Vec::new();
    for script in scripts() {
        // Fault-free: a node loss at every boundary.
        let clean = replay(&script, None, None);
        assert!((script.shape)(&clean.stats), "{}", script.name);
        for m in 0..=clean.steps {
            replay(&script, None, Some(m));
        }
        for site in FAULT_SITES {
            let mut k = 0;
            loop {
                let run = replay(&script, Some((site, k)), None);
                if run.fired {
                    fired_sites.push(site);
                    for m in k + 1..=run.steps {
                        replay(&script, Some((site, k)), Some(m));
                    }
                }
                k += 1;
                if k >= run.steps {
                    break;
                }
            }
        }
    }
    // Every site the drain engine consults was exercised; the host-side
    // sites (NVM commit and read, partner copy) are never consulted by
    // an engine step.
    for site in FAULT_SITES {
        let host_side = matches!(
            site,
            FaultSite::NvmTornWrite
                | FaultSite::NvmReadRot
                | FaultSite::PartnerLoss
        );
        assert_eq!(fired_sites.contains(&site), !host_side, "{site}");
    }
}
