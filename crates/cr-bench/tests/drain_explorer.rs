//! Small-scope exhaustive check of the NDP drain protocol (DESIGN §5d).
//!
//! Three fixed host scripts run on a tiny node (1 KiB blocks, images of
//! one or two blocks): a full drain, a keyframe plus two deltas, and a
//! `Spill` drain with NIC depth 1 under a blocked network. For every
//! (engine step, fault site) pair the script is replayed with exactly
//! that one fault injected at that step; then, at every later step
//! boundary, the same run is replayed on a fresh node, the node is lost
//! and its restore is checked. The checks are the restore oracle's
//! (`cr_bench::oracle`):
//!
//! * after every step, no delta is sealed before its base;
//! * after a node loss, the restore serves what the oracle predicts from
//!   storage (the newest sealed checkpoint, bit-exactly), or fails with
//!   `NoCheckpoint` when nothing is sealed;
//! * once the engine is idle, every checkpoint is sealed, no slot is
//!   locked, no remote object is incomplete, and the NIC and the spill
//!   region are empty.

use cr_bench::oracle::Oracle;
use cr_node::faults::{FaultPlaneConfig, FaultSite, FAULT_SITES};
use cr_node::ndp::{
    BackpressurePolicy, IncrementalPolicy, NdpStats, StepOutcome,
};
use cr_node::node::{ComputeNode, FailureKind, NodeConfig};

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

/// Panics, naming the replay point, if a check found violations.
fn assert_kept(violations: Vec<String>, at: &str) {
    assert!(violations.is_empty(), "{at}: {violations:?}");
}

/// Loses the node, restores it, and checks the restore against the
/// oracle's prediction from what survived.
fn lose_and_restore(node: &mut ComputeNode, oracle: &Oracle) -> Vec<String> {
    node.inject_failure(FailureKind::NodeLoss);
    let predicted = oracle.predict(node);
    oracle.check_restore(&node.restore(APP), Some(predicted))
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
    let mut oracle = Oracle::new(APP);
    let at = |steps: usize| {
        let f = fault.map_or("no fault".into(), |(s, k)| format!("{s}@{k}"));
        format!("{} [{f}, step {steps}]", script.name)
    };

    let mut steps = 0;
    let mut images = (0..).zip(&script.images);
    let mut ops = script.ops.iter().copied();
    loop {
        match ops.next() {
            Some(Op::Ckpt) => {
                let (id, image) = images.next().unwrap();
                node.checkpoint(APP, image).unwrap();
                oracle.commit(id, image.clone());
                continue;
            }
            Some(Op::Nic(blocked)) => {
                node.nic_blocked(blocked);
                continue;
            }
            Some(Op::Step) | None => {}
        }
        if loss_at == Some(steps) {
            assert_kept(lose_and_restore(&mut node, &oracle), &at(steps));
            break;
        }
        assert!(steps < STEP_BUDGET, "{}: no progress", at(steps));
        node.faults_mut()
            .set_active(fault.is_some_and(|(_, k)| k == steps));
        let outcome = node.ndp_step().unwrap();
        node.faults_mut().set_active(false);
        steps += 1;
        assert_kept(oracle.check_seal_order(node.io()), &at(steps));
        if outcome == StepOutcome::Idle && ops.len() == 0 {
            let mut found = oracle.check_idle(&node);
            found.extend(oracle.check_all_sealed(node.io()));
            assert_kept(found, &at(steps));
            if loss_at == Some(steps) {
                assert_kept(lose_and_restore(&mut node, &oracle), &at(steps));
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
