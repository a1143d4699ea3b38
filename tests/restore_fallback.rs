//! Restore fallback-ordering matrix: every `FailureKind` crossed with
//! every tampered-level combination must restore from the best intact
//! level (local NVM → partner replica → remote I/O), count each detected
//! corruption, and surface a typed error — never stale or torn data —
//! when no intact copy survives.

use ndp_checkpoint::cr_node::faults::{FaultPlaneConfig, FaultSite};
use ndp_checkpoint::cr_node::nvm::Region;
use ndp_checkpoint::cr_node::node::{
    ComputeNode, FailureKind, NodeConfig, NodeError, RestoreSource,
};
use ndp_checkpoint::cr_workloads::{by_name, CheckpointGenerator};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tamper {
    None,
    Local,
    Remote,
    Both,
}

const TAMPERS: [Tamper; 4] =
    [Tamper::None, Tamper::Local, Tamper::Remote, Tamper::Both];

fn image(step: u64) -> Vec<u8> {
    by_name("miniFE").unwrap().generate_rank(768 << 10, step, 0)
}

/// Node with all three levels populated with two checkpoints each.
fn populated_node(partner: bool) -> (ComputeNode, Vec<u8>) {
    let mut node = ComputeNode::new(NodeConfig {
        drain_ratio: 1,
        partner_ratio: if partner { 1 } else { 0 },
        block_size: 64 << 10,
        ..NodeConfig::small_test()
    });
    node.register_app("fe");
    node.checkpoint("fe", &image(1)).unwrap();
    node.drain_all().unwrap();
    let newest = image(2);
    node.checkpoint("fe", &newest).unwrap();
    node.drain_all().unwrap();
    (node, newest)
}

fn apply_tamper(node: &mut ComputeNode, tamper: Tamper) {
    if matches!(tamper, Tamper::Local | Tamper::Both) {
        assert!(node.tamper_local("fe", 0), "local copy must exist");
    }
    if matches!(tamper, Tamper::Remote | Tamper::Both) {
        assert!(node.tamper_remote("fe", 0), "remote object must exist");
    }
}

#[test]
fn local_survivable_failures_prefer_intact_local_then_partner() {
    for tamper in TAMPERS {
        let (mut node, newest) = populated_node(true);
        apply_tamper(&mut node, tamper);
        node.inject_failure(FailureKind::LocalSurvivable);
        let r = node.restore("fe").unwrap();
        assert_eq!(r.data, newest, "{tamper:?}: newest image");
        assert_eq!(r.meta.ckpt_id, 1, "{tamper:?}");
        match tamper {
            // Local copy intact: the remote tamper must never even be
            // noticed (no fallback reads past the first intact level).
            Tamper::None | Tamper::Remote => {
                assert_eq!(r.source, RestoreSource::LocalNvm, "{tamper:?}");
                assert_eq!(node.corruptions_detected(), 0, "{tamper:?}");
            }
            // Local rot detected by verification; partner serves.
            Tamper::Local | Tamper::Both => {
                assert_eq!(r.source, RestoreSource::Partner, "{tamper:?}");
                assert_eq!(node.corruptions_detected(), 1, "{tamper:?}");
            }
        }
    }
}

#[test]
fn node_loss_falls_back_to_partner_regardless_of_tampering() {
    for tamper in TAMPERS {
        let (mut node, newest) = populated_node(true);
        // Tampering happens before the node dies; the wipe makes the
        // local tamper moot and the partner replica is still pristine.
        apply_tamper(&mut node, tamper);
        node.inject_failure(FailureKind::NodeLoss);
        let r = node.restore("fe").unwrap();
        assert_eq!(r.source, RestoreSource::Partner, "{tamper:?}");
        assert_eq!(r.data, newest, "{tamper:?}");
        assert_eq!(node.corruptions_detected(), 0, "{tamper:?}");
    }
}

#[test]
fn node_loss_without_partner_level_restores_from_remote() {
    for tamper in [Tamper::None, Tamper::Local] {
        let (mut node, newest) = populated_node(false);
        assert!(node.partner().is_none());
        apply_tamper(&mut node, tamper);
        node.inject_failure(FailureKind::NodeLoss);
        let r = node.restore("fe").unwrap();
        assert_eq!(r.source, RestoreSource::RemoteIo, "{tamper:?}");
        assert_eq!(r.data, newest, "{tamper:?}");
        assert_eq!(node.corruptions_detected(), 0, "{tamper:?}");
    }
}

#[test]
fn pair_loss_restores_from_remote_or_fails_typed_on_rot() {
    for tamper in TAMPERS {
        let (mut node, newest) = populated_node(true);
        apply_tamper(&mut node, tamper);
        node.inject_failure(FailureKind::PairLoss);
        match tamper {
            Tamper::None | Tamper::Local => {
                let r = node.restore("fe").unwrap();
                assert_eq!(r.source, RestoreSource::RemoteIo, "{tamper:?}");
                assert_eq!(r.data, newest, "{tamper:?}");
                assert_eq!(node.corruptions_detected(), 0, "{tamper:?}");
            }
            // The newest remote object is rotten and both NVM levels
            // are gone: a typed error, never stale or garbage data.
            Tamper::Remote | Tamper::Both => {
                let err = node.restore("fe").unwrap_err();
                assert!(
                    matches!(err, NodeError::Corrupt),
                    "{tamper:?}: got {err}"
                );
                assert_eq!(node.corruptions_detected(), 1, "{tamper:?}");
            }
        }
    }
}

#[test]
fn double_rot_with_no_partner_falls_through_to_remote() {
    // Local rot + no partner level: restore must skip the corrupt local
    // copy and land on the remote object, counting exactly one
    // detection.
    let (mut node, newest) = populated_node(false);
    apply_tamper(&mut node, Tamper::Local);
    node.inject_failure(FailureKind::LocalSurvivable);
    let r = node.restore("fe").unwrap();
    assert_eq!(r.source, RestoreSource::RemoteIo);
    assert_eq!(r.data, newest);
    assert_eq!(node.corruptions_detected(), 1);
}

/// Nothing drains, so an NVM copy is the only one.
fn undrained() -> NodeConfig {
    NodeConfig {
        drain_ratio: u32::MAX,
        ..NodeConfig::small_test()
    }
}

#[test]
fn a_rotten_only_local_copy_fails_corrupt_not_no_checkpoint() {
    // Rotten, the local copy is still a copy: the restore says
    // `Corrupt`, not "nothing stored".
    let mut node = ComputeNode::new(undrained());
    node.register_app("fe");
    node.checkpoint("fe", &image(1)).unwrap();
    assert!(node.tamper_local("fe", 0));
    let err = node.restore("fe").unwrap_err();
    assert!(matches!(err, NodeError::Corrupt), "got {err}");
    assert_eq!(node.corruptions_detected(), 1);
}

#[test]
fn a_rotten_only_partner_copy_fails_corrupt_after_node_loss() {
    // The partner replica rots when the restore reads it.
    let mut node = ComputeNode::new(NodeConfig {
        partner_ratio: 1,
        faults: Some(
            FaultPlaneConfig::disabled(1).with(FaultSite::NvmReadRot, 1.0),
        ),
        ..undrained()
    });
    node.register_app("fe");
    node.checkpoint("fe", &image(1)).unwrap();
    node.inject_failure(FailureKind::NodeLoss);
    assert_eq!(node.nvm().used(Region::Uncompressed), 0);
    let err = node.restore("fe").unwrap_err();
    assert!(matches!(err, NodeError::Corrupt), "got {err}");
    assert_eq!(node.corruptions_detected(), 1);
}
