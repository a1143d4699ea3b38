//! The one reference model of the restore invariant (DESIGN §5d),
//! shared by `bench_chaos` and the small-scope drain explorer
//! (`crates/cr-bench/tests/drain_explorer.rs`).
//!
//! A restore serves the newest intact copy of the first level that
//! holds one — local NVM, then the partner's NVM, then remote I/O
//! (§4.2.3) — and what it returns is a committed image, bit for bit.
//! An [`Oracle`] records every committed image, predicts a restore from
//! the node's storage alone and checks what the node did. Each check
//! returns its violations as strings; an empty list means the node kept
//! the invariant.

use std::collections::BTreeMap;

use cr_node::node::{ComputeNode, NodeError, RestoreSource, Restored};
use cr_node::nvm::Region;
use cr_node::remote::{IoNode, ObjectKey};

/// What the next restore must do, predicted from the node's storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prediction {
    /// Serve this checkpoint from this level.
    Serve(RestoreSource, u64),
    /// Fail with a typed error other than [`NodeError::NoCheckpoint`]:
    /// some level holds a copy, but none serves it. Every NVM copy is
    /// rotten, and no remote object is sealed, or the newest sealed one
    /// or a base on its delta chain no longer verifies.
    Fail,
    /// Fail with [`NodeError::NoCheckpoint`]: no level holds an NVM
    /// copy, intact or not, or a sealed remote object.
    NoCheckpoint,
}

/// Reference model of one application's rank-0 checkpoints.
pub struct Oracle {
    app: String,
    /// Every committed image, by checkpoint id.
    committed: BTreeMap<u64, Vec<u8>>,
}

impl Oracle {
    /// A model with nothing committed yet.
    pub fn new(app: &str) -> Self {
        Oracle {
            app: app.to_string(),
            committed: BTreeMap::new(),
        }
    }

    /// Records a checkpoint whose local write landed: it is committed,
    /// even if a later stage of the checkpoint failed.
    pub fn commit(&mut self, ckpt_id: u64, image: Vec<u8>) {
        self.committed.insert(ckpt_id, image);
    }

    fn key(&self, ckpt_id: u64) -> ObjectKey {
        ObjectKey {
            app_id: self.app.clone(),
            rank: 0,
            ckpt_id,
        }
    }

    /// Predicts the next restore from the node's storage alone: the
    /// first of local → partner → remote whose newest copy is intact,
    /// walking a remote delta's chain back to its keyframe. Call it with
    /// the fault plane quiesced, so the restore reads what was seen.
    pub fn predict(&self, node: &ComputeNode) -> Prediction {
        // A rotten NVM copy is still a copy: with nothing to serve, the
        // restore fails `Corrupt`, not `NoCheckpoint`.
        let mut nvm_held = false;
        for (level, store) in [
            (RestoreSource::LocalNvm, Some(node.nvm())),
            (RestoreSource::Partner, node.partner()),
        ] {
            let newest = store
                .and_then(|s| s.latest(Region::Uncompressed, &self.app, 0));
            if let Some(slot) = newest {
                if slot.verify() {
                    return Prediction::Serve(level, slot.meta.ckpt_id);
                }
                nvm_held = true;
            }
        }
        // The newest sealed object among the committed ids, not the
        // node's `latest_complete`, so a fault in that lookup shows.
        let io = node.io();
        let sealed = |id: &&u64| io.sealed(&self.key(**id)).is_some();
        let Some(&newest) = self.committed.keys().rev().find(sealed) else {
            return if nvm_held {
                Prediction::Fail
            } else {
                Prediction::NoCheckpoint
            };
        };
        let mut cursor = newest;
        while let Some(meta) = io.peek_verified(&self.key(cursor)) {
            let Some(base) = meta.base else {
                return Prediction::Serve(RestoreSource::RemoteIo, newest);
            };
            cursor = base;
        }
        Prediction::Fail
    }

    /// Checks one restore. A restored image must be a committed image,
    /// bit for bit, and the application must be registered. With a
    /// prediction, the restore must also serve its level and id, or
    /// fail as it says.
    pub fn check_restore(
        &self,
        got: &Result<Restored, NodeError>,
        predicted: Option<Prediction>,
    ) -> Vec<String> {
        let mut v = Vec::new();
        match got {
            Ok(r) => {
                let id = r.meta.ckpt_id;
                match self.committed.get(&id) {
                    Some(image) if *image == r.data => {}
                    Some(_) => v.push(format!("ckpt {id} is not bit-exact")),
                    None => v.push(format!("restored uncommitted ckpt {id}")),
                }
            }
            Err(NodeError::UnknownApp(a)) => {
                v.push(format!("app {a} unregistered"))
            }
            Err(_) => {}
        }
        if let Some(p) = predicted {
            let gave = match got {
                Ok(r) => Prediction::Serve(r.source, r.meta.ckpt_id),
                Err(NodeError::NoCheckpoint) => Prediction::NoCheckpoint,
                Err(_) => Prediction::Fail,
            };
            if gave != p {
                v.push(format!("predicted {p:?}, restore gave {gave:?}"));
            }
        }
        v
    }

    /// Checks that no committed delta is sealed on the remote store
    /// before its base.
    pub fn check_seal_order(&self, io: &IoNode) -> Vec<String> {
        self.committed
            .keys()
            .filter_map(|&id| {
                let base = io.sealed(&self.key(id))?.base?;
                let early = io.sealed(&self.key(base)).is_none();
                early.then(|| format!("delta {id} sealed before base {base}"))
            })
            .collect()
    }

    /// Checks that every committed checkpoint is sealed on the remote
    /// store: the state of an idle node that drains every checkpoint.
    pub fn check_all_sealed(&self, io: &IoNode) -> Vec<String> {
        self.committed
            .keys()
            .filter(|&&id| io.sealed(&self.key(id)).is_none())
            .map(|id| format!("checkpoint {id} is not sealed"))
            .collect()
    }

    /// Checks a node whose drain engine is idle: no uncompressed slot is
    /// locked, the spill region is empty, no remote object is
    /// incomplete and the NIC is empty.
    pub fn check_idle(&self, node: &ComputeNode) -> Vec<String> {
        let nvm = node.nvm();
        let locked = nvm.slots(Region::Uncompressed).any(|s| s.locked);
        [
            (locked, "slot left locked"),
            (nvm.used(Region::Compressed) != 0, "spill region not reclaimed"),
            (node.io().incomplete_count() != 0, "incomplete remote object"),
            (node.nic_depth() != 0, "NIC not empty"),
        ]
        .into_iter()
        .filter(|&(broken, _)| broken)
        .map(|(_, what)| what.to_string())
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_node::metadata::CheckpointMeta;
    use cr_node::ndp::IncrementalPolicy;
    use cr_node::node::{FailureKind, NodeConfig};

    const APP: &str = "app";

    /// Drains every checkpoint, in 1 KiB blocks.
    fn config() -> NodeConfig {
        NodeConfig {
            block_size: 1024,
            drain_ratio: 1,
            ..NodeConfig::small_test()
        }
    }

    fn node(cfg: NodeConfig) -> ComputeNode {
        let mut node = ComputeNode::new(cfg);
        node.register_app(APP);
        node
    }

    fn image(tag: u8) -> Vec<u8> {
        (0..4096).map(|i| (i % 251) as u8 ^ tag).collect()
    }

    /// Checkpoints `image` on `node` and records it on `oracle` as `id`.
    fn commit(n: &mut ComputeNode, o: &mut Oracle, id: u64, image: Vec<u8>) {
        n.checkpoint(APP, &image).unwrap();
        o.commit(id, image);
    }

    fn assert_flags(violations: &[String], what: &str) {
        assert!(
            violations.iter().any(|v| v.contains(what)),
            "expected a violation naming {what:?}, got {violations:?}"
        );
    }

    #[test]
    fn a_node_that_keeps_the_invariant_shows_no_violation() {
        let mut oracle = Oracle::new(APP);
        let mut n = node(NodeConfig {
            partner_ratio: 1,
            incremental: Some(IncrementalPolicy::default()),
            ..config()
        });
        assert_eq!(oracle.predict(&n), Prediction::NoCheckpoint);
        assert!(oracle
            .check_restore(&n.restore(APP), Some(Prediction::NoCheckpoint))
            .is_empty());

        let mut next = image(0);
        commit(&mut n, &mut oracle, 0, next.clone());
        next[100] ^= 1;
        commit(&mut n, &mut oracle, 1, next);
        n.drain_all().unwrap();
        assert_eq!(n.ndp_stats().incremental_drains, 1);
        assert_eq!(n.io().sealed(&oracle.key(1)).unwrap().base, Some(0));
        assert!(oracle.check_idle(&n).is_empty());
        assert!(oracle.check_seal_order(n.io()).is_empty());
        assert!(oracle.check_all_sealed(n.io()).is_empty());

        // Each loss leaves the next level to serve the newest copy; the
        // remote one walks the delta chain back to its keyframe.
        for (loss, level) in [
            (None, RestoreSource::LocalNvm),
            (Some(FailureKind::NodeLoss), RestoreSource::Partner),
            (Some(FailureKind::PairLoss), RestoreSource::RemoteIo),
        ] {
            if let Some(kind) = loss {
                n.inject_failure(kind);
            }
            let predicted = oracle.predict(&n);
            assert_eq!(predicted, Prediction::Serve(level, 1));
            let got = n.restore(APP);
            assert_eq!(oracle.check_restore(&got, Some(predicted)), [""; 0]);
        }
    }

    #[test]
    fn an_older_checkpoint_than_predicted_is_a_violation() {
        let mut oracle = Oracle::new(APP);
        let (mut ahead, mut behind) = (node(config()), node(config()));
        commit(&mut ahead, &mut oracle, 0, image(0));
        commit(&mut ahead, &mut oracle, 1, image(1));
        commit(&mut behind, &mut oracle, 0, image(0));
        let predicted = oracle.predict(&ahead);
        assert_eq!(predicted, Prediction::Serve(RestoreSource::LocalNvm, 1));
        // Committed and bit-exact, but not the newest copy.
        let got = behind.restore(APP);
        let violations = oracle.check_restore(&got, Some(predicted));
        assert_flags(&violations, "restore gave Serve(LocalNvm, 0)");
        assert_eq!(violations.len(), 1);
    }

    #[test]
    fn a_flipped_byte_is_a_violation() {
        let mut oracle = Oracle::new(APP);
        let mut n = node(config());
        commit(&mut n, &mut oracle, 0, image(0));
        let predicted = oracle.predict(&n);
        let mut got = n.restore(APP);
        assert!(oracle.check_restore(&got, Some(predicted)).is_empty());
        got.as_mut().unwrap().data[7] ^= 0x10;
        assert_flags(
            &oracle.check_restore(&got, Some(predicted)),
            "ckpt 0 is not bit-exact",
        );
    }

    #[test]
    fn an_uncommitted_id_is_a_violation() {
        let mut oracle = Oracle::new(APP);
        let mut n = node(config());
        commit(&mut n, &mut oracle, 0, image(0));
        n.checkpoint(APP, &image(1)).unwrap();
        assert_flags(
            &oracle.check_restore(&n.restore(APP), None),
            "restored uncommitted ckpt 1",
        );
    }

    #[test]
    fn the_wrong_level_is_a_violation() {
        let mut oracle = Oracle::new(APP);
        let mut n = node(NodeConfig {
            partner_ratio: 1,
            ..config()
        });
        commit(&mut n, &mut oracle, 0, image(0));
        let stale = oracle.predict(&n);
        assert_eq!(stale, Prediction::Serve(RestoreSource::LocalNvm, 0));
        assert!(n.tamper_local(APP, 0));
        let predicted = oracle.predict(&n);
        assert_eq!(predicted, Prediction::Serve(RestoreSource::Partner, 0));
        let got = n.restore(APP);
        assert!(oracle.check_restore(&got, Some(predicted)).is_empty());
        assert_flags(
            &oracle.check_restore(&got, Some(stale)),
            "restore gave Serve(Partner, 0)",
        );
    }

    #[test]
    fn a_typed_error_where_a_restore_was_predicted_is_a_violation() {
        let mut oracle = Oracle::new(APP);
        let mut n = node(config());
        commit(&mut n, &mut oracle, 0, image(0));
        n.drain_all().unwrap();
        n.inject_failure(FailureKind::NodeLoss);
        let stale = oracle.predict(&n);
        assert_eq!(stale, Prediction::Serve(RestoreSource::RemoteIo, 0));
        assert!(n.tamper_remote(APP, 0));
        assert_eq!(oracle.predict(&n), Prediction::Fail);
        let got = n.restore(APP);
        assert!(matches!(got, Err(NodeError::Corrupt)));
        assert!(oracle.check_restore(&got, Some(Prediction::Fail)).is_empty());
        let violations = oracle.check_restore(&got, Some(stale));
        assert_flags(&violations, "restore gave Fail");
        // A sealed object exists, so `NoCheckpoint` is the wrong error.
        assert_flags(
            &oracle.check_restore(&got, Some(Prediction::NoCheckpoint)),
            "restore gave Fail",
        );
    }

    #[test]
    fn a_rotten_only_nvm_copy_predicts_a_typed_failure() {
        let mut oracle = Oracle::new(APP);
        let mut n = node(NodeConfig {
            drain_ratio: u32::MAX,
            ..config()
        });
        commit(&mut n, &mut oracle, 0, image(0));
        assert!(n.tamper_local(APP, 0));
        assert_eq!(oracle.predict(&n), Prediction::Fail);
        let got = n.restore(APP);
        assert!(matches!(got, Err(NodeError::Corrupt)));
        assert!(oracle.check_restore(&got, Some(Prediction::Fail)).is_empty());
        // A copy was held, so `NoCheckpoint` is the wrong error, and
        // `NoCheckpoint` is no answer to a predicted failure.
        assert_flags(
            &oracle.check_restore(&got, Some(Prediction::NoCheckpoint)),
            "restore gave Fail",
        );
        let nothing: Result<Restored, _> = Err(NodeError::NoCheckpoint);
        assert_flags(
            &oracle.check_restore(&nothing, Some(Prediction::Fail)),
            "predicted Fail, restore gave NoCheckpoint",
        );
    }

    #[test]
    fn a_delta_sealed_before_its_base_is_a_violation() {
        let mut oracle = Oracle::new(APP);
        oracle.commit(0, image(0));
        oracle.commit(1, image(1));
        let mut io = IoNode::new();
        let seal = |io: &mut IoNode, meta: CheckpointMeta| {
            let key = ObjectKey::of(&meta);
            io.begin(meta).unwrap();
            io.append_block(&key, b"payload").unwrap();
            io.finalize(&key).unwrap();
        };
        let meta = |id| CheckpointMeta::new(APP, 0, id, 4096, id + 1);
        seal(&mut io, meta(1).incremental_over(0));
        assert_eq!(
            oracle.check_seal_order(&io),
            ["delta 1 sealed before base 0"]
        );
        let unsealed = oracle.check_all_sealed(&io);
        assert_eq!(unsealed, ["checkpoint 0 is not sealed"]);
        seal(&mut io, meta(0));
        assert!(oracle.check_seal_order(&io).is_empty());
    }

    #[test]
    fn a_node_with_a_queued_drain_is_not_idle() {
        let mut oracle = Oracle::new(APP);
        let mut n = node(config());
        commit(&mut n, &mut oracle, 0, image(0));
        assert_eq!(oracle.check_idle(&n), ["slot left locked"]);
        assert_eq!(
            oracle.check_all_sealed(n.io()),
            ["checkpoint 0 is not sealed"]
        );
        n.drain_all().unwrap();
        assert!(oracle.check_idle(&n).is_empty());
    }
}
