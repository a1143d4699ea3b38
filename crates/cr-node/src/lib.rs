//! # cr-node — functional emulation of an NDP-equipped compute node
//!
//! Where `cr-sim` models the *timing* of the Figure 3 timeline, this
//! crate executes its *mechanisms* on real bytes: an in-memory NVM store
//! organized as the paper's two circular-buffer regions (§4.3), a
//! BLCR-style metadata record per checkpoint (§4.2.1), an NDP drain
//! engine that compresses checkpoints with the real `cr-compress` codecs
//! and ships them block-by-block through a bounded NIC buffer to a
//! remote I/O node (§4.2.2), with both backpressure policies the paper
//! describes (pause, or spill to NVM), failure injection that destroys
//! the right state, and recovery along both paths (§4.2.3).
//!
//! The node is step-driven. The host calls
//! [`node::ComputeNode::checkpoint`] and [`node::ComputeNode::restore`];
//! the NDP makes progress only when the caller pumps
//! [`node::ComputeNode::ndp_step`] or [`node::ComputeNode::drain_all`].
//! The host/NDP overlap of the paper's Figure 3 is accounted in virtual
//! time ([`vclock::VClock`] splits critical-path from background work),
//! not run on threads. Inside a step, the work the paper gives several
//! cores runs on several: the NDP's codec frames a window of blocks
//! ahead across `cr_core::par` workers (Table 3 sizes the NDP at a few
//! cores), and a remote restore decodes its frames in parallel on the
//! host (§4.3). Neither changes a step, a fault draw or a byte.
//!
//! The top-level type is [`node::ComputeNode`]; the operational
//! correctness claims of §4.2 are enforced by this crate's tests:
//! checkpoints restore byte-exactly through every path, locked slots are
//! never evicted, node loss drops exactly the non-I/O-durable state.
//!
//! ```
//! use cr_node::node::{ComputeNode, FailureKind, NodeConfig};
//!
//! let mut node = ComputeNode::new(NodeConfig::small_test());
//! node.register_app("demo");
//! let state = vec![7u8; 200_000];
//! node.checkpoint("demo", &state).unwrap();
//! node.checkpoint("demo", &state).unwrap(); // every 2nd is drained
//! node.drain_all().unwrap();
//! node.inject_failure(FailureKind::NodeLoss);
//! let restored = node.restore("demo").unwrap();
//! assert_eq!(restored.data, state);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod faults;
pub mod frame;
pub mod incremental;
pub mod integrity;
pub mod metadata;
pub mod ndp;
pub mod node;
pub mod nvm;
pub mod remote;
pub mod vclock;
