//! Functional demo of the NDP compute node (§4.2 of the paper): run a
//! synthetic mini-app, take checkpoints into local NVM, let the NDP
//! compress and drain every k-th checkpoint to a remote I/O node, then
//! kill the node and recover — verifying byte-exact restoration along
//! both recovery paths. The node is step-driven: drains progress when
//! `drain_all` pumps the NDP, and the time they would hide behind the
//! application is accounted in virtual time.
//!
//! ```sh
//! cargo run --release --example ndp_node_demo
//! ```

use ndp_checkpoint::cr_node::ndp::BackpressurePolicy;
use ndp_checkpoint::cr_node::node::{
    ComputeNode, FailureKind, NodeConfig, RestoreSource,
};
use ndp_checkpoint::cr_workloads::{by_name, CheckpointGenerator};

/// A toy "application": evolves a state buffer deterministically so
/// restores can be verified against recomputation.
struct MiniApp {
    state: Vec<u8>,
    step: u64,
}

impl MiniApp {
    fn new(bytes: usize) -> Self {
        MiniApp {
            state: by_name("CoMD").unwrap().generate(bytes, 1),
            step: 0,
        }
    }

    fn advance(&mut self) {
        self.step += 1;
        // A cheap deterministic "timestep": rotate and mix a stripe.
        let stripe = (self.step as usize * 4096) % self.state.len();
        let end = (stripe + 4096).min(self.state.len());
        for b in &mut self.state[stripe..end] {
            *b = b.wrapping_mul(31).wrapping_add(7);
        }
    }
}

fn main() {
    let ckpt_bytes = 8 << 20;
    let mut node = ComputeNode::new(NodeConfig {
        drain_ratio: 3, // every 3rd checkpoint goes to global I/O
        codec: Some(("gz", 1)),
        policy: BackpressurePolicy::Spill,
        ..NodeConfig::small_test()
    });
    node.register_app("comd");

    let mut app = MiniApp::new(ckpt_bytes);
    let mut shadow_states: Vec<(u64, Vec<u8>)> = Vec::new();

    println!("running 9 timesteps, checkpointing after each...");
    for step in 1..=9 {
        app.advance();
        shadow_states.push((app.step, app.state.clone()));
        node.checkpoint("comd", &app.state).expect("checkpoint failed");
        println!("  step {step}: checkpointed {} bytes", app.state.len());
    }

    node.drain_all().expect("drains stalled");
    let stats = node.ndp_stats();
    println!(
        "\nNDP drained {} checkpoints to remote I/O ({} blocks compressed, {} shipped, {} spilled)",
        stats.drains_completed,
        stats.blocks_compressed,
        stats.blocks_shipped,
        stats.blocks_spilled,
    );

    // Scenario 1: application crash; node-local state survives.
    println!("\n--- failure 1: process crash (locally survivable) ---");
    node.inject_failure(FailureKind::LocalSurvivable);
    let restored = node.restore("comd").expect("restore");
    assert_eq!(restored.source, RestoreSource::LocalNvm);
    let expect = &shadow_states.last().unwrap().1;
    assert_eq!(&restored.data, expect, "local restore must be byte-exact");
    println!(
        "restored checkpoint #{} from local NVM, byte-exact ({} bytes)",
        restored.meta.ckpt_id,
        restored.data.len()
    );

    // Scenario 2: node loss; only I/O-durable checkpoints survive.
    println!("\n--- failure 2: node loss ---");
    node.inject_failure(FailureKind::NodeLoss);
    let restored = node.restore("comd").expect("restore");
    assert_eq!(restored.source, RestoreSource::RemoteIo);
    // Drains happen on every 3rd checkpoint: 9 taken -> ids 2, 5, 8
    // durable; newest durable is #8 (the 9th).
    assert_eq!(restored.meta.ckpt_id, 8);
    let expect = &shadow_states[8].1;
    assert_eq!(&restored.data, expect, "remote restore must be byte-exact");
    println!(
        "restored checkpoint #{} from remote I/O (decompressed on host), byte-exact",
        restored.meta.ckpt_id
    );

    let clock = node.clock();
    println!("\nvirtual-time accounting:");
    println!(
        "  host critical path : {:.3} s (NVM commits + I/O restore)",
        clock.critical_path()
    );
    println!(
        "  hidden by the NDP  : {:.3} s (compression {:.3} s, I/O link {:.3} s)",
        clock.background(),
        clock.ndp_compute,
        clock.io_link
    );
    println!(
        "  remote I/O holds {} objects, received {} bytes",
        node.io().object_count(),
        node.io().bytes_written
    );
}
