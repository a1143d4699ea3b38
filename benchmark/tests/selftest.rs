//! Self-test of the benchmark at tiny sizes: every declared metric is
//! emitted with its unit, the restore oracle catches a wrong expected
//! image, exact counts repeat under the same seed, and the model sweep
//! reproduces `experiments::fig6` bit for bit.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use cr_obs::json::{self, Value};
use ndp_benchmark::{heap, model, run, Config, Outcome, WORKLOADS};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn tiny(workload: &str, trace: bool) -> Outcome {
    run(workload, &Config::tiny(7, trace)).expect("known workload")
}

/// A reading from the detail object (workload-level names).
fn reading(o: &Outcome, name: &str) -> f64 {
    let doc = json::parse(&o.detail).expect("detail parses");
    doc.get("readings")
        .and_then(|r| r.get(name))
        .and_then(|r| r.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("reading {name} missing"))
}

#[test]
fn every_workload_emits_every_declared_metric_with_its_unit() {
    let workloads = json::parse(
        &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .unwrap(),
    )
    .unwrap()
    .get("workloads")
    .and_then(Value::as_arr)
    .unwrap()
    .iter()
    .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
    .collect::<Vec<_>>();
    assert_eq!(workloads, WORKLOADS);
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(section);
        for w in WORKLOADS {
            let o = tiny(w, trace);
            assert!(o.correct(), "{w} trace={trace}: {:?}", o.failures);
            let got: Vec<(String, String)> = o
                .metrics
                .iter()
                .map(|(n, _, u)| (n.clone(), u.to_string()))
                .collect();
            assert_eq!(got, want, "{w} trace={trace}");
            assert!(o.metrics.iter().all(|(_, v, _)| v.is_finite()));
            if !trace {
                assert!(
                    o.metrics.iter().all(|(_, v, _)| *v > 0.0),
                    "{w}: {:?}",
                    o.metrics
                );
            }
        }
    }
}

#[test]
fn the_oracle_flags_a_wrong_expected_image() {
    for w in ["drain_full", "drain_incr", "ckpt_local"] {
        let cfg = Config {
            tamper_expected: true,
            ..Config::tiny(7, false)
        };
        let o = run(w, &cfg).unwrap();
        assert!(!o.correct(), "{w}: a tampered expectation must fail");
        let restores = reading(
            &o,
            if w == "ckpt_local" {
                "restore_local_ms_p50"
            } else {
                "restore_remote_ms_p50"
            },
        );
        assert_eq!(restores, 0.0, "{w}: no restore may pass");
        assert!(
            o.failures
                .iter()
                .all(|f| f.contains("differs from the expected image")),
            "{w}: {:?}",
            o.failures
        );
    }
}

#[test]
fn the_same_seed_gives_identical_exact_counts() {
    let counts = |w: &str| {
        let o = tiny(w, true);
        assert!(o.correct(), "{w}: {:?}", o.failures);
        let m = |n: &str| o.metric(n).unwrap();
        match w {
            "drain_full" | "drain_incr" => vec![
                reading(&o, "io_bytes_per_byte"),
                m("ndp.steps_per_drain"),
                m("remote.objects_per_restore"),
            ],
            "ckpt_local" => vec![m("nvm.evictions_per_ckpt")],
            _ => vec![m("solve.cache_hit_rate")],
        }
    };
    for w in WORKLOADS {
        let (a, b) = (counts(w), counts(w));
        assert_eq!(a, b, "{w}");
        assert!(a.iter().all(|v| *v > 0.0), "{w}: {a:?}");
    }
}

#[test]
fn the_sweep_grid_equals_experiments_fig6_bit_for_bit() {
    let opts = cr_bench::ReproOpts {
        replicas: model::SIM_REPLICAS,
        failures: model::SIM_FAILURES,
        image_mb: 1,
        seed: 11,
    };
    let bits = |g: Vec<Vec<(f64, f64)>>| -> Vec<Vec<(u64, u64)>> {
        g.into_iter()
            .map(|r| {
                r.into_iter()
                    .map(|(s, a)| (s.to_bits(), a.to_bits()))
                    .collect()
            })
            .collect()
    };
    let want = cr_bench::experiments::fig6(&opts)
        .values
        .into_iter()
        .map(|r| r.into_iter().map(|c| (c.sim, c.analytic)).collect())
        .collect();
    assert_eq!(bits(model::fig6_grid(opts.seed)), bits(want));
}
