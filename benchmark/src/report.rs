//! Metric tables, result assembly, run metadata and JSON rendering.

use std::fmt::Write as _;

use crate::harness::{median, quantile, Config, Driven, Outcome};

/// End-to-end metrics (untraced runs), `(name, unit)`. Every workload
/// reports all of them; `README.md` says what "operation" and "cycle"
/// are on each.
pub const END_TO_END: [(&str, &str); 4] = [
    ("op_ms_p50", "ms"),
    ("cycle_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics (traced runs), `(name, unit)`. A layer that does no
/// work on a workload reports `0`.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("ndp.compress_step_ms_p50", "ms"),
    ("ndp.ship_step_ms_p50", "ms"),
    ("ndp.finalize_step_ms_p50", "ms"),
    ("ndp.prepare_step_ms_p50", "ms"),
    ("ndp.steps_per_drain", "count"),
    ("ndp.compress_share", "ratio"),
    ("integrity.crc_mb_s", "MB/s"),
    ("nvm.verify_mb_s", "MB/s"),
    ("nvm.evictions_per_ckpt", "count"),
    ("node.ckpt_self_ms_p50", "ms"),
    ("node.restore_remote_self_ms_p50", "ms"),
    ("codec.compress_mb_s", "MB/s"),
    ("codec.decompress_mb_s", "MB/s"),
    ("codec.ratio", "ratio"),
    ("incr.encode_mb_s", "MB/s"),
    ("incr.apply_mb_s", "MB/s"),
    ("incr.changed_fraction", "ratio"),
    ("remote.objects_per_restore", "count"),
    ("remote.bytes_per_drain", "B"),
    ("vclock.host_nvm.wall_over_model", "ratio"),
    ("vclock.ndp_compute.wall_over_model", "ratio"),
    ("vclock.io_link.wall_over_model", "ratio"),
    ("vclock.restore_io.wall_over_model", "ratio"),
    ("sim.replicas_per_s", "1/s"),
    ("sim.share", "ratio"),
    ("solve.share", "ratio"),
    ("solve.cache_hit_rate", "ratio"),
    ("unattributed_share", "ratio"),
    ("tracing_overhead", "ratio"),
];

/// Workload-level readings under the names the design uses (durable
/// time, restore latencies, bytes per byte, ...), each with its sample
/// count where it is a timing: `(name, value, samples)`.
pub type Readings = Vec<(&'static str, f64, usize)>;

/// `(name, p50, samples)` and, when at least 10 samples lie beyond it,
/// the p90 too.
pub fn timing(out: &mut Readings, name: &'static str, p90: Option<&'static str>, v: &[f64]) {
    out.push((name, median(v), v.len()));
    if let Some(p90) = p90 {
        if v.len() >= 100 {
            out.push((p90, quantile(v, 0.9), v.len()));
        }
    }
}

/// Builds the outcome of a run: the metric set its mode reports, plus
/// the detail object. `op` and `cycle` name the untraced sample series
/// behind `op_ms_p50` and `cycle_ms_p50`; `layer` holds the per-layer
/// values the workload measured (absent ones report `0`).
pub fn outcome(
    cfg: &Config,
    workload: &str,
    run: Driven,
    op: &str,
    readings: Readings,
    layer: Vec<(&'static str, f64)>,
    meta: Vec<(&'static str, String)>,
) -> Outcome {
    let ctx = &run.ctx;
    let setup_s = median(&run.setups);
    let mut metrics = Vec::new();
    if cfg.trace {
        let mut layer = layer;
        if let Some(l) = &run.layers {
            layer.push((
                "unattributed_share",
                l.unattributed_s / l.timed_s.max(1e-12),
            ));
        }
        let traced = median(ctx.traced.get("cycle_ms"));
        let plain = median(ctx.plain.get("cycle_ms"));
        layer.push((
            "tracing_overhead",
            if plain > 0.0 {
                traced / plain - 1.0
            } else {
                0.0
            },
        ));
        for (name, unit) in PER_LAYER {
            let v = layer
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            metrics.push((name.to_string(), finite(v), unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = match name {
                "op_ms_p50" => ctx.plain.p50(op),
                "cycle_ms_p50" => ctx.plain.p50("cycle_ms"),
                "setup_s" => setup_s,
                _ => crate::heap::peak_bytes() as f64 / (1 << 20) as f64,
            };
            metrics.push((name.to_string(), finite(v), unit));
        }
    }

    let mut d = String::from("{");
    kv_str(&mut d, "workload", workload);
    kv_num(&mut d, "seed", cfg.seed as f64);
    kv_num(&mut d, "trace", cfg.trace as u8 as f64);
    kv_num(&mut d, "rounds", run.rounds as f64);
    kv_num(&mut d, "seconds", cfg.seconds);
    kv_num(
        &mut d,
        "effective_cores",
        cr_core::par::default_threads() as f64,
    );
    kv_str(&mut d, "git_commit", &git_commit());
    for (k, v) in &meta {
        kv_str(&mut d, k, v);
    }
    kv_num(&mut d, "setups", run.setups.len() as f64);
    kv_num(&mut d, "setup_s_first", run.setups[0]);
    kv_num(
        &mut d,
        "setup_s_max",
        run.setups.iter().copied().fold(0.0, f64::max),
    );
    kv_num(
        &mut d,
        "setup_s_min",
        run.setups.iter().copied().fold(f64::MAX, f64::min),
    );
    kv_num(&mut d, "peak_rss_mb", peak_rss_mb());
    d.push_str("\"readings\":{");
    let failed_frac = ctx.failed as f64 / ctx.attempted.max(1) as f64;
    let mut first = true;
    let all = readings.iter().copied().chain(std::iter::once((
        "ops_failed_frac",
        failed_frac,
        ctx.attempted as usize,
    )));
    for (name, v, n) in all {
        if !first {
            d.push(',');
        }
        first = false;
        let _ = write!(d, "\"{name}\":{{\"value\":{},\"samples\":{n}}}", finite(v));
    }
    d.push('}');
    if let Some(l) = &run.layers {
        d.push_str(",\"layers\":{");
        let mut first = true;
        for (name, t) in &l.layers {
            if !first {
                d.push(',');
            }
            first = false;
            let _ = write!(
                d,
                "\"{name}\":{{\"timed_self_s\":{},\"replay_self_s\":{},\"spans\":{}}}",
                t.timed_s, t.replay_s, t.spans
            );
        }
        d.push_str("},\"bytes\":{");
        let mut first = true;
        for (name, b) in &ctx.bytes {
            if !first {
                d.push(',');
            }
            first = false;
            let _ = write!(d, "\"{name}\":{b}");
        }
        let _ = write!(
            d,
            "}},\"timed_s\":{},\"unattributed_s\":{},\"chrome_trace_valid\":{}",
            l.timed_s,
            l.unattributed_s,
            l.chrome_valid.is_ok()
        );
    }
    d.push_str(",\"failures\":[");
    for (i, f) in ctx.failures.iter().enumerate() {
        if i > 0 {
            d.push(',');
        }
        d.push('"');
        cr_obs::json::escape_into(&mut d, f);
        d.push('"');
    }
    d.push_str("]}");

    let mut failed = ctx.failed;
    let mut failures = ctx.failures.clone();
    if let Some(Err(e)) = run.layers.as_ref().map(|l| &l.chrome_valid) {
        failed += 1;
        failures.push(format!("chrome trace invalid: {e}"));
    }
    Outcome {
        attempted: ctx.attempted,
        failed,
        failures,
        metrics,
        detail: d,
        chrome_trace: run.layers.map(|l| l.chrome),
    }
}

/// Renders the last line the benchmark prints.
pub fn result_line(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct(),
        o.attempted,
        o.failed
    );
    for (i, (name, v, unit)) in o.metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    s
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn kv_str(d: &mut String, k: &str, v: &str) {
    let _ = write!(d, "\"{k}\":\"");
    cr_obs::json::escape_into(d, v);
    d.push_str("\",");
}

fn kv_num(d: &mut String, k: &str, v: f64) {
    let _ = write!(d, "\"{k}\":{},", finite(v));
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the working directory is checked out at, read from
/// `.git` without running git; `"unknown"` outside a repository.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}
