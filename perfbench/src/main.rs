//! The daosim benchmark: one command, three seeded workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fieldio-scaleout|nwp-cycle|embedded-archive> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats rounds of the workload — set-up, timed phase, checks —
//! for `--seconds`, and prints as its last line one JSON object:
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. A traced run alternates traced and untraced rounds, so it
//! also measures the tracing overhead and checks that tracing leaves the
//! model's digest unchanged. See `perfbench/README.md`.

mod archive;
mod cycle;
mod des;
mod gen;
mod probe;
mod round;
mod scaleout;

use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};

use des::{Plain, Trace};
use probe::{Ledger, FIELD_OPS};
use round::{best_tenth, Round};

const WORKLOADS: [&str; 3] = ["fieldio-scaleout", "nwp-cycle", "embedded-archive"];

/// Rounds every run makes, however long they take: enough for medians,
/// and in a traced run at least two traced and two untraced rounds.
const MIN_ROUNDS: usize = 4;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// A workload's seeded inputs, built once per run.
enum Inputs {
    Scaleout(Rc<scaleout::Inputs>),
    Cycle(Rc<cycle::Inputs>),
    Archive(archive::Inputs),
}

impl Inputs {
    fn new(workload: &str, seed: u64) -> Self {
        match workload {
            "fieldio-scaleout" => Inputs::Scaleout(Rc::new(scaleout::Inputs::new(seed))),
            "nwp-cycle" => Inputs::Cycle(Rc::new(cycle::Inputs::new(seed))),
            _ => Inputs::Archive(archive::Inputs::new(seed)),
        }
    }

    fn round(&self, traced: bool) -> Result<Round, String> {
        let trace = || Trace(Rc::new(Ledger::default()));
        match (self, traced) {
            (Inputs::Scaleout(i), false) => scaleout::round(i, Plain),
            (Inputs::Scaleout(i), true) => scaleout::round(i, trace()),
            (Inputs::Cycle(i), false) => cycle::round(i, Plain),
            (Inputs::Cycle(i), true) => cycle::round(i, trace()),
            (Inputs::Archive(i), t) => archive::round(i, t),
        }
    }
}

/// Every per-layer metric, in print order, with its unit. Layers a
/// workload does not run print 0.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("core.fieldio.calls".into(), "count"),
        ("core.fieldio.self_s".into(), "s"),
    ];
    for op in FIELD_OPS {
        v.push((format!("objstore.{op}.calls"), "count"));
        v.push((format!("objstore.{op}.host_s"), "s"));
        v.push((format!("objstore.{op}.failed"), "count"));
    }
    for op in FIELD_OPS {
        v.push((format!("cluster.{op}.calls"), "count"));
        v.push((format!("cluster.{op}.host_s"), "s"));
        v.push((format!("cluster.{op}.failed"), "count"));
        v.push((format!("cluster.{op}.sim_p50_us"), "us"));
        v.push((format!("cluster.{op}.sim_p99_us"), "us"));
    }
    for (name, unit) in [
        ("cluster.deploy_s", "s"),
        ("cluster.aged_grants", "count"),
        ("cluster.backlog_peak", "count"),
        ("kernel.run_s", "s"),
        ("kernel.residual_s", "s"),
        ("net.settles", "count"),
        ("net.recomputes", "count"),
        ("net.recomputes_per_op", "ratio"),
        ("net.active_flows_peak", "count"),
        ("media.writes", "count"),
        ("media.reads", "count"),
        ("media.scm_used_bytes", "bytes"),
        ("media.nvme_used_bytes", "bytes"),
        ("objstore.kv_updates", "count"),
        ("objstore.kv_fetches", "count"),
        ("objstore.array_updates", "count"),
        ("objstore.array_fetches", "count"),
        ("model.end_s", "s"),
        ("model.write_gib_s", "GiB/s"),
        ("model.read_gib_s", "GiB/s"),
        ("model.deadlines_missed", "count"),
        ("trace.overhead_ratio", "ratio"),
    ] {
        v.push((name.into(), unit));
    }
    v
}

/// The process's resident-memory high-water mark, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::new(args.workload, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    while rounds.len() < MIN_ROUNDS || started.elapsed() < budget {
        // A traced run alternates traced and untraced rounds.
        let traced = args.trace && rounds.len().is_multiple_of(2);
        match inputs.round(traced) {
            Ok(mut r) => {
                r.summarize();
                rounds.push((traced, r));
            }
            Err(e) => {
                errors.push(e);
                break;
            }
        }
    }
    drop(inputs);

    // The model digest: identical in every round of one seed, traced or
    // not, and different for another seed.
    let digests: Vec<u64> = rounds.iter().filter_map(|(_, r)| r.digest).collect();
    if let Some(&first) = digests.first() {
        if digests.iter().any(|&d| d != first) {
            errors.push("model digest differs between rounds of one seed".into());
        }
        if args.trace {
            match Inputs::new(args.workload, args.seed.wrapping_add(1)).round(false) {
                Ok(other) if other.digest == Some(first) => {
                    errors.push("another seed gave the same model digest".into())
                }
                Ok(_) => {}
                Err(e) => errors.push(e),
            }
        }
        println!("model_digest {} {first:016x}", args.workload);
    }

    let attempted: u64 = rounds.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|(_, r)| r.failed).sum();
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let timed = |want: bool| {
            let rs = rounds.iter().filter(|(t, _)| *t == want);
            best_tenth(rs.map(|(_, r)| r.timed_s), true)
        };
        let overhead = timed(true) / timed(false);
        for (name, unit) in per_layer_names() {
            let value = if name == "trace.overhead_ratio" {
                overhead
            } else {
                let traced = rounds.iter().filter(|(t, _)| *t);
                best_tenth(
                    traced.map(|(_, r)| r.layers.get(&name).copied().unwrap_or(0.0)),
                    true,
                )
            };
            metrics.push((name, value, unit));
        }
    } else {
        let best = |f: &dyn Fn(&Round) -> f64, lower: bool| {
            best_tenth(rounds.iter().map(|(_, r)| f(r)), lower)
        };
        metrics.push((
            "field_ops_per_s".into(),
            best(&|r| (r.attempted - r.failed) as f64 / r.timed_s, false),
            "1/s",
        ));
        metrics.push(("setup_s".into(), best(&|r| r.setup_s, true), "s"));
        metrics.push(("peak_rss_mib".into(), peak_rss_mib(), "MiB"));
        metrics.push((
            "op_ok_ratio".into(),
            (attempted - failed) as f64 / attempted.max(1) as f64,
            "ratio",
        ));
        for (i, name) in ["write_p50_us", "write_p99_us", "read_p50_us", "read_p99_us"]
            .into_iter()
            .enumerate()
        {
            metrics.push((name.into(), best(&|r| r.latency_us[i], true), "us"));
        }
    }
    for e in &errors {
        eprintln!("perfbench: {e}");
    }
    eprintln!(
        "perfbench: {} rounds of {} in {:.1} s",
        rounds.len(),
        args.workload,
        started.elapsed().as_secs_f64()
    );
    let correct = errors.is_empty() && !rounds.is_empty();
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
