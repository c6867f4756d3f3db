//! `daosctl` — manage snapshot-backed weather-field archives, replay
//! I/O traces on the simulated cluster, and run the `xp` sweeps at
//! shapes set by flags.
//!
//! ```text
//! daosctl init     <archive> [--targets N]
//! daosctl put      <archive> <key> [--file PATH | --text STRING]
//! daosctl get      <archive> <key> [--out PATH]
//! daosctl list     <archive> <forecast-key>
//! daosctl retrieve <archive> <request>     # e.g. param=t/u,step=0/24
//! daosctl wipe     <archive> <forecast-key>
//! daosctl info     <archive>
//! daosctl synth-trace | simulate | trace | failure-drill  <file> [flags]
//! daosctl fuzz | nwp-cycle | ior-interfaces | tiering  [flags]
//! ```

use std::path::{Path, PathBuf};
use std::process::exit;

use daosim_experiments::ior_interfaces_xp::TRANSFER_KIB;
use daosim_tools::{
    cmd_failure_drill, cmd_fuzz, cmd_get, cmd_info, cmd_init, cmd_ior_interfaces, cmd_list,
    cmd_nwp_cycle, cmd_put, cmd_retrieve, cmd_simulate, cmd_synth_trace, cmd_tiering, cmd_trace,
    cmd_wipe, Outcome, ToolResult,
};

fn usage() -> ! {
    eprintln!(
        "usage: daosctl <init|put|get|list|retrieve|wipe|info|synth-trace|simulate|trace|failure-drill> <archive> [args...]\n       \
         daosctl <fuzz|nwp-cycle|ior-interfaces|tiering> [args...]\n\
         \n\
         init     <archive> [--targets N]\n\
         put      <archive> <key> [--file PATH | --text STRING]\n\
         get      <archive> <key> [--out PATH]\n\
         list     <archive> <forecast-key>\n\
         retrieve <archive> <request>\n\
         wipe     <archive> <forecast-key>\n\
         info     <archive>\n\
         synth-trace <out.csv> [--procs N] [--steps N] [--fields N] [--mib N] [--interval-ms N]\n\
         simulate    <trace.csv> [--servers N] [--clients N] [--paced] [--mode full|no-containers|no-index] [--window W]\n\
         trace       <trace.csv> [--servers N] [--clients N] [--paced] [--mode M] [--window W] [--out trace.json] [--metrics metrics.csv]\n\
         failure-drill <trace.csv> [--servers N] [--clients N] [--kill-ms N] [--restart-ms N]\n\
         fuzz        [--seeds N] [--start S] [--policy all|fifo|lifo|random|wake-delay]\n\
         nwp-cycle   [--writers N] [--readers N] [--steps N] [--fields N] [--kib N]\n\
                     [--interval-ms N] [--layout shared|per-process|both]\n\
                     [--admission fifo|writer-priority|both] [--seed S] [--faults]\n\
         ior-interfaces [--segments N] [--ppn N] [--transfer-kib A,B,...]\n\
         tiering     [--writers N] [--readers N] [--steps N] [--fields N] [--kib N]\n\
                     [--interval-ms N] [--scm-mib N] [--threshold-kib N] [--seed S]"
    );
    exit(2);
}

/// Parses a numeric flag at its destination width, so an out-of-range
/// value (`--servers 70000`) is a usage error instead of a silent
/// truncation. Parse failures name the offending flag before the usage.
fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match flag_value(args, flag) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("daosctl: bad value for {flag}: {v:?}");
            usage()
        }),
        None => default,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or_else(|| usage());
    let rest = &args[1..];
    let result = match cmd {
        // The sweeps take no archive: they run purely in the simulator.
        "fuzz" => {
            let policy = flag_value(rest, "--policy").unwrap_or_else(|| "all".to_string());
            cmd_fuzz(
                parse_flag(rest, "--seeds", 64),
                parse_flag(rest, "--start", 0),
                &policy,
            )
        }
        "nwp-cycle" => {
            let layout = flag_value(rest, "--layout").unwrap_or_else(|| "both".to_string());
            let admission = flag_value(rest, "--admission").unwrap_or_else(|| "fifo".to_string());
            cmd_nwp_cycle(
                parse_flag(rest, "--writers", 4u32),
                parse_flag(rest, "--readers", 8u32),
                parse_flag(rest, "--steps", 2u32),
                parse_flag(rest, "--fields", 3u32),
                parse_flag(rest, "--kib", 256),
                parse_flag(rest, "--interval-ms", 40),
                &layout,
                &admission,
                parse_flag(rest, "--seed", 7),
                rest.iter().any(|a| a == "--faults"),
            )
        }
        "tiering" => cmd_tiering(
            parse_flag(rest, "--writers", 4u32),
            parse_flag(rest, "--readers", 8u32),
            parse_flag(rest, "--steps", 2u32),
            parse_flag(rest, "--fields", 3u32),
            parse_flag(rest, "--kib", 512),
            parse_flag(rest, "--interval-ms", 16),
            parse_flag(rest, "--scm-mib", 12),
            parse_flag(rest, "--threshold-kib", 1024),
            parse_flag(rest, "--seed", 7),
        ),
        "ior-interfaces" => {
            let transfers: Vec<u64> = match flag_value(rest, "--transfer-kib") {
                Some(list) => list
                    .split(',')
                    .map(|t| {
                        t.trim().parse().unwrap_or_else(|_| {
                            eprintln!("daosctl: bad value for --transfer-kib: {t:?}");
                            usage()
                        })
                    })
                    .collect(),
                None => TRANSFER_KIB.to_vec(),
            };
            cmd_ior_interfaces(
                &transfers,
                parse_flag(rest, "--segments", 4u32),
                parse_flag(rest, "--ppn", 4u32),
            )
        }
        _ => archive_command(cmd, rest),
    };

    match result {
        Ok(Outcome::Fuzzed {
            seeds_run,
            policies_per_seed,
            failures,
        }) => {
            for f in &failures {
                eprintln!("FAIL: {f}");
            }
            println!(
                "fuzzed {seeds_run} seed(s) x {policies_per_seed} policies: {}",
                if failures.is_empty() {
                    "schedule-invariant".to_string()
                } else {
                    format!("{} divergence(s)", failures.len())
                }
            );
            if !failures.is_empty() {
                exit(1);
            }
        }
        Ok(Outcome::Cycled { rows }) => {
            println!(
                "{:<18} {:<15} {:>4} {:>6} {:>13} {:>13} {:>13} {:>11} {:>12} {:>8}",
                "layout",
                "admission",
                "met",
                "missed",
                "worst-late-ms",
                "writer-p99-us",
                "reader-p99-us",
                "aged-grants",
                "backlog-peak",
                "secs"
            );
            for o in rows.iter().map(|r| &r.outcome) {
                println!(
                    "{:<18} {:<15} {:>4} {:>6} {:>13.2} {:>13.1} {:>13.1} {:>11} {:>12} {:>8.4}",
                    o.layout.name(),
                    o.admission.name(),
                    o.deadlines_met,
                    o.deadlines_missed,
                    o.worst_lateness_ms,
                    o.writer_p99_us,
                    o.reader_p99_us,
                    o.aged_grants,
                    o.backlog_peak,
                    o.end_secs
                );
            }
            for o in rows.iter().filter(|r| r.faults).map(|r| &r.outcome) {
                let r = &o.resilience;
                println!(
                    "{} ({}): {} retries, {} timeouts, {} failovers, {} gave up, \
                     {} faults injected; failed ops: {} writes, {} reads",
                    o.layout.name(),
                    o.admission.name(),
                    r.retries,
                    r.timeouts,
                    r.failovers,
                    r.gave_up,
                    r.faults_injected,
                    r.failed_writes,
                    r.failed_reads
                );
            }
        }
        Ok(Outcome::Tiered { rows }) => {
            println!(
                "{:<9} {:<11} {:>13} {:>13} {:>6} {:>12} {:>13} {:>14} {:>8}",
                "media",
                "aggregation",
                "writer-p99-us",
                "reader-p99-us",
                "missed",
                "scm-used-kib",
                "nvme-used-kib",
                "aggregated-kib",
                "secs"
            );
            for r in &rows {
                let o = &r.outcome;
                println!(
                    "{:<9} {:<11} {:>13.1} {:>13.1} {:>6} {:>12} {:>13} {:>14} {:>8.4}",
                    r.media(),
                    r.aggregation,
                    o.writer_p99_us,
                    o.reader_p99_us,
                    o.deadlines_missed,
                    o.scm_used / 1024,
                    o.nvme_used / 1024,
                    o.aggregated_bytes / 1024,
                    o.end_secs
                );
            }
        }
        Ok(Outcome::Interfaces { rows }) => {
            println!(
                "{:>12} {:>12} {:>11} {:>14} {:>11} {:>10} {:>13}",
                "transfer-KiB",
                "daos-w-GiB/s",
                "dfs-w-GiB/s",
                "write-overhead",
                "daos-r-GiB/s",
                "dfs-r-GiB/s",
                "read-overhead"
            );
            for r in &rows {
                println!(
                    "{:>12} {:>12.2} {:>11.2} {:>14.3} {:>11.2} {:>10.2} {:>13.3}",
                    r.transfer_kib,
                    r.daos_write_bw,
                    r.dfs_write_bw,
                    r.write_overhead(),
                    r.daos_read_bw,
                    r.dfs_read_bw,
                    r.read_overhead()
                );
            }
        }
        Ok(Outcome::Created { targets }) => {
            println!("created {} ({} targets)", args[1], targets)
        }
        Ok(Outcome::Put { key, bytes }) => println!("archived {key} ({bytes} bytes)"),
        Ok(Outcome::Got { key, data }) => {
            if let Some(out) = flag_value(&args[2..], "--out") {
                std::fs::write(&out, &data).unwrap_or_else(|e| {
                    eprintln!("cannot write output: {e}");
                    exit(1);
                });
                println!("retrieved {key} -> {out} ({} bytes)", data.len());
            } else {
                use std::io::Write;
                std::io::stdout().write_all(&data).ok();
            }
        }
        Ok(Outcome::Listing(entries)) => {
            for e in &entries {
                println!("{e}");
            }
            eprintln!("{} field(s)", entries.len());
        }
        Ok(Outcome::Retrieved {
            found,
            missing,
            bytes,
        }) => {
            println!("retrieved {found} field(s), {bytes} bytes; {missing} missing")
        }
        Ok(Outcome::Wiped { removed }) => println!("wiped {removed} field(s)"),
        Ok(Outcome::TraceWritten { path, ops, gib }) => {
            println!("trace written: {path} ({ops} ops, {gib:.2} GiB of writes)")
        }
        Ok(Outcome::Simulated(stats)) => {
            println!(
                "writes: {:.2} GiB/s ({} ops)",
                stats.writes.global_bw_gib, stats.writes.io_count
            );
            println!(
                "reads : {:.2} GiB/s ({} ops)",
                stats.reads.global_bw_gib, stats.reads.io_count
            );
            println!(
                "tardiness: mean {:.2} ms, max {:.2} ms; total {:.3} s",
                stats.mean_tardiness_ms, stats.max_tardiness_ms, stats.end_secs
            );
        }
        Ok(Outcome::Traced {
            json_path,
            metrics_path,
            spans,
            instants,
            categories,
        }) => {
            println!(
                "trace written: {json_path} ({spans} spans, {instants} instants; \
                 categories: {})",
                categories.join(", ")
            );
            println!("metrics written: {metrics_path}");
            println!("open {json_path} in https://ui.perfetto.dev or chrome://tracing");
        }
        Ok(Outcome::Drilled { stats, timeline }) => {
            println!(" t_ms  write GiB/s  read GiB/s");
            for (t, w, r) in &timeline {
                println!("{t:>5}  {w:>11.2}  {r:>10.2}");
            }
            let res = stats.resilience;
            println!(
                "resilience: {} retries, {} timeouts, {} failovers, {} gave up, {} faults injected",
                res.retries, res.timeouts, res.failovers, res.gave_up, res.faults_injected
            );
            println!(
                "failed ops: {} writes, {} reads",
                res.failed_writes, res.failed_reads
            );
            println!(
                "tardiness: mean {:.2} ms, max {:.2} ms; total {:.3} s",
                stats.mean_tardiness_ms, stats.max_tardiness_ms, stats.end_secs
            );
        }
        Ok(Outcome::Info {
            containers,
            used,
            targets,
            arrays,
            kv_entries,
            array_bytes,
        }) => {
            println!("targets:     {targets}");
            println!("containers:  {containers}");
            println!("arrays:      {arrays} ({array_bytes} live bytes)");
            println!("index keys:  {kv_entries}");
            println!("used bytes:  {used}");
        }
        Err(e) => {
            eprintln!("daosctl: {e}");
            exit(1);
        }
    }
}

/// The commands that name an archive (or trace file) first.
fn archive_command(cmd: &str, args: &[String]) -> ToolResult {
    let (archive, rest) = args.split_first().unwrap_or_else(|| usage());
    let archive = Path::new(archive);
    match cmd {
        "init" => cmd_init(archive, parse_flag(rest, "--targets", 24)),
        "put" => {
            let key = rest.first().unwrap_or_else(|| usage());
            let data = if let Some(path) = flag_value(rest, "--file") {
                std::fs::read(path).unwrap_or_else(|e| {
                    eprintln!("cannot read payload: {e}");
                    exit(1);
                })
            } else if let Some(text) = flag_value(rest, "--text") {
                text.into_bytes()
            } else {
                usage();
            };
            cmd_put(archive, key, data)
        }
        "get" => {
            let key = rest.first().unwrap_or_else(|| usage());
            cmd_get(archive, key)
        }
        "list" => {
            let key = rest.first().unwrap_or_else(|| usage());
            cmd_list(archive, key)
        }
        "retrieve" => {
            let req = rest.first().unwrap_or_else(|| usage());
            cmd_retrieve(archive, req)
        }
        "wipe" => {
            let key = rest.first().unwrap_or_else(|| usage());
            cmd_wipe(archive, key)
        }
        "info" => cmd_info(archive),
        "synth-trace" => cmd_synth_trace(
            archive,
            parse_flag(rest, "--procs", 16u32),
            parse_flag(rest, "--steps", 4u32),
            parse_flag(rest, "--fields", 12u32),
            parse_flag(rest, "--mib", 1),
            parse_flag(rest, "--interval-ms", 100),
        ),
        "simulate" => {
            let mode = flag_value(rest, "--mode").unwrap_or_else(|| "full".to_string());
            cmd_simulate(
                archive,
                parse_flag(rest, "--servers", 1u16),
                parse_flag(rest, "--clients", 2u16),
                rest.iter().any(|a| a == "--paced"),
                &mode,
                parse_flag(rest, "--window", 1u32),
            )
        }
        "trace" => {
            let mode = flag_value(rest, "--mode").unwrap_or_else(|| "full".to_string());
            let json_out =
                PathBuf::from(flag_value(rest, "--out").unwrap_or_else(|| "trace.json".into()));
            let metrics_out = PathBuf::from(
                flag_value(rest, "--metrics").unwrap_or_else(|| "metrics.csv".into()),
            );
            cmd_trace(
                archive,
                parse_flag(rest, "--servers", 1u16),
                parse_flag(rest, "--clients", 2u16),
                rest.iter().any(|a| a == "--paced"),
                &mode,
                parse_flag(rest, "--window", 1u32),
                &json_out,
                &metrics_out,
            )
        }
        "failure-drill" => cmd_failure_drill(
            archive,
            parse_flag(rest, "--servers", 1u16),
            parse_flag(rest, "--clients", 2u16),
            parse_flag(rest, "--kill-ms", 59),
            parse_flag(rest, "--restart-ms", 170),
        ),
        _ => usage(),
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}
