//! Beyond-paper extension: IOR `api=DFS` vs `api=DAOS` interface
//! overhead per transfer size.
//!
//! The interface studies around the source paper run IOR twice per
//! configuration — once against raw DAOS Arrays, once through the DFS
//! POSIX emulation — and report how much the namespace costs. The data
//! path is identical (DFS files *are* Arrays); the delta is purely
//! dirent traffic: a conditional dirent insert per create, a path walk
//! per open, a size update per dirty close. This experiment sweeps the
//! transfer size at a fixed segment count and reports the
//! `DAOS_bw / DFS_bw` overhead ratio for writes and reads, reproducing
//! the papers' ranking: the metadata tax is visible on small transfers
//! and vanishes (ratio → 1) once transfers are large enough to amortize
//! it.
//!
//! All numbers are sim-derived, so reruns are byte-identical.

use daosim_cluster::ClusterSpec;
use daosim_core::workload::KIB;
use daosim_ior::{run_ior, Api, FileMode, IorParams};
use daosim_objstore::prelude::ObjectClass;

use crate::harness::{gib, parallel_map, JsonObject, Report, Scale};

/// Transfer sizes swept (`-t = -b`), small enough that dirent traffic
/// shows, large enough that it drowns.
pub const TRANSFER_KIB: [u64; 5] = [16, 64, 256, 1024, 4096];

/// Client processes per node in the experiment.
const PPN: u32 = 4;

/// One `api=DAOS` vs `api=DFS` comparison point of [`interface_grid`].
/// Bandwidths are GiB/s; the overhead ratios are `daos_bw / dfs_bw`
/// (>= 1 when the namespace costs anything).
#[derive(Debug, Clone, PartialEq)]
pub struct InterfaceRow {
    pub transfer_kib: u64,
    pub daos_write_bw: f64,
    pub dfs_write_bw: f64,
    pub daos_read_bw: f64,
    pub dfs_read_bw: f64,
}

impl InterfaceRow {
    pub fn write_overhead(&self) -> f64 {
        self.daos_write_bw / self.dfs_write_bw
    }
    pub fn read_overhead(&self) -> f64 {
        self.daos_read_bw / self.dfs_read_bw
    }
}

fn point(transfer_kib: u64, segments: u32, ppn: u32, api: Api) -> IorParams {
    // SX striping: every file spreads over all targets, so the two runs
    // share one data-path shape and the measured delta is purely the
    // namespace (S1 would add single-stripe placement luck per oid draw).
    IorParams {
        transfer_bytes: transfer_kib * KIB,
        segments,
        procs_per_node: ppn,
        class: ObjectClass::SX,
        iterations: 1,
        file_mode: FileMode::FilePerProcess,
        inflight: 1,
        api,
    }
}

/// The interface grid on a simulated `tcp(1, 2)` cluster: each transfer
/// size is written and read twice — once against raw DAOS Arrays, once
/// through the `daosim-dfs` namespace — with every other parameter
/// shared, so the overhead ratio isolates the namespace. Rows follow
/// `transfers_kib`; `transfer_kib * 1024` must fit in a `u64`.
pub fn interface_grid(transfers_kib: &[u64], segments: u32, ppn: u32) -> Vec<InterfaceRow> {
    let spec = ClusterSpec::tcp(1, 2);
    parallel_map(transfers_kib.to_vec(), |&t| {
        let daos = run_ior(spec, point(t, segments, ppn, Api::Daos));
        let dfs = run_ior(spec, point(t, segments, ppn, Api::Dfs));
        InterfaceRow {
            transfer_kib: t,
            daos_write_bw: daos.write_bw(),
            dfs_write_bw: dfs.write_bw(),
            daos_read_bw: daos.read_bw(),
            dfs_read_bw: dfs.read_bw(),
        }
    })
}

/// Runs the interface sweep and renders the report plus the
/// `BENCH_ior_interfaces.json` artifact.
pub fn ior_interfaces(scale: &Scale) -> Report {
    // Few segments per point: the per-file dirent cost is fixed, so a
    // small byte total keeps it visible at the small-transfer end.
    let segments = scale.segments.clamp(2, 8);
    let results = interface_grid(&TRANSFER_KIB, segments, PPN);
    let mut rep = Report::new(
        "ior-interfaces",
        "Extension: IOR api=DFS vs api=DAOS — namespace overhead vs transfer size",
        &[
            "transfer_KiB",
            "daos_write_GiB/s",
            "dfs_write_GiB/s",
            "write_overhead",
            "daos_read_GiB/s",
            "dfs_read_GiB/s",
            "read_overhead",
        ],
    );
    let mut rows = Vec::with_capacity(results.len());
    for r in &results {
        let (w_over, r_over) = (r.write_overhead(), r.read_overhead());
        rep.row(vec![
            r.transfer_kib.to_string(),
            gib(r.daos_write_bw),
            gib(r.dfs_write_bw),
            format!("{w_over:.3}"),
            gib(r.daos_read_bw),
            gib(r.dfs_read_bw),
            format!("{r_over:.3}"),
        ]);
        rows.push(
            JsonObject::inline()
                .raw("transfer_kib", r.transfer_kib)
                .raw("daos_write_gib_s", r.daos_write_bw)
                .raw("dfs_write_gib_s", r.dfs_write_bw)
                .raw("write_overhead", w_over)
                .raw("daos_read_gib_s", r.daos_read_bw)
                .raw("dfs_read_gib_s", r.dfs_read_bw)
                .raw("read_overhead", r_over),
        );
    }
    let json = JsonObject::pretty()
        .str("experiment", "ior-interfaces")
        .str("cluster", "tcp(server_nodes=1, client_nodes=2)")
        .raw("procs_per_node", PPN)
        .raw("segments", segments)
        .str("file_mode", "file-per-process")
        .str("overhead", "daos_bw / dfs_bw")
        .array("rows", rows);
    rep.note(format!(
        "{} procs x {segments} segments per point, inflight 1; DFS adds per-file dirent create/walk/update inside the measured window",
        2 * PPN
    ));
    rep.artifact("BENCH_ior_interfaces.json", json.render());
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_shrinks_with_transfer_size() {
        let rep = ior_interfaces(&Scale::quick());
        assert_eq!(rep.rows().len(), TRANSFER_KIB.len());
        let write_over: Vec<f64> = rep.rows().iter().map(|r| r[3].parse().unwrap()).collect();
        let read_over: Vec<f64> = rep.rows().iter().map(|r| r[6].parse().unwrap()).collect();
        // DFS never beats raw DAOS (same data path plus extra metadata).
        assert!(
            write_over.iter().chain(&read_over).all(|&o| o >= 1.0),
            "overhead below 1: {write_over:?} {read_over:?}"
        );
        // The papers' ranking: the smallest transfer pays the most, the
        // largest has amortized the namespace almost completely away.
        let (w_first, w_last) = (write_over[0], *write_over.last().unwrap());
        assert!(
            w_first > w_last,
            "small-transfer write overhead {w_first} should exceed large-transfer {w_last}"
        );
        assert!(
            w_last < 1.10,
            "large transfers should amortize DFS write overhead, got {w_last}"
        );
        let (r_first, r_last) = (read_over[0], *read_over.last().unwrap());
        assert!(
            r_first > r_last,
            "small-transfer read overhead {r_first} should exceed large-transfer {r_last}"
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = ior_interfaces(&Scale::quick());
        let b = ior_interfaces(&Scale::quick());
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.artifacts(), b.artifacts());
    }
}
