//! Table 1 and Table 2 runners.

use daosim_cluster::ClusterSpec;
use daosim_core::workload::MIB;
use daosim_ior::{best_over_ppn, IorParams};
use daosim_net::mpi::best_over_sizes;
use daosim_net::ProviderProfile;
use daosim_objstore::ObjectClass;

use crate::harness::{gib, parallel_map, Report, Scale};

/// Table 2 — MPI-style process-to-process transfer bandwidth over the raw
/// fabric model, TCP vs PSM2, picking the optimal transfer size per row.
pub fn table2(scale: &Scale) -> Report {
    struct Row {
        provider: &'static str,
        pairs: usize,
        paper_gib: f64,
    }
    let rows = vec![
        Row {
            provider: "psm2",
            pairs: 1,
            paper_gib: 12.1,
        },
        Row {
            provider: "tcp",
            pairs: 1,
            paper_gib: 3.1,
        },
        Row {
            provider: "tcp",
            pairs: 2,
            paper_gib: 4.1,
        },
        Row {
            provider: "tcp",
            pairs: 4,
            paper_gib: 6.9,
        },
        Row {
            provider: "tcp",
            pairs: 8,
            paper_gib: 9.5,
        },
        Row {
            provider: "tcp",
            pairs: 16,
            paper_gib: 9.0,
        },
    ];
    let sizes: Vec<u64> = (18..=25).map(|p| 1u64 << p).collect(); // 256 KiB..32 MiB
    let messages = scale.segments.max(10);
    let results = parallel_map(rows, |r| {
        let p = ProviderProfile::by_name(r.provider).expect("known provider");
        let (size, bw) = best_over_sizes(p, r.pairs, &sizes, messages);
        (r.provider, r.pairs, size, bw, r.paper_gib)
    });
    let mut rep = Report::new(
        "table2",
        "Table 2: MPI p2p transfer bandwidth (TCP vs PSM2)",
        &[
            "provider",
            "pairs",
            "opt_size_MiB",
            "measured_GiB/s",
            "paper_GiB/s",
        ],
    );
    for (provider, pairs, size, bw, paper) in results {
        rep.row(vec![
            provider.to_string(),
            pairs.to_string(),
            format!("{}", size / MIB),
            gib(bw),
            gib(paper),
        ]);
    }
    rep.note("paper sweeps 0-32 MiB transfer sizes; model sweeps 256 KiB-32 MiB");
    rep
}

/// Table 1 — IOR segments mode against a single server node, varying
/// engines per server node, interfaces per client node and client nodes.
pub fn table1(scale: &Scale) -> Report {
    struct Cfg {
        engines: u8,
        client_sockets: u8,
        client_nodes: u16,
        paper_w: f64,
        paper_r: f64,
    }
    let cfgs = vec![
        Cfg {
            engines: 1,
            client_sockets: 1,
            client_nodes: 1,
            paper_w: 3.0,
            paper_r: 4.2,
        },
        Cfg {
            engines: 1,
            client_sockets: 1,
            client_nodes: 2,
            paper_w: 2.6,
            paper_r: 6.2,
        },
        Cfg {
            engines: 1,
            client_sockets: 2,
            client_nodes: 1,
            paper_w: 3.0,
            paper_r: 7.4,
        },
        Cfg {
            engines: 1,
            client_sockets: 2,
            client_nodes: 2,
            paper_w: 2.9,
            paper_r: 7.7,
        },
        Cfg {
            engines: 2,
            client_sockets: 2,
            client_nodes: 1,
            paper_w: 5.5,
            paper_r: 7.5,
        },
        Cfg {
            engines: 2,
            client_sockets: 2,
            client_nodes: 2,
            paper_w: 5.5,
            paper_r: 9.5,
        },
    ];
    let ppns = scale.ppn_sweep.clone();
    let segments = scale.segments;
    let results = parallel_map(cfgs, |c| {
        let spec = ClusterSpec {
            server_nodes: 1,
            engines_per_node: c.engines,
            targets_per_engine: 12,
            client_nodes: c.client_nodes,
            client_sockets: c.client_sockets,
            provider: ProviderProfile::tcp(),
            calibration: daosim_cluster::Calibration::nextgenio(),
            retry: daosim_cluster::RetryPolicy::builder().build(),
            admission: daosim_kernel::AdmissionPolicy::Fifo,
            tiering: daosim_cluster::TierPolicy::scm_only(),
        };
        let params = IorParams {
            transfer_bytes: MIB,
            segments,
            procs_per_node: 0,
            class: ObjectClass::S1,
            iterations: 1,
            file_mode: daosim_ior::FileMode::FilePerProcess,
            inflight: 1,
            api: daosim_ior::Api::Daos,
        };
        let (w, r) = best_over_ppn(spec, &ppns, params);
        (
            c.engines,
            c.client_sockets,
            c.client_nodes,
            w,
            r,
            c.paper_w,
            c.paper_r,
        )
    });
    let mut rep = Report::new(
        "table1",
        "Table 1: IOR segments, 1 server node (best over client process counts)",
        &[
            "engines/server",
            "ifaces/client",
            "client_nodes",
            "write_GiB/s",
            "read_GiB/s",
            "paper_w",
            "paper_r",
        ],
    );
    for (e, s, c, w, r, pw, pr) in results {
        rep.row(vec![
            e.to_string(),
            s.to_string(),
            c.to_string(),
            gib(w),
            gib(r),
            gib(pw),
            gib(pr),
        ]);
    }
    rep.note("paper reports the max of 36 repetitions; the simulator is deterministic");
    rep
}
