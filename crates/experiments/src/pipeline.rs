//! Beyond-paper extension: the I/O-server pipeline study.
//!
//! The paper's operational context (§1.2) routes model output through
//! dedicated I/O-server nodes before it reaches storage; the evaluation
//! benchmarks only the storage side. This experiment closes the loop:
//! it sweeps the model-rank to I/O-server ratio and reports storage-side
//! bandwidth alongside the end-to-end (model-to-durable) field latency —
//! the figure an operational deployment actually cares about.

use daosim_cluster::ClusterSpec;
use daosim_core::fieldio::{FieldIoConfig, FieldIoMode};
use daosim_core::ioserver::{run_ioserver_pipeline, IoServerConfig};
use daosim_core::workload::MIB;
use daosim_kernel::SimDuration;

use crate::harness::{gib, parallel_map, Report, Scale};

pub fn pipeline(scale: &Scale) -> Report {
    #[derive(Clone, Copy)]
    struct Cfg {
        model_nodes: u16,
        ioserver_nodes: u16,
        ioservers_per_node: u32,
    }
    let cfgs = vec![
        Cfg {
            model_nodes: 2,
            ioserver_nodes: 1,
            ioservers_per_node: 2,
        },
        Cfg {
            model_nodes: 2,
            ioserver_nodes: 1,
            ioservers_per_node: 8,
        },
        Cfg {
            model_nodes: 4,
            ioserver_nodes: 1,
            ioservers_per_node: 8,
        },
        Cfg {
            model_nodes: 4,
            ioserver_nodes: 2,
            ioservers_per_node: 8,
        },
        Cfg {
            model_nodes: 8,
            ioserver_nodes: 2,
            ioservers_per_node: 8,
        },
    ];
    let fields_per_rank = (scale.ops_per_proc / 4).max(4);
    let results = parallel_map(cfgs, |c| {
        let cfg = IoServerConfig {
            cluster: ClusterSpec::tcp(2, c.model_nodes + c.ioserver_nodes),
            fieldio: FieldIoConfig::builder().mode(FieldIoMode::Full).build(),
            model_nodes: c.model_nodes,
            ranks_per_node: 8,
            ioservers_per_node: c.ioservers_per_node,
            fields_per_rank,
            steps: 2,
            field_bytes: 2 * MIB,
            encode_cost: SimDuration::from_micros(120),
        };
        let r = run_ioserver_pipeline(&cfg);
        (*c, r)
    });
    let mut rep = Report::new(
        "pipeline",
        "Extension: model -> I/O server -> DAOS pipeline (2 server nodes)",
        &[
            "model_nodes",
            "ioserver_nodes",
            "ioservers/node",
            "storage_GiB/s",
            "e2e_p50_ms",
            "e2e_p99_ms",
        ],
    );
    for (c, r) in results {
        rep.row(vec![
            c.model_nodes.to_string(),
            c.ioserver_nodes.to_string(),
            c.ioservers_per_node.to_string(),
            gib(r.storage.global_bw_gib),
            format!("{:.2}", r.end_to_end.p50_us / 1000.0),
            format!("{:.2}", r.end_to_end.p99_us / 1000.0),
        ]);
    }
    rep.note(
        "more I/O servers raise storage bandwidth until DAOS saturates; \
              over-subscribed model ranks show up as p99 latency growth",
    );
    rep
}
