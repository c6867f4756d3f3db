//! Ablation studies: which modelled mechanisms are load-bearing for the
//! reproduced results (DESIGN.md §5).

use daosim_cluster::{Calibration, ClusterSpec};
use daosim_core::fieldio::{FieldIoConfig, FieldIoMode};
use daosim_core::patterns::{run_pattern_a, run_pattern_b, PatternConfig};
use daosim_core::workload::{Contention, MIB};
use daosim_ior::{run_ior, IorParams};
use daosim_kernel::SimDuration;
use daosim_net::mpi::{run_p2p, MpiP2pConfig};
use daosim_net::ProviderProfile;
use daosim_objstore::ObjectClass;

use crate::harness::{gib, Report, Scale};

pub fn all(scale: &Scale) -> Vec<Report> {
    vec![
        single_stream_cap(scale),
        cont_table_cost(scale),
        kv_update_serialization(scale),
        ideal_vs_realistic(scale),
        frictionless(scale),
    ]
}

/// Removing the TCP single-stream cap (and its parallel-stream exponent)
/// collapses Table 2's scaling story: one stream saturates the host.
pub fn single_stream_cap(scale: &Scale) -> Report {
    let mut uncapped = ProviderProfile::tcp();
    uncapped.per_flow_cap_gib = 1e6;
    uncapped.stream_alpha = 0.0;
    let messages = scale.segments.max(10);
    let mut rep = Report::new(
        "ablation_stream_cap",
        "Ablation: TCP single-stream cap (Table 2 mechanism)",
        &["variant", "pairs", "aggregate_GiB/s"],
    );
    for (name, provider) in [("tcp", ProviderProfile::tcp()), ("tcp-uncapped", uncapped)] {
        for pairs in [1usize, 2, 8] {
            let r = run_p2p(MpiP2pConfig {
                provider,
                pairs,
                msg_bytes: 2 * MIB,
                messages,
            });
            rep.row(vec![
                name.to_string(),
                pairs.to_string(),
                gib(r.aggregate_gib_s),
            ]);
        }
    }
    rep.note("uncapped: one stream saturates the host link; pair-count scaling vanishes");
    rep
}

fn field_cfg(
    cluster: ClusterSpec,
    mode: FieldIoMode,
    contention: Contention,
    ppn: u32,
    ops: u32,
) -> PatternConfig {
    PatternConfig {
        cluster,
        fieldio: FieldIoConfig::builder().mode(mode).build(),
        contention,
        procs_per_node: ppn,
        ops_per_proc: ops,
        field_bytes: MIB,
        verify: false,
    }
}

/// Zeroing the container-handle table cost recovers full-mode performance
/// to the no-containers level — isolating the paper's unexplained
/// container-mode slowdown.
pub fn cont_table_cost(scale: &Scale) -> Report {
    let ppn = *scale.fieldio_ppn.last().unwrap_or(&8);
    let ops = scale.ops_per_proc;
    let mut rep = Report::new(
        "ablation_cont_table",
        "Ablation: container-handle cost (Fig. 5 full-mode slowdown)",
        &["variant", "mode", "aggregate_GiB/s"],
    );
    let mut zeroed = Calibration::nextgenio();
    zeroed.cont_table_cost_per_cont = SimDuration::ZERO;
    zeroed.cont_table_cost_cap = SimDuration::ZERO;
    for (variant, cal) in [
        ("calibrated", Calibration::nextgenio()),
        ("no-cont-cost", zeroed),
    ] {
        for mode in [FieldIoMode::Full, FieldIoMode::NoContainers] {
            let mut cluster = ClusterSpec::tcp(2, 4);
            cluster.calibration = cal;
            let r = run_pattern_b(&field_cfg(cluster, mode, Contention::Low, ppn, ops));
            rep.row(vec![
                variant.to_string(),
                mode.name().to_string(),
                gib(r.aggregate_gib()),
            ]);
        }
    }
    rep.note("with the cost zeroed, full mode converges to no-containers");
    rep
}

/// Zeroing the KV update serialization removes the shared-index rolloff
/// (Fig. 4's high-contention mechanism).
pub fn kv_update_serialization(scale: &Scale) -> Report {
    let ppn = *scale.fieldio_ppn.last().unwrap_or(&8);
    let ops = scale.ops_per_proc;
    let mut rep = Report::new(
        "ablation_kv_serial",
        "Ablation: KV update serialization (Fig. 4 contention mechanism)",
        &["variant", "server_nodes", "write_GiB/s"],
    );
    let mut zeroed = Calibration::nextgenio();
    zeroed.kv_update_serial_cost = SimDuration::ZERO;
    for (variant, cal) in [
        ("calibrated", Calibration::nextgenio()),
        ("no-kv-serial", zeroed),
    ] {
        for servers in [2u16, 4] {
            let mut cluster = ClusterSpec::tcp(servers, servers * 2);
            cluster.calibration = cal;
            let r = run_pattern_a(&field_cfg(
                cluster,
                FieldIoMode::NoContainers,
                Contention::High,
                ppn,
                ops,
            ));
            rep.row(vec![
                variant.to_string(),
                servers.to_string(),
                gib(r.write.global_bw_gib),
            ]);
        }
    }
    rep.note("without update serialization the shared index stops limiting scale");
    rep
}

/// IOR's synchronous bandwidth ("best possible") vs the Field I/O global
/// timing bandwidth ("achievable realistic") on the same deployment — the
/// motivation for the paper's new metric.
pub fn ideal_vs_realistic(scale: &Scale) -> Report {
    let spec = ClusterSpec::tcp(2, 4);
    let ppn = *scale.fieldio_ppn.last().unwrap_or(&8);
    let ior = run_ior(
        spec,
        IorParams {
            transfer_bytes: MIB,
            segments: scale.segments,
            procs_per_node: ppn,
            class: ObjectClass::S1,
            iterations: 1,
            file_mode: daosim_ior::FileMode::FilePerProcess,
            inflight: 1,
            api: daosim_ior::Api::Daos,
        },
    );
    let fio = run_pattern_a(&field_cfg(
        spec,
        FieldIoMode::Full,
        Contention::Low,
        ppn,
        scale.ops_per_proc,
    ));
    let mut rep = Report::new(
        "ablation_metric",
        "Ablation: synchronous (IOR) vs global timing (Field I/O) bandwidth",
        &["benchmark", "metric", "write_GiB/s", "read_GiB/s"],
    );
    rep.row(vec![
        "ior-segments".into(),
        "synchronous (Eq.1)".into(),
        gib(ior.write_bw()),
        gib(ior.read_bw()),
    ]);
    rep.row(vec![
        "fieldio-full".into(),
        "global timing (Eq.2)".into(),
        gib(fio.write.global_bw_gib),
        gib(fio.read.global_bw_gib),
    ]);
    rep.note("application-level field I/O achieves a fraction of the IOR ceiling");
    rep
}

/// With every software cost zeroed and stack caps removed the model is
/// bound only by raw network and media — an upper bound showing the
/// calibrated costs are load-bearing.
pub fn frictionless(scale: &Scale) -> Report {
    let ppn = *scale.fieldio_ppn.last().unwrap_or(&8);
    let ops = scale.ops_per_proc;
    let mut rep = Report::new(
        "ablation_frictionless",
        "Ablation: calibrated vs frictionless software stack",
        &["variant", "write_GiB/s", "read_GiB/s"],
    );
    for (variant, cal) in [
        ("calibrated", Calibration::nextgenio()),
        ("frictionless", Calibration::frictionless()),
    ] {
        let mut cluster = ClusterSpec::tcp(1, 2);
        cluster.calibration = cal;
        let r = run_pattern_a(&field_cfg(
            cluster,
            FieldIoMode::NoIndex,
            Contention::Low,
            ppn,
            ops,
        ));
        rep.row(vec![
            variant.to_string(),
            gib(r.write.global_bw_gib),
            gib(r.read.global_bw_gib),
        ]);
    }
    rep.note("frictionless is bound only by provider caps, raw links and media");
    rep
}
