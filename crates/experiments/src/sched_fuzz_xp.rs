//! Beyond-paper extension: schedule-perturbation fuzzing as an
//! experiment.
//!
//! Runs the fixed fuzz corpus (`daosim_cluster::fuzz`, seeds `0..N`)
//! under the full policy roster — FIFO reference, LIFO, two random-pick
//! streams, two wake-delay magnitudes, plus one writer-priority
//! admission slot on the FIFO schedule — and reports, per policy
//! family, how many seeds were checked and how many diverged. A healthy kernel
//! reports zero divergences everywhere; any non-zero cell is a
//! schedule-invariance bug and the row's detail column carries the first
//! shrunk repro. Everything is seed-derived, so reruns are
//! byte-identical.

use std::ops::Range;

use daosim_cluster::fuzz::{fuzz_corpus, FuzzReport};
use daosim_kernel::SchedPolicy;

use crate::harness::{parallel_map, JsonObject, Report, Scale};

/// Corpus sizes: quick keeps CI smoke cheap, full matches the
/// `daosctl fuzz --seeds 256` acceptance run.
fn corpus_len(scale: &Scale) -> u64 {
    if scale.ops_per_proc >= 60 {
        256
    } else {
        64
    }
}

/// Selects the perturbed schedule policies of family `name` (`all`,
/// `fifo`, `lifo`, `random` or `wake-delay`); `None` for an unknown
/// name. `fifo` selects none: only the FIFO-schedule slots run.
pub fn policy_family(name: &str) -> Option<fn(&SchedPolicy) -> bool> {
    let select: fn(&SchedPolicy) -> bool = match name {
        "all" => |_: &SchedPolicy| true,
        "fifo" => |_: &SchedPolicy| false,
        "lifo" => |p: &SchedPolicy| matches!(p, SchedPolicy::Lifo),
        "random" => |p: &SchedPolicy| matches!(p, SchedPolicy::Random { .. }),
        "wake-delay" => |p: &SchedPolicy| matches!(p, SchedPolicy::WakeDelay { .. }),
        _ => return None,
    };
    Some(select)
}

/// Fuzzes every seed in `seeds` under the policies `select` keeps, one
/// seed per [`parallel_map`] item, and merges the reports in seed
/// order — the same report `fuzz_corpus(seeds, select)` gives.
pub fn fuzz_seeds(seeds: Range<u64>, select: fn(&SchedPolicy) -> bool) -> FuzzReport {
    merge(parallel_map(seeds.collect(), |&seed| {
        fuzz_corpus([seed], select)
    }))
}

/// Concatenates per-seed reports, keeping their failures in input order.
fn merge(reports: Vec<FuzzReport>) -> FuzzReport {
    let mut merged = FuzzReport::default();
    for r in reports {
        merged.seeds_run += r.seeds_run;
        merged.policies_per_seed = merged.policies_per_seed.max(r.policies_per_seed);
        merged.failures.extend(r.failures);
    }
    merged
}

/// One row per perturbation family plus the combined roster.
pub fn sched_fuzz(scale: &Scale) -> Report {
    let n = corpus_len(scale);
    const FAMILIES: [&str; 4] = ["lifo", "random", "wake-delay", "all"];

    let mut rep = Report::new(
        "sched-fuzz",
        "Extension: differential schedule-perturbation fuzzing of the kernel executor",
        &["policies", "seeds", "divergences", "first_failure"],
    );
    let mut rows = Vec::with_capacity(FAMILIES.len());
    for name in FAMILIES {
        let r = fuzz_seeds(0..n, policy_family(name).expect("known family"));
        let first = r
            .failures
            .first()
            .map(|f| f.repro())
            .unwrap_or_else(|| "-".into());
        rep.row(vec![
            name.to_string(),
            r.seeds_run.to_string(),
            r.failures.len().to_string(),
            first,
        ]);
        rows.push(
            JsonObject::inline()
                .str("policies", name)
                .raw("seeds", r.seeds_run)
                .raw("divergences", r.failures.len()),
        );
    }
    let json = JsonObject::pretty()
        .str("experiment", "sched-fuzz")
        .str("corpus", &format!("seeds 0..{n}"))
        .array("rows", rows);
    rep.note(format!(
        "fixed corpus seeds 0..{n}; FIFO is the reference in every row and \
         every row also runs the writer-priority admission slot; divergence \
         = per-event outcome, final pool state, byte conservation or \
         quiescence differing from FIFO"
    ));
    rep.artifact("BENCH_sched_fuzz.json", json.render());
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use daosim_cluster::fuzz::{generate_program, FuzzFailure};
    use daosim_kernel::AdmissionPolicy;

    #[test]
    fn quick_corpus_reports_every_family_clean() {
        let rep = sched_fuzz(&Scale::quick());
        assert_eq!(rep.rows().len(), 4);
        for row in rep.rows() {
            assert_eq!(row[2], "0", "family {} diverged: {}", row[0], row[3]);
        }
    }

    #[test]
    fn policy_family_names_and_fuzz_seeds_merge() {
        for name in ["all", "fifo", "lifo", "random", "wake-delay"] {
            assert!(policy_family(name).is_some(), "{name}");
        }
        assert!(policy_family("bogus").is_none());
        let select = policy_family("lifo").unwrap();
        let merged = fuzz_seeds(3..7, select);
        let serial = fuzz_corpus(3..7, select);
        assert_eq!(merged.seeds_run, serial.seeds_run);
        assert_eq!(merged.policies_per_seed, serial.policies_per_seed);
        assert_eq!(repros(&merged), repros(&serial));
    }

    fn repros(r: &FuzzReport) -> Vec<(u64, String)> {
        r.failures.iter().map(|f| (f.seed, f.repro())).collect()
    }

    #[test]
    fn merge_keeps_failures_in_seed_order() {
        // The healthy kernel yields no failures, so the merge is fed
        // synthetic per-seed reports: clean, failing and multi-policy.
        let report = |seed: u64, policies: usize, failing: &[SchedPolicy]| FuzzReport {
            seeds_run: 1,
            policies_per_seed: policies,
            failures: failing
                .iter()
                .map(|&policy| FuzzFailure {
                    seed,
                    policy,
                    admission: AdmissionPolicy::Fifo,
                    detail: String::new(),
                    minimized: generate_program(seed),
                })
                .collect(),
        };
        let (lifo, fifo) = (SchedPolicy::Lifo, SchedPolicy::Fifo);
        let merged = merge(vec![
            report(4, 3, &[lifo]),
            report(5, 7, &[]),
            report(6, 3, &[lifo, fifo]),
            report(7, 3, &[lifo]),
        ]);
        assert_eq!((merged.seeds_run, merged.policies_per_seed), (4, 7));
        let got: Vec<_> = merged.failures.iter().map(|f| (f.seed, f.policy)).collect();
        assert_eq!(got, [(4, lifo), (6, lifo), (6, fifo), (7, lifo)]);
    }
}
