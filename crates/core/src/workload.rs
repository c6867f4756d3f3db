//! Workload generation: realistic weather-field keys and payloads.
//!
//! The benchmark's contention regimes (paper §5.2/§6.3) fall out of the
//! keys: under **high contention** every process writes fields of one
//! shared forecast, so all of them index into the same forecast Key-Value
//! and containers; under **low contention** each process owns an ensemble
//! member (`number=<proc>`), giving it its own forecast Key-Value — the
//! two configurations the paper evaluates.

use bytes::Bytes;

use crate::key::FieldKey;

pub const KIB: u64 = 1024;
pub const MIB: u64 = 1024 * KIB;

/// Upper-air parameters a real IFS run outputs, used round-robin.
pub const PARAMS: [&str; 10] = ["t", "u", "v", "q", "w", "z", "r", "d", "vo", "o3"];

/// Pressure levels (hPa).
pub const LEVELS: [u32; 12] = [1000, 925, 850, 700, 500, 400, 300, 250, 200, 100, 50, 10];

/// Index-KV contention regime.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Contention {
    /// One shared forecast (single forecast index Key-Value) across all
    /// processes — the paper's pessimistic configuration.
    High,
    /// One forecast per process (own index Key-Value) — the optimistic,
    /// operationally realistic configuration.
    Low,
}

impl Contention {
    pub fn name(self) -> &'static str {
        match self {
            Contention::High => "high",
            Contention::Low => "low",
        }
    }
}

/// Deterministic field-key generator for benchmark processes.
#[derive(Clone, Copy, Debug)]
pub struct KeyGen {
    pub contention: Contention,
}

impl KeyGen {
    pub fn new(contention: Contention) -> Self {
        KeyGen { contention }
    }

    /// The key written/read by `(global process id, op index)`.
    ///
    /// Keys are unique per `(process, op)` in both regimes; the regimes
    /// differ only in the most-significant part (shared vs per-process).
    pub fn field_key(&self, process: u32, op: u32) -> FieldKey {
        let mut key = FieldKey::from_pairs([
            ("class", "od".to_string()),
            ("stream", "oper".to_string()),
            ("expver", "0001".to_string()),
            ("date", "20290101".to_string()),
            ("time", "0000".to_string()),
            ("param", PARAMS[(op as usize) % PARAMS.len()].to_string()),
            (
                "levelist",
                LEVELS[(op as usize / PARAMS.len()) % LEVELS.len()].to_string(),
            ),
            (
                "step",
                (op / (PARAMS.len() * LEVELS.len()) as u32).to_string(),
            ),
        ]);
        match self.contention {
            Contention::High => {
                // Shared forecast: disambiguate fields by emitting rank as
                // a least-significant pair (an I/O-server shard id).
                key.set("shard", process.to_string());
            }
            Contention::Low => {
                // Own forecast per process: ensemble member number is
                // most-significant under the ECMWF schema.
                key.set("number", process.to_string());
            }
        }
        key
    }
}

/// A deterministic pseudo-random payload of `bytes` bytes. Benchmarks
/// clone this one buffer for every field, keeping memory flat (the store
/// is extent-based and reference-counted).
pub fn payload(bytes: u64, seed: u64) -> Bytes {
    let mut v = Vec::with_capacity(bytes as usize);
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    while (v.len() as u64) < bytes {
        state = daosim_kernel::rng::splitmix64(state);
        let chunk = state.to_le_bytes();
        let take = ((bytes as usize) - v.len()).min(8);
        v.extend_from_slice(&chunk[..take]);
    }
    Bytes::from(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeySchema;

    #[test]
    fn high_contention_shares_msk() {
        let g = KeyGen::new(Contention::High);
        let s = KeySchema::ecmwf();
        let a = g.field_key(0, 0).split(&s).0;
        let b = g.field_key(57, 3).split(&s).0;
        assert_eq!(a, b, "all processes must share one forecast");
    }

    #[test]
    fn low_contention_separates_msk_per_process() {
        let g = KeyGen::new(Contention::Low);
        let s = KeySchema::ecmwf();
        let a = g.field_key(0, 0).split(&s).0;
        let b = g.field_key(1, 0).split(&s).0;
        assert_ne!(a, b);
        // Same process, different op: same forecast.
        let c = g.field_key(0, 5).split(&s).0;
        assert_eq!(a, c);
    }

    #[test]
    fn keys_are_unique_per_process_and_op() {
        for contention in [Contention::High, Contention::Low] {
            let g = KeyGen::new(contention);
            let mut seen = std::collections::HashSet::new();
            for p in 0..8 {
                for op in 0..200 {
                    assert!(
                        seen.insert(g.field_key(p, op).canonical()),
                        "duplicate key p={p} op={op} ({contention:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn op_sequence_walks_params_levels_steps() {
        let g = KeyGen::new(Contention::Low);
        let k0 = g.field_key(0, 0);
        let k1 = g.field_key(0, 1);
        assert_eq!(k0.get("param"), Some("t"));
        assert_eq!(k1.get("param"), Some("u"));
        assert_eq!(k0.get("step"), Some("0"));
        let k120 = g.field_key(0, 120);
        assert_eq!(k120.get("step"), Some("1"));
    }

    #[test]
    fn payload_is_deterministic_and_sized() {
        let a = payload(1000, 7);
        let b = payload(1000, 7);
        let c = payload(1000, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 1000);
        assert_eq!(payload(0, 1).len(), 0);
        assert_eq!(payload(13, 1).len(), 13);
    }
}
