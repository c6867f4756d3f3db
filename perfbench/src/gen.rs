//! Seeded input generation. Everything a workload feeds the program —
//! keys, payload bytes, field sizes, op order and reader picks — comes
//! from here, is derived from the run's `--seed`, and is built before
//! any timed call.

use bytes::Bytes;
use daosim_core::key::FieldKey;
use daosim_core::workload::{LEVELS, PARAMS};
use daosim_kernel::rng::splitmix64;

/// A well-mixed 64-bit value for `(seed, a, b, c)`.
pub fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    splitmix64(seed ^ splitmix64(a ^ splitmix64(b ^ splitmix64(c))))
}

/// `bytes` pseudo-random payload bytes for `salt`.
pub fn payload(bytes: u64, salt: u64) -> Bytes {
    daosim_core::workload::payload(bytes, salt)
}

/// A forecast key: the most-significant part names the forecast
/// (`number` is the index owner), the least-significant part the field.
/// `seed` picks the date, cycle time and parameter/level labels.
pub fn field_key(seed: u64, number: u32, step: u32, field: &str) -> FieldKey {
    let h = mix(seed, 0xF1E1D, number as u64, step as u64);
    let date = 20290101 + (seed % 28) as u32;
    let time = if seed & 1 == 0 { "0000" } else { "1200" };
    FieldKey::from_pairs([
        ("class", "od".to_string()),
        ("stream", "oper".to_string()),
        ("expver", format!("{:04x}", seed & 0xffff)),
        ("date", date.to_string()),
        ("time", time.to_string()),
        ("number", number.to_string()),
        ("step", step.to_string()),
        (
            "param",
            PARAMS[(h % PARAMS.len() as u64) as usize].to_string(),
        ),
        (
            "levelist",
            LEVELS[((h >> 16) % LEVELS.len() as u64) as usize].to_string(),
        ),
        ("field", field.to_string()),
    ])
}

/// A seeded permutation of `0..n`.
pub fn permutation(seed: u64, n: u32) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n).collect();
    for i in (1..v.len()).rev() {
        let j = (mix(seed, 0x5EED, i as u64, 0) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// Cheap in-loop check that `got` is `want`: equal length and equal
/// bytes at 64 spread-out positions plus both ends. The byte-exact
/// comparison of every acknowledged field runs after the timed phase.
pub fn looks_like(got: &[u8], want: &[u8]) -> bool {
    if got.len() != want.len() {
        return false;
    }
    let n = got.len();
    if n <= 128 {
        return got == want;
    }
    let step = n / 64;
    got[..32] == want[..32]
        && got[n - 32..] == want[n - 32..]
        && (0..64).all(|i| got[i * step] == want[i * step])
}
