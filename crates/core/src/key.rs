//! Weather-field keys and the most/least-significant split.
//!
//! A field is identified by a set of key-value pairs (paper Fig. 1), e.g.
//! `class=od, date=20201224, time=0000, param=t, level=500, step=24`.
//! The field I/O scheme splits a key into its *most-significant* part —
//! the pairs identifying a model run or *forecast* (indexed by the main
//! Key-Value) — and the *least-significant* part — the pairs identifying
//! one field within that forecast (indexed by the forecast Key-Value).

use std::collections::BTreeMap;
use std::fmt;

/// Which key names belong to the most-significant (forecast-identifying)
/// part. Mirrors the FDB5 schema's first rule level.
#[derive(Clone, Debug)]
pub struct KeySchema {
    msk_names: Vec<String>,
}

impl KeySchema {
    pub fn new<I, S>(msk_names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        KeySchema {
            msk_names: msk_names.into_iter().map(Into::into).collect(),
        }
    }

    /// The ECMWF-style default: class/stream/expver/date/time/number
    /// identify a forecast; everything else identifies a field within it.
    pub fn ecmwf() -> Self {
        KeySchema::new(["class", "stream", "expver", "date", "time", "number"])
    }

    pub fn is_msk(&self, name: &str) -> bool {
        self.msk_names.iter().any(|n| n == name)
    }
}

impl Default for KeySchema {
    fn default() -> Self {
        Self::ecmwf()
    }
}

/// One part of a key (either split half), canonically ordered.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct KeyPart {
    entries: BTreeMap<String, String>,
}

impl KeyPart {
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Canonical text form `k1=v1,k2=v2` in key order — the byte string
    /// hashed for container UUIDs and used as the Key-Value key.
    pub fn canonical(&self) -> String {
        canonical_of(&self.entries)
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries.get(name).map(String::as_str)
    }
}

/// A complete field key.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct FieldKey {
    entries: BTreeMap<String, String>,
}

impl FieldKey {
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a key from `(name, value)` pairs. Later duplicates win,
    /// matching set semantics.
    pub fn from_pairs<I, K, V>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (K, V)>,
        K: Into<String>,
        V: Into<String>,
    {
        FieldKey {
            entries: pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        }
    }

    pub fn set(&mut self, name: impl Into<String>, value: impl Into<String>) -> &mut Self {
        self.entries.insert(name.into(), value.into());
        self
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries.get(name).map(String::as_str)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Splits into `(most-significant, least-significant)` per `schema`.
    pub fn split(&self, schema: &KeySchema) -> (KeyPart, KeyPart) {
        let mut msk = KeyPart::default();
        let mut lsk = KeyPart::default();
        for (k, v) in &self.entries {
            if schema.is_msk(k) {
                msk.entries.insert(k.clone(), v.clone());
            } else {
                lsk.entries.insert(k.clone(), v.clone());
            }
        }
        (msk, lsk)
    }

    /// The canonical strings of both halves of [`FieldKey::split`]:
    /// equal to `(msk.canonical(), lsk.canonical())`, but built in one
    /// pass over the entries without cloning them into two [`KeyPart`]s.
    pub fn split_canonical(&self, schema: &KeySchema) -> (String, String) {
        let mut msk = String::new();
        let mut lsk = String::new();
        for (k, v) in &self.entries {
            let half = if schema.is_msk(k) { &mut msk } else { &mut lsk };
            push_pair(half, k, v);
        }
        (msk, lsk)
    }

    /// Parses the canonical text form `k1=v1,k2=v2`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut key = FieldKey::new();
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("missing '=' in {part:?}"))?;
            if k.trim().is_empty() || v.trim().is_empty() {
                return Err(format!("empty name or value in {part:?}"));
            }
            key.set(k.trim(), v.trim());
        }
        if key.is_empty() {
            return Err("empty key".to_string());
        }
        Ok(key)
    }

    /// Canonical text of the full key.
    pub fn canonical(&self) -> String {
        canonical_of(&self.entries)
    }
}

/// Appends `k=v` to a canonical string, after a `,` unless it is still
/// empty (every pair adds at least the `=`, so "empty" means "first").
fn push_pair(out: &mut String, k: &str, v: &str) {
    if !out.is_empty() {
        out.push(',');
    }
    out.push_str(k);
    out.push('=');
    out.push_str(v);
}

fn canonical_of(entries: &BTreeMap<String, String>) -> String {
    let mut s = String::new();
    for (k, v) in entries {
        push_pair(&mut s, k, v);
    }
    s
}

impl fmt::Display for FieldKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

impl fmt::Display for KeyPart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FieldKey {
        FieldKey::from_pairs([
            ("class", "od"),
            ("date", "20201224"),
            ("time", "0000"),
            ("expver", "0001"),
            ("param", "t"),
            ("levelist", "500"),
            ("step", "24"),
        ])
    }

    #[test]
    fn canonical_is_sorted_and_stable() {
        let k = sample();
        assert_eq!(
            k.canonical(),
            "class=od,date=20201224,expver=0001,levelist=500,param=t,step=24,time=0000"
        );
        // Insertion order must not matter.
        let mut k2 = FieldKey::new();
        k2.set("step", "24")
            .set("class", "od")
            .set("date", "20201224")
            .set("expver", "0001")
            .set("levelist", "500")
            .set("param", "t")
            .set("time", "0000");
        assert_eq!(k, k2);
        assert_eq!(k.canonical(), k2.canonical());
    }

    #[test]
    fn split_follows_schema() {
        let (msk, lsk) = sample().split(&KeySchema::ecmwf());
        assert_eq!(
            msk.canonical(),
            "class=od,date=20201224,expver=0001,time=0000"
        );
        assert_eq!(lsk.canonical(), "levelist=500,param=t,step=24");
        assert_eq!(msk.get("class"), Some("od"));
        assert_eq!(lsk.get("class"), None);
        assert_eq!(
            sample().split_canonical(&KeySchema::ecmwf()),
            (msk.canonical(), lsk.canonical())
        );
    }

    #[test]
    fn same_forecast_same_msk() {
        let a = sample();
        let mut b = sample();
        b.set("step", "48");
        let s = KeySchema::ecmwf();
        assert_eq!(a.split(&s).0, b.split(&s).0);
        assert_ne!(a.split(&s).1, b.split(&s).1);
    }

    #[test]
    fn custom_schema() {
        let s = KeySchema::new(["a"]);
        let k = FieldKey::from_pairs([("a", "1"), ("b", "2")]);
        let (msk, lsk) = k.split(&s);
        assert_eq!(msk.canonical(), "a=1");
        assert_eq!(lsk.canonical(), "b=2");
    }

    #[test]
    fn duplicate_set_overwrites() {
        let mut k = FieldKey::new();
        k.set("p", "old").set("p", "new");
        assert_eq!(k.get("p"), Some("new"));
        assert_eq!(k.len(), 1);
    }

    #[test]
    fn empty_parts_allowed() {
        let k = FieldKey::from_pairs([("param", "t")]);
        let (msk, lsk) = k.split(&KeySchema::ecmwf());
        assert!(msk.is_empty());
        assert!(!lsk.is_empty());
        assert_eq!(msk.canonical(), "");
    }

    #[test]
    fn parse_roundtrips_canonical() {
        let k = sample();
        let parsed = FieldKey::parse(&k.canonical()).unwrap();
        assert_eq!(parsed, k);
        // Whitespace tolerated, empties rejected.
        assert!(FieldKey::parse(" class = od , step = 24 ").is_ok());
        assert!(FieldKey::parse("").is_err());
        assert!(FieldKey::parse("class").is_err());
        assert!(FieldKey::parse("class=").is_err());
    }

    #[test]
    fn display_matches_canonical() {
        let k = sample();
        assert_eq!(format!("{k}"), k.canonical());
    }
}
