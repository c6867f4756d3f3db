//! Shared experiment harness: scale presets, a parallel sweep runner,
//! table/CSV reporting and the JSON writer behind every `BENCH_*.json`.
//!
//! Each simulation world is single-threaded and deterministic; sweeps
//! parallelise across configurations, one world per OS thread.

use std::cell::UnsafeCell;
use std::fmt::{Display, Write as _};
use std::fs;
use std::io::Write as _;
use std::mem::MaybeUninit;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use daosim_core::metrics::LatencyStats;
use daosim_core::obs::json_escape;

/// How big to run an experiment.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Field I/O operations per process (the paper uses 2000 purely to
    /// amortise real-world start-up jitter; the simulator reaches steady
    /// state far sooner).
    pub ops_per_proc: u32,
    /// IOR segments per process.
    pub segments: u32,
    /// Client process counts per node to sweep (best is reported).
    pub ppn_sweep: Vec<u32>,
    /// A reduced ppn sweep for the largest configurations.
    pub ppn_sweep_large: Vec<u32>,
    /// Process counts per node swept for the Field I/O patterns.
    pub fieldio_ppn: Vec<u32>,
}

impl Scale {
    /// The default evaluation scale (minutes of wall-clock on a laptop).
    pub fn full() -> Self {
        Scale {
            ops_per_proc: 60,
            segments: 100,
            ppn_sweep: vec![8, 16, 24, 48],
            ppn_sweep_large: vec![16, 32],
            fieldio_ppn: vec![16, 32],
        }
    }

    /// Smoke-test scale for CI and benches.
    pub fn quick() -> Self {
        Scale {
            ops_per_proc: 10,
            segments: 10,
            ppn_sweep: vec![4, 8],
            ppn_sweep_large: vec![8],
            fieldio_ppn: vec![4],
        }
    }
}

/// Per-slot output cells for [`parallel_map`]. The work-index counter
/// hands each slot to exactly one worker, so every cell has a single
/// writer and the scope join orders all writes before the read-back —
/// no lock needed around result storage.
struct OutputSlots<R> {
    cells: Vec<UnsafeCell<MaybeUninit<R>>>,
}

// SAFETY: workers access disjoint cells (one writer per index, enforced
// by the fetch_add work counter), and the thread-scope join synchronises
// their writes with the collecting thread.
unsafe impl<R: Send> Sync for OutputSlots<R> {}

/// Runs `f` over `items` on up to `available_parallelism` threads,
/// preserving input order in the output. Each worker writes results
/// straight into its claimed slots; the only shared mutable state is the
/// atomic work index.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n.max(1));
    let next = AtomicUsize::new(0);
    let out = OutputSlots {
        cells: (0..n)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect(),
    };
    // Capture the Sync wrapper by reference, not its field (disjoint
    // closure capture would otherwise grab the Vec directly).
    let out_ref = &out;
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                // SAFETY: `i` was claimed by this worker alone, so no
                // other thread reads or writes `cells[i]` until the scope
                // joins. A panic in `f` aborts the whole map via scope
                // propagation before any uninitialised cell is read.
                unsafe { (*out_ref.cells[i].get()).write(r) };
            });
        }
    });
    // The scope join guarantees every index < n was claimed and written.
    out.cells
        .into_iter()
        .map(|c| unsafe { c.into_inner().assume_init() })
        .collect()
}

/// A rendered results table with an attached CSV form.
pub struct Report {
    pub name: String,
    pub title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
    artifacts: Vec<(String, String)>,
}

impl Report {
    pub fn new(name: &str, title: &str, headers: &[&str]) -> Self {
        Report {
            name: name.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            artifacts: Vec::new(),
        }
    }

    /// Attaches an extra file saved verbatim alongside the CSV/text
    /// renderings (e.g. a machine-readable benchmark JSON).
    pub fn artifact(&mut self, filename: impl Into<String>, contents: impl Into<String>) {
        self.artifacts.push((filename.into(), contents.into()));
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Attached artifacts as `(filename, contents)` pairs, in attach
    /// order (exactly what [`save`](Self::save) writes to disk).
    pub fn artifacts(&self) -> &[(String, String)] {
        &self.artifacts
    }

    /// Fixed-width text rendering.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut s = String::new();
        let _ = writeln!(s, "== {} ==", self.title);
        let line = |s: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, "{:<w$}  ", c, w = widths[i]);
            }
            let _ = writeln!(s);
        };
        line(&mut s, &self.headers);
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(&mut s, &rule);
        for row in &self.rows {
            line(&mut s, row);
        }
        for n in &self.notes {
            let _ = writeln!(s, "note: {n}");
        }
        s
    }

    /// GitHub-flavoured markdown table (for pasting into EXPERIMENTS.md).
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "### {}\n", self.title);
        let _ = writeln!(s, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            s,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(s, "| {} |", row.join(" | "));
        }
        for n in &self.notes {
            let _ = writeln!(s, "\n_{n}_");
        }
        s
    }

    /// CSV rendering (RFC-4180-lite; our cells never contain commas).
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(s, "{}", row.join(","));
        }
        s
    }

    /// Writes `results/<name>.csv` and `results/<name>.txt`.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let mut csv = fs::File::create(dir.join(format!("{}.csv", self.name)))?;
        csv.write_all(self.to_csv().as_bytes())?;
        let mut txt = fs::File::create(dir.join(format!("{}.txt", self.name)))?;
        txt.write_all(self.render().as_bytes())?;
        for (filename, contents) in &self.artifacts {
            fs::write(dir.join(filename), contents)?;
        }
        Ok(())
    }
}

/// Formats a bandwidth cell.
pub fn gib(v: f64) -> String {
    format!("{v:.2}")
}

/// `(p50, p99)` in µs of an optional latency summary; `(0, 0)` when the
/// run recorded no ops of that kind.
pub fn p50_p99(lat: &Option<LatencyStats>) -> (f64, f64) {
    lat.as_ref().map_or((0.0, 0.0), |l| (l.p50_us, l.p99_us))
}

/// A JSON object under construction, the writer behind every
/// `BENCH_*.json` artifact.
///
/// A pretty object puts one field per line, indented two spaces per
/// nesting level; an inline object renders as `{"k": v, ...}` on one
/// line; an array of objects puts one element per line. Scalars arrive
/// already formatted, so each artifact keeps its own number formatting;
/// keys and string values go through [`json_escape`].
#[derive(Clone, Debug, Default)]
pub struct JsonObject {
    inline: bool,
    /// Rendered `"key": value` members, nested values at depth 0.
    fields: Vec<String>,
}

impl JsonObject {
    /// An object rendered one field per line.
    pub fn pretty() -> Self {
        JsonObject::default()
    }

    /// An object rendered on a single line.
    pub fn inline() -> Self {
        JsonObject {
            inline: true,
            fields: Vec::new(),
        }
    }

    /// Adds a value that is already valid JSON: a number, a boolean, a
    /// literal array or a nested [`JsonObject`].
    pub fn raw(mut self, key: &str, value: impl Display) -> Self {
        self.fields
            .push(format!("\"{}\": {value}", json_escape(key)));
        self
    }

    /// Adds a string value, escaped and quoted.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.raw(key, format_args!("\"{}\"", json_escape(value)))
    }

    pub fn array(self, key: &str, items: Vec<JsonObject>) -> Self {
        let items: Vec<String> = items.iter().map(JsonObject::to_string).collect();
        self.raw(key, block('[', &items, ']'))
    }

    /// The whole document, newline-terminated.
    pub fn render(&self) -> String {
        format!("{self}\n")
    }
}

impl Display for JsonObject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.inline || self.fields.is_empty() {
            write!(f, "{{{}}}", self.fields.join(", "))
        } else {
            f.write_str(&block('{', &self.fields, '}'))
        }
    }
}

/// One member per line between `open` and `close`, each indented one
/// level deeper (continuation lines of nested values included). Only
/// nested pretty values contain newlines: escaped strings never do.
fn block(open: char, members: &[String], close: char) -> String {
    if members.is_empty() {
        return format!("{open}{close}");
    }
    let body: Vec<String> = members
        .iter()
        .map(|m| format!("  {}", m.replace('\n', "\n  ")))
        .collect();
    format!("{open}\n{}\n{close}", body.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single_inputs() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), |&x| x);
        assert!(out.is_empty());
        assert_eq!(parallel_map(vec![41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn parallel_map_slots_hold_owned_values() {
        // Heap-owning results exercise the per-slot writes: every value
        // must come back exactly once, in order, and drop cleanly.
        let items: Vec<usize> = (0..257).collect();
        let out = parallel_map(items, |&x| vec![x; (x % 5) + 1]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.len(), (i % 5) + 1);
            assert!(v.iter().all(|&e| e == i));
        }
    }

    #[test]
    fn report_renders_and_csvs() {
        let mut r = Report::new("t", "Test", &["a", "bee"]);
        r.row(vec!["1".into(), "2".into()]);
        r.note("hello");
        let txt = r.render();
        assert!(txt.contains("Test") && txt.contains("bee") && txt.contains("note: hello"));
        assert_eq!(r.to_csv(), "a,bee\n1,2\n");
    }

    #[test]
    fn markdown_rendering() {
        let mut r = Report::new("t", "Test", &["a", "b"]);
        r.row(vec!["1".into(), "2".into()]);
        let md = r.to_markdown();
        assert!(md.contains("### Test"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn json_nests_pretty_objects_and_arrays() {
        let doc = JsonObject::pretty()
            .str("experiment", "t")
            .array(
                "rows",
                vec![JsonObject::pretty().raw("a", 1).raw("ok", true)],
            )
            .raw("summary", JsonObject::pretty().raw("ratio", 0.5))
            .array("none", Vec::new())
            .render();
        let want = "{\n  \"experiment\": \"t\",\n  \"rows\": [\n    {\n      \"a\": 1,\n      \"ok\": true\n    }\n  ],\n  \"summary\": {\n    \"ratio\": 0.5\n  },\n  \"none\": []\n}\n";
        assert_eq!(doc, want);
        assert!(daosim_core::obs::json_is_wellformed(&doc));
    }

    #[test]
    fn json_inline_rows_stay_on_one_line() {
        let row = |w: u32| {
            JsonObject::inline()
                .raw("w", w)
                .raw("s", format!("{:.1}", 2.0 / 3.0))
        };
        let doc = JsonObject::pretty()
            .array("rows", vec![row(1), row(2)])
            .raw("k", JsonObject::inline().raw("n", 3))
            .raw("series", "[[1, 2], [3, 4]]")
            .render();
        let want = "{\n  \"rows\": [\n    {\"w\": 1, \"s\": 0.7},\n    {\"w\": 2, \"s\": 0.7}\n  ],\n  \"k\": {\"n\": 3},\n  \"series\": [[1, 2], [3, 4]]\n}\n";
        assert_eq!(doc, want);
        assert!(daosim_core::obs::json_is_wellformed(&doc));
    }

    #[test]
    fn json_escapes_quotes_and_backslashes() {
        let doc = JsonObject::inline()
            .str("path", r#"a\b "c""#)
            .str(r#"k"ey"#, "")
            .render();
        assert_eq!(doc, "{\"path\": \"a\\\\b \\\"c\\\"\", \"k\\\"ey\": \"\"}\n");
        assert!(daosim_core::obs::json_is_wellformed(&doc));
        assert_eq!(JsonObject::pretty().render(), "{}\n");
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn report_rejects_ragged_rows() {
        let mut r = Report::new("t", "Test", &["a"]);
        r.row(vec!["1".into(), "2".into()]);
    }
}
