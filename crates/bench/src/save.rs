//! Benchmark-result persistence: `--save-json` support for the figure and
//! table binaries.
//!
//! Every driver accepts `--save-json` (optionally `--save-json=DIR`); when
//! present, the measured rows are written as `BENCH_<name>.json` so a
//! run can be compared without parsing stdout. Bare `--save-json` (and
//! an empty `--save-json=`) writes into the **workspace root** (resolved
//! from this crate's manifest at compile time), not the process CWD, so
//! a driver launched from any directory leaves its snapshot in one place.
//! `stencil-server`'s trace dumps use the same format, which is
//! deliberately tiny and dependency-free:
//!
//! ```json
//! {
//!   "name": "fig7",
//!   "host_threads": 8,
//!   "best_isa": "avx512",
//!   "rows": [ { "n": 1000, "method": "Our2", "gflops": 12.3 }, ... ]
//! }
//! ```

use std::io::Write as _;
use std::path::PathBuf;

/// One JSON scalar value.
#[derive(Clone, Debug)]
pub enum Value {
    /// A float, serialized with Rust's shortest round-trip formatting
    /// (full precision at any magnitude; valid JSON).
    Num(f64),
    /// An integer.
    Int(i64),
    /// A string (escaped per the JSON grammar on output).
    Str(String),
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Num(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Int(v as i64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl Value {
    fn render(&self) -> String {
        match self {
            Value::Num(v) if v.is_finite() => format!("{v}"),
            Value::Num(_) => "null".to_string(),
            Value::Int(v) => v.to_string(),
            Value::Str(s) => json_string(s),
        }
    }
}

/// Quote and escape a string per the JSON grammar (RFC 8259).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A measured row: field name → value.
pub type Row = Vec<(&'static str, Value)>;

/// The workspace root (two levels above this crate's manifest). This is
/// where bare `--save-json` writes, independent of the process CWD.
pub fn workspace_root() -> PathBuf {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .unwrap_or(manifest)
        .to_path_buf()
}

/// Directory requested via `--save-json[=DIR]` on the command line, if
/// any. Bare `--save-json` (or an empty `--save-json=`) resolves to
/// [`workspace_root`].
pub fn requested_dir() -> Option<PathBuf> {
    std::env::args()
        .skip(1)
        .find_map(|arg| match arg.strip_prefix("--save-json")? {
            "" | "=" => Some(workspace_root()),
            dir => dir.strip_prefix('=').map(PathBuf::from),
        })
}

/// Write `BENCH_<name>.json` into `dir`. Returns the path written.
/// `host_threads` is the machine's available parallelism and never comes
/// from argv: library code (`stencil-server`'s trace dumps) calls this
/// from inside processes whose command line is not ours.
pub fn write_json(dir: &std::path::Path, name: &str, rows: &[Row]) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("BENCH_{name}.json"));
    let mut out = Vec::new();
    writeln!(out, "{{")?;
    writeln!(out, "  \"name\": {},", json_string(name))?;
    writeln!(out, "  \"host_threads\": {},", crate::host_threads())?;
    writeln!(
        out,
        "  \"best_isa\": \"{}\",",
        stencil_simd::Isa::detect_best()
    )?;
    writeln!(out, "  \"rows\": [")?;
    for (i, row) in rows.iter().enumerate() {
        let fields: Vec<String> = row
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), v.render()))
            .collect();
        let comma = if i + 1 == rows.len() { "" } else { "," };
        writeln!(out, "    {{ {} }}{comma}", fields.join(", "))?;
    }
    writeln!(out, "  ]")?;
    writeln!(out, "}}")?;
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Convenience used by every bin: if `--save-json` was passed, persist
/// the rows and print where they went.
pub fn maybe_save(name: &str, rows: &[Row]) {
    if let Some(dir) = requested_dir() {
        match write_json(&dir, name, rows) {
            Ok(path) => println!("\nsaved {} rows to {}", rows.len(), path.display()),
            Err(e) => eprintln!("failed to save BENCH_{name}.json: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_sane() {
        let rows = vec![
            vec![
                ("n", Value::from(1000usize)),
                ("m", Value::from("Our2")),
                ("g", 1.5.into()),
            ],
            vec![
                ("n", Value::from(2000usize)),
                ("m", Value::from("DLT")),
                ("g", 0.5.into()),
            ],
        ];
        let dir = std::env::temp_dir();
        let path = write_json(&dir, "unit_test", &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"name\": \"unit_test\""));
        assert!(text.contains("\"m\": \"Our2\""));
        assert!(text.contains("\"g\": 1.5"));
        assert!(!text.contains("},\n  ]"), "no trailing comma:\n{text}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn workspace_root_is_cwd_independent() {
        // Compile-time anchored: must be the directory holding the
        // workspace manifest and the crates/ tree, whatever the CWD is.
        let root = workspace_root();
        assert!(root.join("Cargo.toml").is_file(), "{root:?}");
        assert!(root.join("crates").join("bench").is_dir(), "{root:?}");
    }

    #[test]
    fn strings_escape_per_json_grammar() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        // Non-ASCII passes through verbatim (JSON allows raw UTF-8).
        assert_eq!(json_string("naïve µs"), "\"naïve µs\"");
    }
}
