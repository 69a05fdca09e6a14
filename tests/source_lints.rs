//! Source-level lints over the workspace's library code, run by the
//! default test command.
//!
//! - Library crates report through the trace subsystem
//!   (`ct_models::trace`), never by writing to stderr: no `eprintln!`
//!   outside comments. Binaries (ct-cli, the ct-bench bins) may keep
//!   `eprintln!` for user-facing messages.
//! - FNV-1a and the JSON string escaper exist once, in the codec module
//!   `crates/tensor/src/codec/`: no other file under `crates/*/src`
//!   carries the FNV-1a 64 offset basis or a JSON string-escape match arm.

use std::fs;
use std::path::{Path, PathBuf};

/// Library sources that must not print to stderr.
const LIB_PATHS: [&str; 8] = [
    "crates/tensor/src",
    "crates/corpus/src",
    "crates/models/src",
    "crates/eval/src",
    "crates/core/src",
    "crates/serve/src",
    "crates/exp/src",
    "crates/bench/src/lib.rs",
];

/// The one module allowed to implement FNV-1a and JSON escaping.
const CODEC_DIR: &str = "crates/tensor/src/codec";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file at or under `path`, sorted.
fn rust_files(path: &Path) -> Vec<PathBuf> {
    if path.is_file() {
        return vec![path.to_path_buf()];
    }
    let mut files = Vec::new();
    let mut entries: Vec<_> = fs::read_dir(path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            files.extend(rust_files(&entry));
        } else if entry.extension().is_some_and(|x| x == "rs") {
            files.push(entry);
        }
    }
    files
}

/// `(file, line number, code)` for every line of `files`, with `//`
/// comments stripped.
fn code_lines(files: &[PathBuf]) -> Vec<(PathBuf, usize, String)> {
    let mut out = Vec::new();
    for file in files {
        let text = fs::read_to_string(file).unwrap();
        for (i, line) in text.lines().enumerate() {
            let code = line.split_once("//").map_or(line, |(code, _)| code);
            out.push((file.clone(), i + 1, code.to_string()));
        }
    }
    out
}

fn offenders(
    lines: &[(PathBuf, usize, String)],
    hit: impl Fn(&str) -> bool,
    allowed: impl Fn(&Path) -> bool,
) -> Vec<String> {
    lines
        .iter()
        .filter(|(file, _, code)| hit(code) && !allowed(file))
        .map(|(file, n, code)| {
            let rel = file.strip_prefix(root()).unwrap_or(file);
            format!("{}:{n}: {}", rel.display(), code.trim())
        })
        .collect()
}

/// Sources of every crate: `crates/*/src`.
fn crate_sources() -> Vec<PathBuf> {
    let mut crates: Vec<_> = fs::read_dir(root().join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path().join("src"))
        .filter(|p| p.is_dir())
        .collect();
    crates.sort();
    crates.iter().flat_map(|c| rust_files(c)).collect()
}

#[test]
fn library_crates_do_not_print_to_stderr() {
    let files: Vec<_> = LIB_PATHS
        .iter()
        .flat_map(|p| rust_files(&root().join(p)))
        .collect();
    assert!(files.len() > 50, "walked only {} files", files.len());
    let found = offenders(&code_lines(&files), |c| c.contains("eprintln!"), |_| false);
    assert!(
        found.is_empty(),
        "eprintln! in a library crate; route output through ct_models::trace:\n{}",
        found.join("\n")
    );
}

#[test]
fn fnv1a_and_json_escaping_live_only_in_the_codec() {
    let lines = code_lines(&crate_sources());
    let in_codec = |f: &Path| f.starts_with(root().join(CODEC_DIR));

    let fnv_basis = |c: &str| {
        c.replace('_', "")
            .to_ascii_lowercase()
            .contains("cbf29ce484222325")
    };
    let escape_arm = |c: &str| {
        (c.contains("'\"'") && c.contains("=>") && c.contains(r#"\\\""#))
            || c.contains(r"\\u{:04x}")
    };
    for (what, hit) in [
        (
            "the FNV-1a offset basis",
            &fnv_basis as &dyn Fn(&str) -> bool,
        ),
        ("a JSON string-escape arm", &escape_arm),
    ] {
        let codec_hits = offenders(&lines, hit, |f| !in_codec(f));
        assert!(
            !codec_hits.is_empty(),
            "the lint no longer finds {what} in {CODEC_DIR}"
        );
        let found = offenders(&lines, hit, in_codec);
        assert!(
            found.is_empty(),
            "{what} outside {CODEC_DIR}; use ct_tensor::codec instead:\n{}",
            found.join("\n")
        );
    }
}
