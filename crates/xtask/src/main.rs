#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Workspace automation tasks, invoked as `cargo xtask <task>`.
//!
//! `loc` prints the non-test line count of the production sources (see
//! [`count_loc`]) — the one number simplification changes report.
//!
//! `lint` is a source scan that bans `.unwrap()`,
//! `.expect(`, and `panic!(` in non-test production code, reporting each
//! violation as `file:line: …`. Rust's own lint machinery cannot express
//! "no unwrap outside tests" across a workspace without nightly-only
//! tool lints, so this small scanner enforces it in CI instead.
//!
//! What counts as non-test production code:
//!
//! * files under each crate's `src/`, excluding `vendor/`, `tests/`,
//!   `benches/`, `examples/` and the `xtask` crate itself;
//! * minus `#[cfg(test)]` modules (tracked by brace depth);
//! * minus comments (`//`, `///`, `//!`) and doc-comment code fences.
//!
//! Besides the panic family, three concurrency lints guard the
//! parallel-execution layer (the lines a data race or a leaked thread
//! would hide in) and one guards the decoders:
//!
//! * **ordering** — `Ordering::Relaxed` / `Ordering::SeqCst` outside
//!   `crates/obs` (whose counters are relaxed by design). Relaxed is
//!   almost always a proof obligation and `SeqCst` is almost always a
//!   shrug; both need a written justification.
//! * **channel-capacity** — a bare integer literal as the capacity of a
//!   `sync_channel`. Capacities are backpressure policy; they belong in
//!   a named constant (or config field) with a comment, not inline.
//! * **spawn** — a `spawn(` call not made through a scope handle named
//!   `scope` (scoped threads are joined by their scope). Free-standing
//!   handles must be joined or their detachment documented.
//! * **capacity**, in the byte decoders ([`DECODERS`]) only — a
//!   `with_capacity(` whose argument is not a literal or a named
//!   constant: a count read off the wire, which lets a 45-byte payload
//!   abort the process.
//!
//! A line may opt out with an `// xtask: allow(panic)` marker (covers
//! `.unwrap()` and `panic!`), `// xtask: allow(expect)` (covers
//! `.expect(`), `// xtask: allow(ordering)`, `// xtask:
//! allow(channel-capacity)`, `// xtask: allow(spawn)`, or `// xtask:
//! allow(capacity)` on the same line or the line directly above —
//! reserved for cases where the surrounding comment states the proof
//! (e.g. why relaxed ordering is sound, where the handle is joined, or
//! what bounds the count).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some("loc") => loc(),
        other => {
            eprintln!("usage: cargo xtask lint|loc");
            if let Some(o) = other {
                eprintln!("unknown task: {o}");
            }
            ExitCode::FAILURE
        }
    }
}

/// Scans production sources for banned constructs; returns failure if
/// any violation is found.
fn lint() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    collect_sources(&root.join("src"), &mut files);
    if let Ok(crates) = std::fs::read_dir(root.join("crates")) {
        for entry in crates.flatten() {
            if entry.path().file_name().is_some_and(|n| n == "xtask") {
                continue;
            }
            collect_sources(&entry.path().join("src"), &mut files);
        }
    }
    files.sort();

    let mut report = String::new();
    let mut violations = 0usize;
    for file in &files {
        let Ok(text) = std::fs::read_to_string(file) else {
            continue;
        };
        let rel = file.strip_prefix(&root).unwrap_or(file);
        let in_obs = rel.starts_with(Path::new("crates").join("obs"));
        let decoder = DECODERS.iter().any(|d| rel == Path::new(d));
        for v in scan_with(&text, in_obs, decoder) {
            let _ = writeln!(report, "{}:{}: {}", rel.display(), v.line, v.what);
            violations += 1;
        }
    }

    if violations > 0 {
        eprint!("{report}");
        eprintln!(
            "xtask lint: {violations} violation(s) in {} file(s) scanned",
            files.len()
        );
        ExitCode::FAILURE
    } else {
        eprintln!("xtask lint: clean ({} files scanned)", files.len());
        ExitCode::SUCCESS
    }
}

/// Prints [`count_loc`]'s per-directory breakdown and its total.
fn loc() -> ExitCode {
    let counts = count_loc(&workspace_root());
    let mut report = String::new();
    for (dir, n) in &counts {
        let _ = writeln!(report, "{n:>7}  {dir}");
    }
    let total: usize = counts.values().sum();
    let _ = writeln!(report, "{total:>7}  total");
    print!("{report}");
    ExitCode::SUCCESS
}

/// Non-test lines of every `*.rs` file under `src/` and `crates/*/src`,
/// keyed by that source directory (relative to `root`). A file counts
/// the lines above its first `#[cfg(test)]` line. The end-to-end
/// benchmark package (`crates/bench/src/bin/e2e`, a package of its own)
/// and this crate are left out.
fn count_loc(root: &Path) -> BTreeMap<String, usize> {
    let mut dirs = vec![PathBuf::from("src")];
    if let Ok(crates) = std::fs::read_dir(root.join("crates")) {
        for entry in crates.flatten() {
            if entry.file_name() != "xtask" {
                dirs.push(Path::new("crates").join(entry.file_name()).join("src"));
            }
        }
    }
    let e2e = root.join("crates/bench/src/bin/e2e");
    let mut counts = BTreeMap::new();
    for dir in dirs {
        let mut files = Vec::new();
        collect_sources(&root.join(&dir), &mut files);
        if files.is_empty() {
            continue;
        }
        let lines = files
            .iter()
            .filter(|f| !f.starts_with(&e2e))
            .filter_map(|f| std::fs::read_to_string(f).ok())
            .map(|text| {
                text.lines()
                    .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
                    .count()
            })
            .sum();
        counts.insert(dir.to_string_lossy().into_owned(), lines);
    }
    counts
}

/// The workspace root: the directory holding the top-level Cargo.toml.
/// `cargo xtask` runs with the crate dir as cwd only under `cargo run
/// -p`; rely on the manifest-dir env var and walk two levels up.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// One banned construct occurrence.
struct Violation {
    line: usize,
    what: &'static str,
}

/// The files that decode a peer's bytes (the capacity lint's scope).
const DECODERS: [&str; 4] = [
    "crates/common/src/wire.rs",
    "crates/common/src/wire/control.rs",
    "crates/engine/src/fragment.rs",
    "crates/dist/src/proto.rs",
];

/// [`scan_with`] for an ordinary file — the common case, kept as the
/// test-suite entry point.
#[cfg(test)]
fn scan(text: &str) -> Vec<Violation> {
    scan_with(text, false, false)
}

/// The opt-out markers, `// xtask: allow(<name>)`.
const MARKERS: [&str; 6] = [
    "xtask: allow(panic)",
    "xtask: allow(expect)",
    "xtask: allow(ordering)",
    "xtask: allow(channel-capacity)",
    "xtask: allow(spawn)",
    "xtask: allow(capacity)",
];

/// Line-based scan of one file. Tracks `#[cfg(test)]` modules by brace
/// depth and skips comment lines; string literals are not parsed (none
/// of the banned tokens appear in the workspace's string data).
/// `in_obs` exempts the file from the ordering lint (the observability
/// crate's counters are relaxed by design); `decoder` adds the capacity
/// lint.
fn scan_with(text: &str, in_obs: bool, decoder: bool) -> Vec<Violation> {
    let mut out = Vec::new();
    // Depth of the enclosing `#[cfg(test)]` block, if inside one.
    let mut depth: i64 = 0;
    let mut test_block_depth: Option<i64> = None;
    let mut pending_cfg_test = false;

    // Per marker: set by a standalone marker line, spent by the next.
    let mut allow_next = [false; MARKERS.len()];
    for (i, raw) in text.lines().enumerate() {
        let line = strip_comment(raw);
        let trimmed = line.trim();

        if test_block_depth.is_none() && trimmed.starts_with("#[cfg(test)]") {
            pending_cfg_test = true;
        } else if pending_cfg_test && trimmed.contains('{') {
            // The `mod tests {` (or fn) line following the attribute.
            test_block_depth = Some(depth);
            pending_cfg_test = false;
        }

        // A standalone marker line covers the next source line
        // (rustfmt's preferred placement).
        let standalone = raw.trim_start().starts_with("//");
        let mut allow = [false; MARKERS.len()];
        for (m, marker) in MARKERS.iter().enumerate() {
            let here = raw.contains(marker);
            allow[m] = std::mem::replace(&mut allow_next[m], standalone && here) || here;
        }

        if test_block_depth.is_none() && !trimmed.is_empty() {
            let ordering =
                trimmed.contains("Ordering::Relaxed") || trimmed.contains("Ordering::SeqCst");
            // (index into MARKERS of the opt-out, the rule fires, report)
            let rules = [
                (
                    0,
                    trimmed.contains(".unwrap()"),
                    "banned call to `.unwrap()`",
                ),
                (0, trimmed.contains("panic!("), "banned `panic!` invocation"),
                // The leading dot keeps `#[expect(...)]` attributes and
                // `.expect_err(` out of scope.
                (
                    1,
                    trimmed.contains(".expect("),
                    "banned call to `.expect(` (return a typed error instead)",
                ),
                (
                    2,
                    !in_obs && ordering,
                    "atomic ordering outside crates/obs needs `// xtask: allow(ordering)` with a \
                     justification",
                ),
                (
                    3,
                    literal_channel_capacity(trimmed),
                    "bounded-channel capacity must be a named constant, not a literal (or \
                     `// xtask: allow(channel-capacity)`)",
                ),
                (
                    4,
                    unscoped_spawn(trimmed),
                    "spawned thread must be joined or its detachment documented \
                     (`// xtask: allow(spawn)`)",
                ),
                (
                    5,
                    decoder && decoded_capacity(trimmed),
                    "a decoder must not size an allocation by a decoded count: bound it by the \
                     bytes that remain (or `// xtask: allow(capacity)`)",
                ),
            ];
            for (marker, fires, what) in rules {
                if fires && !allow[marker] {
                    out.push(Violation { line: i + 1, what });
                }
            }
        }

        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if test_block_depth.is_some_and(|d| depth <= d) {
                        test_block_depth = None;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// True when the line passes a bare integer literal as a `sync_channel`
/// capacity. Looks at the first non-space character after the call's
/// opening parenthesis: a digit means a magic number, anything else
/// (identifier, `self.`, expression) passes. Turbofish calls like
/// `sync_channel::<Msg>(8)` are covered because generic argument lists
/// in this workspace never contain parentheses before the call's own.
fn literal_channel_capacity(line: &str) -> bool {
    let mut rest = line;
    while let Some(pos) = rest.find("sync_channel") {
        let after = &rest[pos + "sync_channel".len()..];
        if let Some(paren) = after.find('(') {
            if after[paren + 1..]
                .trim_start()
                .starts_with(|c: char| c.is_ascii_digit())
            {
                return true;
            }
        }
        rest = after;
    }
    false
}

/// True when the line passes `with_capacity(` anything but an integer
/// literal or a `SCREAMING_CASE` constant (or a path to one): in a
/// decoder, anything else is computed from the bytes being decoded.
fn decoded_capacity(line: &str) -> bool {
    line.match_indices("with_capacity(").any(|(pos, call)| {
        let args = &line[pos + call.len()..];
        let arg = args.split([',', ')']).next().unwrap_or(args).trim();
        let constant = |s: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_digit() || c == '_' || c.is_ascii_uppercase())
        };
        !constant(arg.rsplit("::").next().unwrap_or(arg))
    })
}

/// True when the line spawns a thread outside a `std::thread::scope`
/// block. Scoped spawns are exempt because the scope joins them; the
/// convention (enforced here) is that the scope handle is named `scope`
/// — a differently named handle needs the allow marker.
fn unscoped_spawn(line: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = line[from..].find("spawn(") {
        let abs = from + pos;
        let before = &line[..abs];
        // Skip mid-identifier matches like `respawn(`.
        let boundary = before
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if boundary && !before.ends_with("scope.") {
            return true;
        }
        from = abs + "spawn(".len();
    }
    false
}

/// Removes `//` comments (including doc comments) from a line. Does not
/// attempt full string-literal parsing; `//` inside the workspace's
/// string literals does not occur together with banned tokens.
fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_counts_non_test_lines_per_source_dir() {
        let root = std::env::temp_dir().join(format!("xtask-loc-{}", std::process::id()));
        let write = |rel: &str, text: &str| {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        };
        write("src/lib.rs", "a\nb\nc\n");
        write(
            "crates/a/src/lib.rs",
            "a\nb\n#[cfg(test)]\nmod tests {\n}\n",
        );
        write("crates/a/src/deep/m.rs", "a\n    #[cfg(test)]\nfn t() {}\n");
        write("crates/a/src/notes.md", "not rust\n");
        write("crates/a/tests/t.rs", "a\nb\nc\nd\n");
        write("crates/bench/src/bin/figures.rs", "a\nb\n");
        write("crates/bench/src/bin/e2e/src/main.rs", "a\nb\nc\nd\ne\n");
        write("crates/xtask/src/main.rs", "a\nb\nc\nd\n");
        let counts = count_loc(&root);
        std::fs::remove_dir_all(&root).unwrap();
        let expect: BTreeMap<String, usize> = [
            ("crates/a/src".to_string(), 3),
            ("crates/bench/src".to_string(), 2),
            ("src".to_string(), 3),
        ]
        .into();
        assert_eq!(counts, expect);
    }

    #[test]
    fn scan_flags_unwrap_and_panic() {
        let src = "fn f() {\n    x.unwrap();\n    panic!(\"boom\");\n}\n";
        let v = scan(src);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].line, 2);
        assert_eq!(v[1].line, 3);
    }

    #[test]
    fn scan_skips_cfg_test_modules_and_comments() {
        let src = "\
fn ok() {}
// a.unwrap() in a comment
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); panic!(\"fine in tests\"); }
}
fn also_ok() {}
";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn scan_honors_allow_marker() {
        let src = "fn f() { panic!(\"contract\"); } // xtask: allow(panic)\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn scan_honors_allow_marker_on_preceding_line() {
        // rustfmt moves trailing comments in method chains onto their own
        // line above the call, so the marker must work there too.
        let src = "\
fn f() {
    x.get(k)
        // xtask: allow(panic)
        .unwrap_or_else(|| panic!(\"missing\"));
    y.unwrap();
}
";
        let v = scan(src);
        assert_eq!(v.len(), 1, "marker must only cover the next line");
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn scan_flags_expect_with_its_own_marker() {
        let src = "\
fn f() {
    a.expect(\"boom\");
    // the attribute form and expect_err are fine
    #[expect(dead_code)]
    let _ = r.expect_err(\"err\");
    b.expect(\"ok\"); // xtask: allow(expect)
    // xtask: allow(expect)
    c.expect(\"also ok\");
}
";
        let v = scan(src);
        assert_eq!(v.len(), 1, "only the unmarked .expect( is flagged");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn expect_marker_does_not_cover_unwrap() {
        let src = "fn f() { a.unwrap(); } // xtask: allow(expect)\n";
        let v = scan(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].what, "banned call to `.unwrap()`");
    }

    #[test]
    fn ordering_lint_flags_relaxed_and_seqcst_outside_obs() {
        let src = "\
use std::sync::atomic::Ordering;
fn f(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
    c.store(0, Ordering::SeqCst);
    c.load(Ordering::Acquire);
    // Ticket counter orders nothing but itself. xtask: allow(ordering)
    c.fetch_add(1, Ordering::Relaxed);
    c.store(2, Ordering::SeqCst); // xtask: allow(ordering)
}
";
        let v = scan(src);
        assert_eq!(v.len(), 2, "Acquire and annotated lines pass");
        assert_eq!(v[0].line, 3);
        assert_eq!(v[1].line, 4);
        assert!(
            scan_with(src, true, false).is_empty(),
            "obs crate is exempt"
        );
    }

    #[test]
    fn channel_capacity_lint_wants_named_constants() {
        let src = "\
fn f(depth: usize) {
    let (a, _) = sync_channel(8);
    let (b, _) = sync_channel::<Msg>(16);
    let (c, _) = sync_channel(depth.max(1));
    let (d, _) = sync_channel(CHANNEL_DEPTH);
    let (e, _) = sync_channel(4); // xtask: allow(channel-capacity)
}
";
        let v = scan(src);
        assert_eq!(v.len(), 2, "named expressions and annotated lines pass");
        assert_eq!(v[0].line, 2);
        assert_eq!(v[1].line, 3);
    }

    #[test]
    fn spawn_lint_exempts_scoped_threads() {
        let src = "\
fn f() {
    std::thread::scope(|scope| {
        scope.spawn(|| work());
    });
    let h = std::thread::spawn(|| work());
    let b = Builder::new().spawn(|| work());
    // Reader exits on EOF; handle intentionally dropped. xtask: allow(spawn)
    drop(thread::spawn(|| read()));
    let again = respawn(3);
}
";
        let v = scan(src);
        assert_eq!(v.len(), 2, "scoped, annotated, and mid-word matches pass");
        assert_eq!(v[0].line, 5);
        assert_eq!(v[1].line, 6);
    }

    #[test]
    fn capacity_lint_flags_decoded_counts_in_decoders_only() {
        let src = "\
fn decode(r: &mut Reader) {
    let n = r.u32() as usize;
    let mut atoms = Vec::with_capacity(n);
    let mut body = Vec::with_capacity(rows * arity);
    let mut head = Vec::with_capacity(16);
    let mut frame = Vec::with_capacity(HEADER_LEN);
    let mut pool = Vec::with_capacity(pool::DEFAULT_POOL_CAP);
    // `count` bounded n by the bytes that remain. xtask: allow(capacity)
    let mut terms = Vec::with_capacity(n);
}
";
        let v = scan_with(src, false, true);
        let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
        assert_eq!(lines, [3, 4], "literals, constants and marked lines pass");
        assert!(scan(src).is_empty(), "other files may pre-size freely");
    }

    #[test]
    fn scan_resumes_after_test_module_ends() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); }
}
fn bad() { y.unwrap(); }
";
        let v = scan(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 5);
    }
}
