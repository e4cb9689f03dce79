//! The workspace invariant linter behind the `qtag-lint` binary.
//!
//! A lexical pass over `crates/*/src` (plus the vendored crossbeam
//! shim) enforcing the repo's concurrency and accounting rules:
//!
//! - **R1 counter-coverage**: every integer/atomic counter field in a
//!   `*Stats` struct must appear (word-boundary match) in at least one
//!   test region — conservation identities are only trustworthy if a
//!   test actually reads the counter. The rule extends to the metrics
//!   registry: `counters!` macro fields (`name: counter("help")`) and
//!   metric-name string literals passed to `registry.counter(...)` /
//!   `.gauge(...)` / `.histogram(...)` / `.counter_fn(...)` /
//!   `.gauge_fn(...)` must likewise be read by at least one test
//!   (prefix-parameterised names like `{prefix}_acked_total` match on
//!   their suffix).
//! - **R2 relaxed-rmw-justified**: every read-modify-write atomic op
//!   with `Ordering::Relaxed` needs an adjacent `// ordering:` comment
//!   saying why relaxed is enough (typically: monotone counter whose
//!   exact read is ordered by a join or channel handoff).
//! - **R3 no-stray-wall-clock**: `Instant::now()` / `SystemTime::now()`
//!   only in clock abstractions (`*clock.rs`, or an `Instant` imported
//!   from a `sync::time` facade, which is virtual under `qtag_check`),
//!   binaries (`src/bin/`), or test regions — everywhere else
//!   wall-clock reads make behavior untestable and unmodelable.
//! - **R4 facade-routing**: crates that route synchronization through
//!   a `sync` facade (qtag-server, qtag-collectd, qtag-store, vendored
//!   crossbeam) must not reach for `std::sync::Mutex`/`parking_lot`/
//!   raw atomics / `std::thread::spawn` outside the facade file
//!   itself.
//! - **R5 reactor-no-blocking**: event-loop files (`*/reactor.rs`,
//!   and `*/connection.rs`, whose state machine the loop calls) must
//!   not call blocking primitives — `thread::sleep`,
//!   `write_all`/`read_exact`, socket timeouts, blocking
//!   `.lock()`/`.recv()` — outside test regions. One stalled callback
//!   stalls every connection on that worker, so the event loop only
//!   gets non-blocking reads, cursor-tracked partial writes, and
//!   `try_recv` hand-offs; sleeps and deadline waits belong to the
//!   acceptor (`collector.rs`), the poll timeout, or `serve_stream`,
//!   the reader-thread driver, which owns its thread.
//! - **R6 tick-no-alloc**: render hot-path files (the engine's tick
//!   loop) must not heap-allocate per frame — `Vec::new`/`vec![`/
//!   `HashMap::new`/`format!`/`.collect()`/`.resize(`/… are banned
//!   outside an allowlist of setup and teardown functions (`new`,
//!   `attach_script`, `drain_outbox`, …) plus `tick_naive`, which is
//!   the deliberately-allocating measured baseline. The per-frame path
//!   works exclusively through reused
//!   scratch buffers (`clear()` + `push()` retain capacity), which is
//!   what lets one process hold a million resident sessions.
//! - **R7 model-coverage**: every facade crate (the R4 set) must ship
//!   a `tests/check_models.rs` schedule-exploration suite, and the
//!   crate's package must be listed on CI's `--cfg qtag_check`
//!   `cargo test` sweep. Routing a crate's synchronization through the
//!   facade is only worth the indirection if the checker actually
//!   explores that crate's interleavings on every push — a facade
//!   without models is unverified surface area.
//! - **R8 fixed-hasher-keys-justified**: every use of the unkeyed
//!   `IdMap<`/`IdHasher` needs a `// keys:` comment directly above it
//!   (or trailing on the line) saying who chooses the keys. Anyone who
//!   chooses them can choose them to collide, so the fixed hasher is
//!   only safe where trusted code inserts; the comment makes each map's
//!   answer reviewable. The defining module (`idmap.rs`) and `use`
//!   lines are exempt.
//!
//! Findings are aggregated to stable keys (`rule|path|detail|count`,
//! no line numbers, so unrelated edits don't churn the file) and
//! compared against the checked-in `qtag-lint.baseline`: new findings
//! are denied, stale baseline entries are warned about, and
//! `--update-baseline` rewrites the file. Existing violations are
//! thereby triaged, not ignored.
//!
//! Purely lexical by design: no syn/proc-macro dependency (the crate
//! is dependency-free), comment lines are skipped, and test regions
//! (`tests/` files and everything after the first `#[cfg(test)]`) are
//! exempt from R2–R4 and *are* the corpus for R1.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One rule violation at a concrete site (line is for display only;
/// baseline keys deliberately exclude it).
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    /// Repo-relative path, `/`-separated.
    pub path: String,
    pub line: usize,
    /// Stable description of the site (field, function/op, token).
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}: {}",
            self.rule, self.path, self.line, self.detail
        )
    }
}

const RMW_METHODS: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "compare_exchange",
    ".swap(",
];

/// Crates whose synchronization must route through their `sync`
/// facade module (R4).
const FACADE_CRATES: &[&str] = &[
    "crates/server/src",
    "crates/collectd/src",
    "crates/obs/src",
    "crates/store/src",
    "vendor/crossbeam/src",
];

const FACADE_BYPASS_TOKENS: &[&str] = &[
    "parking_lot::",
    "std::sync::Mutex",
    "std::sync::Condvar",
    "std::sync::atomic",
    "std::thread::spawn",
    "std::thread::JoinHandle",
];

/// Blocking primitives banned from event-loop files (R5). Lexical
/// like everything else: `.recv()` catches blocking channel waits
/// (`try_recv`/`recv_timeout` don't match the parenthesized form),
/// and the timeout setters catch any attempt to drive a reactor
/// socket through blocking reads-with-deadline.
const REACTOR_BLOCKING_TOKENS: &[&str] = &[
    "thread::sleep",
    ".write_all(",
    ".read_exact(",
    ".set_read_timeout(",
    ".set_write_timeout(",
    ".lock()",
    ".recv()",
    ".join()",
];

/// Files whose non-test code runs on the reactor's event loop (R5).
const EVENT_LOOP_FILES: &[&str] = &["/reactor.rs", "/connection.rs"];

/// The one function in those files that owns a thread and may block
/// it (R5): the reader-thread driver sets the socket timeouts its
/// blocking reads and writes rely on.
const BLOCKING_DRIVER_FN: &str = "serve_stream";

/// Names of the unkeyed-hasher map and hasher (R8).
const FIXED_HASHER_TOKENS: &[&str] = &["IdMap<", "IdHasher"];

/// Files whose non-test code is the per-frame render hot path (R6).
const HOT_PATH_FILES: &[&str] = &["render/src/engine.rs"];

/// Heap-allocating constructs banned from the render tick path (R6).
/// Lexical: `.push(`/`.clear(` are deliberately absent — on a reused
/// scratch buffer they retain capacity and are the sanctioned idiom.
const TICK_ALLOC_TOKENS: &[&str] = &[
    "Vec::new(",
    "vec![",
    "HashMap::new(",
    "HashSet::new(",
    "BTreeMap::new(",
    "Box::new(",
    "String::new(",
    "format!(",
    ".to_string(",
    ".to_vec(",
    ".to_owned(",
    ".collect(",
    "with_capacity(",
    ".resize(",
    ".entry(",
];

/// Functions in hot-path files allowed to allocate (R6): construction,
/// script attach/detach, outbox draining — none of them run on the
/// per-frame fast path. `tick_naive` is the measured full-walk baseline and
/// allocates by design (its doc comment says "do not optimise it").
const TICK_ALLOC_ALLOWLIST: &[(&str, &str)] = &[
    ("render/src/engine.rs", "new"),
    ("render/src/engine.rs", "attach_script"),
    ("render/src/engine.rs", "probe_paint_counts"),
    ("render/src/engine.rs", "drain_outbox"),
    ("render/src/engine.rs", "click_at"),
    ("render/src/engine.rs", "tick_naive"),
];

struct SourceFile {
    /// Repo-relative, `/`-separated.
    rel: String,
    lines: Vec<String>,
    /// Index of the first `#[cfg(test)]` line (everything from there
    /// to EOF is test region), or `lines.len()` if none.
    test_start: usize,
}

fn is_comment_line(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") || t.starts_with("/*") || t.starts_with('*')
}

fn word_boundary_contains(haystack: &str, needle: &str) -> bool {
    let bytes = haystack.as_bytes();
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let before_ok = start == 0 || {
            let c = bytes[start - 1] as char;
            !c.is_alphanumeric() && c != '_'
        };
        let after_ok = end == bytes.len() || {
            let c = bytes[end] as char;
            !c.is_alphanumeric() && c != '_'
        };
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            // Never descend into build artifacts.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn load_file(root: &Path, path: &Path) -> Option<SourceFile> {
    let text = fs::read_to_string(path).ok()?;
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    let lines: Vec<String> = text.lines().map(|l| l.to_string()).collect();
    let test_start = lines
        .iter()
        .position(|l| l.contains("#[cfg(test)]"))
        .unwrap_or(lines.len());
    Some(SourceFile {
        rel,
        lines,
        test_start,
    })
}

/// Collects the source files each rule scans plus the R1 test corpus.
struct Workspace {
    sources: Vec<SourceFile>,
    /// Concatenated test-region text (tests/ files + `#[cfg(test)]`
    /// tails of src files) for R1 coverage lookups.
    test_corpus: String,
}

fn gather(root: &Path) -> Workspace {
    let mut src_paths = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for c in dirs {
            // The checker is the sync/clock abstraction itself.
            if c.file_name().is_some_and(|n| n == "check") {
                continue;
            }
            walk_rs(&c.join("src"), &mut src_paths);
        }
    }
    walk_rs(&root.join("vendor/crossbeam/src"), &mut src_paths);

    let mut test_paths = Vec::new();
    walk_rs(&root.join("tests"), &mut test_paths);
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        for c in entries.flatten() {
            walk_rs(&c.path().join("tests"), &mut test_paths);
        }
    }
    walk_rs(&root.join("vendor/crossbeam/tests"), &mut test_paths);

    let sources: Vec<SourceFile> = src_paths
        .iter()
        .filter_map(|p| load_file(root, p))
        .collect();

    let mut test_corpus = String::new();
    for p in &test_paths {
        if let Ok(text) = fs::read_to_string(p) {
            test_corpus.push_str(&text);
            test_corpus.push('\n');
        }
    }
    for f in &sources {
        for line in &f.lines[f.test_start..] {
            test_corpus.push_str(line);
            test_corpus.push('\n');
        }
    }
    Workspace {
        sources,
        test_corpus,
    }
}

fn nearest_fn(lines: &[String], at: usize) -> String {
    for line in lines[..=at.min(lines.len().saturating_sub(1))].iter().rev() {
        let t = line.trim_start();
        for prefix in ["pub fn ", "fn ", "pub(crate) fn ", "pub(super) fn "] {
            if let Some(rest) = t.strip_prefix(prefix) {
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    return name;
                }
            }
        }
    }
    "<top>".to_string()
}

fn check_r1(f: &SourceFile, corpus: &str, out: &mut Vec<Finding>) {
    let counter_types = [
        "AtomicU64",
        "AtomicUsize",
        "AtomicU32",
        "u64",
        "usize",
        "u32",
    ];
    let mut i = 0;
    while i < f.test_start {
        let line = &f.lines[i];
        let struct_name = line
            .split_whitespace()
            .skip_while(|w| *w != "struct")
            .nth(1)
            .map(|w| w.trim_end_matches(['{', '<']).trim().to_string());
        let is_stats_struct = !is_comment_line(line)
            && line.contains("struct ")
            && struct_name.as_deref().is_some_and(|n| n.ends_with("Stats"));
        if !is_stats_struct {
            i += 1;
            continue;
        }
        let struct_name = struct_name.unwrap();
        // Walk the struct body collecting counter fields.
        let mut j = i + 1;
        while j < f.test_start {
            let body = f.lines[j].trim();
            if body.starts_with('}') {
                break;
            }
            if !is_comment_line(body) && body.contains(':') {
                let field = body
                    .trim_start_matches("pub ")
                    .trim_start_matches("pub(crate) ")
                    .split(':')
                    .next()
                    .unwrap_or("")
                    .trim();
                let ty = body.split(':').nth(1).unwrap_or("").trim();
                let is_counter = counter_types
                    .iter()
                    .any(|t| ty == format!("{t},") || ty == *t || ty.starts_with(&format!("{t},")));
                let is_ident =
                    !field.is_empty() && field.chars().all(|c| c.is_alphanumeric() || c == '_');
                if is_counter && is_ident && !word_boundary_contains(corpus, field) {
                    out.push(Finding {
                        rule: "R1",
                        path: f.rel.clone(),
                        line: j + 1,
                        detail: format!("{struct_name}.{field} not read by any test"),
                    });
                }
            }
            j += 1;
        }
        i = j + 1;
    }
    check_r1_registry(f, corpus, out);
}

/// First double-quoted string literal in `s` (no escape handling:
/// metric names and the `{prefix}` format shapes never contain one).
fn first_string_literal(s: &str) -> Option<&str> {
    let start = s.find('"')? + 1;
    let len = s[start..].find('"')?;
    Some(&s[start..start + len])
}

/// The registry half of R1: `counters!` macro fields and metric-name
/// literals at direct registration sites must be read by a test.
fn check_r1_registry(f: &SourceFile, corpus: &str, out: &mut Vec<Finding>) {
    const REGISTER_CALLS: &[&str] = &[
        ".counter(",
        ".counter_fn(",
        ".gauge(",
        ".gauge_fn(",
        ".histogram(",
    ];
    for i in 0..f.test_start {
        let line = &f.lines[i];
        if is_comment_line(line) {
            continue;
        }

        // `counters!` field syntax: `name: counter("help")` /
        // `name: gauge("help")`. The exported metric embeds the field
        // name, so covering the field covers the metric.
        for kind in [": counter(\"", ": gauge(\""] {
            let Some(pos) = line.find(kind) else {
                continue;
            };
            let field = line[..pos]
                .trim()
                .rsplit(|c: char| !c.is_alphanumeric() && c != '_')
                .next()
                .unwrap_or("");
            if !field.is_empty() && !word_boundary_contains(corpus, field) {
                out.push(Finding {
                    rule: "R1",
                    path: f.rel.clone(),
                    line: i + 1,
                    detail: format!("counters! field {field} not read by any test"),
                });
            }
        }

        // Direct registrations: the metric-name literal is the first
        // string in the call, possibly on a following line. Literal
        // names must appear verbatim in a test; `{prefix}_suffix`
        // shapes match on the suffix (any prefix counts as coverage).
        if !REGISTER_CALLS.iter().any(|c| line.contains(c)) {
            continue;
        }
        let window_end = (i + 3).min(f.test_start);
        let window = f.lines[i..window_end].join("\n");
        let after_call = REGISTER_CALLS
            .iter()
            .filter_map(|c| window.find(c).map(|p| p + c.len()))
            .min()
            .unwrap();
        let Some(name) = first_string_literal(&window[after_call..]) else {
            continue;
        };
        let covered = if let Some(rest) = name.strip_prefix('{') {
            // `{prefix}_acked_total` → require some full name ending
            // in `_acked_total`; doubly-dynamic shapes like
            // `{}_{}_total` are unverifiable lexically — skip.
            match rest.split_once('}') {
                Some((_, suffix)) if !suffix.is_empty() && !suffix.contains('{') => {
                    corpus.contains(suffix)
                }
                _ => continue,
            }
        } else if name.starts_with("qtag_") {
            word_boundary_contains(corpus, name)
        } else {
            // Not a metric name (help text or unrelated literal).
            continue;
        };
        if !covered {
            out.push(Finding {
                rule: "R1",
                path: f.rel.clone(),
                line: i + 1,
                detail: format!("registry metric {name} not read by any test"),
            });
        }
    }
}

fn check_r2(f: &SourceFile, out: &mut Vec<Finding>) {
    for i in 0..f.test_start {
        let line = &f.lines[i];
        if is_comment_line(line) {
            continue;
        }
        let Some(method) = RMW_METHODS.iter().find(|m| line.contains(**m)) else {
            continue;
        };
        // The ordering argument may sit on the next line or two.
        let window_end = (i + 3).min(f.test_start);
        let window = f.lines[i..window_end].join("\n");
        if !window.contains("Relaxed") {
            continue;
        }
        // Justified if `// ordering:` is on the line itself or in the
        // comment block directly above the statement (skipping at most
        // a few lines of a chained receiver expression).
        let mut justified = line.contains("// ordering:");
        let mut k = i;
        let mut hops = 0;
        while !justified && k > 0 && hops < 6 {
            k -= 1;
            hops += 1;
            let above = f.lines[k].trim();
            if above.starts_with("//") {
                if above.contains("ordering:") {
                    justified = true;
                }
            } else if above.ends_with(';') || above.ends_with('{') || above.ends_with('}') {
                // Crossed a statement boundary without finding a
                // comment block: stop looking.
                break;
            }
        }
        if !justified {
            out.push(Finding {
                rule: "R2",
                path: f.rel.clone(),
                line: i + 1,
                detail: format!(
                    "{}/{} Relaxed RMW without '// ordering:' justification",
                    nearest_fn(&f.lines, i),
                    method.trim_matches(['.', '('])
                ),
            });
        }
    }
}

fn check_r3(f: &SourceFile, out: &mut Vec<Finding>) {
    if f.rel.ends_with("clock.rs") || f.rel.contains("/src/bin/") {
        return;
    }
    // An `Instant` imported from a `sync::time` facade IS a clock
    // abstraction (virtual under qtag_check), so `Instant::now()` is
    // fine there; `SystemTime::now()` has no facade and stays flagged.
    let facade_instant = f.lines[..f.test_start]
        .iter()
        .any(|l| l.trim_start().starts_with("use ") && l.contains("sync::time::"));
    for i in 0..f.test_start {
        let line = &f.lines[i];
        if is_comment_line(line) {
            continue;
        }
        for token in ["Instant::now()", "SystemTime::now()"] {
            if token.starts_with("Instant") && facade_instant {
                continue;
            }
            if line.contains(token) {
                out.push(Finding {
                    rule: "R3",
                    path: f.rel.clone(),
                    line: i + 1,
                    detail: format!(
                        "{} in {} (wall clock outside a clock abstraction)",
                        token.trim_end_matches("()"),
                        nearest_fn(&f.lines, i)
                    ),
                });
            }
        }
    }
}

fn check_r4(f: &SourceFile, out: &mut Vec<Finding>) {
    if !FACADE_CRATES.iter().any(|c| f.rel.starts_with(c)) {
        return;
    }
    if f.rel.ends_with("/sync.rs") {
        return;
    }
    for i in 0..f.test_start {
        let line = &f.lines[i];
        if is_comment_line(line) {
            continue;
        }
        for token in FACADE_BYPASS_TOKENS {
            if line.contains(token) {
                out.push(Finding {
                    rule: "R4",
                    path: f.rel.clone(),
                    line: i + 1,
                    detail: format!("{token} bypasses the sync facade"),
                });
            }
        }
    }
}

fn check_r5(f: &SourceFile, out: &mut Vec<Finding>) {
    if !EVENT_LOOP_FILES.iter().any(|e| f.rel.ends_with(e)) {
        return;
    }
    for i in 0..f.test_start {
        let line = &f.lines[i];
        if is_comment_line(line) {
            continue;
        }
        for token in REACTOR_BLOCKING_TOKENS {
            if line.contains(token) && nearest_fn(&f.lines, i) != BLOCKING_DRIVER_FN {
                out.push(Finding {
                    rule: "R5",
                    path: f.rel.clone(),
                    line: i + 1,
                    detail: format!(
                        "{} blocks the event loop in {}",
                        token.trim_matches(['.', '(']),
                        nearest_fn(&f.lines, i)
                    ),
                });
            }
        }
    }
}

fn check_r6(f: &SourceFile, out: &mut Vec<Finding>) {
    if !HOT_PATH_FILES.iter().any(|h| f.rel.ends_with(h)) {
        return;
    }
    for i in 0..f.test_start {
        let line = &f.lines[i];
        if is_comment_line(line) {
            continue;
        }
        for token in TICK_ALLOC_TOKENS {
            if !line.contains(token) {
                continue;
            }
            let func = nearest_fn(&f.lines, i);
            let allowed = TICK_ALLOC_ALLOWLIST
                .iter()
                .any(|(file, name)| f.rel.ends_with(file) && *name == func);
            if !allowed {
                out.push(Finding {
                    rule: "R6",
                    path: f.rel.clone(),
                    line: i + 1,
                    detail: format!(
                        "{} heap-allocates in render hot path fn {}",
                        token.trim_matches(['.', '(', '[', '!']),
                        func
                    ),
                });
            }
        }
    }
}

/// Package names run by `cargo test` lines under `--cfg qtag_check`
/// in the CI workflow text. The `--cfg` typically lives in a step's
/// `env:` block adjacent to the `run:` line, so the match window
/// spans a few lines around each `cargo test`.
fn qtag_check_sweep_packages(ci: &str) -> Vec<String> {
    let lines: Vec<&str> = ci.lines().collect();
    let mut pkgs = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if is_comment_line(line) || !line.contains("cargo test") {
            continue;
        }
        let lo = i.saturating_sub(4);
        let hi = (i + 5).min(lines.len());
        if !lines[lo..hi].iter().any(|l| l.contains("--cfg qtag_check")) {
            continue;
        }
        let mut rest = *line;
        while let Some(pos) = rest.find("-p ") {
            let tail = &rest[pos + 3..];
            let pkg: String = tail
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '-')
                .collect();
            if !pkg.is_empty() {
                pkgs.push(pkg);
            }
            rest = tail;
        }
    }
    pkgs
}

/// R7 model-coverage: each facade crate must ship a
/// `tests/check_models.rs` suite and appear on CI's qtag_check sweep.
fn check_r7(root: &Path, out: &mut Vec<Finding>) {
    const CI_PATH: &str = ".github/workflows/ci.yml";
    let ci = fs::read_to_string(root.join(CI_PATH)).unwrap_or_default();
    let swept = qtag_check_sweep_packages(&ci);
    for src in FACADE_CRATES {
        let crate_dir = src.trim_end_matches("/src");
        let models = format!("{crate_dir}/tests/check_models.rs");
        if !root.join(&models).is_file() {
            out.push(Finding {
                rule: "R7",
                path: models,
                line: 1,
                detail: format!("facade crate {crate_dir} ships no check_models.rs suite"),
            });
        }
        let manifest =
            fs::read_to_string(root.join(crate_dir).join("Cargo.toml")).unwrap_or_default();
        let Some(pkg) = manifest.lines().find_map(|l| {
            l.trim()
                .strip_prefix("name = \"")
                .and_then(|r| r.split('"').next())
        }) else {
            continue;
        };
        if !swept.iter().any(|s| s == pkg) {
            out.push(Finding {
                rule: "R7",
                path: CI_PATH.to_string(),
                line: 1,
                detail: format!("{pkg} missing from the --cfg qtag_check model sweep"),
            });
        }
    }
}

fn check_r8(f: &SourceFile, out: &mut Vec<Finding>) {
    if f.rel.ends_with("/idmap.rs") {
        return;
    }
    for i in 0..f.test_start {
        let line = &f.lines[i];
        let t = line.trim_start();
        if is_comment_line(line) || t.starts_with("use ") || t.starts_with("pub use ") {
            continue;
        }
        let Some(token) = FIXED_HASHER_TOKENS.iter().find(|tok| line.contains(**tok)) else {
            continue;
        };
        // Justified by a trailing comment, or a `// keys:` line in the
        // comment block directly above.
        let mut justified = line.contains("// keys:");
        let mut k = i;
        while !justified && k > 0 {
            k -= 1;
            let above = f.lines[k].trim();
            if !above.starts_with("//") {
                break;
            }
            justified = above.contains("// keys:");
        }
        if !justified {
            out.push(Finding {
                rule: "R8",
                path: f.rel.clone(),
                line: i + 1,
                detail: format!(
                    "{} without '// keys:' comment: `{}`",
                    token.trim_end_matches('<'),
                    t.trim_end()
                ),
            });
        }
    }
}

/// Runs all rules over the workspace rooted at `root`.
pub fn run(root: &Path) -> Vec<Finding> {
    let ws = gather(root);
    let mut findings = Vec::new();
    for f in &ws.sources {
        check_r1(f, &ws.test_corpus, &mut findings);
        check_r2(f, &mut findings);
        check_r3(f, &mut findings);
        check_r4(f, &mut findings);
        check_r5(f, &mut findings);
        check_r6(f, &mut findings);
        check_r8(f, &mut findings);
    }
    check_r7(root, &mut findings);
    findings.sort_by(|a, b| {
        (a.rule, &a.path, a.line, &a.detail).cmp(&(b.rule, &b.path, b.line, &b.detail))
    });
    findings
}

/// Aggregates findings to stable baseline keys: `rule|path|detail`
/// mapped to occurrence count. Line numbers are deliberately absent so
/// unrelated edits don't churn the baseline.
pub fn aggregate(findings: &[Finding]) -> BTreeMap<String, usize> {
    let mut map = BTreeMap::new();
    for f in findings {
        *map.entry(format!("{}|{}|{}", f.rule, f.path, f.detail))
            .or_insert(0) += 1;
    }
    map
}

/// Parses a baseline file (lines of `rule|path|detail|count`; `#`
/// comments and blanks ignored).
pub fn parse_baseline(text: &str) -> BTreeMap<String, usize> {
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((key, count)) = line.rsplit_once('|') else {
            continue;
        };
        let count = count.trim().parse::<usize>().unwrap_or(1);
        map.insert(key.to_string(), count);
    }
    map
}

/// Renders an aggregate map back to baseline-file form.
pub fn render_baseline(map: &BTreeMap<String, usize>) -> String {
    let mut out = String::from(
        "# qtag-lint baseline: triaged pre-existing findings (rule|path|detail|count).\n\
         # New findings beyond these counts fail CI; regenerate with\n\
         # `cargo run -p qtag-check --bin qtag-lint -- --update-baseline`.\n",
    );
    for (key, count) in map {
        out.push_str(&format!("{key}|{count}\n"));
    }
    out
}

/// Comparison outcome against a baseline.
#[derive(Debug, Default)]
pub struct BaselineDiff {
    /// Keys whose current count exceeds the baselined count (new debt
    /// — denied).
    pub new: Vec<(String, usize, usize)>,
    /// Baselined keys no longer found (stale — warn so the baseline
    /// gets tightened).
    pub stale: Vec<String>,
}

pub fn diff(current: &BTreeMap<String, usize>, baseline: &BTreeMap<String, usize>) -> BaselineDiff {
    let mut d = BaselineDiff::default();
    for (key, &count) in current {
        let base = baseline.get(key).copied().unwrap_or(0);
        if count > base {
            d.new.push((key.clone(), count, base));
        }
    }
    for key in baseline.keys() {
        if !current.contains_key(key) {
            d.stale.push(key.clone());
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_boundary_matching() {
        assert!(word_boundary_contains(
            "a + beacons_sent == b",
            "beacons_sent"
        ));
        assert!(!word_boundary_contains(
            "total_beacons_sent",
            "beacons_sent"
        ));
        assert!(!word_boundary_contains(
            "beacons_sent_total",
            "beacons_sent"
        ));
        assert!(word_boundary_contains("beacons_sent", "beacons_sent"));
        assert!(!word_boundary_contains("", "x"));
    }

    #[test]
    fn baseline_round_trip() {
        let mut map = BTreeMap::new();
        map.insert("R2|crates/x/src/a.rs|f/fetch_add".to_string(), 3);
        map.insert("R3|crates/y/src/b.rs|Instant::now in g".to_string(), 1);
        let text = render_baseline(&map);
        assert_eq!(parse_baseline(&text), map);
    }

    #[test]
    fn diff_flags_new_and_stale() {
        let mut cur = BTreeMap::new();
        cur.insert("R2|a|x".to_string(), 2);
        cur.insert("R3|b|y".to_string(), 1);
        let mut base = BTreeMap::new();
        base.insert("R2|a|x".to_string(), 1);
        base.insert("R4|c|z".to_string(), 1);
        let d = diff(&cur, &base);
        assert_eq!(d.new.len(), 2); // R2 count grew, R3 unbaselined
        assert_eq!(d.stale, vec!["R4|c|z".to_string()]);
    }

    #[test]
    fn r1_flags_uncovered_counters_macro_fields() {
        let f = SourceFile {
            rel: "crates/x/src/stats.rs".into(),
            lines: vec![
                "qtag_obs::counters! {".into(),
                "    pub struct FooStats / FooStatsSnapshot {".into(),
                "        frames_seen: counter(\"Frames seen.\"),".into(),
                "        depth_now: gauge(\"Live depth.\"),".into(),
                "    }".into(),
                "}".into(),
            ],
            test_start: 6,
        };
        let mut out = Vec::new();
        check_r1(&f, "assert_eq!(snap.frames_seen, 4);", &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].detail.contains("depth_now"));
    }

    #[test]
    fn r1_flags_uncovered_registry_metric_literals() {
        let f = SourceFile {
            rel: "crates/x/src/metrics.rs".into(),
            lines: vec![
                "fn register(registry: &Registry, prefix: &str) {".into(),
                "    registry.histogram(".into(),
                "        \"qtag_x_latency_us\",".into(),
                "        \"Help text only.\",".into(),
                "    );".into(),
                "    registry.counter(&format!(\"{prefix}_acked_total\"), \"h\");".into(),
                "    registry.gauge(&format!(\"{prefix}_pending\"), \"h\");".into(),
                "    registry.counter_fn(&format!(\"{}_{}_total\", prefix, f), \"h\", || 0);"
                    .into(),
                "}".into(),
            ],
            test_start: 9,
        };
        let mut out = Vec::new();
        // Corpus covers the histogram verbatim and the acked suffix
        // under some concrete prefix; `{prefix}_pending` is uncovered
        // and the doubly-dynamic `{}_{}_total` shape is skipped.
        check_r1(
            &f,
            "registry.get(\"qtag_x_latency_us\"); get(\"qtag_sender_acked_total\");",
            &mut out,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].detail.contains("{prefix}_pending"), "{out:?}");
    }

    #[test]
    fn r2_accepts_justified_and_flags_bare() {
        let f = SourceFile {
            rel: "crates/x/src/a.rs".into(),
            lines: vec![
                "fn bump(s: &Stats) {".into(),
                "    // ordering: monotone counter, exact read ordered by join".into(),
                "    s.n.fetch_add(1, Ordering::Relaxed);".into(),
                "    s.m.fetch_add(1, Ordering::Relaxed);".into(),
                "}".into(),
            ],
            test_start: 5,
        };
        let mut out = Vec::new();
        check_r2(&f, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 4);
    }

    #[test]
    fn r3_allows_clock_files_and_bins() {
        let mk = |rel: &str| SourceFile {
            rel: rel.into(),
            lines: vec!["fn t() { let x = Instant::now(); }".into()],
            test_start: 1,
        };
        let mut out = Vec::new();
        check_r3(&mk("crates/render/src/clock.rs"), &mut out);
        check_r3(&mk("crates/bench/src/bin/loadgen.rs"), &mut out);
        assert!(out.is_empty());
        check_r3(&mk("crates/server/src/ingest.rs"), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn r5_flags_blocking_calls_only_in_reactor_files() {
        let lines: Vec<String> = vec![
            "fn pump(rx: &Receiver<Conn>, io: &mut TcpStream) {".into(),
            "    let c = rx.recv(); // blocking hand-off wait".into(),
            "    io.write_all(&[1]).unwrap();".into(),
            "    io.set_read_timeout(None).unwrap();".into(),
            "    thread::sleep(POLL);".into(),
            "    let n = rx.try_recv(); // non-blocking: fine".into(),
            "}".into(),
        ];
        let mut out = Vec::new();
        let file = |rel: &str, lines: &[String]| SourceFile {
            rel: rel.into(),
            lines: lines.to_vec(),
            test_start: lines.len(),
        };
        // Same tokens outside an event-loop file are R5-exempt (the
        // acceptor blocks by design).
        check_r5(&file("crates/collectd/src/collector.rs", &lines), &mut out);
        assert!(out.is_empty(), "{out:?}");
        // So are they in the reader-thread driver, and nowhere else in
        // the file that holds the state machine it drives.
        let mut driver = lines.clone();
        driver[0] =
            "pub(crate) fn serve_stream(mut stream: impl ConnStream, ctx: ConnCtx) {".into();
        check_r5(
            &file("crates/collectd/src/connection.rs", &driver),
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
        for rel in [
            "crates/collectd/src/reactor.rs",
            "crates/collectd/src/connection.rs",
        ] {
            out.clear();
            check_r5(&file(rel, &lines), &mut out);
            assert_eq!(out.len(), 4, "{out:?}");
            assert!(out.iter().all(|f| f.rule == "R5"));
            assert!(out.iter().any(|f| f.detail.contains("recv")), "{out:?}");
            assert!(
                out.iter().any(|f| f.detail.contains("thread::sleep")),
                "{out:?}"
            );
        }
    }

    #[test]
    fn r5_exempts_test_regions() {
        let f = SourceFile {
            rel: "crates/collectd/src/reactor.rs".into(),
            lines: vec![
                "fn pump() {}".into(),
                "#[cfg(test)]".into(),
                "mod tests {".into(),
                "    fn t() { std::thread::sleep(D); }".into(),
                "}".into(),
            ],
            test_start: 1,
        };
        let mut out = Vec::new();
        check_r5(&f, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn r6_flags_allocation_only_in_hot_path_files() {
        let lines: Vec<String> = vec![
            "fn tick_indexed(&mut self) {".into(),
            "    let mut extra = Vec::new();".into(),
            "    let ids: Vec<u32> = xs.iter().collect();".into(),
            "    self.occ_scratch.clear(); // reuse: fine".into(),
            "    self.occ_scratch.push(3); // reuse: fine".into(),
            "}".into(),
            "fn tick_naive(&mut self) {".into(),
            "    let mut m = HashMap::new(); // measured baseline".into(),
            "}".into(),
            "pub fn attach_script(&mut self) {".into(),
            "    self.pages.push(Vec::new()); // setup path".into(),
            "}".into(),
        ];
        let mut out = Vec::new();
        // Same tokens outside a hot-path file are R6-exempt.
        check_r6(
            &SourceFile {
                rel: "crates/server/src/ingest.rs".into(),
                lines: lines.clone(),
                test_start: lines.len(),
            },
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
        let test_start = lines.len();
        check_r6(
            &SourceFile {
                rel: "crates/render/src/engine.rs".into(),
                lines,
                test_start,
            },
            &mut out,
        );
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|f| f.rule == "R6"));
        assert!(out.iter().all(|f| f.detail.contains("tick_indexed")));
        assert!(out.iter().any(|f| f.detail.contains("Vec::new")), "{out:?}");
        assert!(out.iter().any(|f| f.detail.contains("collect")), "{out:?}");
    }

    #[test]
    fn r6_exempts_test_regions_and_setup_paths() {
        let f = SourceFile {
            rel: "crates/render/src/engine.rs".into(),
            lines: vec![
                "pub fn drain_outbox(&mut self) -> Vec<OutgoingBeacon> {".into(),
                "    self.outbox.drain(..).collect() // teardown path".into(),
                "}".into(),
                "fn revalidate_page(cache: &mut PageCache) {".into(),
                "    cache.entries.clear();".into(),
                "}".into(),
                "#[cfg(test)]".into(),
                "mod tests {".into(),
                "    fn t() { let v = vec![1, 2]; }".into(),
                "}".into(),
            ],
            test_start: 6,
        };
        let mut out = Vec::new();
        check_r6(&f, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn r6_flags_revalidation_path_allocation() {
        let f = SourceFile {
            rel: "crates/render/src/engine.rs".into(),
            lines: vec![
                "fn revalidate_page(cache: &mut PageCache) {".into(),
                "    cache.visible = cache.entries.iter().map(|e| e.0).collect();".into(),
                "}".into(),
            ],
            test_start: 3,
        };
        let mut out = Vec::new();
        check_r6(&f, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].detail.contains("revalidate_page"));
    }

    #[test]
    fn r7_sweep_parser_reads_packages_near_the_cfg() {
        let ci = "\
      - name: Ported-code models (--cfg qtag_check)\n\
        run: cargo test -q -p qtag-check -p crossbeam -p qtag-store\n\
        env:\n\
          RUSTFLAGS: --cfg qtag_check\n\
      - name: Plain suite (no cfg nearby)\n\
        run: echo spacer\n\
        # pad the window so the qtag_check above is out of range\n\
        # pad\n\
        # pad\n\
      - name: Far-away test\n\
        run: cargo test -q -p qtag-wire\n";
        let pkgs = qtag_check_sweep_packages(ci);
        assert_eq!(pkgs, vec!["qtag-check", "crossbeam", "qtag-store"]);
    }

    #[test]
    fn r8_flags_fixed_hasher_maps_without_a_keys_comment() {
        let f = SourceFile {
            rel: "crates/x/src/a.rs".into(),
            lines: vec![
                "use crate::idmap::{IdHasher, IdMap};".into(),
                "struct Index {".into(),
                "    /// Rows by id.".into(),
                "    // keys: served ids; the wire only looks up.".into(),
                "    rows: IdMap<Row>,".into(),
                "    by_ts: IdMap<u64>,".into(),
                "    seen: IdMap<bool>, // keys: our own allocator".into(),
                "}".into(),
                "fn build() -> BuildHasherDefault<IdHasher> {".into(),
                "    BuildHasherDefault::default()".into(),
                "}".into(),
                "#[cfg(test)]".into(),
                "fn t() { let m: IdMap<u8> = IdMap::default(); }".into(),
            ],
            test_start: 11,
        };
        let mut out = Vec::new();
        check_r8(&f, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|f| f.rule == "R8"));
        assert_eq!((out[0].line, out[1].line), (6, 9), "{out:?}");
        assert!(out[0].detail.ends_with("`by_ts: IdMap<u64>,`"), "{out:?}");
        assert!(out[1].detail.starts_with("IdHasher without"), "{out:?}");
    }

    #[test]
    fn r8_exempts_the_defining_module() {
        let f = SourceFile {
            rel: "crates/server/src/idmap.rs".into(),
            lines: vec![
                "pub type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;".into(),
            ],
            test_start: 1,
        };
        let mut out = Vec::new();
        check_r8(&f, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn r3_allows_facade_instant_but_not_system_time() {
        let f = SourceFile {
            rel: "vendor/crossbeam/src/lib.rs".into(),
            lines: vec![
                "use crate::sync::time::Instant;".into(),
                "fn t() { let a = Instant::now(); }".into(),
                "fn u() { let b = SystemTime::now(); }".into(),
            ],
            test_start: 3,
        };
        let mut out = Vec::new();
        check_r3(&f, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].detail.contains("SystemTime"));
    }
}
