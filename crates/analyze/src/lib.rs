//! `pardp-analyze` — static enforcement of the workspace's concurrency
//! contracts.
//!
//! The engine's central guarantees — bit-identical results at any thread
//! count, zero-allocation steady-state rounds, and `unsafe` confined to the
//! scoped-job pool — are enforced dynamically by `tests/determinism.rs` and
//! `tests/alloc_counting.rs`, which only catch a violation on the inputs they
//! happen to run.  This crate makes the contracts *un-regressable*: a
//! hand-rolled, comment/string-aware token scanner (no `syn`; this build
//! environment has no registry access, consistent with the `crates/compat`
//! philosophy) walks every Rust source in the workspace and a small rule
//! engine reports violations of the invariants below.
//!
//! # Rules
//!
//! | id                      | invariant                                                              |
//! |-------------------------|------------------------------------------------------------------------|
//! | `unsafe-whitelist`      | `unsafe` appears only in allowlisted files (the scoped-job pool)        |
//! | `unsafe-safety-comment` | every `unsafe` token carries a `// SAFETY:` / `# Safety` justification  |
//! | `ordering-comment`      | every atomic `Ordering::*` use carries a `// ordering:` justification   |
//! | `hot-round-alloc`       | no allocation calls inside `PhaseParallel::round`/`round_with` bodies   |
//! | `raw-parallelism`       | no `std::thread::spawn` / raw `Mutex` / `Condvar` outside the rayon shim|
//! | `no-panics`             | no `unwrap()` / `expect()` / `panic!` in library code                   |
//!
//! # Scope
//!
//! `unsafe-whitelist` and `unsafe-safety-comment` apply to **every** scanned
//! file (tests included: a test that needs `unsafe` must justify it).  The
//! other rules apply to **library code** only — `src/**` and `crates/*/src/**`
//! minus `src/bin/**` — and skip `#[cfg(test)]` module bodies, because tests
//! legitimately allocate, panic on failure, and orchestrate raw threads to
//! exercise the pool.
//!
//! # Exceptions
//!
//! Justified exceptions come in two forms, both committed to the repo:
//!
//! * a line in the allowlist file (`crates/analyze/allowlist.txt`):
//!   `<rule-id> <path-prefix>`, e.g.
//!   `unsafe-whitelist crates/compat/rayon/src/pool.rs`;
//! * an inline annotation on the offending line or in the comment block
//!   directly above it: `// analyze: allow(<rule-id>): <reason>`.
//!
//! Findings are reported human-readably and, via [`Report::to_json`], as a
//! machine-readable document that CI uploads as an artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// All rule identifiers, with a one-line summary each.
pub const RULES: &[(&str, &str)] = &[
    (
        "unsafe-whitelist",
        "`unsafe` is allowed only in allowlisted files (the scoped-job pool)",
    ),
    (
        "unsafe-safety-comment",
        "every `unsafe` must carry a `// SAFETY:` (or `# Safety` doc) justification",
    ),
    (
        "ordering-comment",
        "every atomic `Ordering::*` use must carry a `// ordering:` justification",
    ),
    (
        "hot-round-alloc",
        "no allocation calls inside `PhaseParallel::round`/`round_with` bodies",
    ),
    (
        "raw-parallelism",
        "no `std::thread::spawn`/`Mutex`/`Condvar` outside the rayon shim",
    ),
    (
        "no-panics",
        "no `unwrap()`/`expect()`/`panic!` in library code (typed errors are the house style)",
    ),
];

/// Returns true if `rule` is one of the identifiers in [`RULES`].
pub fn is_known_rule(rule: &str) -> bool {
    RULES.iter().any(|(id, _)| *id == rule)
}

/// One rule violation at a specific source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (see [`RULES`]).
    pub rule: &'static str,
    /// Path of the offending file, relative to the analysis root.
    pub file: String,
    /// 1-based line number of the offending token.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Result of analyzing a set of files.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Serialize the report as a small, dependency-free JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"finding_count\": {},\n", self.findings.len()));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json_string(f.rule),
                json_string(&f.file),
                f.line,
                json_string(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

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

/// Errors produced while loading inputs (never while scanning source text).
#[derive(Debug)]
pub enum AnalyzeError {
    /// A file or directory could not be read.
    Io(PathBuf, std::io::Error),
    /// The allowlist file is malformed.
    Allowlist {
        /// Path of the allowlist file.
        path: PathBuf,
        /// 1-based line of the malformed entry.
        line: usize,
        /// What is wrong with it.
        message: String,
    },
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Io(path, err) => write!(f, "{}: {err}", path.display()),
            AnalyzeError::Allowlist {
                path,
                line,
                message,
            } => {
                write!(f, "{}:{line}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Committed per-rule path exemptions (see the allowlist file format in the
/// crate docs).
#[derive(Debug, Clone, Default)]
pub struct Config {
    entries: Vec<(String, String)>,
}

impl Config {
    /// Empty configuration: no path-level exemptions.
    pub fn empty() -> Self {
        Config::default()
    }

    /// Parse allowlist text: one `<rule-id> <path-prefix>` entry per line,
    /// `#` starts a comment, blank lines ignored.  Unknown rule ids are an
    /// error so typos cannot silently disable a rule.
    pub fn parse(text: &str) -> Result<Self, (usize, String)> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let rule = parts.next().unwrap_or("");
            let prefix = parts.next().unwrap_or("");
            if prefix.is_empty() || parts.next().is_some() {
                return Err((
                    idx + 1,
                    format!("expected `<rule-id> <path-prefix>`, got `{line}`"),
                ));
            }
            if !is_known_rule(rule) {
                return Err((idx + 1, format!("unknown rule id `{rule}`")));
            }
            entries.push((rule.to_string(), prefix.to_string()));
        }
        Ok(Config { entries })
    }

    /// Load an allowlist from disk.
    pub fn load(path: &Path) -> Result<Self, AnalyzeError> {
        let text = fs::read_to_string(path).map_err(|e| AnalyzeError::Io(path.to_path_buf(), e))?;
        Config::parse(&text).map_err(|(line, message)| AnalyzeError::Allowlist {
            path: path.to_path_buf(),
            line,
            message,
        })
    }

    /// True when `rule` is exempted for `rel_path` by a path-prefix entry.
    pub fn allows(&self, rule: &str, rel_path: &str) -> bool {
        self.entries
            .iter()
            .any(|(r, prefix)| r == rule && rel_path.starts_with(prefix.as_str()))
    }
}

// ---------------------------------------------------------------------------
// Lexer: comment/string-aware tokenization.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Punct(char),
}

#[derive(Debug, Clone)]
struct SpannedTok {
    line: usize,
    tok: Tok,
}

impl SpannedTok {
    fn is_ident(&self, name: &str) -> bool {
        matches!(&self.tok, Tok::Ident(s) if s == name)
    }

    fn is_punct(&self, c: char) -> bool {
        matches!(&self.tok, Tok::Punct(p) if *p == c)
    }
}

/// A scanned source file: tokens with comments and structure side tables.
#[derive(Debug, Clone)]
pub struct FileScan {
    /// Path relative to the analysis root (`/`-separated).
    pub rel_path: String,
    tokens: Vec<SpannedTok>,
    /// line -> concatenated comment text appearing on that line.
    comments: BTreeMap<usize, String>,
    /// Lines carrying at least one code token.
    code_lines: BTreeSet<usize>,
    /// Lines covered by an attribute (`#[...]` / `#![...]`).
    attr_lines: BTreeSet<usize>,
    /// Line ranges (inclusive) of `#[cfg(test)] mod` bodies.
    test_spans: Vec<(usize, usize)>,
}

/// Tokenize `src`, skipping comments and literals but recording comment text
/// per line, and locate `#[cfg(test)]` module bodies.
pub fn scan_file_source(rel_path: &str, src: &str) -> FileScan {
    let chars: Vec<char> = src.chars().collect();
    let len = chars.len();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut tokens: Vec<SpannedTok> = Vec::new();
    let mut comments: BTreeMap<usize, String> = BTreeMap::new();

    fn add_comment(map: &mut BTreeMap<usize, String>, line: usize, text: &str) {
        let slot = map.entry(line).or_default();
        if !slot.is_empty() {
            slot.push(' ');
        }
        slot.push_str(text);
    }

    while i < len {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < len && chars[i + 1] == '/' {
            let start = i;
            while i < len && chars[i] != '\n' {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            add_comment(&mut comments, line, &text);
            continue;
        }
        if c == '/' && i + 1 < len && chars[i + 1] == '*' {
            // Rust block comments nest.
            i += 2;
            let mut depth = 1usize;
            let mut buf = String::new();
            while i < len && depth > 0 {
                if chars[i] == '/' && i + 1 < len && chars[i + 1] == '*' {
                    depth += 1;
                    buf.push_str("/*");
                    i += 2;
                } else if chars[i] == '*' && i + 1 < len && chars[i + 1] == '/' {
                    depth -= 1;
                    buf.push_str("*/");
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        add_comment(&mut comments, line, &buf);
                        buf.clear();
                        line += 1;
                    } else {
                        buf.push(chars[i]);
                    }
                    i += 1;
                }
            }
            if !buf.is_empty() {
                add_comment(&mut comments, line, &buf);
            }
            continue;
        }
        // String literals.
        if c == '"' {
            i += 1;
            while i < len {
                if chars[i] == '\\' {
                    i += 2;
                    continue;
                }
                if chars[i] == '"' {
                    i += 1;
                    break;
                }
                if chars[i] == '\n' {
                    line += 1;
                }
                i += 1;
            }
            continue;
        }
        // Char literal or lifetime.
        if c == '\'' {
            if i + 1 < len && (chars[i + 1].is_alphabetic() || chars[i + 1] == '_') {
                let mut j = i + 2;
                while j < len && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                if j < len && chars[j] == '\'' {
                    // 'a' — a char literal.
                    i = j + 1;
                } else {
                    // 'scope — a lifetime; skip the quote and the name.
                    i = j;
                }
            } else {
                // '\n', '\u{..}', '(' — an escaped or symbolic char literal.
                i += 1;
                while i < len {
                    if chars[i] == '\\' {
                        i += 2;
                        continue;
                    }
                    if chars[i] == '\'' {
                        i += 1;
                        break;
                    }
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            continue;
        }
        // Numbers (consumed, not emitted — no rule matches them).
        if c.is_ascii_digit() {
            while i < len && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            continue;
        }
        // Identifiers, raw strings, byte strings, raw identifiers.
        if c.is_alphabetic() || c == '_' {
            if let Some(next) = try_skip_literal_prefix(&chars, i, &mut line) {
                i = next;
                continue;
            }
            let start = i;
            while i < len && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let name: String = chars[start..i].iter().collect();
            tokens.push(SpannedTok {
                line,
                tok: Tok::Ident(name),
            });
            continue;
        }
        tokens.push(SpannedTok {
            line,
            tok: Tok::Punct(c),
        });
        i += 1;
    }

    let code_lines: BTreeSet<usize> = tokens.iter().map(|t| t.line).collect();
    let (attr_lines, test_spans) = structure_pass(&tokens);
    FileScan {
        rel_path: rel_path.to_string(),
        tokens,
        comments,
        code_lines,
        attr_lines,
        test_spans,
    }
}

/// If position `i` starts a raw string (`r"`, `r#"`), byte/C string (`b"`,
/// `br#"`, `c"`, `cr#"`) or raw identifier (`r#name`), consume the literal
/// (or just the `r#` prefix) and return the next scan position.
fn try_skip_literal_prefix(chars: &[char], i: usize, line: &mut usize) -> Option<usize> {
    let len = chars.len();
    let c = chars[i];
    if c != 'r' && c != 'b' && c != 'c' {
        return None;
    }
    // Parse the prefix: optional `b`/`c`, then optional `r`, then `#`*.
    let mut j = i + 1;
    let mut raw = c == 'r';
    if (c == 'b' || c == 'c') && j < len && chars[j] == 'r' {
        raw = true;
        j += 1;
    }
    let mut hashes = 0usize;
    if raw {
        while j < len && chars[j] == '#' {
            hashes += 1;
            j += 1;
        }
    }
    if j < len && chars[j] == '"' {
        j += 1;
        if raw {
            // Raw body: no escapes; ends at `"` followed by `hashes` hashes.
            while j < len {
                if chars[j] == '\n' {
                    *line += 1;
                }
                if chars[j] == '"' {
                    let mut k = 0usize;
                    while k < hashes && j + 1 + k < len && chars[j + 1 + k] == '#' {
                        k += 1;
                    }
                    if k == hashes {
                        return Some(j + 1 + hashes);
                    }
                }
                j += 1;
            }
            return Some(j);
        }
        // `b"..."` / `c"..."`: plain string body with live escapes.
        while j < len {
            if chars[j] == '\\' {
                j += 2;
                continue;
            }
            if chars[j] == '"' {
                return Some(j + 1);
            }
            if chars[j] == '\n' {
                *line += 1;
            }
            j += 1;
        }
        return Some(j);
    }
    if c == 'r' && hashes == 1 && j < len && (chars[j].is_alphabetic() || chars[j] == '_') {
        // Raw identifier `r#name`: skip the prefix, lex the name normally.
        return Some(i + 2);
    }
    None
}

/// Post-pass over tokens: mark attribute lines and locate `#[cfg(test)] mod`
/// body line spans.
fn structure_pass(tokens: &[SpannedTok]) -> (BTreeSet<usize>, Vec<(usize, usize)>) {
    let mut attr_lines = BTreeSet::new();
    let mut test_spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_punct('#') {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if j < tokens.len() && tokens[j].is_punct('!') {
            j += 1;
        }
        if j >= tokens.len() || !tokens[j].is_punct('[') {
            i += 1;
            continue;
        }
        // Bracket-match the attribute body.
        let mut depth = 0i32;
        let mut has_cfg = false;
        let mut has_test = false;
        let mut has_not = false;
        let attr_start = i;
        while j < tokens.len() {
            if tokens[j].is_punct('[') {
                depth += 1;
            } else if tokens[j].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if tokens[j].is_ident("cfg") {
                has_cfg = true;
            } else if tokens[j].is_ident("test") {
                has_test = true;
            } else if tokens[j].is_ident("not") {
                has_not = true;
            }
            j += 1;
        }
        let attr_end = j.min(tokens.len() - 1);
        for l in tokens[attr_start].line..=tokens[attr_end].line {
            attr_lines.insert(l);
        }
        let mut k = attr_end + 1;
        if has_cfg && has_test && !has_not {
            // Skip further attributes and visibility to see if a module
            // follows; record its brace span as test scope.
            while k < tokens.len() && tokens[k].is_punct('#') {
                let mut d = 0i32;
                while k < tokens.len() {
                    if tokens[k].is_punct('[') {
                        d += 1;
                    } else if tokens[k].is_punct(']') {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                k += 1;
            }
            if k < tokens.len() && tokens[k].is_ident("pub") {
                k += 1;
                if k < tokens.len() && tokens[k].is_punct('(') {
                    while k < tokens.len() && !tokens[k].is_punct(')') {
                        k += 1;
                    }
                    k += 1;
                }
            }
            if k + 1 < tokens.len() && tokens[k].is_ident("mod") {
                let mut b = k + 1;
                while b < tokens.len() && !tokens[b].is_punct('{') && !tokens[b].is_punct(';') {
                    b += 1;
                }
                if b < tokens.len() && tokens[b].is_punct('{') {
                    if let Some(close) = matching_brace(tokens, b) {
                        test_spans.push((tokens[b].line, tokens[close].line));
                    }
                }
            }
        }
        i = attr_end + 1;
    }
    (attr_lines, test_spans)
}

/// Index of the `}` matching the `{` at `open` (which must be a `{`).
fn matching_brace(tokens: &[SpannedTok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (off, t) in tokens[open..].iter().enumerate() {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(open + off);
            }
        }
    }
    None
}

impl FileScan {
    fn in_test_span(&self, line: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| s <= line && line <= e)
    }

    /// True when a comment containing any of `needles` sits on `line` itself
    /// or in the contiguous comment/attribute/blank block directly above it.
    fn justified_near(&self, line: usize, needles: &[&str]) -> bool {
        let hit = |l: usize| {
            self.comments
                .get(&l)
                .is_some_and(|text| needles.iter().any(|n| text.contains(n)))
        };
        if hit(line) {
            return true;
        }
        let mut l = line;
        let mut steps = 0usize;
        while l > 1 && steps < 80 {
            l -= 1;
            steps += 1;
            let comment = self.comments.contains_key(&l);
            let code = self.code_lines.contains(&l);
            let attr = self.attr_lines.contains(&l);
            if comment && hit(l) {
                return true;
            }
            if code && !attr {
                // A real code line terminates the block.
                return false;
            }
            // Blank, comment-only, or attribute line: keep walking up.
        }
        false
    }

    /// True when an `// analyze: allow(<rule>)` annotation covers `line`.
    fn allowed_inline(&self, line: usize, rule: &str) -> bool {
        let needle = format!("analyze: allow({rule})");
        self.justified_near(line, &[&needle])
    }
}

// ---------------------------------------------------------------------------
// Rule engine.
// ---------------------------------------------------------------------------

/// True for paths the library-code rules apply to: `src/**` and
/// `crates/*/src/**`, excluding `src/bin/**` (binaries may print-and-exit).
pub fn is_library_path(rel: &str) -> bool {
    let under_src =
        rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"));
    under_src && !rel.contains("/bin/")
}

/// Run every rule against one scanned file.
pub fn check_file(scan: &FileScan, config: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    check_unsafe(scan, config, &mut findings);
    if is_library_path(&scan.rel_path) {
        check_ordering(scan, config, &mut findings);
        check_hot_round_alloc(scan, config, &mut findings);
        check_raw_parallelism(scan, config, &mut findings);
        check_no_panics(scan, config, &mut findings);
    }
    findings
}

fn push_finding(
    findings: &mut Vec<Finding>,
    scan: &FileScan,
    config: &Config,
    rule: &'static str,
    line: usize,
    message: String,
) {
    if config.allows(rule, &scan.rel_path) || scan.allowed_inline(line, rule) {
        return;
    }
    findings.push(Finding {
        rule,
        file: scan.rel_path.clone(),
        line,
        message,
    });
}

/// L1: `unsafe` only in allowlisted files, and every `unsafe` justified.
fn check_unsafe(scan: &FileScan, config: &Config, findings: &mut Vec<Finding>) {
    for t in &scan.tokens {
        if !t.is_ident("unsafe") {
            continue;
        }
        push_finding(
            findings,
            scan,
            config,
            "unsafe-whitelist",
            t.line,
            "`unsafe` outside the allowlisted scoped-job pool; route parallelism through \
             `crates/compat/rayon` or add a justified exception"
                .to_string(),
        );
        if !scan.justified_near(t.line, &["SAFETY", "# Safety"]) {
            push_finding(
                findings,
                scan,
                config,
                "unsafe-safety-comment",
                t.line,
                "`unsafe` without a `// SAFETY:` (or `# Safety` doc) justification".to_string(),
            );
        }
    }
}

const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// L2: every atomic `Ordering::<variant>` use carries an `// ordering:`
/// justification.  `std::cmp::Ordering` variants do not match.
fn check_ordering(scan: &FileScan, config: &Config, findings: &mut Vec<Finding>) {
    let t = &scan.tokens;
    for i in 0..t.len() {
        if !t[i].is_ident("Ordering") {
            continue;
        }
        if i + 3 >= t.len() || !t[i + 1].is_punct(':') || !t[i + 2].is_punct(':') {
            continue;
        }
        let Tok::Ident(variant) = &t[i + 3].tok else {
            continue;
        };
        if !ATOMIC_ORDERINGS.contains(&variant.as_str()) {
            continue;
        }
        if scan.in_test_span(t[i].line) {
            continue;
        }
        if !scan.justified_near(t[i].line, &["ordering:"]) {
            push_finding(
                findings,
                scan,
                config,
                "ordering-comment",
                t[i].line,
                format!("atomic `Ordering::{variant}` without an `// ordering:` justification"),
            );
        }
    }
}

/// L3: no allocation calls inside `round`/`round_with` bodies of
/// `PhaseParallel` impls — the static form of `tests/alloc_counting.rs`.
fn check_hot_round_alloc(scan: &FileScan, config: &Config, findings: &mut Vec<Finding>) {
    let t = &scan.tokens;
    let mut i = 0usize;
    while i < t.len() {
        if !t[i].is_ident("impl") {
            i += 1;
            continue;
        }
        // Find the impl body `{`, tracking `<...>` nesting and skipping the
        // `>` of `->` arrows so generic headers parse correctly.
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut names_phase_parallel = false;
        let mut body_open: Option<usize> = None;
        while j < t.len() {
            match &t[j].tok {
                Tok::Ident(name) if name == "PhaseParallel" => names_phase_parallel = true,
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') if !(j > 0 && t[j - 1].is_punct('-')) => angle -= 1,
                Tok::Punct('{') if angle <= 0 => {
                    body_open = Some(j);
                    break;
                }
                Tok::Punct(';') => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body_open else {
            i += 1;
            continue;
        };
        if !names_phase_parallel {
            i = open;
            continue;
        }
        let Some(close) = matching_brace(t, open) else {
            i = open + 1;
            continue;
        };
        // Inside the impl body, find `fn round` / `fn round_with` bodies.
        let mut k = open + 1;
        while k < close {
            let is_round_fn = t[k].is_ident("fn")
                && k + 1 < close
                && (t[k + 1].is_ident("round") || t[k + 1].is_ident("round_with"));
            if !is_round_fn {
                k += 1;
                continue;
            }
            let fn_name = match &t[k + 1].tok {
                Tok::Ident(n) => n.clone(),
                Tok::Punct(_) => String::new(),
            };
            let mut b = k + 2;
            while b < close && !t[b].is_punct('{') {
                b += 1;
            }
            let Some(fn_close) = matching_brace(t, b) else {
                break;
            };
            scan_alloc_patterns(scan, config, t, b, fn_close, &fn_name, findings);
            k = fn_close + 1;
        }
        i = close + 1;
    }
}

/// Flag the allocation forms listed by the rule within `tokens[open..close]`.
#[allow(clippy::too_many_arguments)]
fn scan_alloc_patterns(
    scan: &FileScan,
    config: &Config,
    t: &[SpannedTok],
    open: usize,
    close: usize,
    fn_name: &str,
    findings: &mut Vec<Finding>,
) {
    let mut report = |line: usize, what: &str| {
        push_finding(
            findings,
            scan,
            config,
            "hot-round-alloc",
            line,
            format!(
                "`{what}` inside `PhaseParallel::{fn_name}`: hot-round bodies must not \
                 allocate (hoist into the constructor or the `FrontierArena`)"
            ),
        );
    };
    let mut i = open;
    while i < close {
        match &t[i].tok {
            Tok::Ident(name)
                if (name == "Vec" || name == "Box")
                    && i + 3 < close
                    && t[i + 1].is_punct(':')
                    && t[i + 2].is_punct(':')
                    && t[i + 3].is_ident("new") =>
            {
                report(t[i].line, &format!("{name}::new"));
                i += 4;
                continue;
            }
            Tok::Ident(name) if name == "vec" && i + 1 < close && t[i + 1].is_punct('!') => {
                report(t[i].line, "vec!");
                i += 2;
                continue;
            }
            Tok::Ident(name) if name == "with_capacity" => {
                report(t[i].line, "with_capacity");
            }
            Tok::Punct('.') if i + 1 < close && t[i + 1].is_ident("collect") => {
                report(t[i + 1].line, ".collect()");
                i += 2;
                continue;
            }
            Tok::Punct('.') if i + 1 < close && t[i + 1].is_ident("to_vec") => {
                report(t[i + 1].line, ".to_vec()");
                i += 2;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
}

/// L4: all parallelism flows through the rayon shim — no raw `Mutex`,
/// `Condvar`, or `thread::spawn` elsewhere, so determinism and grain sizing
/// stay centralized.
fn check_raw_parallelism(scan: &FileScan, config: &Config, findings: &mut Vec<Finding>) {
    let t = &scan.tokens;
    for i in 0..t.len() {
        if scan.in_test_span(t[i].line) {
            continue;
        }
        match &t[i].tok {
            Tok::Ident(name) if name == "Mutex" || name == "Condvar" => {
                push_finding(
                    findings,
                    scan,
                    config,
                    "raw-parallelism",
                    t[i].line,
                    format!(
                        "raw `{name}` outside `crates/compat/rayon`: route synchronization \
                         through the shim so determinism and grain sizing stay centralized"
                    ),
                );
            }
            Tok::Ident(name)
                if name == "thread"
                    && i + 3 < t.len()
                    && t[i + 1].is_punct(':')
                    && t[i + 2].is_punct(':')
                    && (t[i + 3].is_ident("spawn") || t[i + 3].is_ident("Builder")) =>
            {
                let Tok::Ident(what) = &t[i + 3].tok else {
                    continue;
                };
                push_finding(
                    findings,
                    scan,
                    config,
                    "raw-parallelism",
                    t[i].line,
                    format!("`thread::{what}` outside `crates/compat/rayon`: use the pool"),
                );
            }
            _ => {}
        }
    }
}

/// L5: no `unwrap()` / `expect()` / `panic!` in library code; typed errors
/// (`StallError`, `GapTracebackError`) are the house style.
fn check_no_panics(scan: &FileScan, config: &Config, findings: &mut Vec<Finding>) {
    let t = &scan.tokens;
    for i in 0..t.len() {
        if scan.in_test_span(t[i].line) {
            continue;
        }
        match &t[i].tok {
            Tok::Punct('.')
                if i + 2 < t.len()
                    && (t[i + 1].is_ident("unwrap") || t[i + 1].is_ident("expect"))
                    && t[i + 2].is_punct('(') =>
            {
                let Tok::Ident(method) = &t[i + 1].tok else {
                    continue;
                };
                push_finding(
                    findings,
                    scan,
                    config,
                    "no-panics",
                    t[i + 1].line,
                    format!(
                        "`.{method}()` in library code: return a typed error \
                         (house style: `StallError`/`GapTracebackError`)"
                    ),
                );
            }
            Tok::Ident(name) if name == "panic" && i + 1 < t.len() && t[i + 1].is_punct('!') => {
                push_finding(
                    findings,
                    scan,
                    config,
                    "no-panics",
                    t[i].line,
                    "`panic!` in library code: return a typed error instead".to_string(),
                );
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Workspace walking.
// ---------------------------------------------------------------------------

/// Directories never scanned: build output, VCS metadata, and this crate's
/// seeded-violation fixtures.
const SKIP_DIRS: &[&str] = &["target", ".git"];
const SKIP_PREFIXES: &[&str] = &["crates/analyze/tests/fixtures"];

/// Collect every `.rs` file under `root` (sorted, root-relative,
/// `/`-separated), skipping build output and the analyzer's own fixtures.
pub fn collect_rust_files(root: &Path) -> Result<Vec<String>, AnalyzeError> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = fs::read_dir(&dir).map_err(|e| AnalyzeError::Io(dir.clone(), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| AnalyzeError::Io(dir.clone(), e))?;
            let path = entry.path();
            let file_type = entry
                .file_type()
                .map_err(|e| AnalyzeError::Io(path.clone(), e))?;
            if file_type.is_symlink() {
                continue;
            }
            let rel = match path.strip_prefix(root) {
                Ok(r) => r.to_string_lossy().replace('\\', "/"),
                Err(_) => continue,
            };
            if file_type.is_dir() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                    continue;
                }
                if SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
                    continue;
                }
                stack.push(path);
            } else if rel.ends_with(".rs") && !SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Analyze every Rust source under `root` with `config`.
pub fn analyze_root(root: &Path, config: &Config) -> Result<Report, AnalyzeError> {
    let files = collect_rust_files(root)?;
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    for rel in &files {
        let path = root.join(rel);
        let src = fs::read_to_string(&path).map_err(|e| AnalyzeError::Io(path.clone(), e))?;
        let scan = scan_file_source(rel, &src);
        report.findings.extend(check_file(&scan, config));
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_scan(src: &str) -> FileScan {
        scan_file_source("crates/demo/src/lib.rs", src)
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let scan = lib_scan(
            "// unsafe in a comment\nlet s = \"unsafe Mutex panic!\";\n/* unsafe /* nested */ still comment */\nlet r = r#\"unsafe\"#;\n",
        );
        let findings = check_file(&scan, &Config::empty());
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let scan =
            lib_scan("fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'x';\nlet nl = '\\n';\n");
        // Nothing to find; the point is the lexer does not desynchronize and
        // swallow real tokens after a lifetime.
        assert!(check_file(&scan, &Config::empty()).is_empty());
    }

    #[test]
    fn unsafe_is_flagged_and_safety_comment_recognized() {
        let bad = lib_scan("pub fn f() { unsafe { core::hint::unreachable_unchecked() } }\n");
        let findings = check_file(&bad, &Config::empty());
        assert!(findings.iter().any(|f| f.rule == "unsafe-whitelist"));
        assert!(findings.iter().any(|f| f.rule == "unsafe-safety-comment"));

        let justified = lib_scan("// SAFETY: provably unreachable\npub fn f() { unsafe { core::hint::unreachable_unchecked() } }\n");
        let findings = check_file(&justified, &Config::empty());
        assert!(findings.iter().any(|f| f.rule == "unsafe-whitelist"));
        assert!(!findings.iter().any(|f| f.rule == "unsafe-safety-comment"));
    }

    #[test]
    fn cmp_ordering_is_not_atomic_ordering() {
        let scan = lib_scan("match a.cmp(&b) { std::cmp::Ordering::Less => {} _ => {} }\n");
        assert!(check_file(&scan, &Config::empty()).is_empty());
    }

    #[test]
    fn atomic_ordering_requires_comment() {
        let bad = lib_scan("fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n");
        assert_eq!(
            check_file(&bad, &Config::empty())
                .iter()
                .filter(|f| f.rule == "ordering-comment")
                .count(),
            1
        );
        let good = lib_scan(
            "fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); // ordering: stats only\n}\n",
        );
        assert!(check_file(&good, &Config::empty()).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt_from_library_rules() {
        let scan = lib_scan(
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let v: Vec<u32> = Vec::new(); v.last().unwrap(); }\n}\n",
        );
        assert!(check_file(&scan, &Config::empty()).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_a_test_span() {
        let scan = lib_scan("#[cfg(not(test))]\nmod prod {\n    pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n}\n");
        assert!(check_file(&scan, &Config::empty())
            .iter()
            .any(|f| f.rule == "no-panics"));
    }

    #[test]
    fn inline_allow_suppresses_one_rule_only() {
        let scan = lib_scan(
            "// analyze: allow(no-panics): demo\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        );
        assert!(check_file(&scan, &Config::empty()).is_empty());
        let other = lib_scan(
            "// analyze: allow(ordering-comment): wrong rule\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        );
        assert!(check_file(&other, &Config::empty())
            .iter()
            .any(|f| f.rule == "no-panics"));
    }

    #[test]
    fn allowlist_prefixes_and_validation() {
        let cfg = Config::parse("no-panics crates/compat/\n# comment\n").expect("parses");
        assert!(cfg.allows("no-panics", "crates/compat/rayon/src/pool.rs"));
        assert!(!cfg.allows("no-panics", "crates/core/src/lib.rs"));
        assert!(!cfg.allows("unsafe-whitelist", "crates/compat/rayon/src/pool.rs"));
        assert!(Config::parse("not-a-rule path\n").is_err());
        assert!(Config::parse("no-panics\n").is_err());
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let scan = lib_scan(
            "fn f(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().unwrap_or_else(|e| e.into_inner()) } // analyze: allow(raw-parallelism): demo\n",
        );
        assert!(!check_file(&scan, &Config::empty())
            .iter()
            .any(|f| f.rule == "no-panics"));
    }

    #[test]
    fn non_library_paths_skip_library_rules_but_not_unsafe() {
        let scan = scan_file_source(
            "tests/demo.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }\nfn g() { unsafe { std::hint::unreachable_unchecked() } }\n",
        );
        let findings = check_file(&scan, &Config::empty());
        assert!(!findings.iter().any(|f| f.rule == "no-panics"));
        assert!(findings.iter().any(|f| f.rule == "unsafe-whitelist"));
    }

    #[test]
    fn json_escapes_special_characters() {
        let report = Report {
            findings: vec![Finding {
                rule: "no-panics",
                file: "a\"b.rs".to_string(),
                line: 3,
                message: "tab\there".to_string(),
            }],
            files_scanned: 1,
        };
        let json = report.to_json();
        assert!(json.contains("a\\\"b.rs"));
        assert!(json.contains("tab\\there"));
        assert!(json.contains("\"finding_count\": 1"));
    }
}
