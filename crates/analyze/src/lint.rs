//! `doct-lint`: token-accurate scanning for project-specific concurrency
//! hazards, with an interprocedural may-block pass.
//!
//! v2 (this file) replaces PR 4's line/token scanner with passes over the
//! [`crate::lexer`] token stream and the [`crate::callgraph`] may-block
//! facts. Eight rules, each deny-by-default (any un-waived finding fails
//! the run):
//!
//! | rule id               | finding |
//! |-----------------------|---------|
//! | `lock-across-blocking`| a `parking_lot` guard — including a `ShardedTable::lock_shard` stripe guard — is live at a blocking primitive (channel `send`/`recv`, `Condvar` wait, `call_remote`, `send_probe_wave`) **or at a call to any function that may transitively block**, per the workspace call graph |
//! | `unwrap-in-prod`      | `unwrap()` on a lock/recv result outside test code |
//! | `wall-clock-in-sim`   | `Instant::now()` / `SystemTime::now()` in a file that participates in `DOCT_SEED`-deterministic simulation |
//! | `missing-must-use`    | a receipt/ticket/delivery-status type without `#[must_use]` |
//! | `payload-clone-in-hot-path` | `.clone()` on a payload/envelope/transfer value inside the raise/deliver hot-path files (DESIGN.md §3g) |
//! | `stale-waiver`        | an allowlist entry or inline waiver that suppressed nothing in this run — the audited exception list must not rot |
//! | `dead-counter`        | a `kernel.*`/`net.*`/`delivery.*`/`lockdep.*` metric declared but never written (see [`crate::coverage`]) |
//! | `undocumented-counter`| a namespaced metric written in code but absent from DESIGN.md/EXPERIMENTS.md |
//!
//! Exceptions are explicit and audited: either an inline waiver comment
//! (`// doct-lint: allow(<rule>) <reason>`) on or directly above the
//! line, or an entry in the allowlist file (`.doct-lint-allow`), whose
//! format is `rule | path-fragment | line-fragment # justification` —
//! entries without a justification are themselves an error, and entries
//! or inline waivers that match nothing are `stale-waiver` findings
//! (which cannot themselves be waived).
//!
//! Guard liveness is lexer-accurate: named `let` bindings, statement
//! temporaries (`m.lock().field`), scrutinee temporaries of
//! `if let`/`while let`/`match` (live through the whole construct
//! including the `else` branch — the Rust 2021 temporary-lifetime
//! footgun PR 4 fixed by hand), explicit `drop(guard)`, and scope end.
//! String literals and comments can no longer fool any rule.

use crate::callgraph::{skip_balanced, CallGraph, CallKind, BLOCKING_METHODS};
use crate::lexer::{lex, Lexed, Token, TokenKind};
use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Rule identifiers (stable: used in waivers and the allowlist).
pub const RULE_LOCK_ACROSS_BLOCKING: &str = "lock-across-blocking";
pub const RULE_UNWRAP_IN_PROD: &str = "unwrap-in-prod";
pub const RULE_WALL_CLOCK_IN_SIM: &str = "wall-clock-in-sim";
pub const RULE_MISSING_MUST_USE: &str = "missing-must-use";
pub const RULE_PAYLOAD_CLONE_IN_HOT_PATH: &str = "payload-clone-in-hot-path";
pub const RULE_STALE_WAIVER: &str = "stale-waiver";
pub const RULE_DEAD_COUNTER: &str = "dead-counter";
pub const RULE_UNDOCUMENTED_COUNTER: &str = "undocumented-counter";

/// All rule ids, for waiver validation.
pub const ALL_RULES: &[&str] = &[
    RULE_LOCK_ACROSS_BLOCKING,
    RULE_UNWRAP_IN_PROD,
    RULE_WALL_CLOCK_IN_SIM,
    RULE_MISSING_MUST_USE,
    RULE_PAYLOAD_CLONE_IN_HOT_PATH,
    RULE_STALE_WAIVER,
    RULE_DEAD_COUNTER,
    RULE_UNDOCUMENTED_COUNTER,
];

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// One of the `RULE_*` ids.
    pub rule: &'static str,
    /// The offending source line, trimmed.
    pub text: String,
    /// What the rule objects to, in one clause.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} — {}",
            self.file.display(),
            self.line,
            self.rule,
            self.detail,
            self.text
        )
    }
}

struct AllowEntry {
    rule: String,
    path_frag: String,
    text_frag: String,
    /// 1-based line in the allowlist file, for stale-entry reporting.
    src_line: usize,
    raw: String,
}

/// Audited exceptions loaded from `.doct-lint-allow`.
#[derive(Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
    /// Where the list was loaded from (stale findings point here).
    pub path: PathBuf,
    /// Malformed entries (reported and counted as failures).
    pub errors: Vec<String>,
}

impl Allowlist {
    /// Parse the allowlist at `path`; a missing file is an empty list.
    pub fn load(path: &Path) -> Self {
        let mut list = match fs::read_to_string(path) {
            Ok(src) => Self::parse(&src),
            Err(_) => Self::default(),
        };
        list.path = path.to_path_buf();
        list
    }

    /// Parse allowlist text: one `rule | path-frag | text-frag # why`
    /// entry per line; `#`-leading lines and blanks are comments.
    pub fn parse(src: &str) -> Self {
        let mut list = Self::default();
        for (idx, raw) in src.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some(hash) = line.find(" #") else {
                list.errors.push(format!(
                    "allowlist line {}: missing `# justification`: {line}",
                    idx + 1
                ));
                continue;
            };
            let (entry, justification) = line.split_at(hash);
            if justification.trim_start_matches(['#', ' ']).is_empty() {
                list.errors.push(format!(
                    "allowlist line {}: empty justification: {line}",
                    idx + 1
                ));
                continue;
            }
            let parts: Vec<&str> = entry.split('|').map(str::trim).collect();
            if parts.len() != 3 || parts.iter().any(|p| p.is_empty()) {
                list.errors.push(format!(
                    "allowlist line {}: expected `rule | path | text  # why`: {line}",
                    idx + 1
                ));
                continue;
            }
            if !ALL_RULES.contains(&parts[0]) {
                list.errors.push(format!(
                    "allowlist line {}: unknown rule `{}`",
                    idx + 1,
                    parts[0]
                ));
                continue;
            }
            if parts[0] == RULE_STALE_WAIVER {
                list.errors.push(format!(
                    "allowlist line {}: `{RULE_STALE_WAIVER}` findings cannot be waived",
                    idx + 1
                ));
                continue;
            }
            list.entries.push(AllowEntry {
                rule: parts[0].to_string(),
                path_frag: parts[1].to_string(),
                text_frag: parts[2].to_string(),
                src_line: idx + 1,
                raw: entry.trim().to_string(),
            });
        }
        list
    }

    /// Index of the entry waiving `v`, if any.
    fn match_entry(&self, v: &Violation) -> Option<usize> {
        let path = v.file.to_string_lossy().replace('\\', "/");
        self.entries.iter().position(|e| {
            e.rule == v.rule && path.contains(&e.path_frag) && v.text.contains(&e.text_frag)
        })
    }

    /// Whether `v` matches an audited exception (test helper).
    pub fn permits(&self, v: &Violation) -> bool {
        self.match_entry(v).is_some()
    }
}

/// Collect the `.rs` files to lint under `root`. `target/`, VCS metadata,
/// and lint fixtures are skipped — unless `root` itself points into a
/// fixture tree (the self-tests do exactly that).
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let scanning_fixtures = root.to_string_lossy().contains("fixtures");
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                if name == "fixtures" && !scanning_fixtures {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Lock-acquiring method names. `try_lock` is exempt by design (it
/// cannot deadlock a blocking callee) and filtered at the call site.
const LOCK_METHODS: &[&str] = &["lock", "read", "write", "lock_shard", "upgradable_read"];

/// Seeds that count as blocking in any call form (they are kernel/net
/// fns, not channel methods).
const BLOCKING_ANY_FORM: &[&str] = &["call_remote", "send_probe_wave"];

/// Spawn-like callees whose closure argument runs on another thread: a
/// guard live at the *spawn* is not held across the closure's blocking.
const SPAWN_CALLEES: &[&str] = &["spawn", "spawn_named"];

/// Files on the raise/deliver hot path, where a payload/envelope clone
/// is a per-destination cost the zero-copy design pays in refcount
/// bumps — any *byte*-copying clone must be waived with a justification.
const HOT_PATH_FILES: &[&str] = &[
    "kernel/src/node.rs",
    "kernel/src/delivery.rs",
    "net/src/network.rs",
    "net/src/reliable.rs",
];

/// Receivers whose `.clone()` the hot-path rule flags.
const PAYLOAD_CLONE_RECEIVERS: &[&str] = &[
    "payload", "transfer", "envelope", "env", "probe", "batch", "event",
];

/// Methods that write a metric (vs merely reading it).
pub const METRIC_WRITE_METHODS: &[&str] = &[
    "inc",
    "add",
    "sub",
    "set",
    "record_ns",
    "record_duration",
    "record",
    "observe",
];

/// Whether receipt/ticket naming conventions make `name` a type whose
/// values must not be silently dropped.
fn must_use_type(name: &str) -> bool {
    name.ends_with("Ticket")
        || name.ends_with("Receipt")
        || name.starts_with("Delivery")
        || name == "MarkSeen"
}

/// One file, lexed and classified, ready for the passes.
pub struct FileLint {
    pub path: PathBuf,
    pub lines: Vec<String>,
    pub lexed: Lexed,
    /// Per-token: inside `#[cfg(test)]` / `#[test]` regions.
    pub test_flags: Vec<bool>,
    pub file_is_test: bool,
    pub deterministic_sim: bool,
    /// Net-crate clock discipline: every wall-clock read must go through
    /// `crate::clock::now()` — the one blessed site shared by the sim and
    /// UDP fabrics — so R3 also fires on direct `Instant::now()` in
    /// `net/src/` regardless of `DOCT_SEED` mentions.
    pub clock_discipline: bool,
    pub hot_path: bool,
}

impl FileLint {
    pub fn new(path: PathBuf, src: &str) -> Self {
        let lexed = lex(src);
        let test_flags = token_test_flags(&lexed.tokens);
        let path_str = path.to_string_lossy().replace('\\', "/");
        let file_is_test = path
            .components()
            .any(|c| c.as_os_str() == "tests" || c.as_os_str() == "benches");
        FileLint {
            lines: src.lines().map(str::to_string).collect(),
            deterministic_sim: src.contains("DOCT_SEED"),
            clock_discipline: path_str.contains("net/src/") && !path_str.ends_with("clock.rs"),
            hot_path: HOT_PATH_FILES.iter().any(|f| path_str.contains(f))
                || path_str.contains("fixtures"),
            path,
            lexed,
            test_flags,
            file_is_test,
        }
    }

    fn line_text(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// Token-level test flags for the call-graph builder.
    pub fn graph_input(&self) -> (PathBuf, &Lexed, &[bool]) {
        (self.path.clone(), &self.lexed, &self.test_flags)
    }
}

/// Per-token `#[cfg(test)]` / `#[cfg(all(test, …))]` / `#[test]` region
/// map: the attribute covers the next item (to its matching close brace,
/// or `;` for brace-less items).
fn token_test_flags(toks: &[Token]) -> Vec<bool> {
    let mut flags = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Find the attribute's closing `]`.
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < toks.len() {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            let attr = &toks[i + 2..j.min(toks.len())];
            if is_test_attr(attr) {
                // Mark from the attribute through the next item: first
                // `{`…matching `}`, or a `;` before any brace.
                let mut k = j + 1;
                let mut depth = 0i32;
                let mut entered = false;
                while k < toks.len() {
                    if toks[k].is_punct('{') {
                        depth += 1;
                        entered = true;
                    } else if toks[k].is_punct('}') {
                        depth -= 1;
                        if entered && depth <= 0 {
                            break;
                        }
                    } else if toks[k].is_punct(';') && !entered {
                        break;
                    }
                    k += 1;
                }
                for f in flags.iter_mut().take((k + 1).min(toks.len())).skip(i) {
                    *f = true;
                }
                i = k + 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    flags
}

/// `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]` — but not
/// `#[cfg(not(test))]`.
fn is_test_attr(attr: &[Token]) -> bool {
    let idents: Vec<&str> = attr
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    match idents.as_slice() {
        ["test"] => true,
        ["cfg", rest @ ..] => matches!(rest, ["test", ..] | ["all", "test", ..]),
        _ => false,
    }
}

/// An inline `// doct-lint: allow(rule) reason` waiver: covers the
/// comment's own line(s) and the next line.
#[derive(Debug)]
pub struct InlineWaiver {
    pub rule: String,
    /// 1-based line of the waiver comment (stale findings point here).
    pub comment_line: u32,
    /// Covered line range, inclusive.
    pub covers: (u32, u32),
}

/// Extract inline waivers from a file's comments. The marker must be
/// the comment's entire content (only comment punctuation before it),
/// so prose *describing* the waiver syntax is not itself a waiver.
pub fn inline_waivers(lexed: &Lexed) -> Vec<InlineWaiver> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let Some(pos) = c.text.find("doct-lint: allow(") else {
            continue;
        };
        if !c.text[..pos]
            .chars()
            .all(|ch| matches!(ch, '/' | '!' | '*' | ' ' | '\t'))
        {
            continue;
        }
        let rest = &c.text[pos + "doct-lint: allow(".len()..];
        let Some(end) = rest.find(')') else {
            continue;
        };
        let last_line = c.line + c.text.matches('\n').count() as u32;
        out.push(InlineWaiver {
            rule: rest[..end].trim().to_string(),
            comment_line: c.line,
            covers: (c.line, last_line + 1),
        });
    }
    out
}

/// A live lock guard during the scan.
struct Guard {
    /// `None` for scrutinee/destructuring temporaries.
    name: Option<String>,
    /// Brace depth the guard lives at; it dies when depth drops below.
    depth: i32,
    line: u32,
    /// Scrutinee temporaries survive into an `else` branch (Rust 2021
    /// temporary lifetime).
    from_scrutinee: bool,
}

/// Run the per-file rules. `graph` enables the transitive may-block
/// check; pass `None` for primitive-only analysis.
pub fn scan_file(fl: &FileLint, graph: Option<&CallGraph>) -> Vec<Violation> {
    let toks = &fl.lexed.tokens;
    let mut out: Vec<Violation> = Vec::new();
    let mut depth = 0i32;
    let mut guards: Vec<Guard> = Vec::new();
    // Statement-temporary guard (chained `m.lock().x` or argument
    // position): line it appeared on.
    let mut stmt_temp: Option<u32> = None;
    // Blocking call earlier in the current statement with no guard live
    // yet — a lock temporary appearing later in the same statement
    // (`tx.send(q.lock().next())`) makes it a hold-across-block.
    let mut stmt_block: Option<(u32, String)> = None;
    // Pending scrutinee: (token index of the construct's `{`, line of
    // the lock call).
    let mut pending_scrutinee: Option<(usize, u32)> = None;
    // Tokens before this index are inside a scrutinee (lock calls there
    // belong to the scrutinee handler, not the let-binding handler).
    let mut scrut_end = 0usize;
    // Tokens before this index are inside a spawn-closure argument: no
    // blocking checks (the closure runs on another thread).
    let mut no_block_until = 0usize;
    // One lock-across-blocking finding per line keeps reports readable.
    let mut flagged_lines: HashSet<u32> = HashSet::new();

    let push = |rule: &'static str, line: u32, detail: String, out: &mut Vec<Violation>| {
        out.push(Violation {
            file: fl.path.clone(),
            line: line as usize,
            rule,
            text: fl.line_text(line),
            detail,
        });
    };

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        let exempt = fl.file_is_test || fl.test_flags.get(i).copied().unwrap_or(false);

        if t.is_punct('{') {
            depth += 1;
            stmt_temp = None;
            stmt_block = None;
            if let Some((brace, line)) = pending_scrutinee {
                if brace == i {
                    guards.push(Guard {
                        name: None,
                        depth,
                        line,
                        from_scrutinee: true,
                    });
                    pending_scrutinee = None;
                }
            }
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            depth -= 1;
            stmt_temp = None;
            stmt_block = None;
            let next_is_else = toks.get(i + 1).is_some_and(|n| n.is_ident("else"));
            guards.retain(|g| g.depth <= depth || (next_is_else && g.from_scrutinee));
            i += 1;
            continue;
        }
        if t.is_punct(';') {
            stmt_temp = None;
            stmt_block = None;
            i += 1;
            continue;
        }
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let name = t.text.as_str();
        let next_is_paren = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        let prev = i.checked_sub(1).and_then(|p| toks.get(p));
        let is_method = prev.is_some_and(|p| p.is_punct('.'));
        let is_qualified = prev.is_some_and(|p| p.is_punct(':'));

        // Scrutinee constructs: `if let` / `while let` / `match` with a
        // lock call in the scrutinee pin the guard for the whole block
        // (and any `else` branch).
        let is_construct = (t.is_ident("if") || t.is_ident("while"))
            && toks.get(i + 1).is_some_and(|n| n.is_ident("let"))
            || t.is_ident("match");
        if is_construct && !exempt {
            // Find the construct's `{` at bracket depth 0.
            let mut pd = 0i32;
            let mut j = i + 1;
            let mut lock_line = None;
            while j < toks.len() {
                let u = &toks[j];
                if u.is_punct('(') || u.is_punct('[') {
                    pd += 1;
                } else if u.is_punct(')') || u.is_punct(']') {
                    pd -= 1;
                } else if pd == 0 && u.is_punct('{') {
                    break;
                } else if pd == 0 && u.is_punct(';') {
                    j = usize::MAX; // `match x;` cannot happen; bail
                    break;
                }
                if u.kind == TokenKind::Ident
                    && LOCK_METHODS.contains(&u.text.as_str())
                    && j > 0
                    && toks[j - 1].is_punct('.')
                    && toks.get(j + 1).is_some_and(|n| n.is_punct('('))
                {
                    lock_line = Some(u.line);
                }
                j += 1;
            }
            if j != usize::MAX && j < toks.len() {
                scrut_end = j;
                if let Some(line) = lock_line {
                    pending_scrutinee = Some((j, line));
                }
            }
            i += 1;
            continue;
        }

        // R2: unwrap on lock/recv results.
        if !exempt && name == "unwrap" && is_method && next_is_paren && unwrap_on_sync(toks, i) {
            push(
                RULE_UNWRAP_IN_PROD,
                t.line,
                "unwrap() on a lock/recv result in production code".into(),
                &mut out,
            );
        }

        // R3: wall clock in DOCT_SEED-deterministic files (applies to
        // tests too: determinism is the point there) and anywhere in the
        // net crate outside clock.rs (both fabrics must share one
        // monotonic clock source).
        if (fl.deterministic_sim || fl.clock_discipline)
            && name == "now"
            && next_is_paren
            && is_qualified
            && i >= 3
            && (toks[i - 3].is_ident("Instant") || toks[i - 3].is_ident("SystemTime"))
        {
            push(
                RULE_WALL_CLOCK_IN_SIM,
                t.line,
                "wall-clock read in a DOCT_SEED-deterministic path".into(),
                &mut out,
            );
        }

        // R4: receipt/ticket type definitions need #[must_use].
        if (name == "struct" || name == "enum") && prev.is_some_and(|p| p.is_ident("pub")) {
            if let Some(ty) = toks.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                if must_use_type(&ty.text) && !has_must_use_attr(toks, i - 1) {
                    push(
                        RULE_MISSING_MUST_USE,
                        ty.line,
                        format!("receipt/ticket type `{}` lacks #[must_use]", ty.text),
                        &mut out,
                    );
                }
            }
        }

        // R5: payload/envelope clones on the raise/deliver hot path.
        if !exempt
            && fl.hot_path
            && name == "clone"
            && is_method
            && next_is_paren
            && i >= 2
            && toks[i - 2].kind == TokenKind::Ident
            && PAYLOAD_CLONE_RECEIVERS.contains(&toks[i - 2].text.as_str())
        {
            push(
                RULE_PAYLOAD_CLONE_IN_HOT_PATH,
                t.line,
                format!(
                    "`{}.clone(` on the raise/deliver hot path — share a Bytes \
                     buffer or pool the chunk (DESIGN.md §3g)",
                    toks[i - 2].text
                ),
                &mut out,
            );
        }

        // Spawn closures: suppress blocking checks inside the argument
        // list (runs on another thread), but keep walking the tokens so
        // depth/guard tracking stays correct.
        if SPAWN_CALLEES.contains(&name) && next_is_paren {
            no_block_until = no_block_until.max(skip_balanced(toks, i + 1, toks.len()));
        }

        // drop(guard) retires it early.
        if name == "drop" && next_is_paren {
            if let Some(arg) = toks.get(i + 2).filter(|a| a.kind == TokenKind::Ident) {
                if toks.get(i + 3).is_some_and(|c| c.is_punct(')')) {
                    let arg = arg.text.clone();
                    guards.retain(|g| g.name.as_deref() != Some(arg.as_str()));
                }
            }
            i += 1;
            continue;
        }

        // R1, part 1: blocking call while a guard is live. `fn name(`
        // is a definition, not a call.
        let is_fn_def = prev.is_some_and(|p| p.is_ident("fn"));
        if !exempt && next_is_paren && i >= no_block_until && !is_fn_def {
            let blocking_primitive = (is_method && BLOCKING_METHODS.contains(&name))
                || BLOCKING_ANY_FORM.contains(&name);
            let kind = if is_method {
                CallKind::Method
            } else if is_qualified {
                CallKind::Qualified
            } else {
                CallKind::Free
            };
            let transitive = if blocking_primitive {
                None
            } else {
                graph.and_then(|g| {
                    g.call_may_block(name, kind)
                        .filter(|_| !LOCK_METHODS.contains(&name))
                        .map(|idx| g.chain(idx))
                })
            };
            if blocking_primitive || transitive.is_some() {
                // A Condvar wait *releases* the guard it is handed
                // (`cond.wait(&mut g)` unlocks g while blocked): guards
                // named in the argument list don't count as held, and
                // any lock temporary in the statement is the released
                // argument itself.
                let is_condvar_wait = blocking_primitive && is_method && name.starts_with("wait");
                let released: HashSet<String> = if is_condvar_wait {
                    let end = skip_balanced(toks, i + 1, toks.len());
                    toks[i + 2..end.saturating_sub(1).max(i + 2)]
                        .iter()
                        .filter(|a| a.kind == TokenKind::Ident)
                        .map(|a| a.text.clone())
                        .collect()
                } else {
                    HashSet::new()
                };
                let live = guards
                    .iter()
                    .rev()
                    .find(|g| {
                        g.name
                            .as_ref()
                            .is_none_or(|n| !released.contains(n.as_str()))
                    })
                    .map(|g| {
                        (
                            g.name
                                .as_ref()
                                .map(|n| format!(" `{n}`"))
                                .unwrap_or_default(),
                            g.line,
                        )
                    });
                let subject = match &transitive {
                    None => format!("blocking `{name}(`"),
                    Some(chain) => format!("call to may-block `{name}(` [{chain}]"),
                };
                if let Some((gname, gline)) = live {
                    if flagged_lines.insert(t.line) {
                        push(
                            RULE_LOCK_ACROSS_BLOCKING,
                            t.line,
                            format!("{subject} while guard{gname} from line {gline} is live"),
                            &mut out,
                        );
                    }
                } else if let Some(tline) = stmt_temp {
                    if !is_condvar_wait && flagged_lines.insert(t.line) {
                        push(
                            RULE_LOCK_ACROSS_BLOCKING,
                            t.line,
                            format!("{subject} and lock guard in one statement (line {tline})"),
                            &mut out,
                        );
                    }
                } else if !is_condvar_wait {
                    stmt_block = Some((t.line, subject));
                }
            }
        }

        // R1, part 2: lock-call classification → guard tracking.
        if !exempt && is_method && next_is_paren && LOCK_METHODS.contains(&name) && i >= scrut_end {
            let mut c = skip_balanced(toks, i + 1, toks.len());
            // `.lock().unwrap()` / `.expect("…")` still yield the guard.
            loop {
                if toks.get(c).is_some_and(|d| d.is_punct('.'))
                    && toks
                        .get(c + 1)
                        .is_some_and(|u| u.is_ident("unwrap") || u.is_ident("expect"))
                    && toks.get(c + 2).is_some_and(|p| p.is_punct('('))
                {
                    c = skip_balanced(toks, c + 2, toks.len());
                } else {
                    break;
                }
            }
            match toks.get(c) {
                Some(after)
                    if after.is_punct('.') || after.is_punct(',') || after.is_punct(')') =>
                {
                    stmt_temp = Some(t.line);
                    // A blocking call earlier in this same statement
                    // now shares it with a lock temporary.
                    if let Some((bline, subject)) = stmt_block.take() {
                        if flagged_lines.insert(bline) {
                            push(
                                RULE_LOCK_ACROSS_BLOCKING,
                                bline,
                                format!(
                                    "{subject} and lock guard in one statement (line {})",
                                    t.line
                                ),
                                &mut out,
                            );
                        }
                    }
                }
                Some(after) if after.is_punct(';') => match let_binding_target(toks, i) {
                    BindTarget::Named(bind) => guards.push(Guard {
                        name: Some(bind),
                        depth,
                        line: t.line,
                        from_scrutinee: false,
                    }),
                    BindTarget::Destructured => guards.push(Guard {
                        name: None,
                        depth,
                        line: t.line,
                        from_scrutinee: false,
                    }),
                    BindTarget::None => {}
                },
                _ => {}
            }
        }

        i += 1;
    }
    out
}

/// What a guard-yielding statement binds it to.
enum BindTarget {
    Named(String),
    Destructured,
    None,
}

/// Scan back from the lock-call token to the statement start and
/// classify `let` bindings. `let x = *m.lock();` copies the value out,
/// so it is no guard.
fn let_binding_target(toks: &[Token], lock_idx: usize) -> BindTarget {
    let mut b = lock_idx;
    while b > 0 {
        let t = &toks[b - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        b -= 1;
    }
    if !toks.get(b).is_some_and(|t| t.is_ident("let")) {
        return BindTarget::None;
    }
    let mut n = b + 1;
    if toks.get(n).is_some_and(|t| t.is_ident("mut")) {
        n += 1;
    }
    match toks.get(n) {
        Some(t) if t.kind == TokenKind::Ident => {
            // Reject `let x = *m.lock();` — find the `=` and check for a
            // leading deref.
            let mut e = n + 1;
            let mut angle = 0i32;
            while e < lock_idx {
                let u = &toks[e];
                if u.is_punct('<') {
                    angle += 1;
                } else if u.is_punct('>') {
                    angle -= 1;
                } else if angle <= 0 && u.is_punct('=') {
                    if toks.get(e + 1).is_some_and(|d| d.is_punct('*')) {
                        return BindTarget::None;
                    }
                    break;
                }
                e += 1;
            }
            BindTarget::Named(t.text.clone())
        }
        Some(t) if t.is_punct('(') => BindTarget::Destructured,
        _ => BindTarget::None,
    }
}

/// Whether the `.unwrap()` at `idx` sits on a lock/recv receiver chain
/// (look back to the statement start for the acquiring call).
fn unwrap_on_sync(toks: &[Token], idx: usize) -> bool {
    const SYNC_CALLS: &[&str] = &["lock", "try_lock", "recv", "try_recv", "recv_timeout"];
    let mut b = idx;
    let mut steps = 0;
    while b > 0 && steps < 24 {
        let t = &toks[b - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        if t.kind == TokenKind::Ident
            && SYNC_CALLS.contains(&t.text.as_str())
            && toks.get(b).is_some_and(|n| n.is_punct('('))
        {
            return true;
        }
        b -= 1;
        steps += 1;
    }
    false
}

/// Whether the item whose first token (e.g. `pub`) is at `item_start`
/// carries a `#[must_use]` attribute: walk back over attribute groups.
fn has_must_use_attr(toks: &[Token], item_start: usize) -> bool {
    let mut j = item_start;
    while j > 0 && toks[j - 1].is_punct(']') {
        // Reverse-balanced walk to the opening `[`.
        let mut depth = 0i32;
        let mut k = j - 1;
        loop {
            if toks[k].is_punct(']') {
                depth += 1;
            } else if toks[k].is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if k == 0 {
                return false;
            }
            k -= 1;
        }
        if toks[k..j].iter().any(|t| t.is_ident("must_use")) {
            return true;
        }
        // Move past the `#`.
        j = if k > 0 && toks[k - 1].is_punct('#') {
            k - 1
        } else {
            k
        };
    }
    false
}

/// Result of a workspace lint run.
pub struct Report {
    /// Surviving violations (stale-waiver findings included).
    pub violations: Vec<Violation>,
    /// Findings suppressed by inline waivers or the allowlist.
    pub waived: usize,
    /// Files scanned.
    pub files: usize,
    /// Allowlist parse errors.
    pub errors: Vec<String>,
}

/// Lint the workspace rooted at `root` with `allow`: lex everything,
/// build the call graph, run the per-file rules and the telemetry
/// coverage pass, apply waivers (tracking use), and surface stale
/// waivers as findings.
pub fn lint_workspace(root: &Path, allow: &Allowlist) -> Report {
    let paths = workspace_files(root);
    let mut files = Vec::new();
    for p in &paths {
        let Ok(src) = fs::read_to_string(p) else {
            continue;
        };
        files.push(FileLint::new(p.clone(), &src));
    }
    let graph_input: Vec<_> = files
        .iter()
        .map(|f| (f.path.clone(), lex_clone(&f.lexed), f.test_flags.clone()))
        .collect();
    let graph = CallGraph::build(&graph_input);

    let mut raw: Vec<Violation> = Vec::new();
    for fl in &files {
        raw.extend(scan_file(fl, Some(&graph)));
    }
    raw.extend(crate::coverage::telemetry_coverage(&files, root));

    // Inline waivers (per file), tracking use.
    let mut kept = Vec::new();
    let mut waived = 0usize;
    let mut stale: Vec<Violation> = Vec::new();
    let mut used_entries: HashSet<usize> = HashSet::new();
    for fl in &files {
        let wv = inline_waivers(&fl.lexed);
        let mut used = vec![false; wv.len()];
        let mine = raw.iter().filter(|v| v.file == fl.path);
        for v in mine {
            let inline = wv.iter().position(|w| {
                w.rule == v.rule
                    && (w.covers.0 as usize) <= v.line
                    && v.line <= (w.covers.1 as usize)
            });
            if let Some(wi) = inline {
                used[wi] = true;
                waived += 1;
                continue;
            }
            if let Some(ei) = allow.match_entry(v) {
                used_entries.insert(ei);
                waived += 1;
                continue;
            }
            kept.push(v.clone());
        }
        for (wi, w) in wv.iter().enumerate() {
            if !used[wi] && w.rule != RULE_STALE_WAIVER {
                stale.push(Violation {
                    file: fl.path.clone(),
                    line: w.comment_line as usize,
                    rule: RULE_STALE_WAIVER,
                    text: fl.line_text(w.comment_line),
                    detail: format!(
                        "inline waiver for `{}` suppressed nothing in this run",
                        w.rule
                    ),
                });
            }
        }
    }
    for (ei, e) in allow.entries.iter().enumerate() {
        if !used_entries.contains(&ei) {
            stale.push(Violation {
                file: allow.path.clone(),
                line: e.src_line,
                rule: RULE_STALE_WAIVER,
                text: e.raw.clone(),
                detail: format!(
                    "allowlist entry for `{}` matched no finding in the current tree",
                    e.rule
                ),
            });
        }
    }
    kept.extend(stale);
    kept.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Report {
        violations: kept,
        waived,
        files: files.len(),
        errors: allow.errors.clone(),
    }
}

/// The call-graph builder takes owned `Lexed`; clone the token/comment
/// vectors (cheap relative to lexing).
fn lex_clone(l: &Lexed) -> Lexed {
    Lexed {
        tokens: l.tokens.clone(),
        comments: l.comments.clone(),
    }
}

/// Lint one source text with a single-file call graph — the unit-test
/// and fixture entry point. Inline waivers apply; staleness is not
/// reported here (that is a workspace-level concern).
pub fn lint_file(path: &Path, src: &str) -> Vec<Violation> {
    let fl = FileLint::new(path.to_path_buf(), src);
    let graph_input = vec![(fl.path.clone(), lex_clone(&fl.lexed), fl.test_flags.clone())];
    let graph = CallGraph::build(&graph_input);
    let raw = scan_file(&fl, Some(&graph));
    let wv = inline_waivers(&fl.lexed);
    raw.into_iter()
        .filter(|v| {
            !wv.iter().any(|w| {
                w.rule == v.rule
                    && (w.covers.0 as usize) <= v.line
                    && v.line <= (w.covers.1 as usize)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(name: &str) -> (PathBuf, String) {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(name);
        let src = fs::read_to_string(&path).expect("fixture readable");
        (path, src)
    }

    #[test]
    fn clean_fixture_passes() {
        let (path, src) = fixture("clean.rs");
        let out = lint_file(&path, &src);
        assert!(out.is_empty(), "clean fixture flagged: {out:#?}");
    }

    #[test]
    fn each_per_file_rule_fires_on_its_seeded_violation() {
        let (path, src) = fixture("violations.rs");
        let out = lint_file(&path, &src);
        for rule in [
            RULE_LOCK_ACROSS_BLOCKING,
            RULE_UNWRAP_IN_PROD,
            RULE_WALL_CLOCK_IN_SIM,
            RULE_MISSING_MUST_USE,
            RULE_PAYLOAD_CLONE_IN_HOT_PATH,
        ] {
            assert!(
                out.iter().any(|v| v.rule == rule),
                "rule {rule} found nothing in the seeded fixture; got {out:#?}"
            );
        }
    }

    fn fixture_report(dir: &str) -> Report {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(dir);
        let allow = Allowlist::load(&root.join(".doct-lint-allow"));
        lint_workspace(&root, &allow)
    }

    #[test]
    fn transitive_fixture_must_fail() {
        let r = fixture_report("transitive");
        let hits: Vec<_> = r
            .violations
            .iter()
            .filter(|v| v.rule == RULE_LOCK_ACROSS_BLOCKING)
            .collect();
        assert_eq!(hits.len(), 1, "exactly the guarded call fires: {hits:#?}");
        assert!(
            hits[0].detail.contains("notify_peer") && hits[0].detail.contains("wire_send"),
            "chain walks two calls down to .send(: {}",
            hits[0].detail
        );
    }

    #[test]
    fn dead_counter_fixture_must_fail() {
        let r = fixture_report("dead_counter");
        // Both shapes: a private handle field, and the `NetStats` idiom
        // (public field bound by name, read via `.get()` and a snapshot
        // table row, never written at any call site).
        for orphan in ["kernel.fixture_orphan", "net.fixture_field_orphan"] {
            assert!(
                r.violations
                    .iter()
                    .any(|v| v.rule == RULE_DEAD_COUNTER && v.detail.contains(orphan)),
                "{orphan} not reported dead: {:#?}",
                r.violations
            );
        }
        assert!(
            r.violations
                .iter()
                .any(|v| v.rule == RULE_UNDOCUMENTED_COUNTER),
            "{:#?}",
            r.violations
        );
    }

    #[test]
    fn stale_waiver_fixture_must_fail() {
        let r = fixture_report("stale");
        let stale: Vec<_> = r
            .violations
            .iter()
            .filter(|v| v.rule == RULE_STALE_WAIVER)
            .collect();
        assert_eq!(
            stale.len(),
            2,
            "one stale allowlist entry + one stale inline waiver: {stale:#?}"
        );
    }

    #[test]
    fn guard_binding_liveness_spans_lines() {
        let src = "fn f() {\n    let g = m.lock();\n    tx.send(1);\n}\n";
        let out = lint_file(Path::new("x.rs"), src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, RULE_LOCK_ACROSS_BLOCKING);
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn guard_dropped_before_send_is_clean() {
        let src = "fn f() {\n    let g = m.lock();\n    drop(g);\n    tx.send(1);\n}\n";
        let out = lint_file(Path::new("x.rs"), src);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn scoped_guard_dies_at_block_end() {
        let src = "fn f() {\n    {\n        let g = m.lock();\n    }\n    tx.send(1);\n}\n";
        let out = lint_file(Path::new("x.rs"), src);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn if_let_scrutinee_guard_is_live_in_block() {
        let src =
            "fn f() {\n    if let Some(tx) = self.tx.lock().as_ref() {\n        tx.send(1);\n    }\n}\n";
        let out = lint_file(Path::new("x.rs"), src);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, RULE_LOCK_ACROSS_BLOCKING);
    }

    #[test]
    fn if_let_scrutinee_guard_survives_into_else() {
        // Rust 2021: the scrutinee temporary lives to the end of the
        // whole if/else statement — blocking in the else branch is a
        // real hold-across-block.
        let src = "fn f() {\n    if let Some(v) = self.tx.lock().as_ref() {\n        use_it(v);\n    } else {\n        tx.send(1);\n    }\n}\n";
        let out = lint_file(Path::new("x.rs"), src);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, RULE_LOCK_ACROSS_BLOCKING);
        assert_eq!(out[0].line, 5);
    }

    #[test]
    fn let_guard_does_not_leak_into_else() {
        let src = "fn f() {\n    if cond {\n        let g = m.lock();\n    } else {\n        tx.send(1);\n    }\n}\n";
        let out = lint_file(Path::new("x.rs"), src);
        assert!(out.is_empty(), "a let guard dies at its block: {out:#?}");
    }

    #[test]
    fn shard_guard_across_send_is_flagged() {
        let src =
            "fn f() {\n    let mut shard = self.deliveries.lock_shard(idx);\n    tx.send(1);\n}\n";
        let out = lint_file(Path::new("x.rs"), src);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, RULE_LOCK_ACROSS_BLOCKING);
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn shard_guard_dropped_before_send_is_clean() {
        let src = "fn f() {\n    let mut shard = self.deliveries.lock_shard(idx);\n    drop(shard);\n    tx.send(1);\n}\n";
        let out = lint_file(Path::new("x.rs"), src);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn chained_shard_access_is_a_statement_temporary_not_a_guard() {
        let src =
            "fn f() {\n    let n = self.deliveries.lock_shard(idx).entries.len();\n    tx.send(1);\n}\n";
        let out = lint_file(Path::new("x.rs"), src);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn chained_temporary_with_blocking_in_same_statement_is_flagged() {
        let src = "fn f() {\n    tx.send(self.q.lock().next());\n}\n";
        let out = lint_file(Path::new("x.rs"), src);
        // The lock temporary and the send share a statement; order of
        // evaluation makes this a hold-across-block.
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, RULE_LOCK_ACROSS_BLOCKING);
    }

    #[test]
    fn cloned_value_out_of_lock_is_not_a_guard() {
        let src = "fn f() {\n    let tx = self.tx.lock().clone();\n    tx.send(1);\n}\n";
        let out = lint_file(Path::new("x.rs"), src);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn deref_copy_out_of_lock_is_not_a_guard() {
        let src = "fn f() {\n    let v = *self.count.lock();\n    tx.send(v);\n}\n";
        let out = lint_file(Path::new("x.rs"), src);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn transitive_wrapped_send_is_flagged_under_guard() {
        let src = "
fn wire(tx: &Sender<u32>) { tx.send(1); }
fn helper(tx: &Sender<u32>) { wire(tx); }
fn caller(m: &Mutex<u32>, tx: &Sender<u32>) {
    let g = m.lock();
    helper(tx);
}
";
        let out = lint_file(Path::new("x.rs"), src);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, RULE_LOCK_ACROSS_BLOCKING);
        assert!(
            out[0].detail.contains("may-block") && out[0].detail.contains("wire"),
            "chain names the path to the primitive: {}",
            out[0].detail
        );
    }

    #[test]
    fn transitive_call_without_guard_is_clean() {
        let src = "
fn wire(tx: &Sender<u32>) { tx.send(1); }
fn caller(tx: &Sender<u32>) { wire(tx); }
";
        let out = lint_file(Path::new("x.rs"), src);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn guard_released_before_transitive_call_is_clean() {
        let src = "
fn wire(tx: &Sender<u32>) { tx.send(1); }
fn caller(m: &Mutex<u32>, tx: &Sender<u32>) {
    let v = {
        let g = m.lock();
        *g
    };
    wire(tx);
}
";
        let out = lint_file(Path::new("x.rs"), src);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn string_literals_cannot_fool_the_rules() {
        let src = "fn f() {\n    let g = m.lock();\n    let s = \"tx.send(1) inside a string\";\n    log(s);\n}\n";
        let out = lint_file(Path::new("x.rs"), src);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn spawned_closure_blocking_is_not_held_across() {
        let src = "fn f(m: &Mutex<u32>) {\n    let g = m.lock();\n    thread::spawn(move || {\n        rx.recv();\n    });\n}\n";
        let out = lint_file(Path::new("x.rs"), src);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn cfg_test_region_is_exempt_from_prod_rules() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() {\n        let v = m.lock().unwrap();\n    }\n}\n";
        let out = lint_file(Path::new("x.rs"), src);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn cfg_not_test_is_production_code() {
        let src = "#[cfg(not(test))]\nfn f() {\n    let v = m.lock().unwrap();\n}\n";
        let out = lint_file(Path::new("x.rs"), src);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, RULE_UNWRAP_IN_PROD);
    }

    #[test]
    fn inline_waiver_suppresses_next_line() {
        let src = "fn f() {\n    // doct-lint: allow(unwrap-in-prod) audited\n    let v = m.lock().unwrap();\n}\n";
        let out = lint_file(Path::new("x.rs"), src);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn allowlist_requires_justification() {
        let list = Allowlist::parse("unwrap-in-prod | node.rs | lock().unwrap()\n");
        assert_eq!(list.errors.len(), 1, "no `# why` must be rejected");
        let ok = Allowlist::parse(
            "unwrap-in-prod | node.rs | lock().unwrap()  # audited: startup only\n",
        );
        assert!(ok.errors.is_empty());
        let v = Violation {
            file: PathBuf::from("crates/kernel/src/node.rs"),
            line: 1,
            rule: RULE_UNWRAP_IN_PROD,
            text: "let g = m.lock().unwrap();".into(),
            detail: String::new(),
        };
        assert!(ok.permits(&v));
    }

    #[test]
    fn allowlist_rejects_unknown_rules_and_stale_waiver_entries() {
        let list = Allowlist::parse("no-such-rule | x | y  # why\n");
        assert_eq!(list.errors.len(), 1);
        let list = Allowlist::parse("stale-waiver | x | y  # trying to waive the waiver check\n");
        assert_eq!(list.errors.len(), 1, "stale-waiver must not be waivable");
    }

    #[test]
    fn must_use_attribute_is_recognized() {
        let src = "#[must_use = \"receipts resolve asynchronously\"]\n#[derive(Debug)]\npub struct RaiseTicket {\n}\n";
        let out = lint_file(Path::new("x.rs"), src);
        assert!(out.is_empty(), "{out:#?}");
        let bad = "pub struct RaiseTicket {\n}\n";
        let out = lint_file(Path::new("x.rs"), bad);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, RULE_MISSING_MUST_USE);
    }

    #[test]
    fn payload_clone_flagged_only_in_hot_path_files() {
        let src = "fn f(payload: &Value) -> Value {\n    payload.clone()\n}\n";
        assert!(
            lint_file(Path::new("crates/kernel/src/ctx.rs"), src).is_empty(),
            "off the hot path the clone is fine"
        );
        for hot in ["crates/net/src/network.rs", "crates/kernel/src/delivery.rs"] {
            let out = lint_file(Path::new(hot), src);
            assert_eq!(out.len(), 1, "{hot}: {out:#?}");
            assert_eq!(out[0].rule, RULE_PAYLOAD_CLONE_IN_HOT_PATH);
            assert_eq!(out[0].line, 2);
        }
    }

    #[test]
    fn payload_clone_waiver_and_test_exemptions_apply() {
        let waived = "fn f() {\n    // doct-lint: allow(payload-clone-in-hot-path) refcount bump\n    let p = payload.clone();\n}\n";
        assert!(lint_file(Path::new("crates/kernel/src/node.rs"), waived).is_empty());
        let in_tests = "fn f() {\n    let p = payload.clone();\n}\n";
        assert!(lint_file(Path::new("crates/net/tests/network.rs"), in_tests).is_empty());
        let cfg_test =
            "#[cfg(test)]\nmod tests {\n    fn f() {\n        let p = payload.clone();\n    }\n}\n";
        assert!(lint_file(Path::new("crates/net/src/reliable.rs"), cfg_test).is_empty());
    }

    #[test]
    fn wall_clock_only_flagged_in_seeded_files() {
        let free = "fn f() { let t = Instant::now(); }\n";
        assert!(lint_file(Path::new("x.rs"), free).is_empty());
        let seeded = "// DOCT_SEED drives this\nfn f() { let t = Instant::now(); }\n";
        let out = lint_file(Path::new("x.rs"), seeded);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, RULE_WALL_CLOCK_IN_SIM);
    }

    #[test]
    fn wall_clock_flagged_anywhere_in_net_crate_except_clock_rs() {
        let src = "fn f() { let t = Instant::now(); }\n";
        let out = lint_file(Path::new("crates/net/src/udp.rs"), src);
        assert_eq!(out.len(), 1, "net crate holds the clock discipline");
        assert_eq!(out[0].rule, RULE_WALL_CLOCK_IN_SIM);
        assert!(
            lint_file(Path::new("crates/net/src/clock.rs"), src).is_empty(),
            "clock.rs is the one blessed wall-clock site"
        );
        assert!(
            lint_file(Path::new("crates/kernel/src/node.rs"), src).is_empty(),
            "discipline is scoped to net/src/"
        );
    }

    #[test]
    fn wall_clock_pattern_in_string_is_not_flagged() {
        let seeded = "fn f() { let p = \"DOCT_SEED Instant::now()\"; }\n";
        assert!(
            lint_file(Path::new("x.rs"), seeded).is_empty(),
            "string content is data, not a clock read"
        );
    }
}
