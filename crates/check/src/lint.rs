//! Hot-path source lints.
//!
//! A token-level pass (no syn, no rustc) over the workspace sources that
//! rejects panic-prone constructs in the numeric hot paths and the serve
//! request path:
//!
//! * **no-unwrap / no-expect / no-panic** — no `unwrap()`, `expect()`,
//!   `panic!`/`unreachable!`/`todo!`/`unimplemented!` inside hot-path
//!   functions. `assert!`/`debug_assert!` are allowed (contracts, not
//!   control flow), and `unwrap_or`/`unwrap_or_else` are distinct
//!   identifiers and never match.
//! * **no-index** — no `expr[...]` slice indexing in hot-path functions;
//!   prefer iterators, `get`, or pre-validated offsets. Slice *types*
//!   (`&[f32]`), attributes (`#[...]`), `vec![...]`, and slice patterns
//!   (`let [a, b] = ..`) do not match.
//! * **no-lossy-cast** — in `bikecap-tensor` kernels, no `as` casts to
//!   narrower numeric types (`usize as f32` silently loses precision past
//!   2^24); widening/`usize` casts are fine.
//! * **backpressure-doc** — every `pub fn` in `serve/src/batcher.rs` (the
//!   bounded-queue module) must document its backpressure behaviour in its
//!   doc comment (what happens when the queue is full / draining / shut
//!   down).
//! * **atomic-checkpoint-write** — no direct `File::create` in the
//!   checkpoint-owning crates (`bikecap-nn`, `bikecap-core`); a kill
//!   mid-write would leave a torn file at the destination. Go through
//!   `serialize::atomic_write` (temp sibling + fsync + rename), whose own
//!   `File::create` on the temp path is the audited allowlist exception.
//! * **no-println** — no `println!`/`eprintln!` anywhere in library crates
//!   (tensor, nn, core, serve, obs, rt) outside test code. Libraries report
//!   through return values, metrics, or the obs event stream; stray prints
//!   corrupt structured output (JSONL traces, Prometheus scrapes) and are
//!   invisible to operators. CLI binaries and benches are not linted.
//! * **no-alloc-in-hot-path** — no allocating constructs (`Vec::new(`,
//!   `Box::new(`, `vec![`, `format!`, `.to_vec(`, `.to_owned(`, `.clone(`,
//!   `.collect(`) in the `bikecap-ir` schedule-execution functions
//!   (`execute` / `run_step` / `fetch`). The compiled executor's contract is
//!   that steady-state prediction performs **zero** heap allocations (pinned
//!   by tests/ir_zero_alloc.rs); every buffer must come from the plan's
//!   arena. Plan *construction* (`ModelPlan::compile`, `Arena::for_plan`)
//!   allocates freely — only the per-step execution path is covered.
//! * **no-raw-spawn** — no `thread::spawn` outside `bikecap-rt` (the pool
//!   owns compute threads) and `bikecap-serve` (the batch workers own their
//!   lifecycle). An ad-hoc thread escapes the `--threads` budget, the
//!   pool's panic containment, and the rt.* observability spans; fan work
//!   out through `bikecap_rt::parallel_for` / `for_each_chunk` instead.
//! * **no-global-sink-install** — no `obs::install(` /
//!   `bikecap_obs::install(` call outside `bikecap-obs` itself. The obs sink
//!   is one process-global slot owned by the process (the CLI's `--trace`,
//!   a test's capture ring); a library that installs its own silently
//!   replaces that sink and turns recording on for every thread. Return the
//!   values the caller needs instead (e.g. `BikeCap::predict_with_telemetry`).
//!
//! Three further rules need scope structure the flat token walk cannot
//! express (fn/impl nesting, doc attachment, guard lifetimes); they run on
//! the item scanner in [`crate::scope`]:
//!
//! * **unsafe-contract** — every `unsafe { .. }` block in the tensor/ir/rt
//!   crates must sit inside a fn whose doc comment has a `# Safety`
//!   section stating the invariant the block relies on. (`unsafe fn` /
//!   `unsafe impl` declarations are not blocks and are not matched.)
//! * **lock-order** — mutex/RwLock acquisitions in rt and serve are
//!   collected together with the guards still held at each site
//!   (`let`-bound guards live to end-of-block or `drop(guard)`); the
//!   workspace-wide held→acquired graph must be acyclic. A cycle is a
//!   deadlock waiting for the right thread interleaving.
//! * **nondet-float-reduction** — no order-sensitive float reductions
//!   (`.sum::<f32>()`, order-dependent `.fold(..)`) in numeric hot-path
//!   functions outside bikecap-rt. Parallel-produced data must be reduced
//!   through the pool's fixed reduce tree so results are bitwise
//!   reproducible at any thread count; `fold`s over `max`/`min` are
//!   order-insensitive and exempt.
//!
//! Code under `#[cfg(test)]` / `mod tests` / `#[test]` is exempt. Audited
//! exceptions live in `check-allowlist.txt` at the workspace root, one per
//! line: `rule path fn-name justification...`, sorted by (rule, path, fn)
//! with no duplicates ([`Allowlist::hygiene_errors`]).

use crate::lex::{lex, Token, TokenKind};
use crate::scope::LockEdge;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// The lint rules, in the order they are documented above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    NoUnwrap,
    NoExpect,
    NoPanic,
    NoIndex,
    NoLossyCast,
    BackpressureDoc,
    AtomicCheckpointWrite,
    NoPrintln,
    NoRawSpawn,
    NoGlobalSinkInstall,
    NoAllocInHotPath,
    UnsafeContract,
    LockOrder,
    NondetFloatReduction,
}

impl Rule {
    /// The stable name used in reports and `check-allowlist.txt`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoUnwrap => "no-unwrap",
            Rule::NoExpect => "no-expect",
            Rule::NoPanic => "no-panic",
            Rule::NoIndex => "no-index",
            Rule::NoLossyCast => "no-lossy-cast",
            Rule::BackpressureDoc => "backpressure-doc",
            Rule::AtomicCheckpointWrite => "atomic-checkpoint-write",
            Rule::NoPrintln => "no-println",
            Rule::NoRawSpawn => "no-raw-spawn",
            Rule::NoGlobalSinkInstall => "no-global-sink-install",
            Rule::NoAllocInHotPath => "no-alloc-in-hot-path",
            Rule::UnsafeContract => "unsafe-contract",
            Rule::LockOrder => "lock-order",
            Rule::NondetFloatReduction => "nondet-float-reduction",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    pub line: usize,
    /// The enclosing hot-path function.
    pub func: String,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] in fn {}: {}",
            self.file, self.line, self.rule, self.func, self.message
        )
    }
}

/// Which crate a source file belongs to; decides the hot-path predicate
/// and which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateKind {
    Tensor,
    Nn,
    Core,
    Serve,
    Obs,
    Rt,
    Ir,
    Live,
    Quant,
    Other,
}

impl CrateKind {
    /// Classify a workspace-relative path.
    pub fn of(path: &str) -> CrateKind {
        if path.starts_with("crates/tensor/") {
            CrateKind::Tensor
        } else if path.starts_with("crates/nn/") {
            CrateKind::Nn
        } else if path.starts_with("crates/core/") {
            CrateKind::Core
        } else if path.starts_with("crates/serve/") {
            CrateKind::Serve
        } else if path.starts_with("crates/obs/") {
            CrateKind::Obs
        } else if path.starts_with("crates/rt/") {
            CrateKind::Rt
        } else if path.starts_with("crates/ir/") {
            CrateKind::Ir
        } else if path.starts_with("crates/live/") {
            CrateKind::Live
        } else if path.starts_with("crates/quant/") {
            CrateKind::Quant
        } else {
            CrateKind::Other
        }
    }
}

/// Numeric-stack hot-path name fragments: a function whose name contains one
/// of these runs per training step or per inference call.
const NUMERIC_HOT_FRAGMENTS: &[&str] = &[
    "forward", "backward", "predict", "im2col", "col2im", "matmul", "conv", "squash", "softmax",
    "routing",
];

/// Serve request-path functions (exact names): everything between a request
/// arriving and its response leaving, plus the registry's swap path.
const SERVE_HOT_FNS: &[&str] = &[
    "submit",
    "worker_loop",
    "run_batch",
    "shutdown",
    "handle_connection",
    "route",
    "predict",
    "predict_impl",
    "parse_input",
    "current",
    "hot_swap",
    "reload",
    "load_checkpoint",
    "get",
];

/// The `bikecap-ir` schedule-execution path (exact names): everything that
/// runs per compiled prediction. Plan construction (`compile`, `for_plan`)
/// allocates by design and is deliberately NOT listed.
const IR_HOT_FNS: &[&str] = &["execute", "execute_with", "run_step", "fetch"];

/// The `bikecap-live` per-record / per-slot path (exact names): everything
/// that runs for every ingested record or every sealed slot. Adaptation
/// (`adapt`, fine-tuning) runs once per confirmed drift and is
/// deliberately NOT listed.
const LIVE_HOT_FNS: &[&str] = &[
    "next",
    "push",
    "seal_until",
    "count",
    "frame",
    "observe",
    "observe_at",
    "observe_unscored",
    "on_sealed",
    "observe_slot",
    "monitor_signals",
];

/// Is `name` a hot-path function for its crate?
pub fn is_hot_path(kind: CrateKind, name: &str) -> bool {
    match kind {
        CrateKind::Tensor | CrateKind::Nn | CrateKind::Core => {
            NUMERIC_HOT_FRAGMENTS.iter().any(|f| name.contains(f))
        }
        // Quant kernels run per inference like the tensor kernels, and the
        // per-row activation quantizer rides inside them. Container
        // (de)serialization and checkpoint rewriting are cold by design.
        CrateKind::Quant => {
            NUMERIC_HOT_FRAGMENTS.iter().any(|f| name.contains(f)) || name == "quantize_row"
        }
        CrateKind::Serve => SERVE_HOT_FNS.contains(&name),
        CrateKind::Ir => IR_HOT_FNS.contains(&name),
        CrateKind::Live => LIVE_HOT_FNS.contains(&name),
        CrateKind::Obs | CrateKind::Rt | CrateKind::Other => false,
    }
}

/// Allocating method calls forbidden on the IR execution path (matched as
/// `ident (`; the receiver form `.ident(` lexes to the same sequence).
const ALLOC_METHODS: &[&str] = &["to_vec", "to_owned", "clone", "collect"];

/// Allocating macros forbidden on the IR execution path (matched as `ident !`).
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Casting to one of these with `as` can silently lose precision or truncate.
const LOSSY_CAST_TARGETS: &[&str] = &["f32", "f64", "i8", "u8", "i16", "u16", "i32", "u32"];

/// Keywords that, when directly preceding `[`, mean the bracket opens a
/// pattern or literal rather than an indexing expression.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "if", "else", "match", "return", "break", "continue", "move",
    "unsafe", "dyn", "impl", "where", "const", "static", "as", "loop", "while", "for", "fn",
    "pub", "use", "mod", "struct", "enum", "type",
];

/// Doc keywords (lowercased substring match) that count as documenting
/// backpressure behaviour.
const BACKPRESSURE_WORDS: &[&str] = &[
    "backpressure",
    "full",
    "reject",
    "shed",
    "drain",
    "block",
    "capacity",
    "shut",
];

/// One audited exception from `check-allowlist.txt`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub rule: String,
    pub file: String,
    pub func: String,
    pub reason: String,
    pub line: usize,
}

/// The parsed allowlist, with per-entry use tracking so stale entries can be
/// reported.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
    used: Vec<bool>,
}

impl Allowlist {
    /// Parse the `rule path fn reason...` line format. `#` starts a comment;
    /// blank lines are ignored. Malformed lines are errors, not silently
    /// skipped — a typo in the allowlist must not un-audit an exception.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(4, char::is_whitespace);
            let rule = parts.next().unwrap_or_default().to_string();
            let file = parts.next().unwrap_or_default().to_string();
            let func = parts.next().unwrap_or_default().to_string();
            let reason = parts.next().unwrap_or_default().trim().to_string();
            if rule.is_empty() || file.is_empty() || func.is_empty() || reason.is_empty() {
                return Err(format!(
                    "check-allowlist.txt:{}: expected `rule path fn reason...`, got `{line}`",
                    idx + 1
                ));
            }
            entries.push(AllowEntry {
                rule,
                file,
                func,
                reason,
                line: idx + 1,
            });
        }
        let used = vec![false; entries.len()];
        Ok(Allowlist { entries, used })
    }

    /// Does an entry cover this finding? Marks the entry used.
    fn allows(&mut self, finding: &Finding) -> bool {
        let mut hit = false;
        for (i, e) in self.entries.iter().enumerate() {
            if e.rule == finding.rule.name()
                && finding.file.ends_with(&e.file)
                && (e.func == "*" || e.func == finding.func)
            {
                self.used[i] = true;
                hit = true;
            }
        }
        hit
    }

    /// Entries that never matched a finding — candidates for deletion.
    pub fn unused(&self) -> Vec<&AllowEntry> {
        self.entries
            .iter()
            .zip(&self.used)
            .filter(|(_, used)| !**used)
            .map(|(e, _)| e)
            .collect()
    }

    /// File-hygiene check, separate from parsing so ad-hoc lists in tests
    /// stay valid: the workspace allowlist must be sorted by
    /// (rule, path, fn) and must not repeat an entry — a duplicate means
    /// one audit note will silently shadow another's justification.
    pub fn hygiene_errors(&self) -> Vec<String> {
        let mut errors = Vec::new();
        for pair in self.entries.windows(2) {
            let a = (&pair[0].rule, &pair[0].file, &pair[0].func);
            let b = (&pair[1].rule, &pair[1].file, &pair[1].func);
            if a > b {
                errors.push(format!(
                    "check-allowlist.txt:{}: entries must be sorted by (rule, path, fn); \
                     `{} {} {}` sorts before line {}",
                    pair[1].line, pair[1].rule, pair[1].file, pair[1].func, pair[0].line
                ));
            }
        }
        let mut seen: std::collections::HashMap<(&str, &str, &str), usize> =
            std::collections::HashMap::new();
        for e in &self.entries {
            if let Some(first) = seen.insert((&e.rule, &e.file, &e.func), e.line) {
                errors.push(format!(
                    "check-allowlist.txt:{}: duplicate of line {first} \
                     (`{} {} {}`); keep one audited justification",
                    e.line, e.rule, e.file, e.func
                ));
            }
        }
        errors.sort();
        errors
    }
}

/// Per-file analysis output: findings, plus the lock-order edges this file
/// contributes to the workspace-wide acquisition graph (cycle detection
/// needs the union across files; see [`crate::scope::lock_cycle_findings`]).
#[derive(Debug, Default)]
pub struct FileAnalysis {
    pub findings: Vec<Finding>,
    pub lock_edges: Vec<LockEdge>,
}

/// Analyze a single source file (pure; unit-testable): the token-walk rules
/// plus the scope-aware rules. `file` is the workspace-relative path used
/// for crate classification and reporting.
pub fn analyze_source(file: &str, source: &str) -> FileAnalysis {
    let kind = CrateKind::of(file);
    let tokens = lex(source);
    let mut findings = token_findings(file, kind, &tokens);
    let (scope_f, lock_edges) = crate::scope::scope_findings(file, kind, &tokens);
    findings.extend(scope_f);
    // Token and scope findings each arrive in source order; merge them so
    // reports read top-to-bottom (stable: same-line ties keep token rules
    // first).
    findings.sort_by_key(|f| f.line);
    FileAnalysis {
        findings,
        lock_edges,
    }
}

/// Lint a single file in isolation: per-file rules plus any lock-order
/// cycles expressible within this file alone.
pub fn lint_source(file: &str, source: &str) -> Vec<Finding> {
    lint_sources(&[(file.to_string(), source.to_string())])
}

/// Lint a set of files as one unit: per-file rules, then lock-order cycle
/// detection over the union of every file's acquisition edges. This is the
/// entry point `lint_workspace` and the golden-fixture harness share.
pub fn lint_sources(files: &[(String, String)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut edges = Vec::new();
    for (file, source) in files {
        let mut analysis = analyze_source(file, source);
        findings.append(&mut analysis.findings);
        edges.append(&mut analysis.lock_edges);
    }
    findings.extend(crate::scope::lock_cycle_findings(&edges));
    findings
}

/// The token-walk rules (everything except unsafe-contract / lock-order,
/// which need [`crate::scope`]).
fn token_findings(file: &str, kind: CrateKind, tokens: &[Token]) -> Vec<Finding> {
    let is_batcher = file.ends_with("serve/src/batcher.rs");
    let mut findings = Vec::new();

    struct FnFrame {
        name: String,
        depth: usize,
        hot: bool,
    }

    let mut depth = 0usize;
    let mut stack: Vec<FnFrame> = Vec::new();
    let mut doc_buf = String::new();
    let mut pub_flag = false;
    let mut skip_test_item = false;
    let mut i = 0;

    // Identifiers that may sit between a doc comment and its `fn` without
    // detaching the doc (visibility and qualifiers).
    const DOC_CARRIERS: &[&str] = &["pub", "crate", "super", "self", "in", "unsafe", "const", "async", "extern"];

    while i < tokens.len() {
        let hot = stack.iter().any(|f| f.hot);
        match &tokens[i].kind {
            TokenKind::DocComment(text) => {
                doc_buf.push_str(text);
                doc_buf.push('\n');
                i += 1;
            }
            TokenKind::Punct('#')
                if matches!(
                    tokens.get(i + 1).map(|t| &t.kind),
                    Some(TokenKind::Punct('[')) | Some(TokenKind::Punct('!'))
                ) =>
            {
                let (attr_idents, next) = consume_attribute(tokens, i);
                if is_test_attribute(&attr_idents) {
                    skip_test_item = true;
                }
                i = next;
            }
            TokenKind::Ident(w) if w == "fn" => {
                let name = match tokens.get(i + 1).map(|t| &t.kind) {
                    Some(TokenKind::Ident(n)) => n.clone(),
                    _ => String::new(),
                };
                if skip_test_item {
                    i = skip_item(tokens, i);
                    skip_test_item = false;
                    doc_buf.clear();
                    pub_flag = false;
                    continue;
                }
                if is_batcher && pub_flag {
                    let doc = doc_buf.to_lowercase();
                    if !BACKPRESSURE_WORDS.iter().any(|w| doc.contains(w)) {
                        findings.push(Finding {
                            rule: Rule::BackpressureDoc,
                            file: file.to_string(),
                            line: tokens[i].line,
                            func: name.clone(),
                            message: format!(
                                "pub fn {name} in the batching queue module must document \
                                 its backpressure behaviour (what happens when the queue \
                                 is full, draining, or shut down)"
                            ),
                        });
                    }
                }
                doc_buf.clear();
                pub_flag = false;
                // Scan the signature to the body `{` (or, for bodiless trait
                // fns, the `;`). A `;` inside `(`/`[`/`<` nesting — array
                // types like `[usize; 2]` — does not end the signature.
                let mut j = i + 1;
                let mut nest = 0isize;
                while j < tokens.len() {
                    match &tokens[j].kind {
                        TokenKind::Punct('(') | TokenKind::Punct('[') => nest += 1,
                        TokenKind::Punct(')') | TokenKind::Punct(']') => nest -= 1,
                        TokenKind::Punct('{') => {
                            stack.push(FnFrame {
                                name: name.clone(),
                                depth,
                                hot: is_hot_path(kind, &name),
                            });
                            depth += 1;
                            j += 1;
                            break;
                        }
                        TokenKind::Punct(';') if nest == 0 => {
                            j += 1;
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j;
            }
            TokenKind::Ident(w) if w == "mod" => {
                let name = match tokens.get(i + 1).map(|t| &t.kind) {
                    Some(TokenKind::Ident(n)) => n.as_str(),
                    _ => "",
                };
                if skip_test_item || name == "tests" {
                    i = skip_item(tokens, i);
                    skip_test_item = false;
                } else {
                    i += 1;
                }
                doc_buf.clear();
                pub_flag = false;
            }
            _ if skip_test_item => {
                // `#[cfg(test)]` on a non-fn, non-mod item (use, impl, ...).
                i = skip_item(tokens, i);
                skip_test_item = false;
                doc_buf.clear();
                pub_flag = false;
            }
            TokenKind::Ident(w) if w == "pub" => {
                pub_flag = true;
                i += 1;
            }
            TokenKind::Ident(w) if DOC_CARRIERS.contains(&w.as_str()) => {
                i += 1;
            }
            TokenKind::Punct('(') | TokenKind::Punct(')') => {
                // Keep doc/pub state across `pub(crate)` visibility parens.
                i += 1;
            }
            TokenKind::Punct('{') => {
                depth += 1;
                doc_buf.clear();
                pub_flag = false;
                i += 1;
            }
            TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                while stack.last().is_some_and(|f| f.depth == depth) {
                    stack.pop();
                }
                doc_buf.clear();
                pub_flag = false;
                i += 1;
            }
            TokenKind::Ident(w) if hot && (w == "unwrap" || w == "expect") => {
                if matches!(tokens.get(i + 1).map(|t| &t.kind), Some(TokenKind::Punct('('))) {
                    let func = stack.last().map(|f| f.name.clone());
                    findings.push(Finding {
                        rule: if w == "unwrap" { Rule::NoUnwrap } else { Rule::NoExpect },
                        file: file.to_string(),
                        line: tokens[i].line,
                        func: func.unwrap_or_default(),
                        message: format!(
                            "`{w}()` can panic on a hot path; return a typed error or \
                             restructure so the invariant is statically evident"
                        ),
                    });
                }
                doc_buf.clear();
                pub_flag = false;
                i += 1;
            }
            TokenKind::Ident(w)
                if hot
                    && matches!(w.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
                    && matches!(tokens.get(i + 1).map(|t| &t.kind), Some(TokenKind::Punct('!'))) =>
            {
                let func = stack.last().map(|f| f.name.clone());
                findings.push(Finding {
                    rule: Rule::NoPanic,
                    file: file.to_string(),
                    line: tokens[i].line,
                    func: func.unwrap_or_default(),
                    message: format!("`{w}!` aborts the request/step on a hot path"),
                });
                doc_buf.clear();
                pub_flag = false;
                i += 1;
            }
            TokenKind::Ident(w)
                if kind != CrateKind::Other
                    && matches!(w.as_str(), "println" | "eprintln")
                    && matches!(tokens.get(i + 1).map(|t| &t.kind), Some(TokenKind::Punct('!'))) =>
            {
                let func = stack.last().map(|f| f.name.clone());
                findings.push(Finding {
                    rule: Rule::NoPrintln,
                    file: file.to_string(),
                    line: tokens[i].line,
                    func: func.unwrap_or_default(),
                    message: format!(
                        "`{w}!` in a library crate; report through return values, metrics, \
                         or the obs event stream (CLI binaries and benches are exempt)"
                    ),
                });
                doc_buf.clear();
                pub_flag = false;
                i += 1;
            }
            TokenKind::Ident(w)
                if w == "thread"
                    && !matches!(kind, CrateKind::Rt | CrateKind::Serve | CrateKind::Other)
                    && is_path_call(tokens, i, "spawn") =>
            {
                let func = stack.last().map(|f| f.name.clone());
                findings.push(Finding {
                    rule: Rule::NoRawSpawn,
                    file: file.to_string(),
                    line: tokens[i].line,
                    func: func.unwrap_or_default(),
                    message: "`thread::spawn` outside bikecap-rt/bikecap-serve escapes the \
                              --threads budget, panic containment, and rt.* spans; fan out \
                              through `bikecap_rt::parallel_for` or audit and allowlist"
                        .to_string(),
                });
                doc_buf.clear();
                pub_flag = false;
                i += 1;
            }
            TokenKind::Ident(w)
                if (w == "obs" || w == "bikecap_obs")
                    && kind != CrateKind::Obs
                    && is_path_call(tokens, i, "install") =>
            {
                let func = stack.last().map(|f| f.name.clone());
                findings.push(Finding {
                    rule: Rule::NoGlobalSinkInstall,
                    file: file.to_string(),
                    line: tokens[i].line,
                    func: func.unwrap_or_default(),
                    message: "`obs::install` outside bikecap-obs replaces the process's trace \
                              sink and enables recording process-wide; return the values \
                              instead and leave the sink to the binary or test that owns it"
                        .to_string(),
                });
                doc_buf.clear();
                pub_flag = false;
                i += 1;
            }
            TokenKind::Ident(w)
                if w == "File"
                    && matches!(kind, CrateKind::Nn | CrateKind::Core)
                    && is_path_call(tokens, i, "create") =>
            {
                let func = stack.last().map(|f| f.name.clone());
                findings.push(Finding {
                    rule: Rule::AtomicCheckpointWrite,
                    file: file.to_string(),
                    line: tokens[i].line,
                    func: func.unwrap_or_default(),
                    message: "`File::create` writes in place; a kill mid-write leaves a torn \
                              checkpoint. Use `serialize::atomic_write` (temp sibling + fsync \
                              + rename) or audit and allowlist"
                        .to_string(),
                });
                doc_buf.clear();
                pub_flag = false;
                i += 1;
            }
            TokenKind::Ident(w)
                if hot
                    && kind == CrateKind::Ir
                    && ((matches!(w.as_str(), "Vec" | "Box") && is_path_call(tokens, i, "new"))
                        || (ALLOC_METHODS.contains(&w.as_str())
                            && matches!(
                                tokens.get(i + 1).map(|t| &t.kind),
                                Some(TokenKind::Punct('('))
                            ))
                        || (ALLOC_MACROS.contains(&w.as_str())
                            && matches!(
                                tokens.get(i + 1).map(|t| &t.kind),
                                Some(TokenKind::Punct('!'))
                            ))) =>
            {
                let func = stack.last().map(|f| f.name.clone());
                findings.push(Finding {
                    rule: Rule::NoAllocInHotPath,
                    file: file.to_string(),
                    line: tokens[i].line,
                    func: func.unwrap_or_default(),
                    message: format!(
                        "`{w}` allocates on the compiled-executor hot path; the zero-alloc \
                         contract (tests/ir_zero_alloc.rs) requires every buffer to come \
                         from the plan's arena — reuse a planned slab or audit and allowlist"
                    ),
                });
                doc_buf.clear();
                pub_flag = false;
                i += 1;
            }
            TokenKind::Ident(w)
                if hot
                    && matches!(
                        kind,
                        CrateKind::Tensor | CrateKind::Nn | CrateKind::Core | CrateKind::Ir
                    )
                    && ((w == "sum" && is_float_turbofish(tokens, i))
                        || (w == "fold" && is_order_sensitive_fold(tokens, i))) =>
            {
                let func = stack.last().map(|f| f.name.clone());
                findings.push(Finding {
                    rule: Rule::NondetFloatReduction,
                    file: file.to_string(),
                    line: tokens[i].line,
                    func: func.unwrap_or_default(),
                    message: format!(
                        "`{w}` reduces floats in iteration order on a hot path; the result \
                         depends on chunking/thread count. Reduce through bikecap-rt's fixed \
                         reduce tree (or audit and allowlist if the input is provably serial)"
                    ),
                });
                doc_buf.clear();
                pub_flag = false;
                i += 1;
            }
            TokenKind::Ident(w) if hot && kind == CrateKind::Tensor && w == "as" => {
                if let Some(TokenKind::Ident(target)) = tokens.get(i + 1).map(|t| &t.kind) {
                    if LOSSY_CAST_TARGETS.contains(&target.as_str()) {
                        let func = stack.last().map(|f| f.name.clone());
                        findings.push(Finding {
                            rule: Rule::NoLossyCast,
                            file: file.to_string(),
                            line: tokens[i].line,
                            func: func.unwrap_or_default(),
                            message: format!(
                                "`as {target}` in a tensor kernel can silently lose \
                                 precision; use an exact conversion or audit and allowlist"
                            ),
                        });
                    }
                }
                doc_buf.clear();
                pub_flag = false;
                i += 1;
            }
            TokenKind::Punct('[') if hot => {
                let indexing = match tokens.get(i.wrapping_sub(1)).map(|t| &t.kind) {
                    Some(TokenKind::Ident(prev)) => !NON_INDEX_KEYWORDS.contains(&prev.as_str()),
                    Some(TokenKind::Punct(')')) | Some(TokenKind::Punct(']')) => true,
                    _ => false,
                };
                if i > 0 && indexing {
                    let func = stack.last().map(|f| f.name.clone());
                    findings.push(Finding {
                        rule: Rule::NoIndex,
                        file: file.to_string(),
                        line: tokens[i].line,
                        func: func.unwrap_or_default(),
                        message: "slice indexing can panic on a hot path; use `get`, \
                                  iterators, or a rank-checked accessor"
                            .to_string(),
                    });
                }
                doc_buf.clear();
                pub_flag = false;
                i += 1;
            }
            _ => {
                doc_buf.clear();
                pub_flag = false;
                i += 1;
            }
        }
    }
    findings
}

/// Does the token at `i` start a `<Ident>::method(` path call? Matches the
/// exact sequence `:: method (` after the ident, so `File::open` or a plain
/// `create(` never match when looking for `File::create`.
fn is_path_call(tokens: &[Token], i: usize, method: &str) -> bool {
    matches!(tokens.get(i + 1).map(|t| &t.kind), Some(TokenKind::Punct(':')))
        && matches!(tokens.get(i + 2).map(|t| &t.kind), Some(TokenKind::Punct(':')))
        && matches!(tokens.get(i + 3).map(|t| &t.kind), Some(TokenKind::Ident(m)) if m == method)
        && matches!(tokens.get(i + 4).map(|t| &t.kind), Some(TokenKind::Punct('(')))
}

/// Is the token at `i` a `sum ::<f32|f64>` turbofish? (`Iterator::sum`
/// inferred to an integer type is order-insensitive and never matched; the
/// float turbofish is the only unambiguous token-level signal.)
fn is_float_turbofish(tokens: &[Token], i: usize) -> bool {
    matches!(tokens.get(i + 1).map(|t| &t.kind), Some(TokenKind::Punct(':')))
        && matches!(tokens.get(i + 2).map(|t| &t.kind), Some(TokenKind::Punct(':')))
        && matches!(tokens.get(i + 3).map(|t| &t.kind), Some(TokenKind::Punct('<')))
        && matches!(
            tokens.get(i + 4).map(|t| &t.kind),
            Some(TokenKind::Ident(ty)) if ty == "f32" || ty == "f64"
        )
}

/// Is the token at `i` a `fold(` whose argument list is order-sensitive?
/// `fold`s over `max`/`min` (e.g. `fold(f32::NEG_INFINITY, f32::max)`) are
/// associative+commutative and exempt.
fn is_order_sensitive_fold(tokens: &[Token], i: usize) -> bool {
    if !matches!(tokens.get(i + 1).map(|t| &t.kind), Some(TokenKind::Punct('('))) {
        return false;
    }
    let mut depth = 0isize;
    let mut j = i + 1;
    while let Some(t) = tokens.get(j) {
        match &t.kind {
            TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return true;
                }
            }
            TokenKind::Ident(w) if w == "max" || w == "min" => return false,
            _ => {}
        }
        j += 1;
    }
    true
}

/// Consume an (inner or outer) attribute starting at `#`; returns the idents
/// seen inside and the index one past the closing `]`.
pub(crate) fn consume_attribute(tokens: &[Token], mut i: usize) -> (Vec<String>, usize) {
    let mut idents = Vec::new();
    // Skip `#` and an optional `!`.
    i += 1;
    if matches!(tokens.get(i).map(|t| &t.kind), Some(TokenKind::Punct('!'))) {
        i += 1;
    }
    if !matches!(tokens.get(i).map(|t| &t.kind), Some(TokenKind::Punct('['))) {
        return (idents, i);
    }
    let mut bracket = 0usize;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokenKind::Punct('[') => bracket += 1,
            TokenKind::Punct(']') => {
                bracket -= 1;
                if bracket == 0 {
                    return (idents, i + 1);
                }
            }
            TokenKind::Ident(s) => idents.push(s.clone()),
            _ => {}
        }
        i += 1;
    }
    (idents, i)
}

/// Does this attribute mark test-only code? (`#[test]`, `#[cfg(test)]`;
/// `#[cfg(not(test))]` is production code and does NOT match.)
pub(crate) fn is_test_attribute(idents: &[String]) -> bool {
    let has = |w: &str| idents.iter().any(|s| s == w);
    (idents.len() == 1 && idents[0] == "test") || (has("cfg") && has("test") && !has("not"))
}

/// Skip one item starting at `i` (a `fn`, `mod`, `use`, `impl`, ...): consume
/// to the `;` that ends it, or through its balanced `{...}` block.
pub(crate) fn skip_item(tokens: &[Token], mut i: usize) -> usize {
    let mut brace = 0usize;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokenKind::Punct('{') => brace += 1,
            TokenKind::Punct('}') => {
                brace = brace.saturating_sub(1);
                if brace == 0 {
                    return i + 1;
                }
            }
            TokenKind::Punct(';') if brace == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// The source roots the lint pass covers: the numeric stack plus serving,
/// and the perf tooling (bench runner, bench-compare gate) so the
/// crate-agnostic rules — `# Safety` contracts, lock-order — reach it too.
pub const LINT_ROOTS: &[&str] = &[
    "crates/tensor/src",
    "crates/nn/src",
    "crates/core/src",
    "crates/serve/src",
    "crates/obs/src",
    "crates/rt/src",
    "crates/ir/src",
    "crates/live/src",
    "crates/quant/src",
    "crates/bench/src",
    "crates/check/src",
];

/// Lint every `.rs` file under [`LINT_ROOTS`] relative to `workspace_root`,
/// filtering through `allowlist`. Returns the surviving findings.
pub fn lint_workspace(
    workspace_root: &Path,
    allowlist: &mut Allowlist,
) -> Result<Vec<Finding>, String> {
    let mut sources = Vec::new();
    for root in LINT_ROOTS {
        let dir = workspace_root.join(root);
        let mut files = Vec::new();
        collect_rs_files(&dir, &mut files)
            .map_err(|e| format!("walking {}: {e}", dir.display()))?;
        files.sort();
        for path in files {
            let source = fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(workspace_root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            sources.push((rel, source));
        }
    }
    // One pass over the whole set so lock-order sees the cross-file
    // acquisition graph, then the allowlist filter.
    Ok(lint_sources(&sources)
        .into_iter()
        .filter(|f| !allowlist.allows(f))
        .collect())
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn unwrap_in_hot_fn_is_flagged_with_location() {
        let src = "pub fn conv3d(x: &T) -> T {\n    let y = x.get(0).unwrap();\n    y\n}";
        let f = lint_source("crates/tensor/src/conv.rs", src);
        assert_eq!(rules(&f), vec![Rule::NoUnwrap]);
        assert_eq!(f[0].line, 2);
        assert_eq!(f[0].func, "conv3d");
    }

    #[test]
    fn unwrap_in_cold_fn_passes() {
        let src = "pub fn describe() { let y = std::env::var(\"X\").unwrap(); drop(y); }";
        assert!(lint_source("crates/tensor/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_is_a_different_identifier() {
        let src = "fn forward(x: Option<f32>) -> f32 { x.unwrap_or(0.0) }";
        assert!(lint_source("crates/core/src/model.rs", src).is_empty());
    }

    #[test]
    fn panic_macros_flagged_but_asserts_allowed() {
        let src = "fn backward() {\n    assert!(true);\n    debug_assert_eq!(1, 1);\n    unreachable!(\"no\");\n}";
        let f = lint_source("crates/nn/src/layers.rs", src);
        assert_eq!(rules(&f), vec![Rule::NoPanic]);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn indexing_flagged_but_types_patterns_and_macros_pass() {
        let src = r#"
fn matmul(a: &[f32], shape: &[usize; 2]) -> f32 {
    let v = vec![1.0f32];
    let [rows, _cols] = *shape;
    let first = a[0];
    first + v.iter().sum::<f32>() + rows as f32
}
"#;
        let f = lint_source("crates/nn/src/layers.rs", src);
        assert_eq!(rules(&f), vec![Rule::NoIndex, Rule::NondetFloatReduction]);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn lossy_cast_flagged_only_in_tensor_kernels() {
        let src = "fn im2col3d(n: usize) -> f32 { n as f32 }";
        let in_tensor = lint_source("crates/tensor/src/conv.rs", src);
        assert_eq!(rules(&in_tensor), vec![Rule::NoLossyCast]);
        // Same code in core is not a kernel.
        assert!(lint_source("crates/core/src/model.rs", src)
            .iter()
            .all(|f| f.rule != Rule::NoLossyCast));
        // `as usize` is not lossy.
        let ok = "fn im2col3d(n: u32) -> usize { n as usize }";
        assert!(lint_source("crates/tensor/src/conv.rs", ok).is_empty());
    }

    #[test]
    fn comments_strings_and_test_modules_are_exempt() {
        let src = r##"
// conv hot path: never unwrap() here
fn conv2d() { let s = "unwrap()"; let _ = s; }

#[cfg(test)]
mod tests {
    #[test]
    fn uses_unwrap() { let v: Option<u8> = None; v.unwrap(); }
    fn forward_helper(a: &[u8]) -> u8 { a[0] }
}
"##;
        assert!(lint_source("crates/tensor/src/conv.rs", src).is_empty());
    }

    #[test]
    fn test_attribute_on_single_fn_is_exempt() {
        let src = "#[test]\nfn forward() { let v: Option<u8> = None; v.unwrap(); }";
        assert!(lint_source("crates/core/src/model.rs", src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_still_linted() {
        let src = "#[cfg(not(test))]\nfn forward(a: &[u8]) -> u8 { a[0] }";
        let f = lint_source("crates/core/src/model.rs", src);
        assert_eq!(rules(&f), vec![Rule::NoIndex]);
    }

    #[test]
    fn serve_hot_fns_are_exact_names() {
        let flagged = "fn submit(v: Option<u8>) -> u8 { v.unwrap() }";
        assert_eq!(
            rules(&lint_source("crates/serve/src/batcher.rs", flagged)),
            vec![Rule::NoUnwrap]
        );
        // `start` spawns threads at init time; not request-path.
        let ok = "fn start(v: Option<u8>) -> u8 { v.unwrap() }";
        assert!(lint_source("crates/serve/src/batcher.rs", ok).is_empty());
    }

    #[test]
    fn live_hot_fns_are_exact_names() {
        assert_eq!(CrateKind::of("crates/live/src/window.rs"), CrateKind::Live);
        // `push` runs per ingested record: hot.
        let flagged = "fn push(v: Option<u8>) -> u8 { v.unwrap() }";
        assert_eq!(
            rules(&lint_source("crates/live/src/window.rs", flagged)),
            vec![Rule::NoUnwrap]
        );
        let indexed = "fn observe_slot(a: &[u8]) -> u8 { a[0] }";
        assert_eq!(
            rules(&lint_source("crates/live/src/adapt.rs", indexed)),
            vec![Rule::NoIndex]
        );
        // `adapt` runs once per confirmed drift: deliberately not hot.
        let cold = "fn adapt(v: Option<u8>) -> u8 { v.unwrap() }";
        assert!(lint_source("crates/live/src/adapt.rs", cold).is_empty());
    }

    #[test]
    fn batcher_pub_fns_need_backpressure_docs() {
        let undocumented = "/// Sends a job.\npub fn submit() {}";
        let f = lint_source("crates/serve/src/batcher.rs", undocumented);
        assert!(f.iter().any(|f| f.rule == Rule::BackpressureDoc));

        let documented =
            "/// Sends a job; rejects with `QueueFull` when the queue is at capacity.\npub fn submit() {}";
        assert!(lint_source("crates/serve/src/batcher.rs", documented)
            .iter()
            .all(|f| f.rule != Rule::BackpressureDoc));

        // Private fns and pub fns outside batcher.rs are exempt.
        let private = "fn helper() {}";
        assert!(lint_source("crates/serve/src/batcher.rs", private).is_empty());
        assert!(lint_source("crates/serve/src/metrics.rs", undocumented).is_empty());
    }

    #[test]
    fn file_create_in_checkpoint_crates_is_flagged() {
        let src = "fn save_snapshot(p: &Path) { let _ = fs::File::create(p); }";
        let f = lint_source("crates/nn/src/serialize.rs", src);
        assert_eq!(rules(&f), vec![Rule::AtomicCheckpointWrite]);
        assert_eq!(f[0].func, "save_snapshot");
        // Also flagged in core (trainer autosave lives there)...
        assert_eq!(
            rules(&lint_source("crates/core/src/trainer.rs", src)),
            vec![Rule::AtomicCheckpointWrite]
        );
        // ...but not in crates that never write checkpoints.
        assert!(lint_source("crates/serve/src/metrics.rs", src).is_empty());
    }

    #[test]
    fn file_open_and_bare_create_are_not_flagged() {
        let ok = "fn load(p: &Path) { let _ = fs::File::open(p); let _ = create(p); }";
        assert!(lint_source("crates/nn/src/serialize.rs", ok).is_empty());
        // Test modules stay exempt like every other rule.
        let test_only = "#[cfg(test)]\nmod tests {\n    fn t(p: &Path) { fs::File::create(p).ok(); }\n}";
        assert!(lint_source("crates/nn/src/serialize.rs", test_only).is_empty());
    }

    #[test]
    fn println_flagged_in_library_crates_everywhere() {
        // Not hot-gated: a cold helper in a library crate is still flagged.
        let src = "fn describe() { println!(\"hi\"); }";
        for file in [
            "crates/tensor/src/lib.rs",
            "crates/nn/src/layers.rs",
            "crates/core/src/trainer.rs",
            "crates/serve/src/metrics.rs",
            "crates/obs/src/sink.rs",
        ] {
            let f = lint_source(file, src);
            assert_eq!(rules(&f), vec![Rule::NoPrintln], "{file}");
            assert_eq!(f[0].func, "describe");
        }
        let e = lint_source("crates/core/src/lib.rs", "fn warn() { eprintln!(\"x\"); }");
        assert_eq!(rules(&e), vec![Rule::NoPrintln]);
    }

    #[test]
    fn println_allowed_in_binaries_tests_and_lookalikes() {
        // CLI binaries and benches are outside the lint roots / library kinds.
        let src = "fn main() { println!(\"hi\"); }";
        assert!(lint_source("src/bin/bikecap.rs", src).is_empty());
        assert!(lint_source("crates/check/src/main.rs", src).is_empty());
        // Test code in a library crate stays exempt like every other rule.
        let test_only =
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { println!(\"dbg\"); }\n}";
        assert!(lint_source("crates/obs/src/lib.rs", test_only).is_empty());
        // `println` without `!` is a plain identifier (e.g. a field or fn).
        let ident = "fn f() { let println = 1; let _ = println; }";
        assert!(lint_source("crates/core/src/model.rs", ident).is_empty());
        // Strings and comments never match.
        let quoted = "// println! is banned\nfn f() { let s = \"println!\"; let _ = s; }";
        assert!(lint_source("crates/core/src/model.rs", quoted).is_empty());
    }

    #[test]
    fn raw_spawn_is_flagged_in_library_crates() {
        // Anywhere in a linted library crate, not just hot fns; both the
        // bare and fully-qualified forms resolve through `thread::spawn`.
        let bare = "fn helper() { thread::spawn(|| {}); }";
        let qualified = "fn helper() { std::thread::spawn(|| {}); }";
        for file in [
            "crates/tensor/src/tensor.rs",
            "crates/nn/src/layers.rs",
            "crates/core/src/trainer.rs",
            "crates/obs/src/sink.rs",
        ] {
            for src in [bare, qualified] {
                let f = lint_source(file, src);
                assert_eq!(rules(&f), vec![Rule::NoRawSpawn], "{file}");
                assert_eq!(f[0].func, "helper");
            }
        }
    }

    #[test]
    fn raw_spawn_allowed_where_threads_are_owned() {
        let src = "fn helper() { thread::spawn(|| {}); }";
        // The pool and the batch workers own their thread lifecycles.
        assert!(lint_source("crates/rt/src/lib.rs", src).is_empty());
        assert!(lint_source("crates/serve/src/batcher.rs", src).is_empty());
        // CLI binaries are outside the library kinds.
        assert!(lint_source("src/bin/bikecap.rs", src).is_empty());
        // Test code stays exempt like every other rule.
        let test_only =
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { thread::spawn(|| {}); }\n}";
        assert!(lint_source("crates/core/src/trainer.rs", test_only).is_empty());
        // `Builder::new().spawn(...)` is a method call, not the raw path
        // form, and only serve uses it; a plain `spawn(` never matches.
        let plain = "fn helper() { spawn(|| {}); }";
        assert!(lint_source("crates/core/src/trainer.rs", plain).is_empty());
    }

    #[test]
    fn global_sink_install_is_flagged_outside_obs() {
        // Every path form, in any linted crate, hot fn or not.
        let short = "fn bind() { obs::install(sink); }";
        let full = "fn bind() { bikecap_obs::install(Arc::new(NoopSink)); }";
        let nested = "fn bind() { bikecap::obs::install(sink); }";
        for file in [
            "crates/live/src/adapt.rs",
            "crates/core/src/model.rs",
            "crates/serve/src/server.rs",
            "crates/bench/src/lib.rs",
        ] {
            for src in [short, full, nested] {
                let f = lint_source(file, src);
                assert_eq!(rules(&f), vec![Rule::NoGlobalSinkInstall], "{file}: {src}");
                assert_eq!(f[0].func, "bind");
            }
        }
    }

    #[test]
    fn global_sink_install_allowed_in_obs_and_tests() {
        let src = "fn bind() { bikecap_obs::install(sink); }";
        // The obs crate owns the slot.
        assert!(lint_source("crates/obs/src/lib.rs", src).is_empty());
        // Test code installs its own capture ring, like every other rule's
        // test exemption.
        let test_only =
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { bikecap_obs::install(s); }\n}";
        assert!(lint_source("crates/live/src/adapt.rs", test_only).is_empty());
        // Clearing the sink, a method named `install`, and a different
        // crate's `install` never match.
        for other in [
            "fn f() { bikecap_obs::clear(); }",
            "fn f() { plan.install(sink); }",
            "fn f() { faults::install(plan); }",
        ] {
            assert!(lint_source("crates/live/src/adapt.rs", other).is_empty(), "{other}");
        }
    }

    #[test]
    fn alloc_in_ir_execution_fns_is_flagged() {
        // Every forbidden construct, each inside a schedule-execution fn.
        for (src, what) in [
            ("fn run_step(s: &S) { let v: Vec<f32> = Vec::new(); drop(v); }", "Vec::new"),
            ("fn execute(x: &[f32]) { let v = x.to_vec(); drop(v); }", "to_vec"),
            ("fn fetch(t: &T) -> T { t.clone() }", "clone"),
            ("fn run_step(n: usize) { let v = vec![0.0; n]; drop(v); }", "vec!"),
            ("fn execute(e: u8) { let s = format!(\"{e}\"); drop(s); }", "format!"),
            ("fn run_step(b: B) { let x = Box::new(b); drop(x); }", "Box::new"),
            ("fn execute<I: Iterator<Item = f32>>(it: I) { let v: Vec<f32> = it.collect(); drop(v); }", "collect"),
        ] {
            let f = lint_source("crates/ir/src/exec.rs", src);
            assert_eq!(rules(&f), vec![Rule::NoAllocInHotPath], "{what}");
        }
    }

    #[test]
    fn alloc_outside_ir_hot_fns_passes() {
        // Plan construction allocates by design.
        let compile = "fn compile(n: usize) -> Vec<f32> { let mut v = Vec::new(); v.resize(n, 0.0); v }";
        assert!(lint_source("crates/ir/src/plan.rs", compile).is_empty());
        let for_plan = "fn for_plan(n: usize) -> Vec<f32> { vec![0.0; n] }";
        assert!(lint_source("crates/ir/src/exec.rs", for_plan).is_empty());
        // The same tokens in other crates' hot fns are not this rule's business.
        let conv = "fn conv3d(x: &[f32]) { let v = x.to_vec(); drop(v); }";
        assert!(lint_source("crates/tensor/src/conv.rs", conv)
            .iter()
            .all(|f| f.rule != Rule::NoAllocInHotPath));
        // Non-allocating calls on the hot path are fine; `clone` without the
        // call parenthesis is a plain identifier.
        let ok = "fn run_step(a: &mut [f32], b: &[f32]) { a.copy_from_slice(b); }";
        assert!(lint_source("crates/ir/src/exec.rs", ok).is_empty());
        // Test modules stay exempt like every other rule.
        let test_only =
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t(x: &[f32]) { let _ = x.to_vec(); }\n}";
        assert!(lint_source("crates/ir/src/exec.rs", test_only).is_empty());
    }

    #[test]
    fn ir_execution_fns_inherit_the_panic_rules() {
        // The hot predicate also arms no-unwrap/no-index for the executor.
        let src = "fn run_step(v: Option<u8>, a: &[u8]) -> u8 { v.unwrap() + a[0] }";
        let f = lint_source("crates/ir/src/exec.rs", src);
        assert_eq!(rules(&f), vec![Rule::NoUnwrap, Rule::NoIndex]);
    }

    #[test]
    fn allowlist_suppresses_and_tracks_usage() {
        let mut allow = Allowlist::parse(
            "# audited exceptions\n\
             no-unwrap crates/tensor/src/conv.rs conv3d bounds pre-checked by spec\n\
             no-index crates/nn/src/layers.rs * rank asserted on entry\n\
             no-panic crates/core/src/model.rs forward stale entry\n",
        )
        .expect("parses");
        let src = "pub fn conv3d(x: Option<u8>) -> u8 { x.unwrap() }";
        let findings: Vec<Finding> = lint_source("crates/tensor/src/conv.rs", src)
            .into_iter()
            .filter(|f| !allow.allows(f))
            .collect();
        assert!(findings.is_empty());
        let unused: Vec<&str> = allow.unused().iter().map(|e| e.rule.as_str()).collect();
        assert_eq!(unused, vec!["no-index", "no-panic"]);
    }

    #[test]
    fn malformed_allowlist_line_is_an_error() {
        let err = Allowlist::parse("no-unwrap crates/tensor/src/conv.rs\n");
        assert!(err.is_err());
    }

    #[test]
    fn unsafe_without_safety_doc_is_flagged() {
        let bare = "fn forward(p: *const f32) -> f32 { unsafe { *p } }";
        for file in ["crates/tensor/src/exec.rs", "crates/rt/src/lib.rs", "crates/ir/src/exec.rs"] {
            let f = lint_source(file, bare);
            assert!(f.iter().any(|f| f.rule == Rule::UnsafeContract), "{file}");
        }
        // A `# Safety` section on the enclosing fn discharges the rule.
        let documented = "/// Reads one element.\n///\n/// # Safety\n/// `p` is valid.\nfn forward(p: *const f32) -> f32 { unsafe { *p } }";
        assert!(lint_source("crates/rt/src/lib.rs", documented)
            .iter()
            .all(|f| f.rule != Rule::UnsafeContract));
        // Crates outside tensor/ir/rt are not covered.
        assert!(lint_source("crates/serve/src/server.rs", bare)
            .iter()
            .all(|f| f.rule != Rule::UnsafeContract));
    }

    #[test]
    fn lock_order_cycle_across_files_is_flagged() {
        let ab = "fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); use2(a, b); }";
        let ba = "fn g(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); use2(a, b); }";
        let files = vec![
            ("crates/rt/src/lib.rs".to_string(), ab.to_string()),
            ("crates/serve/src/batcher.rs".to_string(), ba.to_string()),
        ];
        let f = lint_sources(&files);
        assert_eq!(rules(&f), vec![Rule::LockOrder]);
        // Each file alone is a consistent order: no cycle.
        assert!(lint_source("crates/rt/src/lib.rs", ab).is_empty());
        assert!(lint_source("crates/serve/src/batcher.rs", ba).is_empty());
    }

    #[test]
    fn float_sum_and_fold_flagged_only_on_hot_paths() {
        let sum = "fn forward(x: &[f32]) -> f32 { x.iter().sum::<f32>() }";
        let f = lint_source("crates/tensor/src/tensor.rs", sum);
        assert_eq!(rules(&f), vec![Rule::NondetFloatReduction]);
        // Cold fns and bikecap-rt (which owns the fixed reduce tree) pass.
        let cold = "fn describe(x: &[f32]) -> f32 { x.iter().sum::<f32>() }";
        assert!(lint_source("crates/tensor/src/tensor.rs", cold).is_empty());
        assert!(lint_source("crates/rt/src/lib.rs", sum).is_empty());
        // Integer sums are order-insensitive.
        let int = "fn forward(x: &[usize]) -> usize { x.iter().sum::<usize>() }";
        assert!(lint_source("crates/tensor/src/tensor.rs", int).is_empty());
        // max/min folds are associative+commutative and exempt; an
        // order-dependent accumulate fold is not.
        let max = "fn forward(x: &[f32]) -> f32 { x.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b)) }";
        assert!(lint_source("crates/tensor/src/tensor.rs", max).is_empty());
        let acc = "fn forward(x: &[f32]) -> f32 { x.iter().fold(0.0, |a, &b| a + b) }";
        assert_eq!(
            rules(&lint_source("crates/tensor/src/tensor.rs", acc)),
            vec![Rule::NondetFloatReduction]
        );
    }

    #[test]
    fn allowlist_hygiene_demands_sorted_unique_entries() {
        let sorted = "a-rule crates/a.rs f ok\nb-rule crates/a.rs f ok\nb-rule crates/b.rs * ok\n";
        assert!(Allowlist::parse(sorted).unwrap().hygiene_errors().is_empty());
        let unsorted = "b-rule crates/b.rs f ok\na-rule crates/a.rs f ok\n";
        let errs = Allowlist::parse(unsorted).unwrap().hygiene_errors();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("sorted"), "{}", errs[0]);
        let duplicated = "a-rule crates/a.rs f ok\na-rule crates/a.rs f other words\n";
        let errs = Allowlist::parse(duplicated).unwrap().hygiene_errors();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("duplicate"), "{}", errs[0]);
    }

    #[test]
    fn nested_fn_inherits_hot_context() {
        let src = "fn forward() {\n    fn helper(a: &[u8]) -> u8 { a[0] }\n    let _ = helper(&[1]);\n}";
        let f = lint_source("crates/core/src/model.rs", src);
        assert_eq!(rules(&f), vec![Rule::NoIndex]);
        assert_eq!(f[0].func, "helper");
    }
}
