//! `LCL-A01`/`A02`/`A03`: purity of the engine's per-round hot path.
//!
//! The engine's performance contract (ARCHITECTURE.md, invariant 1)
//! says steady-state rounds allocate nothing and touch no file: arenas,
//! halo buffers and spill pools are set up at run start, messages move by
//! index, and a protocol `step` runs millions of times per instance.
//! These rules make the contract lexical: inside the designated hot
//! functions, any allocating call, lock, file I/O, or `unsafe` block is a
//! finding.
//!
//! Hot functions are one list over the round scheduler and both message
//! stores:
//!
//! - the scheduler's per-round step (`step_region`) and the slot store's
//!   mail probe (`mail_waiting`) in `crates/local/src/engine.rs`, plus all
//!   methods of the `Inbox`/`InboxIter`/`Outbox` message views;
//! - in both store files (`crates/local/src/engine.rs` and
//!   `crates/shard/src/runner.rs`), every method of a `StoreRegion` impl
//!   and `ArenaStore::end_pass` — the per-chunk, per-node and end-of-pass
//!   store operations (`begin_pass`, which may spill, runs between passes
//!   and is exempt);
//! - every method of a `Protocol` impl under
//!   `crates/algorithms/src/protocols/`.

use crate::model::FnInfo;
use crate::report::Finding;
use crate::rules::{body, macro_at, method_call_at, path_call_at};
use crate::workspace::SourceFile;

/// Files holding the round scheduler and the message stores.
const STORE_FILES: &[&str] = &["crates/local/src/engine.rs", "crates/shard/src/runner.rs"];
const PROTOCOLS_DIR: &str = "crates/algorithms/src/protocols/";

/// Free functions that run per round or per chunk.
const HOT_FNS: &[&str] = &["step_region", "mail_waiting"];

/// Types whose methods sit on the message path of every step.
const HOT_TYPES: &[&str] = &["Inbox", "InboxIter", "Outbox"];

/// Store trait methods that run inside or at the end of every pass, by
/// trait; `None` marks every method of the trait.
const HOT_TRAIT_METHODS: &[(&str, Option<&str>)] =
    &[("StoreRegion", None), ("ArenaStore", Some("end_pass"))];

/// Methods that allocate (or can reallocate) on their receiver.
const ALLOC_METHODS: &[&str] = &[
    "push",
    "collect",
    "to_vec",
    "to_owned",
    "to_string",
    "clone",
    "insert",
    "reserve",
    "extend_from_slice",
    "append",
];

/// `Type::constructor` pairs that allocate.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("HashMap", "new"),
    ("HashMap", "with_capacity"),
    ("HashSet", "new"),
    ("HashSet", "with_capacity"),
    ("BTreeMap", "new"),
    ("BTreeSet", "new"),
    ("VecDeque", "new"),
    ("VecDeque", "with_capacity"),
    ("Rc", "new"),
    ("Arc", "new"),
];

/// Macros that allocate or format on every expansion.
const ALLOC_MACROS: &[&str] = &["vec", "format", "println", "eprintln", "print", "eprint"];

/// Identifiers of blocking synchronization primitives.
const LOCK_TYPES: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier", "mpsc"];

/// File/stream methods: a pass reading or writing spill storage mid-round
/// would serialize on disk latency; residency changes belong between
/// passes.
const IO_METHODS: &[&str] = &[
    "read",
    "read_exact",
    "read_to_end",
    "write",
    "write_all",
    "seek",
    "flush",
    "sync_all",
    "set_len",
];

/// `Type::constructor` pairs that open file handles.
const IO_PATHS: &[(&str, &str)] = &[
    ("File", "open"),
    ("File", "create"),
    ("File", "create_new"),
    ("OpenOptions", "new"),
];

/// Whether `f` in `file` is part of the designated hot path.
#[must_use]
pub fn is_hot(file: &SourceFile, f: &FnInfo) -> bool {
    if f.in_test {
        return false;
    }
    if STORE_FILES.contains(&file.rel.as_str()) {
        let Some(ctx) = f.impl_ctx.as_ref() else {
            return HOT_FNS.contains(&f.name.as_str());
        };
        let hot_method = ctx.trait_name.as_deref().is_some_and(|t| {
            HOT_TRAIT_METHODS
                .iter()
                .any(|&(trait_name, m)| t == trait_name && m.is_none_or(|m| m == f.name))
        });
        return hot_method || HOT_TYPES.contains(&ctx.type_name.as_str());
    }
    file.rel.starts_with(PROTOCOLS_DIR)
        && f.impl_ctx
            .as_ref()
            .is_some_and(|ctx| ctx.trait_name.as_deref() == Some("Protocol"))
}

/// Runs the three hot-path rules over one file.
pub fn check(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !STORE_FILES.contains(&file.rel.as_str()) && !file.rel.starts_with(PROTOCOLS_DIR) {
        return;
    }
    for f in &file.model.fns {
        if !is_hot(file, f) {
            continue;
        }
        let toks = body(file, f);
        for i in 0..toks.len() {
            if let Some(m) = method_call_at(toks, i) {
                if ALLOC_METHODS.contains(&m.text.as_str()) {
                    findings.push(finding(
                        "LCL-A01",
                        file,
                        f,
                        m.line,
                        m.col,
                        format!(
                            "allocating call `.{}(…)` in hot-path fn `{}` — \
                             hot rounds must reuse preallocated buffers",
                            m.text, f.name
                        ),
                    ));
                }
                if IO_METHODS.contains(&m.text.as_str()) {
                    findings.push(finding(
                        "LCL-A02",
                        file,
                        f,
                        m.line,
                        m.col,
                        format!(
                            "I/O call `.{}(…)` in hot-path fn `{}` — spill traffic \
                             belongs between passes, never inside one",
                            m.text, f.name
                        ),
                    ));
                }
                if m.text == "lock" {
                    findings.push(finding(
                        "LCL-A02",
                        file,
                        f,
                        m.line,
                        m.col,
                        format!(
                            "lock acquisition `.lock(…)` in hot-path fn `{}` — \
                             chunk ownership must make locks unnecessary",
                            f.name
                        ),
                    ));
                }
            }
            if let Some((first, second)) = path_call_at(toks, i) {
                if ALLOC_PATHS
                    .iter()
                    .any(|(a, b)| first.is_ident(a) && second.is_ident(b))
                {
                    findings.push(finding(
                        "LCL-A01",
                        file,
                        f,
                        first.line,
                        first.col,
                        format!(
                            "allocating constructor `{}::{}(…)` in hot-path fn `{}`",
                            first.text, second.text, f.name
                        ),
                    ));
                }
                if IO_PATHS
                    .iter()
                    .any(|(a, b)| first.is_ident(a) && second.is_ident(b))
                {
                    findings.push(finding(
                        "LCL-A02",
                        file,
                        f,
                        first.line,
                        first.col,
                        format!(
                            "file handle `{}::{}(…)` opened in hot-path fn `{}` — \
                             spill pools are created at run start",
                            first.text, second.text, f.name
                        ),
                    ));
                }
            }
            if let Some(m) = macro_at(toks, i) {
                if ALLOC_MACROS.contains(&m.text.as_str()) {
                    findings.push(finding(
                        "LCL-A01",
                        file,
                        f,
                        m.line,
                        m.col,
                        format!("allocating macro `{}!` in hot-path fn `{}`", m.text, f.name),
                    ));
                }
            }
            let t = &toks[i];
            if t.kind == crate::lexer::TokKind::Ident && LOCK_TYPES.contains(&t.text.as_str()) {
                findings.push(finding(
                    "LCL-A02",
                    file,
                    f,
                    t.line,
                    t.col,
                    format!(
                        "synchronization primitive `{}` in hot-path fn `{}`",
                        t.text, f.name
                    ),
                ));
            }
            if t.is_ident("unsafe") {
                findings.push(finding(
                    "LCL-A03",
                    file,
                    f,
                    t.line,
                    t.col,
                    format!("`unsafe` block in hot-path fn `{}`", f.name),
                ));
            }
        }
    }
}

fn finding(
    rule: &'static str,
    file: &SourceFile,
    f: &FnInfo,
    line: u32,
    col: u32,
    message: String,
) -> Finding {
    Finding {
        rule,
        file: file.rel.clone(),
        line,
        col,
        item: f.qual_name.clone(),
        message,
    }
}
