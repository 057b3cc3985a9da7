#!/usr/bin/env python3
"""statdb project-rule linter (DESIGN.md §13).

Mechanical checks for project rules the compilers cannot express, run in
CI next to the thread-safety lane:

  R1 naked-sync-primitive   No std::mutex / std::lock_guard /
                            std::unique_lock / std::shared_mutex /
                            std::condition_variable / std::scoped_lock /
                            std::shared_lock outside src/common/sync.h.
                            Every lock goes through statdb::sync so the
                            Clang Thread Safety attributes are attached.
  R2 nodiscard-status       Status and Result<T> keep their class-level
                            [[nodiscard]]; the compilers (and the
                            -Werror lanes) then reject every ignored
                            call site, so this rule guards the guard.
  R3 flight-relaxed-atomics Flight-recorder atomics always pass an
                            explicit std::memory_order, and never
                            memory_order_seq_cst: payload words stay
                            relaxed, only the slot markers use
                            release/acquire. A defaulted (seq_cst)
                            argument would silently put fences on the
                            record hot path.
  R4 hot-path-hygiene       (a) No double/float-keyed maps without an
                            explicit waiver comment (NaN and -0.0/+0.0
                            make doubles treacherous map keys);
                            (b) no range-for over a container that the
                            loop body erases from or inserts into
                            (iterator invalidation).
  R5 simd-span-inputs       src/simd/ kernels take contiguous spans or
                            run arrays (pointer + length), never per-row
                            callback types: no std::function anywhere
                            under src/simd/. A callback per cell defeats
                            the whole point of the batch kernels
                            (DESIGN.md §14) and sneaks an indirect call
                            into the inner loop. The same holds for
                            src/storage/column_file.h: its one scan,
                            ScanPages, hands the caller a page of cells
                            at a time; no std::function there.
  R6 readpath-latch         Snapshot-reader code (src/session/, src/exec/)
                            never calls the BufferPool's latched entry
                            points (FetchPage / NewPage / UnpinPage /
                            PinnedPage) directly — readers pin pages only
                            through the lock-free FetchReadOnly/ReadPin
                            surface (DESIGN.md §15). The latched miss
                            fallback is the designated miss-handler
                            inside src/storage/buffer_pool.cc, which is
                            deliberately outside the read-path dirs; a
                            latch acquisition anywhere on the session
                            read path would let a writer block readers.
  R7 delta-routed-maint     Mutation paths in src/core/dbms.cc never call
                            a summary maintainer's Apply / ApplyBatch /
                            Initialize arms directly — every maintenance
                            write routes through the delta buffer API
                            (delta::DeltaBuffer + delta::FlushAttribute,
                            DESIGN.md §16). A direct Apply from the DBMS
                            would bypass coalescing, the policy switch,
                            the flush barriers, and the flight events —
                            the whole §16 contract at once.
  R8 causal-traced-events   Code in src/core/, src/delta/ and
                            src/session/ never records a flight event in
                            the bare `Record(FlightEventKind::...)` form
                            — those layers know (or mint) the operation's
                            TraceContext and must pass it as the first
                            argument (`Record(ctx, ...)`, including
                            `causal::Current()` for helpers without a ctx
                            parameter), or the event loses its trace_id
                            join key (DESIGN.md §17). Files in those dirs
                            that open QueryTrace spans (ScopedSpan) must
                            likewise reference causal:: somewhere — a
                            span emitter that never touches the context
                            machinery produces traces with trace_id 0.
                            Layers below causal (storage, fault) stay on
                            the bare form by design: the recorder stamps
                            the ambient thread-local context for them.
  R9 one-exec-pool          A ThreadPool is constructed in one place:
                            the one std::make_unique<ThreadPool> in
                            StatisticalDbms::ExecPool (src/core/dbms.cc),
                            the pool every parallel batch shares
                            (DESIGN.md §9.1). Any other construction — a
                            stack pool, a std::optional<ThreadPool>, a
                            second make_unique, `new ThreadPool` — in
                            src/ or examples/ is a finding, so a
                            per-batch pool (and its Quiesce-to-count
                            dance) cannot come back. tests/ are exempt:
                            they exercise the pool's own contract.
  R10 function-table        Function-family knowledge lives in src/rules:
                            the function table (FunctionDescriptor) says
                            each statistic's family, arity, category role,
                            finish and rule. src/core/dbms.cc, src/delta/,
                            src/exec/ and src/session/ never compare a
                            function name against a string literal
                            (`function == "mean"`), so no per-name family
                            list grows beside the table. Named constants
                            (kNoteFunction) are fine. core/inference.cc
                            (the Database-Abstract rules, per-name by
                            nature) and src/check (the independent
                            oracle) are outside the scope.

Usage:
  scripts/statdb_lint.py             # lint the repo; exit 1 on findings
  scripts/statdb_lint.py --self-test # inject one violation per rule and
                                     # verify each rule goes red

Waivers: a line may carry `statdb-lint: allow(<rule>)` in a comment to
waive R4a for a deliberate double-keyed map (the waiver must say why).
R1 and R3 have no waiver mechanism on purpose; R2 is structural.
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIRS = ("src", "tests", "examples")
SOURCE_EXTS = (".h", ".cc")

SYNC_HEADER = os.path.join("src", "common", "sync.h")

# --- helpers -----------------------------------------------------------------


def strip_comments(text):
    """Blanks out // and /* */ comments and string literals, preserving
    line structure so reported line numbers stay correct."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def iter_source_files():
    for d in SOURCE_DIRS:
        base = os.path.join(REPO_ROOT, d)
        if not os.path.isdir(base):
            continue
        for root, _dirs, files in os.walk(base):
            for name in sorted(files):
                if name.endswith(SOURCE_EXTS):
                    path = os.path.join(root, name)
                    yield os.path.relpath(path, REPO_ROOT)


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --- R1: naked sync primitives ----------------------------------------------

NAKED_SYNC_RE = re.compile(
    r"\bstd\s*::\s*(mutex|timed_mutex|recursive_mutex|shared_mutex|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock|"
    r"condition_variable(?:_any)?)\b"
)


def check_naked_sync(path, text):
    if path.replace(os.sep, "/") == SYNC_HEADER.replace(os.sep, "/"):
        return []
    findings = []
    for lineno, line in enumerate(strip_comments(text).splitlines(), 1):
        m = NAKED_SYNC_RE.search(line)
        if m:
            findings.append(
                Finding(
                    "naked-sync-primitive",
                    path,
                    lineno,
                    f"std::{m.group(1)} outside src/common/sync.h — use "
                    "statdb::Mutex / MutexLock / CondVar (common/sync.h) so "
                    "the thread-safety annotations apply",
                )
            )
    return findings


# --- R2: [[nodiscard]] on Status / Result ------------------------------------

NODISCARD_REQUIRED = [
    (
        os.path.join("src", "common", "status.h"),
        re.compile(r"class\s*\[\[nodiscard\]\]\s*Status\b"),
        "class Status must carry [[nodiscard]]",
    ),
    (
        os.path.join("src", "common", "result.h"),
        re.compile(r"class\s*\[\[nodiscard\]\]\s*Result\b"),
        "class Result must carry [[nodiscard]]",
    ),
]


def check_nodiscard(files):
    """files: {relpath: text} for the two common headers."""
    findings = []
    for rel, pattern, msg in NODISCARD_REQUIRED:
        rel_norm = rel.replace(os.sep, "/")
        text = None
        for path, content in files.items():
            if path.replace(os.sep, "/") == rel_norm:
                text = content
                break
        if text is None:
            findings.append(
                Finding("nodiscard-status", rel_norm, 1, f"{rel_norm} missing")
            )
        elif not pattern.search(text):
            findings.append(Finding("nodiscard-status", rel_norm, 1, msg))
    return findings


# --- R3: flight-recorder atomics stay explicit & non-seq_cst -----------------

FLIGHT_FILES = ("src/flight/flight_recorder.h", "src/flight/flight_recorder.cc")
ATOMIC_OP_RE = re.compile(
    r"\.\s*(store|load|exchange|fetch_add|fetch_sub|fetch_or|fetch_and|"
    r"compare_exchange_weak|compare_exchange_strong)\s*\("
)


def _balanced_args(text, open_paren_idx):
    """Returns the argument text between the parens starting at
    open_paren_idx, handling nesting."""
    depth = 0
    for i in range(open_paren_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren_idx + 1 : i]
    return text[open_paren_idx + 1 :]


def check_flight_atomics(path, text):
    if path.replace(os.sep, "/") not in FLIGHT_FILES:
        return []
    findings = []
    stripped = strip_comments(text)
    for m in ATOMIC_OP_RE.finditer(stripped):
        op = m.group(1)
        args = _balanced_args(stripped, m.end() - 1)
        lineno = stripped.count("\n", 0, m.start()) + 1
        if "memory_order_seq_cst" in args:
            findings.append(
                Finding(
                    "flight-relaxed-atomics",
                    path,
                    lineno,
                    f".{op}() uses memory_order_seq_cst — flight-recorder "
                    "payload words stay relaxed (markers: release/acquire)",
                )
            )
        elif "memory_order" not in args:
            findings.append(
                Finding(
                    "flight-relaxed-atomics",
                    path,
                    lineno,
                    f".{op}() with defaulted memory order (= seq_cst) — "
                    "pass std::memory_order_relaxed (payload) or "
                    "release/acquire (markers) explicitly",
                )
            )
    return findings


# --- R4: hot-path hygiene ----------------------------------------------------

DOUBLE_MAP_RE = re.compile(r"\bstd\s*::\s*(?:unordered_)?map\s*<\s*(double|float)\b")
ALLOW_RE = re.compile(r"statdb-lint:\s*allow\(double-keyed-map\)")
RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?[\w:<>,\s&*]+?\s*[\w\[\]]+\s*:\s*"
    r"((?:\w+(?:\.\w+|->\w+|\(\))*)+)\s*\)"
)
MUTATORS = ("erase", "push_back", "emplace_back", "insert", "emplace", "clear")


def check_double_maps(path, text):
    findings = []
    raw_lines = text.splitlines()
    for lineno, line in enumerate(strip_comments(text).splitlines(), 1):
        if DOUBLE_MAP_RE.search(line):
            raw = raw_lines[lineno - 1] if lineno - 1 < len(raw_lines) else ""
            waived = bool(ALLOW_RE.search(raw))
            # The waiver may sit in the contiguous comment block above.
            k = lineno - 2
            while not waived and k >= 0 and raw_lines[k].lstrip().startswith("//"):
                waived = bool(ALLOW_RE.search(raw_lines[k]))
                k -= 1
            if waived:
                continue
            findings.append(
                Finding(
                    "double-keyed-map",
                    path,
                    lineno,
                    "map keyed by floating point (NaN never compares equal; "
                    "-0.0 == +0.0 collide) — key by bits/ordinal, or waive "
                    "with `statdb-lint: allow(double-keyed-map)` + why",
                )
            )
    return findings


def check_loop_mutation(path, text):
    findings = []
    stripped = strip_comments(text)
    for m in RANGE_FOR_RE.finditer(stripped):
        container = m.group(1)
        if "(" in container:  # iterating a call result: body can't invalidate it
            continue
        # The loop body: a braced block if the next token is '{', else the
        # single statement up to the terminating ';'.
        j = m.end()
        while j < len(stripped) and stripped[j].isspace():
            j += 1
        if j < len(stripped) and stripped[j] == "{":
            depth = 0
            end = j
            for i in range(j, len(stripped)):
                if stripped[i] == "{":
                    depth += 1
                elif stripped[i] == "}":
                    depth -= 1
                    if depth == 0:
                        end = i
                        break
            body = stripped[j:end]
        else:
            end = stripped.find(";", j)
            body = stripped[j : end if end != -1 else len(stripped)]
        esc = re.escape(container)
        for mut in MUTATORS:
            if re.search(rf"\b{esc}\s*\.\s*{mut}\s*\(", body):
                lineno = stripped.count("\n", 0, m.start()) + 1
                findings.append(
                    Finding(
                        "loop-invalidating-mutation",
                        path,
                        lineno,
                        f"range-for over `{container}` while the body calls "
                        f"`{container}.{mut}(...)` — iterator invalidation; "
                        "collect first, mutate after the loop",
                    )
                )
                break
    return findings


# --- R5: simd kernels and the column scan take batches, not per-row callbacks -

SIMD_DIR_RE = re.compile(r"^src/simd/")
COLUMN_FILE_H = "src/storage/column_file.h"
STD_FUNCTION_RE = re.compile(r"\bstd\s*::\s*function\s*<")


def check_simd_span_inputs(path, text):
    rel = path.replace(os.sep, "/")
    if SIMD_DIR_RE.match(rel):
        why = ("std::function in src/simd/ — kernels take contiguous "
               "spans or RleRun/MatchedRun arrays (pointer + length); "
               "a per-row callback defeats the batch contract "
               "(DESIGN.md §14)")
    elif rel == COLUMN_FILE_H:
        why = ("std::function in column_file.h — columns are scanned "
               "through ScanPages, one call per pinned page with a "
               "ColumnPageView; a per-cell callback puts an indirect "
               "call on every cell of every scan (DESIGN.md §9)")
    else:
        return []
    findings = []
    for lineno, line in enumerate(strip_comments(text).splitlines(), 1):
        if STD_FUNCTION_RE.search(line):
            findings.append(Finding("simd-span-inputs", path, lineno, why))
    return findings


# --- R6: read-path code never takes the buffer-pool latch --------------------

READ_PATH_DIR_RE = re.compile(r"^src/(session|exec)/")
# The only sanctioned latched miss-handler is BufferPool::FetchReadOnly's
# internal fallback in src/storage/buffer_pool.cc — outside the read-path
# dirs by design. List read-path files here (with a why) if one ever
# legitimately needs to become a miss-handler itself.
READ_PATH_LATCH_MISS_HANDLERS = ()
LATCHED_POOL_API_RE = re.compile(
    r"\b(?:(?:\w+|\))\s*(?:\.|->)\s*)(FetchPage|NewPage|UnpinPage)\s*\(|"
    r"\b(PinnedPage)\b"
)


def check_readpath_latch(path, text):
    norm = path.replace(os.sep, "/")
    if not READ_PATH_DIR_RE.match(norm):
        return []
    if norm in READ_PATH_LATCH_MISS_HANDLERS:
        return []
    findings = []
    for lineno, line in enumerate(strip_comments(text).splitlines(), 1):
        m = LATCHED_POOL_API_RE.search(line)
        if m:
            api = m.group(1) or m.group(2)
            findings.append(
                Finding(
                    "readpath-latch",
                    path,
                    lineno,
                    f"{api} on the session read path — snapshot readers pin "
                    "pages only via BufferPool::FetchReadOnly/ReadPin (the "
                    "lock-free path); the latched miss-handler lives in "
                    "src/storage/buffer_pool.cc (DESIGN.md §15)",
                )
            )
    return findings


# --- R7: DBMS mutation paths route maintenance through the delta buffer ------

DELTA_ROUTE_FILE = "src/core/dbms.cc"
# A maintainer method invocation on any receiver: the DBMS proper holds
# no business calling these — arming (Initialize) and draining (Apply /
# ApplyBatch) both live behind delta::FlushAttribute in
# src/delta/maintenance.cc, where the batch/coalesce/fallback logic is.
MAINTAINER_ARM_RE = re.compile(
    r"(?:->|\.)\s*(Apply|ApplyBatch|Initialize)\s*\("
)


def check_delta_routing(path, text):
    if path.replace(os.sep, "/") != DELTA_ROUTE_FILE:
        return []
    findings = []
    for lineno, line in enumerate(strip_comments(text).splitlines(), 1):
        m = MAINTAINER_ARM_RE.search(line)
        if m:
            findings.append(
                Finding(
                    "delta-routed-maintenance",
                    path,
                    lineno,
                    f"direct maintainer .{m.group(1)}() from the DBMS "
                    "mutation path — route the write through "
                    "delta::DeltaBuffer and let delta::FlushAttribute "
                    "drain it (coalescing, policy, flush barriers, "
                    "flight events; DESIGN.md §16)",
                )
            )
    return findings


# --- R8: core/delta/session flight events carry their causal context ---------

CAUSAL_DIR_RE = re.compile(r"^src/(core|delta|session)/")
# Matches only the bare form: a ctx-first call reads `Record(ctx, ...` or
# `Record(causal::Current(), ...`, so FlightEventKind is never the first
# token after the paren. \s* spans newlines: wrapped calls still match.
BARE_RECORD_RE = re.compile(r"\bRecord\s*\(\s*FlightEventKind\s*::")
SCOPED_SPAN_RE = re.compile(r"\bScopedSpan\b")
CAUSAL_TOKEN_RE = re.compile(r"\bcausal\s*::")


def check_causal_events(path, text):
    norm = path.replace(os.sep, "/")
    if not CAUSAL_DIR_RE.match(norm):
        return []
    findings = []
    stripped = strip_comments(text)
    for m in BARE_RECORD_RE.finditer(stripped):
        lineno = stripped.count("\n", 0, m.start()) + 1
        findings.append(
            Finding(
                "causal-traced-events",
                path,
                lineno,
                "bare Record(FlightEventKind::...) in a context-aware "
                "layer — pass the TraceContext first (the minted scope's "
                "ctx, or causal::Current() in a helper), or the event "
                "loses its trace_id join key (DESIGN.md §17)",
            )
        )
    span = SCOPED_SPAN_RE.search(stripped)
    if span and not CAUSAL_TOKEN_RE.search(stripped):
        lineno = stripped.count("\n", 0, span.start()) + 1
        findings.append(
            Finding(
                "causal-traced-events",
                path,
                lineno,
                "ScopedSpan in a context-aware layer but the file never "
                "touches causal:: — the trace it feeds will carry "
                "trace_id 0 and join nothing; mint (or propagate) a "
                "TraceContext and SetContext the trace (DESIGN.md §17)",
            )
        )
    return findings


# --- R9: one exec pool, owned by the DBMS -------------------------------------

EXEC_POOL_OWNER = "src/core/dbms.cc"
EXEC_POOL_EXEMPT_RE = re.compile(r"^(tests/|src/exec/thread_pool\.(h|cc)$)")
POOL_MAKE_RE = re.compile(r"\bmake_(?:unique|shared)\s*<\s*ThreadPool\s*>")
POOL_OTHER_CTOR_RE = re.compile(
    r"\bnew\s+ThreadPool\b|"
    r"\boptional\s*<\s*ThreadPool\s*>|"
    r"\bThreadPool\s+\w+\s*[({;]"
)


def check_exec_pool(path, text):
    norm = path.replace(os.sep, "/")
    if EXEC_POOL_EXEMPT_RE.match(norm):
        return []
    findings = []
    makes = 0
    for lineno, line in enumerate(strip_comments(text).splitlines(), 1):
        made = POOL_MAKE_RE.search(line)
        makes += 1 if made else 0
        if POOL_OTHER_CTOR_RE.search(line) or (
            made and (norm != EXEC_POOL_OWNER or makes > 1)
        ):
            findings.append(
                Finding(
                    "one-exec-pool",
                    path,
                    lineno,
                    "ThreadPool constructed outside StatisticalDbms::"
                    "ExecPool — every parallel batch runs on the DBMS's "
                    "one pool through a PoolSlice (workers cap + ledger); "
                    "a per-batch pool needs Quiesce() to count its tasks "
                    "and drops the submitter's trace (DESIGN.md §9.1)",
                )
            )
    return findings


# --- R10: function-family knowledge lives in the function table --------------

FUNCTION_TABLE_SCOPE_RE = re.compile(
    r"^(src/core/dbms\.cc$|src/delta/|src/exec/|src/session/)"
)
# An identifier holding a function name: `function`, `key.function`,
# `q.function_name`, `fn`, `head->fn`. Literals are blanked by
# strip_comments, but their quotes stay.
_FN_NAME = r"(?:[A-Za-z_]\w*(?:\.|->))*(?:\w*function\w*|fn\w*)"
FUNCTION_LITERAL_RE = re.compile(
    r"\b" + _FN_NAME + r"\s*(?:==|!=)\s*\""
    r"|\"\s*(?:==|!=)\s*" + _FN_NAME + r"\b"
)


def check_function_table(path, text):
    norm = path.replace(os.sep, "/")
    if not FUNCTION_TABLE_SCOPE_RE.match(norm):
        return []
    findings = []
    for lineno, line in enumerate(strip_comments(text).splitlines(), 1):
        if FUNCTION_LITERAL_RE.search(line):
            findings.append(
                Finding(
                    "function-table",
                    path,
                    lineno,
                    "function name compared against a string literal — "
                    "a function's family, arity, category role, finish "
                    "and rule come from its FunctionDescriptor "
                    "(src/rules/function_registry.h, DESIGN.md §9.1)",
                )
            )
    return findings


# --- driver ------------------------------------------------------------------


def lint_corpus(files):
    """files: {relpath: text}. Returns all findings."""
    findings = []
    for path, text in files.items():
        findings += check_naked_sync(path, text)
        findings += check_flight_atomics(path, text)
        findings += check_double_maps(path, text)
        findings += check_loop_mutation(path, text)
        findings += check_simd_span_inputs(path, text)
        findings += check_readpath_latch(path, text)
        findings += check_delta_routing(path, text)
        findings += check_causal_events(path, text)
        findings += check_exec_pool(path, text)
        findings += check_function_table(path, text)
    findings += check_nodiscard(files)
    return findings


def load_repo():
    files = {}
    for rel in iter_source_files():
        with open(os.path.join(REPO_ROOT, rel), encoding="utf-8") as f:
            files[rel] = f.read()
    return files


# Injected violations, at least one per rule; --self-test must see every
# one fire.
SELF_TEST_SNIPPETS = [
    (
        "naked-sync-primitive",
        "src/core/injected_r1.h",
        "class Bad {\n  std::mutex mu_;\n};\n",
    ),
    (
        "nodiscard-status",
        # Replaces the real header in the synthetic corpus: nodiscard gone.
        "src/common/status.h",
        "class Status {\n public:\n  bool ok() const;\n};\n",
    ),
    (
        "flight-relaxed-atomics",
        "src/flight/flight_recorder.cc",
        "void f(std::atomic<uint64_t>& a) {\n  a.store(1);\n}\n",
    ),
    (
        "double-keyed-map",
        "src/summary/injected_r4a.h",
        "#include <map>\nstd::map<double, int> cache_;\n",
    ),
    (
        "loop-invalidating-mutation",
        "src/core/injected_r4b.cc",
        "void f(std::vector<int>& xs) {\n"
        "  for (int x : xs) {\n"
        "    if (x < 0) xs.erase(xs.begin());\n"
        "  }\n"
        "}\n",
    ),
    (
        "simd-span-inputs",
        "src/simd/injected_r5.h",
        "#include <functional>\n"
        "void DescribeCells(\n"
        "    const std::function<void(double)>& per_row);\n",
    ),
    (
        "simd-span-inputs",
        # Replaces the real header in the synthetic corpus: a per-cell
        # scan callback back beside ScanPages.
        "src/storage/column_file.h",
        "class ColumnFile {\n"
        " public:\n"
        "  Status ScanRange(uint64_t begin, uint64_t end,\n"
        "      const std::function<Status(uint64_t,\n"
        "                                 std::optional<int64_t>)>& fn)\n"
        "      const;\n"
        "};\n",
    ),
    (
        "readpath-latch",
        "src/session/injected_r6.cc",
        "void ReadCells(BufferPool* pool, PageId id) {\n"
        "  auto page = pool->FetchPage(id);\n"
        "}\n",
    ),
    (
        "delta-routed-maintenance",
        # Replaces the real dbms.cc in the synthetic corpus: a mutation
        # path draining a maintainer by hand instead of via the buffer.
        "src/core/dbms.cc",
        "Status StatisticalDbms::Update(const UpdateSpec& spec) {\n"
        "  m->Apply(d);\n"
        "  return Status::Ok();\n"
        "}\n",
    ),
    (
        "causal-traced-events",
        # A context-aware layer dropping the join key: the wrapped bare
        # call must fire even though Record( and FlightEventKind:: sit on
        # different lines.
        "src/core/injected_r8.cc",
        "void NoteDegraded(FlightRecorder* flight) {\n"
        "  flight->Record(\n"
        "      FlightEventKind::kDegraded, \"oops\");\n"
        "}\n",
    ),
    (
        "one-exec-pool",
        # Replaces the real dbms.cc in the synthetic corpus: the per-batch
        # pool the shared one replaced, back in the pipeline.
        "src/core/dbms.cc",
        "Status StatisticalDbms::RunPipeline(size_t workers) {\n"
        "  std::optional<ThreadPool> pool;\n"
        "  if (workers > 1) pool.emplace(workers);\n"
        "  return Status::OK();\n"
        "}\n",
    ),
    (
        "one-exec-pool",
        # A layer below the DBMS making its own pool.
        "src/exec/injected_r9.cc",
        "Status Scan(size_t workers) {\n"
        "  ThreadPool pool(workers);\n"
        "  return Status::OK();\n"
        "}\n",
    ),
    (
        "function-table",
        # Replaces the real dbms.cc in the synthetic corpus: a per-name
        # family list beside the function table.
        "src/core/dbms.cc",
        "bool IsMoment(const std::string& function) {\n"
        "  return function == \"count\" || function == \"sum\" ||\n"
        "         function == \"mean\";\n"
        "}\n",
    ),
    (
        "function-table",
        # The flush engine keying a rule off a name, literal first.
        "src/delta/injected_r10.cc",
        "bool Pair(const SummaryKey& key) {\n"
        "  return \"correlation\" == key.function;\n"
        "}\n",
    ),
]


def self_test():
    ok = True
    # Each rule must fire on its injected violation...
    for rule, path, snippet in SELF_TEST_SNIPPETS:
        corpus = {path: snippet}
        if rule == "nodiscard-status":
            # Provide a well-formed result.h so only the Status side trips.
            corpus["src/common/result.h"] = (
                "template <typename T>\nclass [[nodiscard]] Result {};\n"
            )
        found = [f for f in lint_corpus(corpus) if f.rule == rule]
        if found:
            print(f"self-test [{rule}]: fired as expected "
                  f"({found[0].path}:{found[0].line})")
        else:
            print(f"self-test [{rule}]: FAILED — injected violation "
                  f"not detected in {path}")
            ok = False
    # ...and the real tree must be clean, or the rules are miscalibrated.
    repo_findings = lint_corpus(load_repo())
    if repo_findings:
        print("self-test: FAILED — repository is not clean:")
        for f in repo_findings:
            print(f"  {f}")
        ok = False
    else:
        print("self-test: repository clean")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="inject one violation per rule and verify each goes red",
    )
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    findings = lint_corpus(load_repo())
    for f in findings:
        print(f)
    if findings:
        print(f"statdb_lint: {len(findings)} finding(s)")
        return 1
    print("statdb_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
