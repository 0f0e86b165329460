#!/usr/bin/env python3
"""libclang fact extractor for tools/lc_analyze — the ONLY module that
touches clang.cindex. It parses one translation unit (with -DLC_ANALYZE so
the thread_annotations.h markers survive into the AST) and reduces it to a
plain-JSON "facts" dict that checks.py consumes:

  functions     id -> {name, file, line, kind, annotations, asserts_loop,
                       calls, parent, sink, affine_accesses}
  async_sites   lambdas handed to cross-thread sinks, with their parsed
                capture lists and any LC_CAPTURE_SAFE reason
  determinism   raw nondeterminism observations (banned calls, RNG engine
                declarations, unordered-container iteration/escape,
                pointer-keyed containers); module filtering happens later

Keeping this layer thin and declarative is deliberate: the container this
repo develops in has no libclang, so everything downstream of the facts
dict (confinement propagation, capture classification, suppression,
caching) lives in checks.py / run.py where the local test suite can reach
it. CI installs clang + python3-clang and runs this layer for real.
"""

import glob
import os

try:
    from clang import cindex
    HAVE_CINDEX = True
except ImportError:  # pragma: no cover - exercised only without libclang
    cindex = None
    HAVE_CINDEX = False

import checks

# Bump to invalidate every per-TU cache entry when extraction changes.
FACTS_VERSION = 1

LOOP_SINK_CLASSES = {"EventLoop"}
# method name -> classes it is a cross-thread sink on. `Submit` is
# ThreadPool's. EstimatorServer takes no callback: HandleLines answers on
# the calling thread, so it is no sink.
ASYNC_SINKS = {
    "Post": {"EventLoop"},
    "RunAt": {"EventLoop"},
    "Watch": {"EventLoop"},
    "Submit": {"ThreadPool"},
}
LOOP_SINK_METHODS = {"Post", "RunAt", "Watch"}

BANNED_CALLS = {
    "rand", "srand", "random", "srandom", "drand48", "lrand48", "mrand48",
    "rand_r", "time", "gettimeofday", "clock", "getpid",
}
RNG_ENGINE_SPELLINGS = (
    "random_device", "mt19937", "minstd_rand", "default_random_engine",
    "ranlux24", "ranlux48", "knuth_b",
)
UNORDERED_SPELLINGS = ("unordered_map", "unordered_set", "unordered_multimap",
                       "unordered_multiset")
ITER_METHODS = {"begin", "end", "cbegin", "cend", "rbegin", "rend"}


class LibclangUnavailable(Exception):
    pass


_configured = False


def configure_library():
    """Locates a loadable libclang; raises LibclangUnavailable otherwise."""
    global _configured
    if not HAVE_CINDEX:
        raise LibclangUnavailable("python module clang.cindex not installed")
    if _configured:
        return
    try:
        cindex.Index.create()
        _configured = True
        return
    except cindex.LibclangError:
        pass
    candidates = sorted(
        glob.glob("/usr/lib/*/libclang-*.so*")
        + glob.glob("/usr/lib/*/libclang.so*")
        + glob.glob("/usr/lib/llvm-*/lib/libclang.so*")
        + glob.glob("/usr/lib/llvm-*/lib/libclang-*.so*"),
        reverse=True,
    )
    for candidate in candidates:
        if "libclang-cpp" in candidate:  # C++ API, not the C index API
            continue
        try:
            cindex.Config.loaded = False
            cindex.Config.set_library_file(candidate)
            cindex.Index.create()
            _configured = True
            return
        except cindex.LibclangError:
            continue
    raise LibclangUnavailable("no loadable libclang shared library found")


def libclang_available():
    try:
        configure_library()
        return True
    except LibclangUnavailable:
        return False


def _rel(path, root):
    try:
        return os.path.relpath(os.path.realpath(path), root)
    except ValueError:  # pragma: no cover - different drive on windows
        return path


def _loc(cursor, root):
    f = cursor.location.file
    return (_rel(f.name, root) if f else "<none>", cursor.location.line)


def _annotations(cursor):
    out = []
    for child in cursor.get_children():
        if child.kind == cindex.CursorKind.ANNOTATE_ATTR:
            out.append(child.spelling)
    return out


class _Extractor:
    def __init__(self, root):
        self.root = root
        self.functions = {}
        self.async_sites = []
        self.determinism = []
        self._affine_field_cache = {}
        self._range_for_lines = set()
        self._lambda_sinks = {}  # (file, line, col) -> sink name

    # -- helpers ------------------------------------------------------------

    def _in_root(self, cursor):
        f = cursor.location.file
        if f is None:
            return False
        path = os.path.realpath(f.name)
        return path.startswith(self.root + os.sep)

    def _field_is_affine(self, field):
        usr = field.get_usr()
        if usr not in self._affine_field_cache:
            self._affine_field_cache[usr] = (
                "lc_loop_affine" in _annotations(field)
            )
        return self._affine_field_cache[usr]

    def _func_id(self, cursor):
        if cursor.kind == cindex.CursorKind.LAMBDA_EXPR:
            f, line = _loc(cursor, self.root)
            return "lambda@%s:%d:%d" % (f, line, cursor.location.column)
        return cursor.get_usr()

    def _func_entry(self, cursor, kind, parent_id):
        fid = self._func_id(cursor)
        entry = self.functions.get(fid)
        if entry is None:
            f, line = _loc(cursor, self.root)
            name = cursor.spelling or fid
            sem = cursor.semantic_parent
            if sem is not None and sem.spelling and kind != "lambda":
                name = "%s::%s" % (sem.spelling, name)
            entry = {
                "name": name, "file": f, "line": line, "kind": kind,
                "annotations": [], "asserts_loop": False, "calls": [],
                "parent": parent_id, "sink": None, "affine_accesses": [],
            }
            self.functions[fid] = entry
        for ann in _annotations(cursor):
            if ann not in entry["annotations"]:
                entry["annotations"].append(ann)
        return fid, entry

    # -- sinks and captures --------------------------------------------------

    def _find_lambda_arg(self, arg):
        """Depth-first search for a lambda inside one call argument,
        unwrapping implicit nodes (libclang shows the lambda-to-
        std::function conversion as a constructor CALL_EXPR, so the walk
        must cross calls) and the LC_CAPTURE_SAFE identity call.
        Returns (lambda_cursor, capture_safe_reason|None)."""
        stack = [(arg, None)]
        while stack:
            cursor, reason = stack.pop()
            if cursor.kind == cindex.CursorKind.LAMBDA_EXPR:
                return cursor, reason
            if (cursor.kind == cindex.CursorKind.CALL_EXPR
                    and cursor.spelling == "CaptureSafe"):
                reason = self._capture_safe_reason(cursor)
            for child in cursor.get_children():
                stack.append((child, reason))
        return None, None

    def _capture_safe_reason(self, call):
        for token in call.get_tokens():
            if token.kind == cindex.TokenKind.LITERAL and \
                    token.spelling.startswith('"'):
                return token.spelling.strip('"')
        return ""

    def _lambda_capture_tokens(self, lam):
        return [t.spelling for t in lam.get_tokens()]

    def _capture_value_type(self, lam, name):
        """Type spelling of a by-value capture, resolved through the first
        reference to `name` inside the lambda (libclang points captured-use
        DECL_REF_EXPRs at the original declaration)."""
        stack = list(lam.get_children())
        while stack:
            cursor = stack.pop()
            if (cursor.kind == cindex.CursorKind.DECL_REF_EXPR
                    and cursor.spelling == name
                    and cursor.referenced is not None):
                return cursor.referenced.type.spelling
            stack.extend(cursor.get_children())
        return None

    def _record_sink_call(self, call, enclosing_id):
        ref = call.referenced
        if ref is None:
            return
        method = call.spelling
        sem = ref.semantic_parent
        cls = sem.spelling if sem is not None else ""
        if call.kind == cindex.CursorKind.CALL_EXPR and cls == "thread" \
                and ref.kind == cindex.CursorKind.CONSTRUCTOR:
            sink = "thread"
        elif method in ASYNC_SINKS and cls in ASYNC_SINKS[method]:
            sink = "%s::%s" % (cls, method)
        else:
            return
        try:
            arguments = list(call.get_arguments())
        except Exception:  # pragma: no cover - defensive
            arguments = list(call.get_children())
        for arg in arguments:
            lam, reason = self._find_lambda_arg(arg)
            if lam is None:
                continue
            f, line = _loc(lam, self.root)
            key = (f, line, lam.location.column)
            self._lambda_sinks[key] = sink
            if sink == "thread":
                continue  # confinement only; std::thread is not a sink
            captures = checks.parse_capture_tokens(
                self._lambda_capture_tokens(lam))
            for capture in captures:
                if capture["mode"] == "value" and capture.get("name"):
                    capture["type"] = self._capture_value_type(
                        lam, capture["name"])
            enclosing = self.functions.get(enclosing_id, {})
            self.async_sites.append({
                "sink": sink, "file": f, "line": line,
                "captures": captures, "capture_safe": reason,
                "enclosing": enclosing.get("name", enclosing_id or "<file>"),
            })

    # -- determinism --------------------------------------------------------

    def _record_determinism(self, cursor, enclosing_id):
        kind = cursor.kind
        f, line = _loc(cursor, self.root)
        enclosing = self.functions.get(enclosing_id, {})
        enclosing_name = enclosing.get("name", "<file>")

        def emit(dkind, detail):
            self.determinism.append({
                "kind": dkind, "detail": detail, "file": f, "line": line,
                "enclosing": enclosing_name,
            })

        if kind == cindex.CursorKind.CALL_EXPR:
            ref = cursor.referenced
            name = cursor.spelling
            if (name in BANNED_CALLS and ref is not None
                    and ref.kind == cindex.CursorKind.FUNCTION_DECL):
                emit("banned_call", name)
            elif name in ITER_METHODS and ref is not None and \
                    ref.kind == cindex.CursorKind.CXX_METHOD:
                if line not in self._range_for_lines and \
                        self._call_receiver_unordered(cursor):
                    emit("unordered_escape", name)
        elif kind == cindex.CursorKind.CXX_FOR_RANGE_STMT:
            for child in cursor.get_children():
                if child.kind == cindex.CursorKind.COMPOUND_STMT:
                    continue
                spelling = child.type.spelling or ""
                if any(u in spelling for u in UNORDERED_SPELLINGS):
                    self._range_for_lines.update(
                        range(cursor.extent.start.line,
                              cursor.extent.end.line + 1))
                    emit("unordered_iter", spelling)
                    break
        elif kind in (cindex.CursorKind.VAR_DECL,
                      cindex.CursorKind.FIELD_DECL):
            spelling = cursor.type.spelling or ""
            if any(e in spelling for e in RNG_ENGINE_SPELLINGS):
                emit("rng_engine", spelling)
            elif checks.is_pointer_keyed_container(spelling):
                emit("pointer_key", spelling)

    def _call_receiver_unordered(self, call, depth=3):
        stack = [(c, 0) for c in call.get_children()]
        while stack:
            cursor, d = stack.pop()
            spelling = cursor.type.spelling or ""
            if any(u in spelling for u in UNORDERED_SPELLINGS):
                return True
            if d < depth:
                stack.extend((c, d + 1) for c in cursor.get_children())
        return False

    # -- traversal ----------------------------------------------------------

    FUNCTION_KINDS = None  # set lazily; CursorKind unavailable sans cindex

    def walk(self, cursor, ctx):
        if _Extractor.FUNCTION_KINDS is None:
            _Extractor.FUNCTION_KINDS = {
                cindex.CursorKind.FUNCTION_DECL: "function",
                cindex.CursorKind.CXX_METHOD: "method",
                cindex.CursorKind.CONSTRUCTOR: "constructor",
                cindex.CursorKind.DESTRUCTOR: "destructor",
                cindex.CursorKind.FUNCTION_TEMPLATE: "function",
            }
        kind = cursor.kind
        next_ctx = ctx

        if kind in _Extractor.FUNCTION_KINDS:
            fid, _ = self._func_entry(
                cursor, _Extractor.FUNCTION_KINDS[kind], None)
            if cursor.is_definition():
                next_ctx = fid
        elif kind == cindex.CursorKind.LAMBDA_EXPR:
            fid, entry = self._func_entry(cursor, "lambda", ctx)
            key = (entry["file"], entry["line"], cursor.location.column)
            sink = self._lambda_sinks.get(key)
            if sink is not None:
                entry["sink"] = sink
            next_ctx = fid
        elif kind == cindex.CursorKind.CALL_EXPR and ctx is not None:
            ref = cursor.referenced
            if ref is not None:
                callee = ref.get_usr()
                entry = self.functions[ctx]
                if callee and callee not in entry["calls"]:
                    entry["calls"].append(callee)
                if cursor.spelling == "AssertOnLoopThread":
                    entry["asserts_loop"] = True
            self._record_sink_call(cursor, ctx)
        elif kind == cindex.CursorKind.MEMBER_REF_EXPR and ctx is not None:
            ref = cursor.referenced
            if (ref is not None
                    and ref.kind == cindex.CursorKind.FIELD_DECL
                    and self._field_is_affine(ref)):
                f, line = _loc(cursor, self.root)
                sem = ref.semantic_parent
                self.functions[ctx]["affine_accesses"].append({
                    "member": ref.spelling,
                    "class": sem.spelling if sem is not None else "",
                    "file": f, "line": line,
                })

        self._record_determinism(cursor, ctx)

        for child in cursor.get_children():
            if child.location.file is None or self._in_root(child):
                self.walk(child, next_ctx)


def compile_args(entry):
    """Whitelists the include/define/std flags from one compile_commands
    entry and pins the analysis configuration. Pure; unit-tested via
    checks.py re-export."""
    return checks.whitelist_compile_args(entry)


def extract_tu(entry, root):
    """Parses one compile_commands entry; returns (facts, deps, errors)
    where deps is the list of in-repo files (absolute) the TU read and
    errors the count of parse diagnostics at error severity or above."""
    configure_library()
    root = os.path.realpath(root)
    index = cindex.Index.create()
    path = entry["file"]
    if not os.path.isabs(path):
        path = os.path.join(entry.get("directory", root), path)
    path = os.path.realpath(path)
    tu = index.parse(path, args=compile_args(entry))

    errors = sum(1 for d in tu.diagnostics
                 if d.severity >= cindex.Diagnostic.Error)

    extractor = _Extractor(root)
    # Pass 1 over top-level cursors: sink registration happens inside the
    # same walk (calls are visited before the lambda argument's own cursor
    # because get_children yields the call before descending).
    for child in tu.cursor.get_children():
        if extractor._in_root(child):
            extractor.walk(child, None)

    deps = {path}
    for inc in tu.get_includes():
        try:
            dep = os.path.realpath(inc.include.name)
        except AttributeError:  # pragma: no cover
            continue
        if dep.startswith(root + os.sep):
            deps.add(dep)

    facts = {
        "tu": _rel(path, root),
        "functions": extractor.functions,
        "async_sites": extractor.async_sites,
        "determinism": extractor.determinism,
    }
    return facts, sorted(deps), errors
