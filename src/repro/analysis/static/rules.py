"""The repository-specific lint rules.

Each rule guards one convention the train→export→serve pipeline's
correctness certificates rest on; the rule ids below are referenced from
the docstrings of the modules they certify and from the "Enforced
invariants" section of ``ROADMAP.md``.

``RNG-DISCIPLINE``
    No legacy global-state RNG (``np.random.seed``, ``np.random.shuffle``,
    ``np.random.rand``, ...) anywhere, and no ``np.random.default_rng``
    inside the ``repro`` package outside ``utils/rng.py`` — library code
    must route through :func:`repro.utils.rng.ensure_rng` /
    :func:`repro.utils.rng.spawn_generators` so that every stream is
    seedable and spawnable.  One stray global-state call breaks the
    bitwise serial-parity contract of the training runtime.
``DTYPE-DISCIPLINE``
    Array constructors in the hot kernels (``core/fused.py`` and the work
    arrays it takes from ``utils/workspace.py``, ``serving/scorers.py``,
    ``serving/kernel.py``, ``serving/retrieval.py``) must pass an explicit
    ``dtype=`` — the mechanical precondition for the planned float32
    kernel backend: a dtype-less allocation silently pins float64 and
    would desynchronise a mixed-precision hot path.
``PICKLE-FREE-IO``
    No ``import pickle`` and no ``np.load`` without ``allow_pickle=False``
    in ``serving/`` and ``utils/io.py`` — serving artifacts are certified
    pickle-free, so artifact files can be loaded from untrusted storage
    without an arbitrary-code-execution surface.
``HOGWILD-SAFETY``
    Fused-step/optimizer code reachable from ``executor="sharded"`` must
    mutate parameter tables in place (row-indexed stores or ``out=``
    ufuncs).  Rebinding ``parameter.data`` swaps the buffer under
    concurrent shard threads (losing their writes wholesale), and a
    whole-table ``optimizer.step()`` inside a fused step reintroduces the
    dense pass the Hogwild safety argument excludes.
``SLOW-MARKER``
    Test functions under ``tests/``/``benchmarks/`` that both measure wall
    time and assert on a comparison must carry ``@pytest.mark.slow`` so
    timing-sensitive gates stay out of the default tier-1 selection.
``ATOMIC-IO``
    Durable-path modules (``serving/``, ``utils/io.py``,
    ``training/checkpoint.py``, ``benchmarks/recording.py``) must write
    files through :func:`repro.utils.io.atomic_write` — no bare
    ``open(path, "w")``, no direct ``np.save*`` to a final path, no
    ``Path.write_text``/``write_bytes``.  A torn write to an artifact,
    checkpoint or benchmark record is exactly the failure the reliability
    layer exists to rule out; the atomic writer (temp file + fsync +
    ``os.replace``) is the one blessed way to publish bytes.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Optional

from repro.analysis.static.framework import (
    Rule,
    RuleVisitor,
    Violation,
    in_library,
    path_endswith,
    path_has_segment,
    register_rule,
)

#: Names the ``numpy`` module is commonly bound to.
_NUMPY_ALIASES = frozenset({"np", "numpy"})

#: ``np.random`` attributes that construct *local* generator objects (the
#: modern, seedable API) rather than touching the hidden global state.
_RNG_OBJECT_API = frozenset({
    "Generator", "BitGenerator", "SeedSequence", "default_rng",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

#: The blessed home of raw ``np.random.default_rng`` calls inside the
#: library package.
_RNG_MODULE = "repro/utils/rng.py"

#: Array constructors that default to float64 unless told otherwise.
_DTYPE_CONSTRUCTORS = frozenset({"zeros", "empty", "ones", "full", "arange"})

#: The hot kernels the float32 backend migration will retarget.
_HOT_MODULES = (
    "repro/core/fused.py",
    "repro/serving/scorers.py",
    "repro/serving/kernel.py",
    "repro/serving/retrieval.py",
    # Allocates the fused step's work arrays.
    "repro/utils/workspace.py",
)

#: Modules that must stay free of pickle-capable deserialisation.
_PICKLE_IMPORTS = frozenset({"pickle", "cPickle", "_pickle", "dill"})

#: Functions on the Hogwild write path: the fused training steps and the
#: out-of-band optimizer entry points they drive.  Only code in these
#: functions runs under concurrent shard threads with no locks.
_HOGWILD_FUNCTIONS = frozenset({
    "step", "step_rows", "step_dense",
    "_fused_step", "_train_step_fused", "_apply_fused_updates",
})

#: Fused-step bodies specifically must never fall back to the dense
#: whole-table optimizer pass.
_FUSED_STEP_FUNCTIONS = frozenset({"_fused_step", "_train_step_fused"})

#: Wall-clock sources whose presence marks a function as timing-sensitive.
_TIMING_CALLS = frozenset({"perf_counter", "monotonic", "process_time", "time"})

#: NumPy writers that publish straight to their destination path.
_NUMPY_WRITERS = frozenset({"save", "savez", "savez_compressed", "savetxt"})

#: Pathlib convenience writers (non-atomic: truncate-then-write in place).
_PATH_WRITERS = frozenset({"write_text", "write_bytes"})

#: ``open`` modes that can destroy or tear an existing file.
_WRITE_MODE_CHARS = frozenset("wax+")


def _attribute_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]``; ``None`` for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


# --------------------------------------------------------------------------- #
# RNG-DISCIPLINE
# --------------------------------------------------------------------------- #
class _RngVisitor(RuleVisitor):
    def __init__(self, rule: Rule, path: Path) -> None:
        super().__init__(rule, path)
        self._in_package = in_library(path)
        self._is_rng_module = path_endswith(path, _RNG_MODULE)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain = _attribute_chain(node)
        if chain and len(chain) >= 3 and chain[0] in _NUMPY_ALIASES \
                and chain[1] == "random":
            attr = chain[2]
            if attr not in _RNG_OBJECT_API:
                self.report(node, (
                    f"np.random.{attr} uses the hidden global RNG state; "
                    "route randomness through repro.utils.rng.ensure_rng / "
                    "spawn_generators"))
            elif (attr == "default_rng" and self._in_package
                    and not self._is_rng_module):
                self.report(node, (
                    "library code must not call np.random.default_rng "
                    "directly; accept a RandomState and normalise it with "
                    "repro.utils.rng.ensure_rng / spawn_generators"))
        self.generic_visit(node)


@register_rule
class RngDisciplineRule(Rule):
    rule_id = "RNG-DISCIPLINE"
    description = ("no global-state np.random calls; library code routes "
                   "through repro.utils.rng")

    def check(self, tree: ast.AST, path: Path) -> List[Violation]:
        return _RngVisitor(self, path).run(tree)


# --------------------------------------------------------------------------- #
# DTYPE-DISCIPLINE
# --------------------------------------------------------------------------- #
class _DtypeVisitor(RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        chain = _attribute_chain(node.func)
        if (chain and len(chain) == 2 and chain[0] in _NUMPY_ALIASES
                and chain[1] in _DTYPE_CONSTRUCTORS
                and not any(kw.arg == "dtype" for kw in node.keywords)):
            self.report(node, (
                f"np.{chain[1]} in a hot kernel must pass an explicit "
                "dtype= (precondition for the float32 kernel backend)"))
        self.generic_visit(node)


@register_rule
class DtypeDisciplineRule(Rule):
    rule_id = "DTYPE-DISCIPLINE"
    description = ("hot-kernel array constructors (np.zeros/empty/ones/full/"
                   "arange) must pass dtype=")

    def applies_to(self, path: Path) -> bool:
        return any(path_endswith(path, module) for module in _HOT_MODULES)

    def check(self, tree: ast.AST, path: Path) -> List[Violation]:
        return _DtypeVisitor(self, path).run(tree)


# --------------------------------------------------------------------------- #
# PICKLE-FREE-IO
# --------------------------------------------------------------------------- #
class _PickleVisitor(RuleVisitor):
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in _PICKLE_IMPORTS:
                self.report(node, (
                    f"import {alias.name} in a pickle-free module; serving "
                    "artifacts must stay loadable with allow_pickle=False"))
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        root = (node.module or "").split(".")[0]
        if root in _PICKLE_IMPORTS:
            self.report(node, (
                f"from {node.module} import ... in a pickle-free module; "
                "serving artifacts must stay loadable with "
                "allow_pickle=False"))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        chain = _attribute_chain(node.func)
        if chain and len(chain) == 2 and chain[0] in _NUMPY_ALIASES \
                and chain[1] == "load":
            allow = next((kw.value for kw in node.keywords
                          if kw.arg == "allow_pickle"), None)
            if not (isinstance(allow, ast.Constant) and allow.value is False):
                self.report(node, (
                    "np.load without allow_pickle=False can execute "
                    "arbitrary code from a crafted artifact file"))
        self.generic_visit(node)


@register_rule
class PickleFreeIoRule(Rule):
    rule_id = "PICKLE-FREE-IO"
    description = ("no pickle imports and no np.load without "
                   "allow_pickle=False in serving/, streaming/ and "
                   "utils/io.py")

    def applies_to(self, path: Path) -> bool:
        return ("repro/serving/" in path.as_posix()
                or "repro/streaming/" in path.as_posix()
                or path_endswith(path, "repro/utils/io.py"))

    def check(self, tree: ast.AST, path: Path) -> List[Violation]:
        return _PickleVisitor(self, path).run(tree)


# --------------------------------------------------------------------------- #
# HOGWILD-SAFETY
# --------------------------------------------------------------------------- #
class _HogwildVisitor(RuleVisitor):
    """Checks the bodies of functions on the sharded-executor write path."""

    def __init__(self, rule: Rule, path: Path) -> None:
        super().__init__(rule, path)
        self._scope: List[str] = []

    def _visit_function(self, node) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _in_hogwild_scope(self) -> bool:
        return any(name in _HOGWILD_FUNCTIONS for name in self._scope)

    def _in_fused_step(self) -> bool:
        return any(name in _FUSED_STEP_FUNCTIONS for name in self._scope)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._in_hogwild_scope():
            for target in node.targets:
                elements = (target.elts if isinstance(target, (ast.Tuple, ast.List))
                            else [target])
                for element in elements:
                    if isinstance(element, ast.Attribute) and element.attr == "data":
                        self.report(element, (
                            "rebinding a parameter table (`X.data = ...`) on "
                            "the Hogwild write path swaps the buffer under "
                            "concurrent shard threads; update in place "
                            "(`table[rows] = ...` or an out= ufunc)"))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self._in_fused_step():
            chain = _attribute_chain(node.func)
            if (chain and len(chain) >= 2 and chain[-1] in ("step", "zero_grad")
                    and not node.args and not node.keywords):
                self.report(node, (
                    f"whole-table optimizer pass `{'.'.join(chain)}()` inside "
                    "a fused step; fused engines must apply sparse "
                    "step_rows / step_dense updates only"))
        self.generic_visit(node)


@register_rule
class HogwildSafetyRule(Rule):
    rule_id = "HOGWILD-SAFETY"
    description = ("fused-step/optimizer code must mutate parameter tables "
                   "in place, never rebind them")

    def applies_to(self, path: Path) -> bool:
        return in_library(path)

    def check(self, tree: ast.AST, path: Path) -> List[Violation]:
        return _HogwildVisitor(self, path).run(tree)


# --------------------------------------------------------------------------- #
# SLOW-MARKER
# --------------------------------------------------------------------------- #
def _is_slow_mark(node: ast.AST) -> bool:
    """Matches ``pytest.mark.slow`` (optionally called or parametrised)."""
    if isinstance(node, ast.Call):
        node = node.func
    chain = _attribute_chain(node)
    return bool(chain) and len(chain) >= 2 and chain[-2] == "mark" \
        and chain[-1] == "slow"


def _module_marked_slow(tree: ast.Module) -> bool:
    """Whether module-level ``pytestmark`` carries the slow marker."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "pytestmark"
                for t in node.targets):
            values = (node.value.elts
                      if isinstance(node.value, (ast.List, ast.Tuple))
                      else [node.value])
            if any(_is_slow_mark(value) for value in values):
                return True
    return False


class _SlowMarkerVisitor(RuleVisitor):
    def __init__(self, rule: Rule, path: Path) -> None:
        super().__init__(rule, path)
        self._class_marked: List[bool] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        marked = any(_is_slow_mark(d) for d in node.decorator_list)
        self._class_marked.append(marked or any(self._class_marked[-1:]))
        self.generic_visit(node)
        self._class_marked.pop()

    def _visit_function(self, node) -> None:
        if node.name.startswith("test_") and not (
                any(_is_slow_mark(d) for d in node.decorator_list)
                or any(self._class_marked[-1:])):
            if self._times_and_asserts(node):
                self.report(node, (
                    f"{node.name} measures wall time and asserts on a "
                    "comparison; timing-sensitive gates must carry "
                    "@pytest.mark.slow so tier-1 runs stay deterministic"))
        # No recursion into nested defs for marker purposes: the nested
        # bodies were already scanned by _times_and_asserts.

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    @staticmethod
    def _times_and_asserts(node) -> bool:
        times = False
        asserts = False
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                chain = _attribute_chain(child.func)
                if chain and chain[-1] in _TIMING_CALLS \
                        and (len(chain) == 1 or chain[-2] == "time"):
                    times = True
            elif isinstance(child, ast.Assert) and any(
                    isinstance(part, ast.Compare)
                    for part in ast.walk(child.test)):
                asserts = True
            if times and asserts:
                return True
        return False


# --------------------------------------------------------------------------- #
# ATOMIC-IO
# --------------------------------------------------------------------------- #
def _is_atomic_write_call(node: ast.AST) -> bool:
    """Matches ``atomic_write(...)`` / ``io.atomic_write(...)`` calls."""
    if not isinstance(node, ast.Call):
        return False
    chain = _attribute_chain(node.func)
    return bool(chain) and chain[-1] == "atomic_write"


class _AtomicIoVisitor(RuleVisitor):
    """Flags non-atomic file publication on the durable-write path.

    Two lexical exemptions mark the blessed path itself: the body of a
    function *named* ``atomic_write`` (the implementation has to stage,
    fsync and rename somehow) and the body of a ``with atomic_write(...)``
    block (writes there go to the staged temp handle, not the final path).
    """

    def __init__(self, rule: Rule, path: Path) -> None:
        super().__init__(rule, path)
        self._exempt = 0

    def _visit_function(self, node) -> None:
        if node.name == "atomic_write":
            self._exempt += 1
            self.generic_visit(node)
            self._exempt -= 1
        else:
            self.generic_visit(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_With(self, node: ast.With) -> None:
        if any(_is_atomic_write_call(item.context_expr)
               for item in node.items):
            self._exempt += 1
            self.generic_visit(node)
            self._exempt -= 1
        else:
            self.generic_visit(node)

    visit_AsyncWith = visit_With

    @staticmethod
    def _write_mode(node: ast.Call) -> Optional[str]:
        """The constant mode string of an ``open`` call, if any."""
        mode: Optional[ast.AST] = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return None

    def visit_Call(self, node: ast.Call) -> None:
        if self._exempt:
            self.generic_visit(node)
            return
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            mode = self._write_mode(node)
            if mode is not None and set(mode) & _WRITE_MODE_CHARS:
                self.report(node, (
                    f"open(..., {mode!r}) writes the destination in place; "
                    "durable-path modules must publish through "
                    "repro.utils.io.atomic_write"))
        chain = _attribute_chain(node.func)
        if chain and len(chain) == 2 and chain[0] in _NUMPY_ALIASES \
                and chain[1] in _NUMPY_WRITERS:
            self.report(node, (
                f"np.{chain[1]} writes its destination path in place; stage "
                "through `with atomic_write(path) as handle` instead"))
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in _PATH_WRITERS:
            self.report(node, (
                f".{node.func.attr}() truncates the destination before "
                "writing; durable-path modules must publish through "
                "repro.utils.io.atomic_write"))
        self.generic_visit(node)


@register_rule
class AtomicIoRule(Rule):
    rule_id = "ATOMIC-IO"
    description = ("durable-path modules (serving/, streaming/, utils/io.py, "
                   "training/checkpoint.py, benchmarks/recording.py) must "
                   "write through repro.utils.io.atomic_write")

    def applies_to(self, path: Path) -> bool:
        return ("repro/serving/" in path.as_posix()
                or "repro/streaming/" in path.as_posix()
                or path_endswith(path, "repro/utils/io.py")
                or path_endswith(path, "repro/training/checkpoint.py")
                or path_endswith(path, "benchmarks/recording.py"))

    def check(self, tree: ast.AST, path: Path) -> List[Violation]:
        return _AtomicIoVisitor(self, path).run(tree)


@register_rule
class SlowMarkerRule(Rule):
    rule_id = "SLOW-MARKER"
    description = ("tests that time code and assert on comparisons must be "
                   "marked @pytest.mark.slow")

    def applies_to(self, path: Path) -> bool:
        return path_has_segment(path, "tests") \
            or path_has_segment(path, "benchmarks")

    def check(self, tree: ast.AST, path: Path) -> List[Violation]:
        visitor = _SlowMarkerVisitor(self, path)
        if isinstance(tree, ast.Module) and _module_marked_slow(tree):
            return []
        return visitor.run(tree)
