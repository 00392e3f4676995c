"""Plain ``ast`` checks over ``src/repro``: no wall-clock or unseeded-RNG
call anywhere (imports resolved; ``perf_counter`` and ``monotonic`` time
durations and stay allowed), no set iteration on a simulation path outside
a set comprehension, and no process, thread or shared-memory import.
"""

import ast
import random
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"

WALL_CLOCK = frozenset(
    "time.time time.time_ns time.localtime time.gmtime time.ctime time.asctime "
    "time.strftime datetime.date.today datetime.datetime.now "
    "datetime.datetime.utcnow datetime.datetime.today".split()
)
GLOBAL_RNG = frozenset(
    f"random.{n}" for n in random.__all__ if n.islower() or n == "SystemRandom"
)
SIM_PACKAGES = ("net", "core", "faults", "load", "autoscale", "anomaly")
SET_TYPES = ("set", "frozenset", "typing.Set", "typing.FrozenSet")


def clock_and_rng_calls(source):
    """``line: name()`` for every wall-clock or unseeded-RNG call."""
    tree = ast.parse(source)
    aliases = {}  # local name -> what an ``as`` or ``from`` import binds it to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((a.asname, a.name) for a in node.names if a.asname)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            aliases.update(
                (a.asname or a.name, f"{node.module}.{a.name}") for a in node.names
            )
    found = []
    for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
        head, dot, rest = ast.unparse(call.func).partition(".")
        name = aliases.get(head, head) + dot + rest
        unseeded = name == "random.Random" and not (call.args or call.keywords)
        if name in WALL_CLOCK or name in GLOBAL_RNG or unseeded:
            found.append(f"{call.lineno}: {name}()")
    return found


def is_set_expr(node):
    """True for expressions that evaluate to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return ast.unparse(node.func) in ("set", "frozenset")
    set_ops = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    if isinstance(node, ast.BinOp) and isinstance(node.op, set_ops):
        return is_set_expr(node.left) or is_set_expr(node.right)
    return False


def set_iterations(source):
    """``line: expr`` for every loop or non-set comprehension over a set,
    or over an attribute the module annotates as a set or assigns one to."""
    tree = ast.parse(source)
    set_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            if ast.unparse(node.annotation).split("[")[0] in SET_TYPES:
                set_names.add(ast.unparse(node.target).split(".")[-1])
        elif isinstance(node, ast.Assign) and is_set_expr(node.value):
            set_names.update(
                t.attr for t in node.targets if isinstance(t, ast.Attribute)
            )
    in_setcomp = {
        id(g) for n in ast.walk(tree) if isinstance(n, ast.SetComp)
        for g in n.generators
    }
    return [
        f"{node.iter.lineno}: {ast.unparse(node.iter)}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))
        and id(node) not in in_setcomp
        and (is_set_expr(node.iter) or getattr(node.iter, "attr", None) in set_names)
    ]


@pytest.mark.parametrize("check", [clock_and_rng_calls, set_iterations])
def test_src_repro_holds(check):
    packages = SIM_PACKAGES if check is set_iterations else ("",)
    paths = sorted({path for p in packages for path in (SRC / p).rglob("*.py")})
    found = [
        f"{path.relative_to(SRC)}:{finding}"
        for path in paths
        for finding in check(path.read_text(encoding="utf-8"))
    ]
    assert found == []


CALLS = {  # snippet -> flagged by the clock/RNG check
    "import time; time.time()": True, "import time; time.time_ns()": True,
    "from datetime import datetime; datetime.now()": True,
    "import datetime; datetime.datetime.utcnow()": True,
    "import random; random.random()": True, "import random; random.Random()": True,
    "import random; random.randint(1, 6)": True,
    "import random; random.SystemRandom(7)": True,
    "import time\ndef stamp(): return time.time()": True,
    "from time import time; time()": True, "import random as r; r.random()": True,
    "import time; time.perf_counter()": False,
    "from time import monotonic; monotonic()": False,
    "import random; random.Random(7)": False,
    "import random as r; rng = r.Random(seed); rng.random()": False,
}
LOOPS = {  # snippet -> flagged by the set-iteration check
    "for x in {1, 2}: pass": True, "for x in set(items): pass": True,
    "for x in frozenset(items): pass": True, "for x in set(a) - b: pass": True,
    "left = {0}\nfor x in left | {3}: pass": True,
    "out = [x for x in {1, 2}]": True, "out = {k: 1 for k in set(names)}": True,
    "self.members = set()\nfor m in self.members: pass": True,
    "referrers: set[int]\nout = [r for r in entry.referrers]": True,
    "self.members = set()\nfor m in sorted(self.members): pass": False,
    "for x in [1, 2]: pass": False, "for k in {'a': 1}: pass": False,
    "referrers: set[int]\nkeep = {r for r in entry.referrers if r}": False,
}


@pytest.mark.parametrize("source, flagged", CALLS.items())
def test_clock_and_rng_check(source, flagged):
    assert len(clock_and_rng_calls(source)) == flagged


@pytest.mark.parametrize("source, flagged", LOOPS.items())
def test_set_iteration_check(source, flagged):
    assert len(set_iterations(source)) == flagged


#: Modules that hand out operating-system resources (processes, threads,
#: shared-memory segments).  The RES/CON rule families that watched their
#: use left with the only code that used them.
OS_RESOURCE_MODULES = (
    "multiprocessing", "threading", "concurrent.futures", "subprocess",
)


def test_src_repro_imports_no_os_resource_modules():
    offenders = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            for name in names:
                if name.startswith(OS_RESOURCE_MODULES) or "shared_memory" in name:
                    offenders.append(
                        f"{path.relative_to(REPO_ROOT)}:{node.lineno}: {name}"
                    )
    assert offenders == [], (
        "src/repro is single-process and single-threaded; these imports "
        "bring OS resources back:\n  " + "\n  ".join(offenders) + "\n"
        "Restore the checks that guard them in the same change: the lint "
        "engine was last present at 2900c85, its RES001/RES002 and "
        "CON001/CON002 rules at b5c3ae5 "
        "(`git show b5c3ae5:src/repro/analysis/rules/resources.py`)."
    )


#: Scan-time metrics the instance fills from ``perf_counter``.  Only their
#: producer and ``repro-dpi report`` may name them: a decision that read
#: them would depend on the machine and could never be pinned by a digest.
def test_src_repro_imports_only_the_standard_library_and_repro():
    """The package installs and imports with no third-party runtime
    dependency, so a bare ``PYTHONPATH=src`` can import all of it."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    offenders.append(
                        f"{path.relative_to(REPO_ROOT)}:{node.lineno}: {name}"
                    )
    assert offenders == [], "third-party imports:\n  " + "\n  ".join(offenders)


WALL_CLOCK_METRICS = ("dpi_scan_seconds_total", "dpi_scan_latency_seconds")
WALL_CLOCK_METRIC_FILES = {"core/instance.py", "telemetry/report.py"}


def test_no_decision_reads_wall_clock_scan_time():
    naming = sorted(
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if any(name in path.read_text(encoding="utf-8") for name in WALL_CLOCK_METRICS)
    )
    assert set(naming) <= WALL_CLOCK_METRIC_FILES, naming
