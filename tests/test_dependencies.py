"""The package's imports against its declared dependencies.  Every
third-party module that `src/isingpursuit/*.py` imports, at module level
or inside a function, is named in pyproject.toml's [project].dependencies.
And scipy.optimize, which only `optimize`'s search uses, stays unloaded
through `import isingpursuit`, a ramp `qaoa_solve` and a QAOA
`matching_pursuit`, and is loaded once a search runs: a fresh interpreter
checks it, since the oracles here import scipy.optimize themselves."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import isingpursuit

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "isingpursuit").glob("*.py"))


def declared_dependencies() -> set[str]:
    """The distribution names of [project].dependencies, lower-cased and cut
    before any extra, version or marker; read with regular expressions,
    comments dropped, since Python 3.10 has no tomllib."""
    text = (ROOT / "pyproject.toml").read_text()
    project = re.sub(r"#.*", "", text.split("\n[project]\n", 1)[1].split("\n[", 1)[0])
    entries = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.M | re.S).group(1)
    return {re.match(r"[\w.-]+", spec).group().lower()
            for spec in re.findall(r"\"([^\"]+)\"", entries)}


def third_party_imports() -> set[str]:
    """The top-level names of every absolute import in the package's
    modules, function-level imports included, less the standard library."""
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names - set(sys.stdlib_module_names) - {"isingpursuit"}


def test_every_third_party_import_is_a_declared_dependency():
    imported = third_party_imports()
    assert "scipy" in imported  # the walk reaches the import inside `optimize`
    # each module here is named as its distribution is
    assert imported <= declared_dependencies()


SCRIPT = """
import sys
from isingpursuit import (PursuitConfig, SolverSpec, build_hamiltonian, make_solver,
                          matching_pursuit, measure, optimize, qaoa_solve,
                          random_quadruplet_patterns, random_sparse_signal)

loaded = ["scipy.optimize" in sys.modules]
ms = random_quadruplet_patterns(6, 6, seed=0)
y = measure(random_sparse_signal(6, 2, seed=0), ms)
spec = SolverSpec("qaoa", 5, shots=64)
qaoa_solve(ms, y, spec, seed=0)
matching_pursuit(y, ms, PursuitConfig(make_solver(spec, 0), max_iterations=2))
loaded.append("scipy.optimize" in sys.modules)
H, _ = build_hamiltonian(ms, y).normalized()
optimize(H, 2, restarts=1, max_evals=5, seed=0)
loaded.append("scipy.optimize" in sys.modules)
print(*loaded)
"""


def test_scipy_optimize_is_loaded_by_the_search_alone():
    package_root = str(Path(isingpursuit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert run.returncode == 0, run.stderr
    # after the import, after the ramp solve and pursuit, after the search
    assert run.stdout.split() == ["False", "False", "True"]
