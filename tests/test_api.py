import ast
import functools
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import numpy as np

import loowit
from loowit import loo, qstate

import samplers

PUBLIC_NAMES = [
    "DensityMatrix",
    "LOOBasis",
    "OrthogonalRotation",
    "SchmidtDecomposition",
    "Spectra",
    "concurrence_pure",
    "gell_mann_basis",
    "lmax_pure",
    "load_state",
    "make_state",
    "mixture",
    "partial_trace",
    "partial_transpose",
    "pauli_basis",
    "pure_state",
    "realign",
    "rotate",
    "save_state",
    "schmidt",
    "spectra",
    "trace_norm",
    "transpose_basis",
    "white_noise_mixture",
]

# Seeded samplers live in tests/samplers.py; the library keeps none.
SAMPLER_NAMES = [
    "_rng",
    "haar_state_vector",
    "haar_unitary",
    "random_pure_state",
    "random_mixed_state",
    "random_product_state",
    "random_separable_state",
    "local_unitary_conjugate",
    "haar_rotation",
]


def test_public_surface():
    assert sorted(loowit.__all__) == PUBLIC_NAMES
    assert all(hasattr(loowit, name) for name in PUBLIC_NAMES)
    for module in (qstate, loo):
        assert [name for name in SAMPLER_NAMES if hasattr(module, name)] == []
    assert all(callable(getattr(samplers, name)) for name in SAMPLER_NAMES)


# Only tests called these; the tests' own copies live in tests/samplers.py
# (the two matrices) and tests/oracles.py (the brute-force references and the
# Monte-Carlo sampler, whose report class is gone).  validate and its
# Violation were a second state check beside criteria.spectra.  The optimal_*
# wrappers and their result types recomputed what spectra(ρ) and its optimum give,
# and the two user-pair values what Spectra.witness_value reads from a record.
REMOVED_NAMES = {"correlation_matrix", "covariance_matrix", "recompute_witness_direct", "max_concurrence",
                 "OracleReport", "sampled_max_trace", "validate", "Violation",
                 "LinearOptimum", "NonlinearOptimum", "optimal_linear_min", "optimal_nonlinear_min",
                 "linear_witness_value", "nonlinear_witness_value"}
# witness held the user-basis values, the bracket and lmax_pure, now in criteria.
REMOVED_MODULES = {"witness"}
TESTS = Path(__file__).resolve().parent


def package_modules():
    return [importlib.import_module(f"loowit.{info.name}") for info in pkgutil.iter_modules(loowit.__path__)]


def test_removed_names_are_unreachable():
    # Under no name, and under no alias: no attribute of the package or of any
    # of its modules is a function of a removed name.
    for module in (loowit, *package_modules()):
        reached = [name for name, value in vars(module).items()
                   if REMOVED_NAMES & {name, getattr(value, "__name__", None)}]
        assert reached == [], module.__name__


def test_removed_modules_are_gone():
    assert [name for name in REMOVED_MODULES if importlib.util.find_spec(f"loowit.{name}") is not None] == []


def test_library_imports_nothing_from_tests():
    test_modules = {path.stem for path in TESTS.glob("*.py")} | {"tests"}
    for module in package_modules():
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imported = {alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module and not node.level}
        assert imported & test_modules == set(), module.__name__


def test_oracles_module_imports_numpy_only():
    # The brute-force references must share no code path with the library.
    tree = ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"__future__", "numpy"}


def test_correlation_and_covariance_are_plain_arrays():
    # The user-basis record: μ and τ = μ - a·bᵀ are plain real arrays.
    rho = samplers.random_mixed_state(2, 3, np.random.default_rng(5))
    mu, a, b = loo.correlations(qstate.realign(rho), loo.gell_mann_basis(2), loo.gell_mann_basis(3))
    for m in (mu, mu - np.outer(a, b)):
        assert type(m) is np.ndarray
        assert m.dtype == float and m.shape == (4, 9)
    assert a.shape == (4,) and b.shape == (9,)


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_runs_and_its_names_exist():
    text = README.read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    exec(compile(example, str(README), "exec"), {})
    # Every cited `module.name` or `Class.name` of the package, called or not,
    # such as `codec.load_state` or `loowit.cli.main(argv)`, must resolve.
    heads = {name: getattr(loowit, name) for name in loowit.__all__}
    for info in pkgutil.iter_modules(loowit.__path__):
        heads[info.name] = importlib.import_module(f"loowit.{info.name}")
    cited = [name for name in re.findall(r"`(?:loowit\.)?((?:\w+\.)+\w+)[`(]", text) if name.split(".")[0] in heads]
    assert cited

    def resolve(name):
        head, *rest = name.split(".")
        return functools.reduce(lambda obj, attr: getattr(obj, attr, None), rest, heads[head])

    assert [name for name in cited if resolve(name) is None] == []


def test_docstring_cross_references_resolve():
    # Every :func:, :meth:, :class:, :data: or :attr: target in the package's
    # source must name something that exists.  A bare name resolves in its
    # own module or on the class whose body cites it; a dotted one may also
    # start at the package, with or without the ``loowit.``.
    def resolve(name, start):
        return functools.reduce(lambda obj, attr: getattr(obj, attr, None), name.split("."), start)

    cited, unresolved = 0, []
    for info in pkgutil.iter_modules(loowit.__path__):
        module = importlib.import_module(f"loowit.{info.name}")
        text = Path(module.__file__).read_text(encoding="utf-8")
        classes = [node for node in ast.walk(ast.parse(text)) if isinstance(node, ast.ClassDef)]
        for match in re.finditer(r":(?:func|meth|class|data|attr):`~?([^`]+)`", text):
            cited += 1
            line = text.count("\n", 0, match.start()) + 1
            name = match[1].removeprefix("loowit.")
            starts = [getattr(module, c.name, None) for c in classes if c.lineno <= line <= c.end_lineno]
            starts += [module, loowit] if "." in name else [module]
            if all(resolve(name, start) is None for start in starts):
                unresolved.append(f"{info.name}:{line}: {match[1]}")
    assert cited
    assert unresolved == []
