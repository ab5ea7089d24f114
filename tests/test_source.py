"""Source hygiene: every module of the package uses each name it imports,
every private name or constant it defines is read somewhere, the public
functions that only tests call are a pinned few, so are the optional
parameters of public functions and methods, and none reaches polyfit or
lstsq."""

import ast
from pathlib import Path

import pytest

import hilbloch

PACKAGE = Path(hilbloch.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
REPO = Path(__file__).resolve().parents[1]
# Code that may read a module's private names: the package and the benchmark harness.
READERS = sorted(PACKAGE.glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))
# Code that counts as a caller of a public function: the package, the benchmark harness and the demos.
CALLERS = READERS + sorted((REPO / "demos").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression in the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_detector_sees_an_unused_import():
    source = "from typing import Callable, Sequence\nimport numpy as np\n\nx: Sequence[int] = np.arange(3)\n"
    assert unused_imports(source) == ["Callable (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def internal_names(source: str) -> dict[str, int]:
    """Private names and UPPER constants bound at module level, with their lines."""
    bound = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if (name.startswith("_") and not name.startswith("__")) or name.isupper():
                bound[name] = node.lineno
    return bound


def names_read(source: str) -> set[str]:
    """Names and attributes that some expression loads."""
    tree = ast.parse(source)
    loads = [node for node in ast.walk(tree) if isinstance(getattr(node, "ctx", None), ast.Load)]
    return {node.id for node in loads if isinstance(node, ast.Name)} | {
        node.attr for node in loads if isinstance(node, ast.Attribute)
    }


def unread_names(source: str, readers: list[str]) -> list[str]:
    read = set().union(*(names_read(text) for text in readers))
    return [f"{name} (line {line})" for name, line in sorted(internal_names(source).items()) if name not in read]


def test_detector_sees_an_unread_name():
    source = "LIMIT = 10.0\n_TABLE = {}\nSPAN: int = 3\n\ndef _helper():\n    return SPAN\n\ndef public():\n    pass\n"
    reader = "import mod\nmod._TABLE.clear()\n"
    assert unread_names(source, [source, reader]) == ["LIMIT (line 1)", "_helper (line 5)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unread_name(path):
    assert unread_names(path.read_text(), [reader.read_text() for reader in READERS]) == []


def public_callables(source: str) -> dict[str, int]:
    """Public module-level functions and public methods ("Class.method"), with their lines."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node.lineno
        elif isinstance(node, ast.ClassDef):
            found.update({f"{node.name}.{item.name}": item.lineno for item in node.body if isinstance(item, ast.FunctionDef)})
    return {name: line for name, line in found.items() if not name.rsplit(".", 1)[-1].startswith("_")}


def uncalled_public(sources: list[str], callers: list[str]) -> set[str]:
    """Public functions and methods of the sources whose name no caller reads (by name or attribute)."""
    read = set().union(*(names_read(text) for text in callers))
    return {name for source in sources for name in public_callables(source) if name.rsplit(".", 1)[-1] not in read}


def test_detector_sees_an_uncalled_public_function():
    source = (
        "def used():\n    return 1\n\ndef spare():\n    pass\n\ndef _private():\n    pass\n\n"
        "class Box:\n    def open(self):\n        pass\n\n    def shut(self):\n        pass\n\n    def __len__(self):\n        return 0\n"
    )
    caller = "import mod\nmod.used()\nmod.Box().open()\n"
    assert uncalled_public([source], [source, caller]) == {"spare", "Box.shut"}


# Public functions no package module, demo or benchmark file calls: the JSON
# writers, the output half of the descriptors the CLI reads, and catalog and
# trend entry points kept for library users.  A helper that only tests call
# belongs in the test that needs it, not in this set.
UNCALLED_PUBLIC = {
    "config_to_json",
    "measure_to_json",
    "series_to_json",
    "weight_to_json",
    "builtin_measures",
    "series_catalog",
    "monotone_family",
    "trend_slopes",
}


def test_only_the_pinned_public_functions_go_uncalled():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert uncalled_public(sources, [caller.read_text() for caller in CALLERS]) == UNCALLED_PUBLIC


def shared_method_names(sources: list[str]) -> set[str]:
    """Public method names that more than one class of the sources defines."""
    owners: dict[str, int] = {}
    for source in sources:
        for name in public_callables(source):
            if "." in name:
                method = name.rsplit(".", 1)[-1]
                owners[method] = owners.get(method, 0) + 1
    return {method for method, count in owners.items() if count > 1}


def test_detector_sees_a_shared_method_name():
    first = "class Box:\n    def open(self):\n        pass\n\n    def shut(self):\n        pass\n"
    second = "def open():\n    pass\n\nclass Jar:\n    def open(self):\n        pass\n\n    def __len__(self):\n        return 0\n"
    assert shared_method_names([first, second]) == {"open"}


# uncalled_public matches callers by bare name, so one call of a shared method
# name counts for every class that defines it: a dead method hides behind a
# live namesake.  The shared names are pinned here so that a new one is seen.
SHARED_METHOD_NAMES = {"to_dict", "value_from_gap"}


def test_only_the_pinned_method_names_are_shared():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert shared_method_names(sources) == SHARED_METHOD_NAMES


def optional_parameters(source: str) -> set[tuple[str, str]]:
    """(callable, parameter) for every parameter with a default, and every **kwargs, of the public
    functions and methods ("Class.method", constructors included)."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            defs = [(node.name, node)]
        elif isinstance(node, ast.ClassDef):
            defs = [(f"{node.name}.{item.name}", item) for item in node.body if isinstance(item, ast.FunctionDef)]
        else:
            continue
        for name, fn in defs:
            last = name.rsplit(".", 1)[-1]
            if last.startswith("_") and not (last.startswith("__") and last.endswith("__")):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            found |= {(name, arg.arg) for arg in positional[len(positional) - len(args.defaults) :]}
            found |= {(name, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None}
            if args.kwarg is not None:
                found.add((name, "**" + args.kwarg.arg))
    return found


def test_detector_sees_optional_parameters():
    source = (
        "def f(a, b=1, *, c, d=2, **extra):\n    pass\n\ndef _g(x=1):\n    pass\n\n"
        "class Box:\n    def __init__(self, size=3):\n        pass\n\n    def _fit(self, tol=0.1):\n        pass\n"
    )
    assert optional_parameters(source) == {("f", "b"), ("f", "d"), ("f", "**extra"), ("Box.__init__", "size")}


# Every optional parameter of the public surface, 53 in all.  Each one has a
# caller in the package, a demo or the benchmark harness that sets it, or is a
# default that callers rely on; a value that only tests set is a constant of
# its module instead.
OPTIONAL_PARAMETERS = {
    # bloch.py
    "norm_direct": ("radial_depth",),
    "bloch_norm": ("method",),
    # catalog.py
    "atom_ladder": ("levels",),
    "series_catalog": ("n_max",),
    "monotone_family": ("n_max",),
    "resolve_series": ("truncation",),
    # cli.py
    "main": ("argv",),
    # errors.py
    "require_number": ("error",),
    # hilbert_op.py
    "criterion_general": ("n_max",),
    "criterion_moment": ("n_max",),
    "criterion_bloch_to_gamma": ("n_max", "depth"),
    "criterion_beta_spaces": ("depth",),
    "criterion_log_spaces": ("n_max", "depth"),
    # measures.py
    "power_log_density": ("gamma_log",),
    "RadialMeasure.__init__": ("atoms", "density", "label"),
    "RadialMeasure.moments_at": ("phi", "rel_tol"),
    "RadialMeasure.integral": ("rel_tol", "abs_floor", "upper"),
    "carleson_sup": ("gamma_log", "s", "depth"),
    "reweight_agreement": ("depth",),
    # quadrature.py
    "integrate_segments": ("rel_tol", "abs_floor"),
    "integrate_tail": ("rel_tol", "scale", "extrapolate"),
    "integrate_radial": ("lower", "upper", "rel_tol", "abs_floor", "extrapolate"),
    # reports.py
    "emit_report": ("fmt",),
    "write_report": ("fmt",),
    # suites.py
    "Case.result": ("ratio",),
    # trend.py
    "radius_ladder": ("depth",),
    "index_ladder": ("n_max",),
    "summarize_ladder": ("details",),
    # weights.py
    "power_weight": ("a", "b"),
    "power_log_weight": ("a", "b"),
    "log_power_weight": ("a", "b"),
    "build_extremal": ("levels",),
    "weight_ratio_bound": ("grid_depth",),
    "dyadic_sum_ratio": ("j_max",),
}
PINNED_OPTIONS = {(name, param) for name, params in OPTIONAL_PARAMETERS.items() for param in params}


def package_options(sources: dict[str, str]) -> set[tuple[str, str]]:
    return set().union(*(optional_parameters(text) for text in sources.values()))


def test_only_the_pinned_optional_parameters_exist():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert len(PINNED_OPTIONS) == 53
    assert package_options(sources) == PINNED_OPTIONS


def test_pin_sees_a_restored_option():
    # A copy of the package whose write_report takes its file stem again.
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    signature = "    fmt: str = FORMAT_JSON,\n) -> Path:"
    assert sources["reports.py"].count(signature) == 1
    sources["reports.py"] = sources["reports.py"].replace(
        signature, '    fmt: str = FORMAT_JSON,\n    stem: str = "report",\n) -> Path:'
    )
    assert package_options(sources) - PINNED_OPTIONS == {("write_report", "stem")}


# Slopes are fitted in closed form by one helper in trend.py; a second fit path
# through these routines must not come back.
FIT_ROUTINES = {"polyfit", "lstsq"}


def fit_routine_uses(source: str) -> list[str]:
    """Where a module reaches polyfit or lstsq: by attribute, by bare name or by import."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        else:
            continue
        hits += [f"{name} (line {node.lineno})" for name in names if name in FIT_ROUTINES]
    return sorted(hits)


def test_detector_sees_a_fit_routine():
    source = (
        "import numpy as np\nfrom scipy.linalg import lstsq\n\n"
        "def fit(x, y):\n    return np.polyfit(x, y, 1)[0] + np.polyval([1.0], x) + lstsq(x, y)[0]\n"
    )
    assert fit_routine_uses(source) == ["lstsq (line 2)", "lstsq (line 5)", "polyfit (line 5)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_fits_no_slope_by_polyfit_or_lstsq(path):
    assert fit_routine_uses(path.read_text()) == []
