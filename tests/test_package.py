"""The package's public surface and what each entry point loads.

`weilpoly/__init__.py` exports its names lazily (PEP 562), and the CLI
imports each command's checker inside that command.  These tests pin the
exported names, check that lazy lookup returns the defining module's own
objects, and run fresh interpreters to see which modules a command loads.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weilpoly

PACKAGE_DIR = Path(weilpoly.__file__).resolve().parent
SUBMODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")

# the public names of `weilpoly`, by defining module
EXPORTED = {
    "bounds12": [
        "BoundsReport",
        "Status",
        "corollary_bounds",
        "lemma_check",
        "lemma_quantities",
        "trivial_bounds",
    ],
    "census": ["EnumerationSpec", "cross_check", "enumerate_weil"],
    "classify7": ["Classification", "classify", "multiplicity_options", "power_case"],
    "errors": [
        "DomainMismatchError",
        "ExactnessError",
        "PrecisionExhausted",
        "StructuralError",
        "UncertifiedProfileError",
        "UnprovenPrimeError",
        "WeilpolyError",
    ],
    "factorint": ["factor_over_integers", "is_irreducible_over_z"],
    "lmfdb": ["lmfdb_reconcile"],
    "newton": [
        "NewtonPolygon",
        "lattice_vertex_check",
        "load_case_table",
        "newton_polygon",
        "polygon_case_id",
    ],
    "padic": ["FactorRecord", "PadicFactorProfile", "qp_factor_profile"],
    "polynomial": ["IntPoly", "poly_from_string", "poly_to_string"],
    "quadreal": ["QuadPoly", "QuadReal"],
    "sturm": ["all_roots_real_positive", "sturm_count"],
    "weil": [
        "WeilParams",
        "WeilVerdict",
        "build_f_ftilde",
        "check_symmetry",
        "chi_from_a",
        "companion_poly",
        "factor_weil",
        "is_weil",
        "real_root_reduction",
        "symmetric_v",
    ],
}
ALL_NAMES = sorted(name for names in EXPORTED.values() for name in names)


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports weilpoly from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_all_is_the_pinned_list():
    assert len(ALL_NAMES) == 48
    assert sorted(weilpoly.__all__) == ALL_NAMES


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTED.items() for n in names])
def test_each_name_is_its_defining_modules_object(module, name):
    home = importlib.import_module(f"weilpoly.{module}")
    assert getattr(weilpoly, name) is getattr(home, name)


def test_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from weilpoly import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == ALL_NAMES
    assert all(namespace[name] is getattr(weilpoly, name) for name in ALL_NAMES)


def test_every_submodule_resolves_after_a_bare_import():
    assert len(SUBMODULES) == 18
    proc = run_fresh(
        "import sys, weilpoly\n"
        "for name in sys.argv[1:]:\n"
        "    assert getattr(weilpoly, name) is sys.modules['weilpoly.' + name], name\n",
        *SUBMODULES,
    )
    assert proc.returncode == 0, proc.stderr


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        weilpoly.no_such_name
    assert not hasattr(weilpoly, "no_such_name")


def test_import_error_inside_a_submodule_propagates():
    # a None entry in sys.modules makes importing weilpoly.padic fail
    proc = run_fresh(
        "import sys, weilpoly\n"
        "sys.modules['weilpoly.padic'] = None\n"
        "weilpoly.qp_factor_profile\n"
    )
    assert proc.returncode == 1
    assert "ModuleNotFoundError" in proc.stderr and "AttributeError" not in proc.stderr


@pytest.mark.parametrize("module", SUBMODULES)
def test_each_module_imports_alone(module):
    """With no eager __init__ to fix the order, a cycle would show only here
    or in the one command that reaches it."""
    proc = run_fresh(f"import weilpoly.{module}")
    assert proc.returncode == 0, proc.stderr


def test_the_benchmark_tracer_finds_every_traced_name():
    """perfbench's Tracer wraps each function its LAYERS names: a rename or
    deletion of one fails here, not first in a traced benchmark run."""
    perfbench = PACKAGE_DIR.parent.parent / "perfbench"
    proc = run_fresh(
        "import sys\n"
        f"sys.path.insert(0, {str(perfbench)!r})\n"
        "from tracing import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "tracer.uninstall()\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_the_oracle_loads_neither_quadreal_nor_sturm():
    """weil_oracle decides over Z alone: a fresh import of the oracle
    leaves the Q(sqrt q) and Sturm layers unloaded."""
    proc = run_fresh(
        "import sys\n"
        "import weilpoly.oracle\n"
        "print(sorted(m for m in ('weilpoly.quadreal', 'weilpoly.sturm') if m in sys.modules))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


LOADED = (
    "import contextlib, io, json, sys\n"
    "from weilpoly.cli import main\n"
    "if sys.argv[2:]:\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        code = main(sys.argv[2:])\n"
    "    assert code == int(sys.argv[1]), code\n"
    "print(json.dumps(sorted(sys.modules)))\n"
)


def modules_after(*argv: str, exit_code: int = 0) -> set[str]:
    """Every module a fresh interpreter holds after `import weilpoly.cli`
    and, when argv is given, one command that exits with exit_code."""
    proc = run_fresh(LOADED, str(exit_code), *argv)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def loaded_by(*argv: str) -> set[str]:
    """The weilpoly submodules held after one successful command."""
    return {m.removeprefix("weilpoly.") for m in modules_after(*argv) if m.startswith("weilpoly.")}


def test_cli_import_loads_no_checker():
    loaded = loaded_by()
    unloaded = {"bounds12", "census", "classify7", "padic", "lmfdb", "oracle", "newton", "sturm", "intervals"}
    unloaded |= {"fpoly", "hensel", "factorint"}
    assert not loaded & unloaded, sorted(loaded & unloaded)
    assert {"cli", "errors", "arith", "polynomial", "weil"} <= loaded


def test_check_weil_leaves_padic_unloaded():
    loaded = loaded_by("check-weil", "--q", "2", "2,0,1")
    assert "weil" in loaded and not loaded & {"padic", "fpoly", "hensel", "factorint"}, sorted(loaded)


def test_enumerate_leaves_classify7_unloaded():
    loaded = loaded_by("enumerate", "--degree", "2", "--q", "2")
    assert "census" in loaded and "classify7" not in loaded


def test_degree_2_cross_check_loads_no_degree_12_or_14_checker():
    loaded = loaded_by("cross-check", "--degree", "2", "--q", "5", "--box", "-4:4")
    assert "census" in loaded and "oracle" in loaded
    assert not loaded & {"classify7", "padic", "bounds12"}, sorted(loaded)


def test_degree_14_cross_check_loads_the_oracles_only_for_a_sampled_record():
    """The cross-check command's degree-14 box draws 27 numbers from
    Random(1729), all at least ORACLE_SAMPLE_RATE, so no record is
    sampled for the oracle and neither it nor quadreal loads."""
    loaded = loaded_by("cross-check", "--degree", "14", "--q", "2", "--box", "-1:1,0:0,0:0,-1:1,0:0,0:0,-1:1")
    assert {"census", "classify7", "padic"} <= loaded
    assert not loaded & {"oracle", "quadreal"}, sorted(loaded)


def lmfdb_loads(cache_dir, classes) -> set[str]:
    """The weilpoly submodules held after `lmfdb --q 2 --g 1` on a cache
    holding these classes."""
    body = {"data": classes}
    (cache_dir / "av_fq_isog_g1_q2.json").write_text(json.dumps({"url": "", "timestamp": 0, "body": body}))
    return loaded_by("lmfdb", "--q", "2", "--g", "1", "--cache-dir", str(cache_dir))


FACTOR_STACK = {"padic", "factorint", "fpoly", "hensel", "newton"}


def test_lmfdb_loads_the_factorizer_only_for_a_simple_class(tmp_path):
    """Only the Tate check on a fetched simple class factors and profiles:
    a class that is not simple leaves factorint, fpoly, hensel, newton and
    padic unloaded, and a simple one loads them."""
    loaded = lmfdb_loads(tmp_path, [{"label": "1.2.a", "poly": [2, 0, 1], "is_simple": False}])
    assert "lmfdb" in loaded and not loaded & FACTOR_STACK, sorted(loaded)
    loaded = lmfdb_loads(tmp_path, [{"label": "1.2.a", "poly": [2, 0, 1], "is_simple": True}])
    assert FACTOR_STACK <= loaded, sorted(loaded)


GOLDEN = json.loads((Path(__file__).parent / "golden" / "manifest.json").read_text())


@pytest.fixture(scope="module")
def golden_modules(tmp_path_factory):
    """Every module a fresh interpreter holds after each golden command
    (lmfdb reads an empty cache directory of its own)."""
    out = {}
    for name, entry in GOLDEN.items():
        argv = list(entry["argv"])
        if "--cache-dir" in argv:
            argv[argv.index("--cache-dir") + 1] = str(tmp_path_factory.mktemp("cache"))
        out[name] = modules_after(*argv, exit_code=entry["exit"])
    return out


def goldens_of(*commands: str) -> list[str]:
    return [name for name, entry in GOLDEN.items() if entry["argv"][0] in commands]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_no_golden_command_loads_the_class_generator_or_inspect(name, golden_modules):
    assert not golden_modules[name] & {"dataclasses", "inspect", "ast", "dis"}


@pytest.mark.parametrize("name", goldens_of("check-weil", "classify14", "enumerate", "polygon", "lmfdb"))
def test_z_only_commands_leave_quadreal_unloaded(name, golden_modules):
    assert "weilpoly.quadreal" not in golden_modules[name]


@pytest.mark.parametrize("name", goldens_of("check-weil", "enumerate"))
def test_check_weil_and_enumerate_leave_fractions_unloaded(name, golden_modules):
    assert "fractions" not in golden_modules[name]


@pytest.mark.parametrize("name", goldens_of("lmfdb"))
def test_a_cold_lmfdb_cache_leaves_the_factorizer_unloaded(name, golden_modules):
    loaded = {m.removeprefix("weilpoly.") for m in golden_modules[name] if m.startswith("weilpoly.")}
    assert "lmfdb" in loaded and not loaded & FACTOR_STACK, sorted(loaded)


@pytest.mark.parametrize("name", goldens_of("enumerate"))
def test_enumerate_without_the_irreducible_filter_leaves_factorint_unloaded(name, golden_modules):
    assert "--filter irreducible" not in " ".join(GOLDEN[name]["argv"])
    assert "weilpoly.factorint" not in golden_modules[name]


def test_the_irreducible_filter_loads_factorint_for_a_non_weil_candidate():
    # a = 3 gives t^2 + 3t + 2, not 2-Weil, so the filter factors it over Z
    assert "factorint" in loaded_by("enumerate", "--degree", "2", "--q", "2", "--box", "3:3", "--filter", "irreducible")


def test_weil_loads_quadreal_when_the_lemma_transform_runs():
    proc = run_fresh(
        "import sys\n"
        "from weilpoly.weil import WeilParams, build_f_ftilde\n"
        "assert 'weilpoly.quadreal' not in sys.modules\n"
        "f, _ = build_f_ftilde((0, 0, 0, 0, 0, 0), WeilParams(2, 1))\n"
        "assert type(f).__module__ == 'weilpoly.quadreal'\n"
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", goldens_of("bounds12"))
def test_bounds12_leaves_the_lemma_machinery_unloaded(name, golden_modules):
    lemma_only = {"fractions", "weilpoly.quadreal", "weilpoly.intervals", "weilpoly.sturm"}
    assert not golden_modules[name] & lemma_only, sorted(golden_modules[name] & lemma_only)


def test_lemma_check_loads_the_lemma_machinery():
    proc = run_fresh(
        "import sys\n"
        "from weilpoly.bounds12 import lemma_check\n"
        "lemma = {'fractions', 'weilpoly.quadreal', 'weilpoly.intervals', 'weilpoly.sturm'}\n"
        "assert not lemma & set(sys.modules), sorted(lemma & set(sys.modules))\n"
        "report = lemma_check([-21, 175, -735, 1624, -1764, 720])\n"
        "assert report.all_pass, report\n"
        "assert lemma <= set(sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr
