"""The package surface: what importing heckedual and its CLI loads, the
public names it exports, and the contract of the datum-path records."""

import copy
import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import heckedual
from heckedual.cli import main
from heckedual.dualdata import (
    KernelElement,
    LanglandsDualData,
    QuotientDecomposition,
    decompose_quotient,
    langlands_dual_data,
)
from heckedual.rootdatum import BUILTINS, RootDatum

SRC = str(Path(heckedual.__file__).resolve().parents[1])
# the modules a command loads only when it runs one of their layers
WATCHED = ("heckedual.dualdata", "heckedual.rfunc", "heckedual.satake", "dataclasses", "inspect")


def run_fresh(script: str, *args: str) -> dict:
    """Run a script in a fresh interpreter that finds this package; it
    prints one JSON line."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout)


# ---------------------------------------------------------------------------
# import hygiene

CLI_SCRIPT = f"""
import contextlib, io, json, sys
import heckedual.cli
argv = json.loads(sys.argv[1])
out = io.StringIO()
code = None
if argv is not None:
    with contextlib.redirect_stdout(out):
        code = heckedual.cli.main(argv)
loaded = [name for name in {WATCHED!r} if name in sys.modules]
print(json.dumps({{"code": code, "stdout": out.getvalue(), "loaded": loaded}}))
"""


@pytest.mark.parametrize("argv, loaded", [
    (None, []),
    (["roots", "SL3"], []),
    (["dualdata", "GL3"], ["heckedual.dualdata"]),
    (["split", "SO5", "--q", "7", "--values", "2,3"], ["heckedual.dualdata", "heckedual.rfunc"]),
    (["mult", "PGL2", "--lhs", "1", "--rhs", "1"], ["heckedual.dualdata", "heckedual.satake"]),
    (["rfactor", "PGL2", "--weights", "1,1;-1,0", "--values", "2", "--q", "3", "--s", "2"],
     ["heckedual.dualdata", "heckedual.rfunc"]),
    (["euler", "--trivial", "--primes-below", "100", "--s", "2"],
     ["heckedual.dualdata", "heckedual.rfunc"]),
    (["satake", "PGL2", "--coweight", "2"], ["heckedual.dualdata", "heckedual.satake"]),
    (["oracle", "--q", "2"], ["heckedual.dualdata", "heckedual.satake"]),
])
def test_cli_loads_only_the_layers_it_runs(capsys, argv, loaded):
    fresh = run_fresh(CLI_SCRIPT, json.dumps(argv))
    assert fresh["loaded"] == loaded
    if argv is not None:
        code = main(argv)
        assert (fresh["code"], fresh["stdout"]) == (code, capsys.readouterr().out)


def test_package_import_loads_no_module():
    fresh = run_fresh("import json, sys, heckedual; "
                      "print(json.dumps(sorted(m for m in sys.modules if m.startswith('heckedual'))))")
    assert fresh == ["heckedual"]


# ---------------------------------------------------------------------------
# package surface

EXPORTS = {
    "dualdata": ("LanglandsDualData", "decompose_quotient", "epsilon_of",
                 "langlands_dual_data", "solve_rho_weights"),
    "errors": ("CapExceededError", "HeckedualError", "OmegaViolationError", "PoleError",
               "RankMismatchError", "UsageError", "ValidationError"),
    "lattice": ("GroupAlgebraElement", "Laurent"),
    "rootdatum": ("BUILTINS", "TRIVIAL", "RootDatum", "datum_isomorphic", "dominance_leq",
                  "dominant_below", "dual_datum", "positive_roots", "stabilizer_poincare",
                  "validate_datum", "weyl_group"),
    "rfunc": ("DualRepresentation", "QuadExt", "RFactor", "TorusAssignment",
              "UnramifiedParameter", "contragredient_rep", "epsilon_twist", "local_rfactor",
              "make_parameter", "partial_rfunction", "split_by_sqrt", "sqrt_of"),
    "satake": ("HeckeExpansion", "SphericalFunction", "UnramifiedCharacter",
               "compare_rank1_oracle", "dot_act", "lift_exponent", "satake_image",
               "structure_polynomials", "tree_structure_constants"),
}
# the public names: the exports and the submodules that define them
PUBLIC = sorted([name for names in EXPORTS.values() for name in names] + list(EXPORTS))


class TestSurface:
    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_names_are_the_defining_modules_objects(self, module):
        owner = importlib.import_module(f"heckedual.{module}")
        for name in EXPORTS[module]:
            assert getattr(heckedual, name) is getattr(owner, name)

    def test_dir_and_star_import_in_a_fresh_interpreter(self):
        fresh = run_fresh(
            "import json, heckedual\n"
            "before = [n for n in dir(heckedual) if not n.startswith('_')]\n"
            "ns = {}\n"
            "exec('from heckedual import *', ns)\n"
            "star = sorted(n for n in ns if n != '__builtins__')\n"
            "print(json.dumps([before, star, heckedual.__version__]))")
        assert fresh == [PUBLIC, PUBLIC, "0.1.0"]

    def test_dir_once_loaded(self):
        # this module has imported heckedual.cli, which binds one name more
        assert [name for name in dir(heckedual) if not name.startswith("_")] == sorted(
            PUBLIC + ["cli"])

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            heckedual.no_such_name
        assert not hasattr(heckedual, "_dual_data")

    def test_submodules_import_by_name_in_a_fresh_interpreter(self):
        fresh = run_fresh(
            "import json\n"
            "from heckedual import dualdata, rfunc, rootdatum, satake\n"
            "print(json.dumps([m.__name__ for m in (dualdata, rfunc, rootdatum, satake)]))")
        assert fresh == ["heckedual.dualdata", "heckedual.rfunc", "heckedual.rootdatum",
                         "heckedual.satake"]


# ---------------------------------------------------------------------------
# the records on the datum path: RootDatum, LanglandsDualData, and the
# quotient's KernelElement and QuotientDecomposition

# the repr text is part of each record's contract, and is pinned here
REPRS = {
    "SL3": (
        "RootDatum(rank=2, simple_roots=((2, -1), (-1, 2)), simple_coroots=((1, 0), (0, 1)),"
        " name='SL3')",
        "LanglandsDualData(base=RootDatum(rank=2, simple_roots=((2, -1), (-1, 2)),"
        " simple_coroots=((1, 0), (0, 1)), name='SL3'), ext=RootDatum(rank=3,"
        " simple_roots=((2, -1, 0), (-1, 2, 0)), simple_coroots=((1, 0, 1), (0, 1, 1)),"
        " name='SL3~'), r=(0, 0, 1), t=(2, 2, 0), j=(-2, -2, 2), i=(0, 0, 1), p=(0, 0, 1),"
        " epsilon_order=1)",
        "QuotientDecomposition(cokernel_invariants=(2,), kernel=KernelElement(gm_component=-1,"
        " epsilon_order=1, epsilon_parity=(0, 0)))",
        "KernelElement(gm_component=-1, epsilon_order=1, epsilon_parity=(0, 0))",
    ),
    "GL3": (
        "RootDatum(rank=3, simple_roots=((1, -1, 0), (0, 1, -1)), simple_coroots=((1, -1, 0),"
        " (0, 1, -1)), name='GL3')",
        "LanglandsDualData(base=RootDatum(rank=3, simple_roots=((1, -1, 0), (0, 1, -1)),"
        " simple_coroots=((1, -1, 0), (0, 1, -1)), name='GL3'), ext=RootDatum(rank=4,"
        " simple_roots=((1, -1, 0, 0), (0, 1, -1, 0)), simple_coroots=((1, -1, 0, 1),"
        " (0, 1, -1, 1)), name='GL3~'), r=(0, 0, 0, 1), t=(2, 0, -2, 0), j=(-2, 0, 2, 2),"
        " i=(0, 0, 0, 1), p=(0, 0, 0, 1), epsilon_order=1)",
        "QuotientDecomposition(cokernel_invariants=(2,), kernel=KernelElement(gm_component=-1,"
        " epsilon_order=1, epsilon_parity=(0, 0, 0)))",
        "KernelElement(gm_component=-1, epsilon_order=1, epsilon_parity=(0, 0, 0))",
    ),
}


def records(name):
    d = BUILTINS[name]
    dd = langlands_dual_data(d)
    quotient = decompose_quotient(dd)
    return d, dd, quotient, quotient.kernel


def rebuilt(record):
    """An equal record, built field by field by keyword."""
    if isinstance(record, RootDatum):
        return RootDatum(rank=record.rank, simple_roots=record.simple_roots,
                         simple_coroots=record.simple_coroots, name="renamed")
    if isinstance(record, LanglandsDualData):
        return LanglandsDualData(base=rebuilt(record.base), ext=rebuilt(record.ext), r=record.r,
                                 t=record.t, j=record.j, i=record.i, p=record.p,
                                 epsilon_order=record.epsilon_order)
    if isinstance(record, QuotientDecomposition):
        return QuotientDecomposition(cokernel_invariants=record.cokernel_invariants,
                                     kernel=rebuilt(record.kernel))
    return KernelElement(gm_component=record.gm_component, epsilon_order=record.epsilon_order,
                         epsilon_parity=record.epsilon_parity)


@pytest.mark.parametrize("name", sorted(REPRS))
class TestRecords:
    def test_repr(self, name):
        assert tuple(map(repr, records(name))) == REPRS[name]

    def test_keyword_construction_is_equal_with_equal_hash(self, name):
        for record in records(name):
            other = rebuilt(record)
            assert other is not record
            assert other == record and hash(other) == hash(record)
            assert not other != record

    def test_datum_equality_ignores_names(self, name):
        d, dd = records(name)[:2]
        assert rebuilt(d).name == "renamed" and rebuilt(d) == d
        renamed = langlands_dual_data(rebuilt(d))
        assert renamed.ext.name == "renamed~" and renamed == dd and hash(renamed) == hash(dd)

    def test_unequal_data(self, name):
        d, dd = records(name)[:2]
        other = BUILTINS["PGL3"]
        assert d != other and langlands_dual_data(other) != dd
        assert d != (d.rank, d.simple_roots, d.simple_coroots) and d != dd

    @pytest.mark.parametrize("field", ["rank", "name", "r", "epsilon_order", "kernel",
                                       "gm_component", "extra"])
    def test_immutable(self, name, field):
        for record in records(name):
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
            with pytest.raises(AttributeError):
                delattr(record, field)

    def test_pickle_and_deepcopy_round_trip(self, name):
        for record in records(name):
            for other in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                          copy.copy(record)):
                assert other == record and hash(other) == hash(record)
                assert repr(other) == repr(record)
