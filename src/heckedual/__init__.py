"""Root-datum duality, extended dual data, spherical Hecke expansions and
local R-factors, all in exact arithmetic.

Importing the package loads none of its modules.  Each public name is
imported from the module that defines it when it is first read (PEP 562),
so a program pays only for the layers it uses:

- ``rootdatum`` (with ``lattice`` and ``errors``): root data, Weyl groups,
  dominance;
- ``dualdata``: the extended dual data r, t, j, i, p and the sign epsilon;
- ``rfunc``: unramified parameters and local R-factors (loads ``dualdata``);
- ``satake``: Satake images and structure polynomials (loads ``dualdata``).

The command line follows the same split (see ``heckedual.cli``): of the
benchmark's 104 cli-cold calls, 29 load ``rootdatum`` only (2 of them
error calls), 36 load ``dualdata``, 22 ``rfunc`` and 17 ``satake``.
"""

__version__ = "0.1.0"

_EXPORTS = {
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
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules too: a star import binds them, and so loads every module
__all__ = sorted(_MODULE_OF) + sorted(_EXPORTS)


def __getattr__(name):
    import importlib

    module = _MODULE_OF.get(name)
    if module is None:
        # so that `from heckedual import satake` falls back to the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
