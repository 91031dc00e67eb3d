"""suparg: certificates for interval theorems of real function theory.

A frontier sweep certifies, for an expression f on [a, b]: global bounds,
eps-extrema, sign/root localization, uniform-continuity moduli, Darboux
integral enclosures, monotonicity, mean-value inequalities and flatness;
exact rational intervals handle clopen analysis and finite subcovers.
Every success is a finite certificate that an independent checker
re-verifies from scratch.
"""

from types import ModuleType as _Module

from .certificates import (
    BoundCert,
    Certificate,
    CheckResult,
    ClopenReport,
    ClopenVerdict,
    Conclusion,
    FlatCert,
    IntegralCert,
    LipschitzCert,
    MaxCert,
    ModulusCert,
    MonotoneCert,
    MviCert,
    NegCert,
    Partition,
    RootBracket,
    StructureError,
    SubcoverCert,
    check,
    conclusion_of,
    dumps,
    from_document,
    loads,
    to_document,
)
from .expr import (
    Expr,
    ParseError,
    eval_d1,
    eval_iv,
    parse,
    to_source,
)
from .numeric import (
    DivisionByZeroInterval,
    DomainError,
    FloatInterval,
    RatInterval,
    Rational,
    iv_cos,
    iv_exp,
    iv_log,
    iv_pow,
    iv_sin,
    iv_sqr,
    iv_sqrt,
)
from .topology import (
    Cover,
    RatIntervalSet,
    analyze_clopen,
    extract_subcover,
    parse_interval_file,
)

__version__ = "0.1.0"

# The prover modules load on first use (PEP 562), so cover, clopen and check
# never import them: module -> the names it gives the package
_LAZY = {
    "sweep": ("FailureKind", "LocalWitness", "Problem", "SweepFailure", "base_case", "combine",
              "finish", "local_extend", "run_sweep"),
    "theorems": ("prove_bound", "prove_flat", "prove_integral", "prove_max", "prove_modulus",
                 "prove_monotone", "prove_mvi", "prove_root"),
}


# what `from suparg import *` binds: the names imported above, not the
# submodules that importing them binds, and the lazy ones
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _Module)] + \
    [name for names in _LAZY.values() for name in names]


def __getattr__(name: str):
    from importlib import import_module

    for module, names in _LAZY.items():
        if name in names:
            return getattr(import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
