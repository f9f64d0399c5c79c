"""Witt vectors over the min-plus rig and the spaces enriched in them.

Public names resolve on first use (PEP 562): importing the package loads no
submodule, and reading a name loads only the module that defines it.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_MODULES = {
    "errors": (
        "ConstantTermError",
        "DegreeOverflowError",
        "FormatError",
        "TropwittError",
    ),
    "partitions": (
        "EMPTY",
        "Partition",
        "hook_dimension",
        "partitions_of",
        "partitions_up_to",
    ),
    "quantale": ("INF", "ZERO", "LValue", "leq", "monus", "tropical_add", "tropical_mul"),
    "symfunc": (
        "SymFunc",
        "TensorSymFunc",
        "complete",
        "coproduct_add",
        "coproduct_mult",
        "counit_add",
        "counit_mult",
        "elementary",
        "monomial",
        "multiply",
        "plethysm",
    ),
    "witt": (
        "WittElem",
        "additive_unit",
        "from_points",
        "multiplicative_unit",
        "tau",
        "theta",
    ),
    "enriched": (
        "MetricSpace",
        "WittSpace",
        "eval_slice",
        "lambda_action",
        "slice_complete",
        "slice_table",
        "tau_space",
        "theta_space",
    ),
    "plancherel": (
        "GrowthPath",
        "ObservedStep",
        "growth_step",
        "observe",
        "plancherel_measure",
        "sample_path",
    ),
    "report": ("Report", "Violation"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
