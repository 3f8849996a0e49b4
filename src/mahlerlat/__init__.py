"""Exact-arithmetic toolkit for Mahler measures, Salem numbers, and the
near-identity lattice-element construction over the fields they generate.

Each public name is imported from its module on first use (PEP 562), so
``import mahlerlat`` loads no submodule and a command loads only the
modules it runs."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "intpoly": ("IntPoly", "IrreducibilityReport", "irreducibility_report", "LEHMER", "SMYTH"),
    "roots": ("CertifiedRoot", "RootCounts", "refine_roots"),
    "mahler": ("MahlerCertificate", "dobrowolski_bound", "mahler_measure", "schinzel_bound",
               "smyth_threshold", "voutier_bound"),
    "salem": ("SalemCertificate", "beta_n", "certify", "complex_salem_from_salem", "search_box"),
    "fields": ("FieldSummary", "classify_Psr", "field_summary", "multiplication_matrix"),
    "lattice": ("DirichletWitness", "GammaElement", "GammaPowerReport", "build_gamma",
                "counterexample_scan", "dirichlet_c", "eta", "gamma_power_report"),
    "adjoint": ("AdjointReport", "global_integrality"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
