"""Exact-arithmetic toolkit for Mahler measures, Salem numbers, and the
near-identity lattice-element construction over the fields they generate."""

__version__ = "0.1.0"

from .intpoly import (  # noqa: F401
    IntPoly,
    IrreducibilityReport,
    irreducibility_report,
    LEHMER,
    SMYTH,
)
from .roots import (  # noqa: F401
    CertifiedRoot,
    RootCounts,
    refine_roots,
)
from .mahler import (  # noqa: F401
    MahlerCertificate,
    dobrowolski_bound,
    mahler_measure,
    schinzel_bound,
    smyth_threshold,
    voutier_bound,
)
from .salem import (  # noqa: F401
    SalemCertificate,
    beta_n,
    certify,
    complex_salem_from_salem,
    search_box,
)
from .fields import (  # noqa: F401
    FieldSummary,
    classify_Psr,
    field_summary,
    multiplication_matrix,
)
from .lattice import (  # noqa: F401
    DirichletWitness,
    GammaElement,
    GammaPowerReport,
    build_gamma,
    counterexample_scan,
    dirichlet_c,
    eta,
    gamma_power_report,
)
from .adjoint import (  # noqa: F401
    AdjointReport,
    global_integrality,
)
