"""kinderlab: exact desk-scale experiments around subgroup growth constructions.

Modules:
    gf          finite field contexts GF(p^e) with int-encoded elements
    linalg      exact matrices, subspaces, Gaussian binomials over GF(q)
    arith       valuations, factorial valuations, generation bounds
    smallgrp    concrete small groups, subgroup and isomorphism census
    bimap       hom spaces of matrix systems, block constructions, bimaps
    genericity  seeded Monte Carlo and exhaustive frequency experiments
    nursery     filtered groups built from a ring acting on a module
    altcodes    direct powers of Sym(3) and binary-code subgroups
    twisted     char-2 fourfold groups and Suzuki form span certificates
    acceptance  the thirteen desk-scale acceptance checks
    cli         command line front end emitting JSON reports
"""

__version__ = "0.1.0"

from . import (  # noqa: F401,E402
    altcodes,
    arith,
    bimap,
    genericity,
    gf,
    linalg,
    nursery,
    smallgrp,
    twisted,
)
from .errors import (  # noqa: F401,E402
    CapExceededError,
    InvalidConfigError,
    PropertyViolationError,
)
from .gf import FieldCtx, make_field  # noqa: F401,E402
