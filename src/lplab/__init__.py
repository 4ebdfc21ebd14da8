"""lplab: Littlewood-Paley quasinorms of sampled periodic fields.

The package computes homogeneous smoothness quasinorms of functions sampled
on periodic grids three independent ways: frequency-side dyadic band sums,
iterated-difference integrals, and mean-difference maximal functions, and
ships a verification harness that checks the analytically forced relations
between them.

The package namespace holds what the demos use; everything else is imported
from its submodule (`lplab.fields`, `lplab.quasinorms`, `lplab.verify`, ...).
"""

import os

# Every matrix product of the package is small enough to run on the calling
# thread (`differences._SERIAL_GEMM`), so an OpenBLAS thread pool only costs
# start-up time and spinning workers.  This must precede the first numpy
# import; a value already set in the environment is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import LplabError
from .fields import (
    GridSpec,
    TestFunctionSpec,
    lp_norm,
    sample_family,
)
from .bands import build_band_system, decompose, reconstruct
from .maximal import hardy_littlewood_max, peetre_max
from .quasinorms import (
    SpaceParams,
    default_quadrature,
    maximal_quasinorm_set,
    quasinorm,
)
from .verify import (
    default_corpus,
    divergence_probe,
    equivalence_experiment,
    scaling_experiment,
)

__version__ = "0.1.0"
