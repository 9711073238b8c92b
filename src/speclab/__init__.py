"""Numerical operator-theory workbench.

Finite-dimensional spectral calculus (resolutions, projection-valued
measures, resolvents, Cayley transforms, unitary evolution), harmonic
extensions and Fourier machinery, finite Borel measures with Herglotz
and Bochner tests, Nystrom-discretized integral operators with a
Sturm-Liouville eigensolver, reproducing-kernel spaces on the disc, and
a CLI exposing everything as reproducible experiments.

The package namespace is the union of the library modules' ``__all__``
lists; each module's list is the one place its public names are declared.
"""

from .linalg_core import *
from .harmonic import *
from .measures import *
from .spectral_fd import *
from .integral_ops import *
from .rkhs import *

__version__ = "0.1.0"
