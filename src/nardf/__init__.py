"""Nonanticipative rate-distortion toolkit.

Closed-form nonanticipative (sequential) rate-distortion functions for the
binary symmetric Markov source and for multidimensional partially observed
Gauss-Markov sources, the matched zero-delay joint source-channel designs
over AWGN channels, and excess-distortion analysis (concentration bounds,
large-deviations rate functions, Monte Carlo validation).

Each module's ``__all__`` is its public interface; the package republishes
those names unchanged.
"""

from . import bsms, errors, excess, gauss, jscc, modelfile, numerics
from .bsms import *
from .errors import *
from .excess import *
from .gauss import *
from .jscc import *
from .modelfile import *
from .numerics import *

__version__ = "0.1.0"

__all__ = [*bsms.__all__, *errors.__all__, *excess.__all__, *gauss.__all__,
           *jscc.__all__, *modelfile.__all__, *numerics.__all__]
