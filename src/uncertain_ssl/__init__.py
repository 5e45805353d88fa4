"""Asymptotic theory and desk-scale verification of semi-supervised
Gaussian-mixture classification with uncertain labels.

The package is organised bottom-up:

- ``kernel``    scalar special functions and Gaussian expectations,
- ``overlaps``  the coupled overlap fixed-point system and its two maps,
- ``risk``      Bayes/oracle risks, usefulness, and labeling requirements,
- ``simulate``  synthetic data, channel checks, and reference classifiers,
- ``cli``       the figure-data command line front end.
"""

from . import kernel, overlaps, risk, simulate
from .kernel import *
from .overlaps import *
from .risk import *
from .simulate import *

__version__ = "0.1.0"

# Each module's ``__all__`` is the one list of its public names.
__all__ = ["__version__"]
__all__ += kernel.__all__
__all__ += overlaps.__all__
__all__ += risk.__all__
__all__ += simulate.__all__
