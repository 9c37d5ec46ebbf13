"""smallvol: verified computation for small-volume hyperbolic 3-manifolds.

The pipeline, end to end:

* ``filling`` turns a volume target into a slope-length bound and
  enumerates every candidate Dehn-filling coefficient pair on a cusp;
* ``certify`` proves that a gluing-equation system has a true solution
  near an approximate one, with an explicit distance bound;
* ``geometry`` + ``lobachevsky`` + ``jets`` convert certified shapes
  into rigorous volume intervals via self-validating affine arithmetic;
* ``points`` is the float-pair and midpoint-radius box layer under both
  ``certify`` and ``jets``, where the rounding model is stated;
* ``grouptool`` checks non-hyperbolicity proofs for the fundamental
  groups of fillings where no hyperbolic structure exists.

Importing the package loads only ``lobachevsky`` and the float
outward-rounding layer under it (``rounding``: the rounding steps, the
pi enclosure, and ``JetError``/``JetDomainError``).  The other
public names resolve on first access (PEP 562 module ``__getattr__``):
``smallvol.certified_volume`` imports ``geometry`` the first time it is
read and ``smallvol.Jet`` imports ``jets``, and each is an ordinary
attribute after that, so a command-line run loads only the modules its
subcommand uses: the point layer only where a certificate or a volume
is computed, and the jet module only where its rules run.
"""

import sys as _sys

# The package attribute ``lobachevsky`` must be this function, not the
# submodule of the same name that the import binds first.
from .lobachevsky import SeriesCoeffs, lobachevsky, series_coeffs

__version__ = "0.1.0"

# public name -> submodule that defines it, loaded on first access
_LAZY = {
    "Certificate": "certify",
    "GluingEquation": "certify",
    "GluingSystem": "certify",
    "InconclusiveError": "certify",
    "figure_eight_system": "certify",
    "jacobian": "certify",
    "krawczyk_certify": "certify",
    "residual": "certify",
    "select_square_subsystem": "certify",
    "CuspData": "filling",
    "SlopeList": "filling",
    "enumerate_slopes": "filling",
    "slope_length": "filling",
    "slope_length_bound": "filling",
    "Interval": "geometry",
    "ShapeAssignment": "geometry",
    "certified_volume": "geometry",
    "prove_volume_gt": "geometry",
    "ComplexJet": "jets",
    "Jet": "jets",
    "arg_complex": "jets",
    "atan_jet": "jets",
    "log_jet": "jets",
}

# Submodules not loaded at import; ``smallvol.certify`` loads its module.
_SUBMODULES = ("certify", "cli", "data", "filling", "formats", "geometry",
               "grouptool", "jets", "points")

__all__ = sorted([*_LAZY, "SeriesCoeffs", "lobachevsky", "series_coeffs"])


def __getattr__(name):
    module = name if name in _SUBMODULES else _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    qualified = f"{__name__}.{module}"
    # __import__ rather than importlib.import_module: it takes the
    # interpreter's own import path, so ``-X importtime`` reports the load.
    __import__(qualified)
    if module == name:
        return _sys.modules[qualified]  # the import bound the attribute too
    value = getattr(_sys.modules[qualified], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_SUBMODULES))
