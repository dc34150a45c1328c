"""Classical-wave simulation suite.

Five engines; ``epr`` builds on the phasor core (``phasor``):

* ``epr`` -- coincidence amplitudes and CHSH correlations of an entangled
  photon pair reproduced with classical polarization phasors,
* ``holography`` -- 1-bit parity detections and multi-frequency alias
  intersection for source localization,
* ``cavity`` -- Metropolis thermalization of harmonic mode families
  reproducing the Planck spectrum,
* ``statespace`` -- linear evolution specs, characteristic roots and
  norm-preserving Schrodinger propagation,
* ``hj`` -- Hamilton-Jacobi plane-wave residuals and the
  correspondence-ratio field.

The submodules load on first use (``phasorlab.cavity`` imports
``phasorlab/cavity.py`` then), so ``import phasorlab`` itself loads
neither numpy nor any engine.
"""

import importlib

__version__ = "0.1.0"

__all__ = ["cavity", "epr", "hj", "holography", "phasor", "seeding", "statespace"]


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
