"""Exact symbolic toolkit for genus-6 Prym curves via 4-nodal conic bundles.

Submodules, each loaded on first access (PEP 562):
  exactalg    - exact rational polynomials and fraction-free linear algebra
  planesys    - resultant elimination for plane systems, the proof over GF(q)
  qpath       - the same elimination over Q, which no command runs
  chow        - intersection rings, Riemann-Roch, Euler-number counts
  conicbundle - constructive engine and nodality certificates
  net         - the net of conic bundles through a point, and its pencil
  moduli      - divisor-class ledger and the slope bounds
  checks      - the checks that `prym6 verify` replays
  cli         - command-line front end
"""

import importlib

__all__ = ["checks", "chow", "cli", "conicbundle", "exactalg", "moduli", "net",
           "planesys", "qpath"]
__version__ = "1.0.0"


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
