"""Arithmetic invariants of genus-4 curves in characteristic 2, and an
exhaustive census of their models over F_2.

Submodules:

* ``gfarith``   — F_{2^k} arithmetic and polynomials over F_{2^k}
* ``zeta``      — Weil polynomials from point counts, Newton polygons
* ``dieudonne`` — mod-2 Dieudonne modules and Ekedahl-Oort final types
* ``kinds``     — one description per model kind (ns, cone, hyp)
* ``curves``    — curve models (quadric/cubic intersections, hyperelliptic)
* ``elimination`` — bivariate common zeros, the reference for smoothness
* ``cartier``   — Cartier/Hasse-Witt semilinear operators and their ranks
* ``census``    — the exhaustive F_2 census, isogeny classes, stack counts
* ``cli``       — command-line entry point (``genus4census``)
"""

__version__ = "0.1.0"
