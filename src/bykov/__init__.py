"""Numerical toolkit for Bykov heteroclinic cycles with nodes of different chirality.

The package analyses the flow near a heteroclinic cycle between two
saddle-foci whose nearby trajectories wind in opposite directions around the
one-dimensional connection.  It provides:

* ``params``      - model parameters, derived constants, region classification
* ``returncurve`` - the closed-form exit curve, its turning analysis and
  tangency search
* ``horseshoe``   - first-return map, horizontal strips, hyperbolicity
  diagnostics and multi-pulse connections
* ``flow``        - direct integration of the explicit 3D/4D vector fields
* ``oracles``     - the elementary maps and the independent checks built on them
  that a command, a ``--verify`` replay or the benchmark runs; the referees
  that only tests read are in ``tests/referees.py``
* ``cli``         - command-line front end emitting CSV/JSON artifacts
"""

__version__ = "0.1.0"
