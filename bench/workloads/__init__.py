"""The benchmark's workloads, by name.

A workload has ``cycle`` (ops per whole cycle of its op mix), ``inputs()``
(an endless seeded stream of op inputs), ``run(call, op)`` (the timed op),
``check(op, out)`` (names of failed conditions, run outside the timer) and
``geometry(op, out)`` ((n, half_width) of a grid op, else None).
"""

from .gallery import Gallery
from .grid import Grid
from .moments import Moments

WORKLOADS = {"gallery": Gallery, "moments": Moments, "grid": Grid}
