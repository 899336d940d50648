"""Exact arithmetic for periodic Sturmian external angles of the Mandelbrot
set, built from broken lines on the integer grid.

The pipeline: a slope and a hinge choice validate into a parameter set, the
broken line's grid crossings give a periodic angle, priming its blocks gives
the conjugate angle, the word structure gives the kneading sequence, and the
junction rays of the limb locate the landing component.  Everything runs on
``fractions.Fraction`` and bit strings; no floats anywhere.
"""

# the nine submodules and each module's __all__ (errors: its exception classes)
from . import angles, atlas, conjugate, errors, farey, kneading, mechanical, oracles, words
from .angles import *
from .atlas import *
from .conjugate import *
from .errors import *
from .farey import *
from .kneading import *
from .mechanical import *
from .words import *

__all__ = [name for name in dir() if not name.startswith("_")]
