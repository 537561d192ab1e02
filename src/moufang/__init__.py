"""Split octonions over finite fields, Paige loops, their multiplication
groups, and the loop / 3-net / group-with-triality dictionary."""

from . import cayley, composition, fields, loops, orthogonal, paige, permgrp, triality
from .composition import bilinear, cd_double, decompose_sum_two_units
from .fields import GF, field_make, primitive_element
from .loops import FiniteLoop, closure, find_isomorphism, mlt_group
from .paige import ZornMatrix, paige_loop, paige_order_formula, standard_generators, unit_loop
from .permgrp import Perm, PermGroup
from .triality import bol_reflection, coordinate_loop, triality_check, triality_group_from_loop

__version__ = "0.1.0"
