"""Split octonions over finite fields, Paige loops, their multiplication
groups, and the loop / 3-net / group-with-triality dictionary."""

from . import cayley, cli, composition, fields, loops, orthogonal, paige, permgrp, triality
from .composition import ZornMatrix, bilinear, cd_double, decompose_sum_two_units, zorn_mul, zorn_norm
from .fields import GF, field_make, is_square, primitive_element
from .loops import FiniteLoop, automorphism_count, closure, find_isomorphism, is_moufang, is_simple, mlt_group
from .paige import paige_loop, paige_order_formula, standard_generators, unit_loop
from .permgrp import Perm, PermGroup, schreier_sims
from .triality import bol_reflection, coordinate_loop, net_from_triality, triality_check, triality_group_from_loop

__version__ = "0.1.0"
