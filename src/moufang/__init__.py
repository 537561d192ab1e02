"""Split octonions over finite fields, Paige loops, their multiplication
groups, and the loop / 3-net / group-with-triality dictionary.

Importing the package loads none of its modules: the names below and the
modules themselves load on first access, so a command line pays only for
the modules it runs."""

_MODULES = ("cayley", "composition", "fields", "loops", "orthogonal", "paige",
            "permgrp", "triality")
_EXPORTS = {
    "composition": ("bilinear", "cd_double", "decompose_sum_two_units"),
    "fields": ("GF", "field_make", "primitive_element"),
    "loops": ("FiniteLoop", "closure", "find_isomorphism", "mlt_group"),
    "paige": ("ZornMatrix", "paige_loop", "paige_order_formula",
              "standard_generators", "unit_loop"),
    "permgrp": ("Perm", "PermGroup"),
    "triality": ("bol_reflection", "coordinate_loop", "triality_check",
                 "triality_group_from_loop"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """A submodule, or a public name read from its module at each access."""
    module = _HOME.get(name, name)
    if module not in _MODULES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    # the import statement's machinery, not importlib's, so that
    # -X importtime still lists the module
    __import__("%s.%s" % (__name__, module))
    loaded = globals()[module]
    return loaded if module == name else getattr(loaded, name)


def __dir__():
    return sorted(set(globals()) | set(_MODULES) | set(_HOME))
