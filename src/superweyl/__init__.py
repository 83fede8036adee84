"""Exact-arithmetic tools for symplectic representations of quadratic Lie
algebras and their extensions to Lie superalgebras with an invariant form.

The decision procedure: lift the representation to quadratic elements of a
polynomial algebra carrying the symmetrized Weyl product, form the image of
the quadratic Casimir element, and read off its degree-four component.  The
extension exists exactly when that component vanishes, and is then unique,
with the odd bracket given by pairing against the quadratic lifts.

The package binds only ``__version__``: import each function or class from
the module that defines it, such as ``superweyl.engine.decide``.
"""

__version__ = "0.1.0"
