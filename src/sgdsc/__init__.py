"""Deciding and certifying the "every diagonal subsemigroup is a congruence"
property for finite semigroups, with executable models of the infinite
counterexamples and a congruence-free monoid built over a 2-transitive
sandwich matrix."""

from . import byleen, finite, infinite, relations  # noqa: F401

__all__ = ["byleen", "finite", "infinite", "relations"]
__version__ = "0.1.0"
