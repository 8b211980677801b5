"""Concrete matrix groups over Z/p^h with flag-orbit coset machinery."""

from .group import FiniteParahoricGroup, ProductGroup, build_group

__all__ = ["FiniteParahoricGroup", "ProductGroup", "build_group"]
