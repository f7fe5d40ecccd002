"""Separability certificates and exact arithmetic for amalgamated free
products of finite groups, with generator-image machinery for free factors."""

__version__ = "0.1.0"
