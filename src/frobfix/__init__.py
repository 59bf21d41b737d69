"""Exact-arithmetic verifier for the genus-2 family

    y^2 + (x^2 + x) y = (T^2 + T)(x^5 + x) + T^2 x^3

in characteristic 2.  It checks ordinarity, the Z/2 x S3 automorphism
group, Jacobian orders and torsion, and the Frobenius pullback of divisor
classes, with binary fields, polynomials, point counts, a Riemann-Roch
interpolation oracle and Cantor arithmetic as its layers.

The public surface is re-exported here; see the module docstrings for the
mathematical conventions each layer pins down.
"""

from .gf2 import (
    BinaryField,
    FieldElement,
    FieldEmbedding,
    artin_schreier_solve,
    default_field,
    embed,
    identity_embedding,
    join_fields,
)

__all__ = [
    "BinaryField",
    "FieldElement",
    "FieldEmbedding",
    "artin_schreier_solve",
    "default_field",
    "embed",
    "identity_embedding",
    "join_fields",
]

__version__ = "0.1.0"
