#!/usr/bin/env python3
"""Walk through the circulant ring algebra that everything else builds on.

A binary circulant matrix is fully described by its first row, read as a
polynomial in GF(2)[x]/(x^p - 1).  Multiplying a row vector by a circulant
is polynomial multiplication; transposing negates exponents; inverting is
raising to a fixed power, a chain of products and coefficient permutations.
Block matrices of circulants inherit all of it blockwise.
"""

import numpy as np

from qcmc import BitPolynomial, QcMatrix, poly_inverse, poly_mul, qc_invert, qc_mul
from qcmc.errors import NotInvertibleError, SingularMatrixError
from qcmc.prng import SeedStream

p = 17
a = BitPolynomial.from_support(p, [0, 2, 5])        # 1 + x^2 + x^5
b = BitPolynomial.from_support(p, [1, 4])           # x + x^4

print(f"p = {p}")
print(f"a = {a.support()}  (weight {a.weight})")
print(f"b = {b.support()}")

prod = poly_mul(a, b)
print(f"a*b = {prod.support()}")

dense = (a.to_dense().astype(int) @ b.to_dense().astype(int)) % 2
assert np.array_equal(dense, prod.to_dense()), "ring product == dense circulant product"
print("dense circulant product agrees with the ring product")

inv = poly_inverse(a)
print(f"a^-1 = {inv.support()}")
assert poly_mul(a, inv) == BitPolynomial.one(p)

try:
    poly_inverse(BitPolynomial.from_support(p, [0, 3]))
except NotInvertibleError:
    print("even-weight elements are multiples of (x+1): never invertible")

print(f"hex serialization of a: {a.to_hex()}  ({(p + 7) // 8} bytes, little-endian bits)")

rng = SeedStream(2024, "demo")
while True:  # random block matrices are singular now and then: resample
    blocks = [[BitPolynomial(p, rng.take_bits(p)) for _ in range(2)] for _ in range(2)]
    A = QcMatrix(blocks)
    try:
        A_inv = qc_invert(A)
        break
    except SingularMatrixError:
        continue
assert qc_mul(A, A_inv) == QcMatrix.identity(2, p)
print("2x2 block matrix inverted as the adjugate times det^-1; A * A^-1 == I")
