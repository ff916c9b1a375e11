"""GF(2^8) arithmetic for the Reed--Solomon codec.

The field is constructed from the primitive polynomial
``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D), the conventional choice for
RS codes over GF(256) (the same field used by CCSDS and DVB RS codecs and
consistent with the paper's RS(64,48) over GF(256)).

Elements are plain ints in ``[0, 255]``.  Multiplication and inversion go
through log/antilog tables built once at import time, and
:data:`GF256.mul_tables` holds one ``bytes.translate`` table per
multiplier, so scaling a whole byte string by a constant is one C call.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

PRIMITIVE_POLY = 0x11D
FIELD_SIZE = 256
GENERATOR = 2  # alpha, a primitive element under 0x11D

_EXP: List[int] = [0] * 512  # alpha^i for i in [0, 510], doubled to skip mod
_LOG: List[int] = [0] * 256  # log_alpha(x); _LOG[0] is unused


def _build_tables() -> None:
    value = 1
    for power in range(255):
        _EXP[power] = value
        _LOG[value] = power
        value <<= 1
        if value & 0x100:
            value ^= PRIMITIVE_POLY
    for power in range(255, 512):
        _EXP[power] = _EXP[power - 255]


_build_tables()


def _build_mul_tables() -> List[bytes]:
    """``tables[c][x] == c * x``: row alpha^(i+1) is row alpha^i doubled,
    so 255 translates build all 64 KB."""
    double = bytes([_EXP[_LOG[x] + 1] if x else 0 for x in range(256)])
    tables = [bytes(256)] * 256
    row = bytes(range(256))
    for power in range(255):
        tables[_EXP[power]] = row
        row = row.translate(double)
    return tables


_MUL = _build_mul_tables()


class GF256:
    """Namespace of GF(2^8) operations on int-encoded elements."""

    exp = _EXP
    log = _LOG
    #: ``data.translate(mul_tables[c])`` multiplies every byte by ``c``.
    mul_tables = _MUL

    @staticmethod
    def add(a: int, b: int) -> int:
        """Addition (= subtraction) is XOR in characteristic 2."""
        return a ^ b

    sub = add

    @staticmethod
    def mul(a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return _EXP[_LOG[a] + _LOG[b]]

    @staticmethod
    def div(a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(256)")
        if a == 0:
            return 0
        return _EXP[(_LOG[a] - _LOG[b]) % 255]

    @staticmethod
    def inv(a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(256)")
        return _EXP[255 - _LOG[a]]

    @staticmethod
    def pow(a: int, n: int) -> int:
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("negative power of zero in GF(256)")
            return 0
        return _EXP[(_LOG[a] * n) % 255]

    # -- polynomial helpers --------------------------------------------------
    # Polynomials are lists of coefficients, highest degree first:
    # [a, b, c] represents a*x^2 + b*x + c.

    @staticmethod
    def poly_add(p: Sequence[int], q: Sequence[int]) -> List[int]:
        result = [0] * max(len(p), len(q))
        result[len(result) - len(p):] = list(p)
        for index, coeff in enumerate(q):
            result[index + len(result) - len(q)] ^= coeff
        return result

    @staticmethod
    def poly_mul(p: Sequence[int], q: Sequence[int]) -> List[int]:
        result = [0] * (len(p) + len(q) - 1)
        for i, pc in enumerate(p):
            if pc == 0:
                continue
            log_pc = _LOG[pc]
            for j, qc in enumerate(q):
                if qc:
                    result[i + j] ^= _EXP[log_pc + _LOG[qc]]
        return result

    @staticmethod
    def poly_eval(poly: Sequence[int], x: int) -> int:
        """Horner evaluation of ``poly`` at ``x``."""
        result = 0
        for coeff in poly:
            result = GF256.mul(result, x) ^ coeff
        return result

    @staticmethod
    def poly_divmod(dividend: Sequence[int],
                    divisor: Sequence[int]) -> "tuple[List[int], List[int]]":
        """Quotient and remainder of polynomial long division."""
        divisor = list(divisor)
        while divisor and divisor[0] == 0:
            divisor = divisor[1:]
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        out = list(dividend)
        normalizer = divisor[0]
        steps = len(dividend) - len(divisor) + 1
        if steps <= 0:
            return [0], out
        for i in range(steps):
            coeff = out[i] = GF256.div(out[i], normalizer)
            if coeff != 0:
                for j in range(1, len(divisor)):
                    out[i + j] ^= GF256.mul(divisor[j], coeff)
        separator = len(dividend) - (len(divisor) - 1)
        return out[:separator], out[separator:]

    @staticmethod
    def poly_strip(poly: Iterable[int]) -> List[int]:
        """Drop leading zero coefficients (canonical form)."""
        coeffs = list(poly)
        while len(coeffs) > 1 and coeffs[0] == 0:
            coeffs.pop(0)
        return coeffs
