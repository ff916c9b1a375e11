"""Reed--Solomon codec over GF(256).

The paper protects every data packet and control-field block with a
shortened RS(64,48) code over GF(256) (8 parity symbols, corrects up to
t = 8 symbol errors).  This module implements:

* systematic encoding against the generator polynomial
  ``g(x) = prod_{i=0}^{2t-1} (x - alpha^i)``,
* decoding via syndromes, Berlekamp--Massey, Chien search and the Forney
  algorithm, with optional erasure information; the field arithmetic
  runs on ``bytes.translate`` tables (:data:`GF256.mul_tables`), one
  C call per scaled column or polynomial,
* explicit decode-failure detection (:class:`RSDecodeFailure`) -- the
  behaviour the paper relies on: a codeword is either recovered exactly or
  the decoder refuses to output, so corrupted packets are *lost*, never
  silently delivered wrong.

Shortening is implicit: RS(64,48) is RS(255,239) with 191 leading zero
information symbols that are never transmitted.
"""

from __future__ import annotations

import operator
from typing import List, Optional, Sequence, Tuple

from repro.phy.gf256 import GF256

_EXP = GF256.exp
_LOG = GF256.log
_MUL = GF256.mul_tables


class RSDecodeFailure(Exception):
    """The received word is beyond the code's correction capability."""


class ReedSolomon:
    """A systematic RS(n, k) codec over GF(256).

    Parameters
    ----------
    n:
        Codeword length in symbols (bytes), at most 255.
    k:
        Information symbols per codeword; ``n - k`` must be even is not
        required, but ``t = (n - k) // 2`` symbol errors are correctable.
    fcr:
        First consecutive root exponent of the generator polynomial
        (0 by convention here).
    """

    def __init__(self, n: int, k: int, fcr: int = 0):
        if not 0 < k < n <= 255:
            raise ValueError(f"invalid RS parameters n={n}, k={k}")
        self.n = n
        self.k = k
        self.fcr = fcr
        self.nsym = n - k
        self.t = self.nsym // 2
        self.generator_poly = self._build_generator(self.nsym, fcr)
        # Symbol ``pos`` has locator X = alpha^(n-1-pos).  Its column
        # holds X^(i+fcr) for each syndrome i, so a symbol v adds
        # column.translate(mul_tables[v]) to the syndromes; row d holds
        # X^-d for every position, so a polynomial evaluates at all n
        # inverse locators with one translate per coefficient.
        self._syndrome_columns = [
            bytes(_EXP[(i + fcr) * (n - 1 - pos) % 255]
                  for i in range(self.nsym))
            for pos in range(n)]
        self._power_rows = [
            bytes(_EXP[-d * (n - 1 - pos) % 255] for pos in range(n))
            for d in range(self.nsym + 1)]

    @staticmethod
    def _build_generator(nsym: int, fcr: int) -> List[int]:
        gen = [1]
        for i in range(nsym):
            gen = GF256.poly_mul(gen, [1, GF256.pow(2, i + fcr)])
        return gen

    # -- encoding -------------------------------------------------------------

    def encode(self, message: Sequence[int]) -> bytes:
        """Encode ``k`` information symbols into an ``n``-symbol codeword.

        The output is systematic: the first ``k`` symbols are the message,
        the last ``n - k`` are parity.
        """
        msg = list(message)
        if len(msg) != self.k:
            raise ValueError(
                f"message must be exactly {self.k} symbols, got {len(msg)}")
        if any(not 0 <= symbol <= 255 for symbol in msg):
            raise ValueError("symbols must be in [0, 255]")
        _, remainder = GF256.poly_divmod(msg + [0] * self.nsym,
                                         self.generator_poly)
        parity = [0] * (self.nsym - len(remainder)) + remainder
        return bytes(msg + parity)

    # -- decoding -------------------------------------------------------------

    def decode(self, received: Sequence[int],
               erasures: Optional[Sequence[int]] = None) -> bytes:
        """Recover the ``k`` information symbols from a received word.

        Parameters
        ----------
        received:
            ``n`` symbols as read off the channel.
        erasures:
            Optional positions (0-based within the codeword) known to be
            unreliable; each erasure costs one unit of correction power
            instead of two.

        Raises
        ------
        RSDecodeFailure
            If more than ``t`` errors (counting erasures at half weight)
            corrupted the word, or the corrected word is inconsistent.
        """
        word = list(received)
        if len(word) != self.n:
            raise RSDecodeFailure(
                f"received word has {len(word)} symbols, expected {self.n}")
        erasure_positions = sorted(set(erasures or []))
        if any(not 0 <= pos < self.n for pos in erasure_positions):
            raise ValueError("erasure positions out of range")
        if len(erasure_positions) > self.nsym:
            raise RSDecodeFailure("more erasures than parity symbols")

        syndromes = self._syndromes(word)
        if not any(syndromes):
            return bytes(word[:self.k])

        erasure_locator = self._erasure_locator(erasure_positions)
        modified = self._modified_syndromes(syndromes, erasure_positions)
        error_locator = self._berlekamp_massey(
            modified, len(erasure_positions))
        combined = GF256.poly_mul(error_locator, erasure_locator)

        positions = self._chien_search(combined)
        if positions is None:
            raise RSDecodeFailure("error locator has wrong root count")

        corrected = self._forney(word, syndromes, combined, positions)

        if any(self._syndromes(corrected)):
            raise RSDecodeFailure("residual syndrome after correction")
        return bytes(corrected[:self.k])

    def decode_reference(self, received: Sequence[int],
                         reference: Sequence[int]) -> bytes:
        """Decode ``received`` knowing the codeword that was transmitted.

        The channel simulator always knows the clean codeword, so it
        decodes the error pattern ``received XOR reference`` instead of
        the received word:

        * at most ``t`` symbols differ: bounded-distance decoding is
          *guaranteed* to succeed and return the transmitted information
          symbols (the received word lies inside the transmitted
          codeword's decoding sphere, so no other codeword can be
          closer).  A C-level compare, then one integer XOR and a
          count of zero bytes, decide it; no decoder runs.
        * more than ``t``: the outcome (failure, or a miscorrection to a
          different codeword) depends on the exact pattern, so
          :meth:`decode` runs on the pattern, which is nonzero only where
          errors hit.  Syndromes are linear and vanish on every
          codeword, so the pattern has the received word's syndromes,
          locator, error positions and magnitudes: it fails with the same
          message, or its corrected information symbols XOR the
          reference's are those :meth:`decode` would return.

        The result is therefore bit-identical to ``decode(received)``
        for every input, assuming ``reference`` really is the
        transmitted codeword.
        """
        n = self.n
        word = bytes(received)
        if len(word) != n or len(reference) != n:
            return self.decode(received)
        if word == reference:
            return bytes(reference[:self.k])
        pattern = (int.from_bytes(word, "big")
                   ^ int.from_bytes(reference, "big")).to_bytes(n, "big")
        if pattern.count(0) >= n - self.t:
            return bytes(reference[:self.k])
        return bytes(map(operator.xor, self.decode(pattern), reference))

    def check(self, received: Sequence[int]) -> bool:
        """True when the word is a valid codeword (all syndromes zero)."""
        word = list(received)
        if len(word) != self.n:
            return False
        return not any(self._syndromes(word))

    # -- decoder internals ------------------------------------------------

    def _syndromes(self, word: Sequence[int]) -> bytes:
        """``S_i = word(alpha^(i+fcr))``: one column per nonzero symbol."""
        columns = self._syndrome_columns
        total = 0
        for pos, symbol in enumerate(word):
            if symbol:
                total ^= int.from_bytes(
                    columns[pos].translate(_MUL[symbol]), "big")
        return total.to_bytes(self.nsym, "big")

    def _evaluate_at_positions(self, poly: Sequence[int]) -> bytes:
        """``poly`` (high-order first) at X^-1 for every position's X."""
        rows = self._power_rows
        total = 0
        for degree, coeff in enumerate(reversed(poly)):
            if coeff:
                total ^= int.from_bytes(
                    rows[degree].translate(_MUL[coeff]), "big")
        return total.to_bytes(self.n, "big")

    def _erasure_locator(self, positions: Sequence[int]) -> List[int]:
        locator = [1]
        for pos in positions:
            x_inv_power = GF256.pow(2, self.n - 1 - pos)
            locator = GF256.poly_mul(locator, [x_inv_power, 1])
        return locator

    def _modified_syndromes(self, syndromes: Sequence[int],
                            erasure_positions: Sequence[int]) -> List[int]:
        """Forney syndromes: fold erasure knowledge into the syndromes.

        Each erasure at position ``p`` folds a factor ``(x * X_p + 1)`` into
        the syndrome polynomial via the standard in-place shift, so the
        Berlekamp--Massey step only has to locate the *unknown* errors.
        """
        fsynd = list(syndromes)
        for pos in erasure_positions:
            x = GF256.pow(2, self.n - 1 - pos)
            for j in range(len(fsynd) - 1):
                fsynd[j] = GF256.mul(fsynd[j], x) ^ fsynd[j + 1]
        return fsynd

    def _berlekamp_massey(self, syndromes: Sequence[int],
                          erasure_count: int) -> bytes:
        """Error-locator polynomial via Berlekamp--Massey (low-order last).

        ``syndromes`` here are the Forney-modified syndromes, so the
        locator found covers only the *errors* (not the erasures); only the
        first ``nsym - erasure_count`` entries are meaningful.  The
        polynomials are bytes: scaling one is a translate, and adding
        two is an XOR of big-endian integers, which aligns their
        constant terms.
        """
        err_loc = old_loc = b"\x01"
        for i in range(len(syndromes) - erasure_count):
            old_loc += b"\x00"
            delta = syndromes[i]
            for coeff, syndrome in zip(err_loc[-2::-1],
                                       syndromes[i - 1::-1]):
                delta ^= _MUL[coeff][syndrome]
            if delta:
                if len(old_loc) > len(err_loc):
                    err_loc, old_loc = (
                        old_loc.translate(_MUL[delta]),
                        err_loc.translate(_MUL[GF256.inv(delta)]))
                err_loc = (int.from_bytes(err_loc, "big")
                           ^ int.from_bytes(old_loc.translate(_MUL[delta]),
                                            "big")
                           ).to_bytes(len(err_loc), "big")
        # The constant term stays 1, so only leading zeros go.
        err_loc = err_loc.lstrip(b"\x00")
        errors = len(err_loc) - 1
        if errors * 2 + erasure_count > self.nsym:
            raise RSDecodeFailure(
                f"too many errors to correct ({errors} errors, "
                f"{erasure_count} erasures, {self.nsym} parity symbols)")
        return err_loc

    def _chien_search(self, locator: Sequence[int]) -> Optional[List[int]]:
        """Positions of errors, or None when root count != degree."""
        degree = len(GF256.poly_strip(locator)) - 1
        values = self._evaluate_at_positions(locator)
        if values.count(0) != degree:
            return None
        return [pos for pos, value in enumerate(values) if not value]

    def _forney(self, word: Sequence[int], syndromes: Sequence[int],
                locator: Sequence[int],
                positions: Sequence[int]) -> List[int]:
        """Error magnitudes via the Forney algorithm; returns corrected word."""
        # Error evaluator Omega(x) = Syn(x) * Lambda(x) mod x^nsym,
        # with Syn(x) low-order first.
        omega = GF256.poly_mul(syndromes[::-1], locator)[-self.nsym:]
        # Formal derivative of Lambda: in GF(2^m) it keeps the odd terms,
        # each one degree lower (high-order-first storage).
        locator = GF256.poly_strip(locator)
        degree = len(locator) - 1
        derivative = [coeff if (degree - index) % 2 else 0
                      for index, coeff in enumerate(locator[:-1])]
        numerators = self._evaluate_at_positions(omega)
        denominators = self._evaluate_at_positions(derivative)
        corrected = list(word)
        for pos in positions:
            denominator = denominators[pos]
            if not denominator:
                raise RSDecodeFailure("Forney derivative vanished")
            numerator = numerators[pos]
            if numerator:
                # e_j = X_j^(1-fcr) * Omega(X_j^-1) / Lambda'(X_j^-1).
                corrected[pos] ^= _EXP[
                    (_LOG[numerator] - _LOG[denominator]
                     + (self.n - 1 - pos) * (1 - self.fcr)) % 255]
        return corrected


#: The codec the testbed uses for every slot and control-field block.
RS_64_48 = ReedSolomon(64, 48)


def codeword_bits(codec: ReedSolomon = RS_64_48) -> Tuple[int, int]:
    """(information bits, coded bits) per codeword: (384, 512) for RS(64,48)."""
    return codec.k * 8, codec.n * 8
