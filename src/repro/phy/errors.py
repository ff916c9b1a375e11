"""Channel error models.

The paper's field experience with the RS(64,48) design (Section 2.2) is
that one of two things happens to a transmitted codeword:

1. a small number of symbol errors occur and the decoder corrects them, or
2. a deep fade corrupts many symbols and the decoder *fails to output*.

So a packet is either delivered error-free or lost -- never delivered
corrupted.  Two families of models reproduce this:

* **Symbol-level models** (:class:`IndependentSymbolErrors`,
  :class:`GilbertElliottModel`) corrupt individual codeword symbols; the
  real RS decoder then corrects or fails.  These exercise the full codec
  path and are used in the error-control tests and examples.
* **Outage model** (:class:`OutageModel`) directly draws the binary
  delivered/lost outcome with a configurable loss probability, optionally
  time-correlated.  The large evaluation sweeps use this for speed; it is
  calibrated from the symbol-level models (see
  ``repro.experiments.calibration``).
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from typing import List, Sequence, Tuple

#: A codeword's symbol errors: ``(index, xor value)`` pairs by index.
SymbolErrors = List[Tuple[int, int]]


class ErrorModel:
    """Interface: draw a codeword's symbol errors and/or decide outage."""

    def errors(self, n: int, rng: random.Random) -> SymbolErrors:
        """The symbol errors of one ``n``-symbol codeword."""
        raise NotImplementedError

    def corrupt(self, codeword: Sequence[int],
                rng: random.Random) -> List[int]:
        """Return a copy of ``codeword`` with :meth:`errors` XORed in."""
        out = list(codeword)
        for index, value in self.errors(len(out), rng):
            out[index] ^= value
        return out


class PerfectChannelModel(ErrorModel):
    """No errors at all."""

    def errors(self, n: int, rng: random.Random) -> SymbolErrors:
        return []


# Symbol errors from one block of Mersenne Twister words.
#
# ``random()`` takes two 32-bit words a, b and returns X / 2**53 with
# X = (a >> 5) << 26 | b >> 6, so ``random() < p`` exactly when
# X < p * 2**53 (Python compares an int with a float exactly).  X's top
# 8 and 16 bits are a's, so such a draw has a top byte below
# ceil(256 p) and top 16 bits below 65536 p.  ``randrange(1, 256)`` is
# 1 + (word >> 24), redrawn while that byte is 255, and
# ``getrandbits(32 * m)`` returns the next m words, word i in bits
# [32i, 32i + 32).  So a codeword's guaranteed words (two per draw)
# come in one block, and one slice, translate and find screen the top
# byte of every draw's first word: Python computes only the
# candidates, the bad-state draws and the value words.  The words a
# value takes shift the draws after it off the screen's grid, which is
# then rebuilt; the words the block lacks are drawn on demand.  A GE
# codeword that starts in a fade draws the fade's symbols one at a
# time and takes its block after the fade ends.

_X_SCALE = 9007199254740992.0  # 2**53


@lru_cache(maxsize=256)
def _screen(p: float) -> bytes:
    """Translate table: 1 for a top byte below ``ceil(256 p)``, else 0."""
    passing = math.ceil(p * 256.0)
    return b"\x01" * passing + bytes(256 - passing)


def _draw_x(words: int) -> int:
    """X of a draw from its two words (the first in the low 32 bits)."""
    return (words >> 5 & 0x7FFFFFF) << 26 | words >> 38


def _tail_draw(block: bytes, pos: int,
               rng: random.Random) -> Tuple[int, int]:
    """The two words of a draw not wholly in ``block`` (its first word
    at byte ``pos``), drawing the missing ones now; and the next byte."""
    if pos < len(block):
        return (int.from_bytes(block[pos:], "little")
                | rng.getrandbits(32) << 32), len(block)
    return rng.getrandbits(64), pos


def _value(block: bytes, pos: int, rng: random.Random) -> Tuple[int, int]:
    """``randrange(1, 256)`` from the words at byte ``pos`` on, and the
    next byte; words beyond the block are drawn now."""
    end = len(block)
    while True:
        if pos < end:
            top = block[pos + 3]
            pos += 4
        else:
            top = rng.getrandbits(8)
        if top != 255:
            return top + 1, pos


class IndependentSymbolErrors(ErrorModel):
    """Each codeword symbol is corrupted i.i.d. with probability ``p``.

    :meth:`errors` makes a per-symbol loop's draws: ``random() < p`` for
    each symbol, then ``randrange(1, 256)`` for the value of an error.
    """

    def __init__(self, symbol_error_rate: float):
        if not 0.0 <= symbol_error_rate <= 1.0:
            raise ValueError("symbol_error_rate must be in [0, 1]")
        self.symbol_error_rate = symbol_error_rate

    def errors(self, n: int, rng: random.Random) -> SymbolErrors:
        p = self.symbol_error_rate
        if p == 0.0 or not n:
            return []
        screen = _screen(p)
        end = 8 * n
        block = rng.getrandbits(8 * end).to_bytes(end, "little")
        hits = block[3:end - 4:8].translate(screen)
        if 1 not in hits:
            return []
        from_bytes = int.from_bytes
        found: SymbolErrors = []
        symbol = pos = origin = 0
        while symbol < n:
            if pos + 8 <= end:
                if (pos - origin) & 7:
                    origin = pos
                    hits = block[pos + 3:end - 4:8].translate(screen)
                # Skip to the next draw whose top byte passes, then
                # check its top 16 bits.
                draw = (pos - origin) >> 3
                hit = hits.find(1, draw)
                skipped = (hit if hit >= 0 else len(hits)) - draw
                symbol += skipped
                pos += skipped << 3
                if hit < 0:
                    continue
                if block[pos + 3] << 8 | block[pos + 2] >= p * 65536.0:
                    symbol += 1
                    pos += 8
                    continue
                words = from_bytes(block[pos:pos + 8], "little")
                pos += 8
            else:
                words, pos = _tail_draw(block, pos, rng)
            if _draw_x(words) < p * _X_SCALE:
                value, pos = _value(block, pos, rng)
                found.append((symbol, value))
            symbol += 1
        return found


class GilbertElliottModel(ErrorModel):
    """Two-state burst-error channel (good/bad) at symbol granularity.

    In the *good* state symbols are corrupted with probability
    ``p_good`` (small: a few correctable errors); in the *bad* state with
    probability ``p_bad`` (large: a deep fade the decoder cannot survive).
    State transitions happen per symbol with probabilities
    ``p_good_to_bad`` and ``p_bad_to_good``.

    With the default parameters the stationary bad-state probability is
    1%, mean fade length 100 symbols -- long enough to kill an entire
    64-symbol codeword, matching the paper's observed dichotomy.
    """

    GOOD, BAD = 0, 1

    def __init__(self,
                 p_good: float = 0.002,
                 p_bad: float = 0.40,
                 p_good_to_bad: float = 1e-4,
                 p_bad_to_good: float = 1e-2):
        for name, value in (("p_good", p_good), ("p_bad", p_bad),
                            ("p_good_to_bad", p_good_to_bad),
                            ("p_bad_to_good", p_bad_to_good)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        self.p_good = p_good
        self.p_bad = p_bad
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.state = self.GOOD

    @property
    def stationary_bad_probability(self) -> float:
        denom = self.p_good_to_bad + self.p_bad_to_good
        return self.p_good_to_bad / denom if denom else 0.0

    def _step(self, rng: random.Random) -> None:
        if self.state == self.GOOD:
            if rng.random() < self.p_good_to_bad:
                self.state = self.BAD
        else:
            if rng.random() < self.p_bad_to_good:
                self.state = self.GOOD

    def errors(self, n: int, rng: random.Random) -> SymbolErrors:
        """The draws of :meth:`_step` then an error draw per symbol: a
        state draw, an error draw at the new state's probability, and
        ``randrange(1, 256)`` for the value of an error."""
        found: SymbolErrors = []
        symbol = 0
        if self.state == self.BAD:
            # A fade under way: no block holds its words, so its symbols
            # draw one at a time until it ends.
            random_ = rng.random
            while symbol < n:
                fading = random_() >= self.p_bad_to_good
                if random_() < (self.p_bad if fading else self.p_good):
                    found.append((symbol, rng.randrange(1, 256)))
                symbol += 1
                if not fading:
                    self.state = self.GOOD
                    break
        if symbol == n:
            return found
        p_g2b = self.p_good_to_bad
        p_good = self.p_good
        # One screen serves both draws of a good-state symbol.
        screen = _screen(p_g2b if p_g2b > p_good else p_good)
        end = 16 * (n - symbol)
        block = rng.getrandbits(8 * end).to_bytes(end, "little")
        hits = block[3:end - 4:8].translate(screen)
        if 1 not in hits:
            return found
        from_bytes = int.from_bytes
        bad = False
        pos = origin = 0
        error_draw = 0  # 1 when the next draw is ``symbol``'s error draw
        while symbol < n:
            if bad or pos + 8 > end:
                if pos + 8 <= end:
                    words = from_bytes(block[pos:pos + 8], "little")
                    pos += 8
                else:
                    words, pos = _tail_draw(block, pos, rng)
            else:
                if (pos - origin) & 7:
                    origin = pos
                    hits = block[pos + 3:end - 4:8].translate(screen)
                draw = (pos - origin) >> 3
                hit = hits.find(1, draw)
                skipped = (hit if hit >= 0 else len(hits)) - draw
                draws = error_draw + skipped
                symbol += draws >> 1
                error_draw = draws & 1
                pos += skipped << 3
                if hit < 0:
                    continue
                if (block[pos + 3] << 8 | block[pos + 2]
                        >= (p_good if error_draw else p_g2b) * 65536.0):
                    symbol += error_draw
                    error_draw ^= 1
                    pos += 8
                    continue
                words = from_bytes(block[pos:pos + 8], "little")
                pos += 8
            x = _draw_x(words)
            if error_draw:
                if x < (self.p_bad if bad else p_good) * _X_SCALE:
                    value, pos = _value(block, pos, rng)
                    found.append((symbol, value))
                symbol += 1
                error_draw = 0
            else:
                if bad:
                    bad = x >= self.p_bad_to_good * _X_SCALE
                else:
                    bad = x < p_g2b * _X_SCALE
                error_draw = 1
        self.state = self.BAD if bad else self.GOOD
        return found


class OutageModel(ErrorModel):
    """Binary delivered/lost model calibrated from the GE channel.

    ``corrupt`` is still provided for interface compatibility (it erases
    the whole codeword on outage, guaranteeing an RS decode failure), but
    users normally call :meth:`is_lost` directly to skip the codec.
    """

    def __init__(self, loss_probability: float):
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")
        self.loss_probability = loss_probability

    def is_lost(self, rng: random.Random) -> bool:
        return rng.random() < self.loss_probability

    def errors(self, n: int, rng: random.Random) -> SymbolErrors:
        if self.is_lost(rng):
            return [(index, rng.randrange(1, 256)) for index in range(n)]
        return []
