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

import random
from typing import List, Sequence

from repro.phy.timing import REVERSE_SYMBOL_RATE


class ErrorModel:
    """Interface: mutate codeword symbols and/or decide outage."""

    def corrupt(self, codeword: Sequence[int],
                rng: random.Random) -> List[int]:
        """Return a (possibly) corrupted copy of ``codeword``."""
        raise NotImplementedError

    def advance(self, duration: float, rng: random.Random) -> None:
        """Advance internal channel state by ``duration`` seconds."""


class PerfectChannelModel(ErrorModel):
    """No errors at all."""

    def corrupt(self, codeword: Sequence[int],
                rng: random.Random) -> List[int]:
        return list(codeword)


class IndependentSymbolErrors(ErrorModel):
    """Each codeword symbol is corrupted i.i.d. with probability ``p``."""

    def __init__(self, symbol_error_rate: float):
        if not 0.0 <= symbol_error_rate <= 1.0:
            raise ValueError("symbol_error_rate must be in [0, 1]")
        self.symbol_error_rate = symbol_error_rate

    def corrupt(self, codeword: Sequence[int],
                rng: random.Random) -> List[int]:
        out = list(codeword)
        p = self.symbol_error_rate
        if p == 0.0:
            return out
        # Hot path: the draw methods are hoisted, as in
        # GilbertElliottModel.corrupt; the draws are unchanged.
        random_ = rng.random
        randrange = rng.randrange
        for index in range(len(out)):
            if random_() < p:
                out[index] ^= randrange(1, 256)
        return out


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

    def corrupt(self, codeword: Sequence[int],
                rng: random.Random) -> List[int]:
        # Hot path: _step() is inlined and the attribute loads hoisted;
        # the RNG draw sequence is exactly one state draw per symbol
        # followed by an error draw (plus a value draw on error), the
        # same order the naive per-symbol _step loop produced.
        out = list(codeword)
        state = self.state
        bad = self.BAD
        p_good = self.p_good
        p_bad = self.p_bad
        p_g2b = self.p_good_to_bad
        p_b2g = self.p_bad_to_good
        random_ = rng.random
        randrange = rng.randrange
        for index in range(len(out)):
            if state == bad:
                if random_() < p_b2g:
                    state = self.GOOD
                    p = p_good
                else:
                    p = p_bad
            elif random_() < p_g2b:
                state = bad
                p = p_bad
            else:
                p = p_good
            if random_() < p:
                out[index] ^= randrange(1, 256)
        self.state = state
        return out

    def advance(self, duration: float, rng: random.Random) -> None:
        """Advance the fading state through idle air-time.

        The per-symbol chain is approximated at cycle granularity by
        drawing from the two-state chain's transient distribution.
        """
        if duration <= 0:
            return
        # Symbols that *would* have been transmitted in this interval; the
        # chain memory decays geometrically, so sample the state afresh
        # from the stationary distribution when the gap is long.
        if duration * REVERSE_SYMBOL_RATE * max(self.p_good_to_bad,
                                                self.p_bad_to_good) > 1.0:
            bad = rng.random() < self.stationary_bad_probability
            self.state = self.BAD if bad else self.GOOD


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

    def corrupt(self, codeword: Sequence[int],
                rng: random.Random) -> List[int]:
        out = list(codeword)
        if self.is_lost(rng):
            for index in range(len(out)):
                out[index] ^= rng.randrange(1, 256)
        return out
