"""Complex root isolation as it stood with mpmath seeds and Fraction
certificates: `_seed_roots`, `_mpc_to_dyadic`, `_certify`, `_pair_disks`,
`isolate_complex_roots` and `RootBox`, kept as the oracle for
udfield.roots, whose seeds come from integer Aberth iterations and whose
certificates are computed on integers.  mpmath is needed only here.

The edits: `_seed_roots` returns the dyadic (re, im) pairs that
`_certify` used to convert, `isolate_complex_roots` takes the seeding as
an argument, and `integer_seeds` gives udfield.roots' seeds in that form,
so that the isolation with those seeds is the Fraction isolation of
udfield.roots as it stood before its certificates moved to integers.
Interval Horner is `oracle_setup.eval_at`, the interval classes those of
`oracle_intervals`."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from oracle_intervals import ComplexInterval, RealInterval, sqrt_lower
from oracle_setup import eval_at
from udfield import roots
from udfield.errors import PrecisionExhausted
from udfield.intervals import round_up, sqrt_upper
from udfield.polynomials import check_squarefree, degree, derivative

_MAX_BITS = 1 << 16


class RootBox:
    """One isolated root: a rectangle certified to contain exactly it."""

    __slots__ = ("box", "conj_index", "is_real")

    def __init__(self, box: ComplexInterval, conj_index: int, is_real: bool):
        # conj_index: the index of the complex-conjugate root in the full list
        self.box, self.conj_index, self.is_real = box, conj_index, is_real

    @property
    def re(self) -> RealInterval:
        return self.box.re

    @property
    def im(self) -> RealInterval:
        return self.box.im


def _mpc_to_dyadic(z, bits: int) -> Tuple[Fraction, Fraction]:
    def conv(x):
        sign, man, exp, _ = x._mpf_
        if man == 0:
            return Fraction(0)
        v = Fraction(int(man)) * (Fraction(2) ** exp)
        return -v if sign else v

    return conv(z.real), conv(z.imag)


def _seed_roots(p: Sequence, bits: int):
    import mpmath

    old = mpmath.mp.prec
    try:
        mpmath.mp.prec = bits + 32
        coeffs = [int(c) for c in reversed(p)]
        return [_mpc_to_dyadic(z, bits)
                for z in mpmath.polyroots(coeffs, maxsteps=200, extraprec=bits // 2 + 64)]
    except mpmath.libmp.NoConvergence:
        raise PrecisionExhausted(
            f"root seeding did not converge at {bits} bits") from None
    finally:
        mpmath.mp.prec = old


def _certify(p: Sequence, seeds, bits: int):
    """Return list of (center_re, center_im, radius) disks or None on failure."""
    n = degree(p)
    dp = derivative(p)
    disks = []
    for cre, cim in seeds:
        pt = ComplexInterval.point(cre, cim)
        val = eval_at(p, pt)
        dval = eval_at(dp, pt)
        denom_lo = dval.abs_sq().lo
        if denom_lo <= 0:
            return None
        # radius = n * |p(z)| / |p'(z)|, rounded up
        num_hi = sqrt_upper(val.abs_sq().hi, bits + 8)
        den_lo_rt = sqrt_lower(denom_lo, bits + 8)
        if den_lo_rt == 0:
            return None
        radius = round_up(Fraction(n) * num_hi / den_lo_rt, bits + 8)
        disks.append((cre, cim, radius))
    # pairwise disjoint?
    for i in range(len(disks)):
        for j in range(i + 1, len(disks)):
            dx = disks[i][0] - disks[j][0]
            dy = disks[i][1] - disks[j][1]
            rsum = disks[i][2] + disks[j][2]
            if dx * dx + dy * dy <= rsum * rsum:
                return None
    return disks


def _pair_disks(disks):
    """Conjugate partner of each disk; None if ambiguous at this precision."""
    partners = []
    for i, (cre, cim, r) in enumerate(disks):
        hits = []
        for j, (dre, dim, s) in enumerate(disks):
            # does conj(disk i) intersect disk j?
            dx = cre - dre
            dy = -cim - dim
            if dx * dx + dy * dy <= (r + s) * (r + s):
                hits.append(j)
        if len(hits) != 1:
            return None
        partners.append(hits[0])
    if any(partners[partners[i]] != i for i in range(len(partners))):
        return None
    return partners


def integer_seeds(p: Sequence, bits: int) -> List[Tuple[Fraction, Fraction]]:
    """udfield.roots' integer Aberth seeds as dyadic (re, im) pairs."""
    den = 1 << (bits + roots._SEED_BITS)
    return [(Fraction(x, den), Fraction(y, den)) for x, y in roots._seed_roots(p, bits)]


def isolate_complex_roots(p: Sequence, precision_bits: int,
                          seed_roots=_seed_roots) -> List[RootBox]:
    """Disjoint boxes around all roots of squarefree p, width <= 2^-precision_bits.

    Complex-conjugate roots are identified and paired; a root is flagged
    real exactly when it equals its own conjugate.
    """
    check_squarefree(p)
    n = degree(p)
    if n == 0:
        return []
    target = Fraction(1, 1 << precision_bits)
    bits = max(64, precision_bits + 16)
    while True:
        seeds = seed_roots(p, bits)
        disks = _certify(p, seeds, bits)
        if disks is not None and all(2 * r <= target for _, _, r in disks):
            partners = _pair_disks(disks)
            if partners is not None:
                break
        if bits >= _MAX_BITS:
            raise PrecisionExhausted(f"root isolation stuck at {bits} bits")
        bits *= 2

    entries = []
    for i, (cre, cim, r) in enumerate(disks):
        if partners[i] == i:
            # the root is fixed by conjugation, hence real
            box = ComplexInterval(RealInterval(cre - r, cre + r),
                                  RealInterval(Fraction(0), Fraction(0)))
            entries.append((box, i, True))
        else:
            box = ComplexInterval(RealInterval(cre - r, cre + r),
                                  RealInterval(cim - r, cim + r))
            entries.append((box, partners[i], False))

    # canonical order: by (re midpoint, im midpoint); remap partners
    order = sorted(range(len(entries)),
                   key=lambda i: (entries[i][0].re.midpoint(), entries[i][0].im.midpoint()))
    rank = {old: new for new, old in enumerate(order)}
    out = []
    for old in order:
        box, partner, is_real = entries[old]
        out.append(RootBox(box=box, conj_index=rank[partner], is_real=is_real))
    return out
