"""Complex root isolation as it stood with mpmath seeds: `_seed_roots`,
`_mpc_to_dyadic`, `_certify`, `_pair_disks` and `isolate_complex_roots`,
verbatim, kept as the oracle for udfield.roots (whose seeds come from
integer Aberth iterations).  mpmath is needed only here."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from udfield.errors import PrecisionExhausted
from udfield.intervals import (ComplexInterval, RealInterval, round_up, sqrt_lower,
                               sqrt_upper)
from udfield.polynomials import check_squarefree, degree, derivative, eval_at
from udfield.roots import RootBox

_MAX_BITS = 1 << 16


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
        return mpmath.polyroots(coeffs, maxsteps=200, extraprec=bits // 2 + 64)
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
    for z in seeds:
        cre, cim = _mpc_to_dyadic(z, bits)
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


def isolate_complex_roots(p: Sequence, precision_bits: int) -> List[RootBox]:
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
        seeds = _seed_roots(p, bits)
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
