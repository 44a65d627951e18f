"""Arveson instances shared by the seeded corpus in ``test_deciders_geometry``
and the hypothesis properties in ``test_tolerance``: each draws its own
rationals and hands them to ``arveson_instance``."""

from fractions import Fraction as F

from diagonalis.deciders import check_arveson
from diagonalis.scalars import INF, QC
from diagonalis.seqspec import ConstantRepeat, FiniteList, seq

ZERO = QC(F(0), F(0))


def plain_complex(z):
    """A QC as a complex, rounded as float(Fraction) rounds, without calling it."""
    return complex(z.re.numerator / z.re.denominator, z.im.numerator / z.im.denominator)


def arveson_instance(vs, steps, head, ks):
    """The vertices and head entries of an Arveson instance.

    With ``steps``, vs[2:] move onto the line through vs[0] and vs[1], to
    vs[0] + r (vs[1] - vs[0]) for r in ``steps``.  With ``ks``, the last head
    entry moves so that the deviation sum is a lattice point: it differs from
    (sum of the head) - N v_0 by one, and that is set to sum_j k_j (v_j - v_0).
    """
    vs, head = list(vs), list(head)
    if steps is not None:
        vs[2:] = [vs[0] + QC(r, F(0)) * (vs[1] - vs[0]) for r in steps]
    if ks is not None:
        lattice = sum((QC(F(k), F(0)) * (v - vs[0]) for k, v in zip(ks, vs[1:])), ZERO)
        head[-1] = QC(F(len(head)), F(0)) * vs[0] + lattice - sum(head[:-1], ZERO)
    return vs, head


def arveson_request(vs, head, tail):
    """``check_arveson`` on d = the head, then vertex ``tail`` repeated: exact
    for QC points, float for complex ones."""
    return check_arveson(vs, seq(FiniteList(head), ConstantRepeat(vs[tail], INF), field="complex"))
