"""Brute-force element lists of small finite Hom carriers, the reference
that the full-faithfulness and codec tests compare the package against.

    from brute_force import enumerate_elements, presentation_enumerate
"""

from itertools import product

from serreq.linalg import Mat, presentation_normal_form
from serreq.zmodules import ZHomGroup


def presentation_enumerate(rel: Mat, cap=4096):
    """All residue classes of Z^cols(rel) / rowspan(rel), or None.

    Returns a list of coefficient tuples (in the original coordinates),
    one per class, when the group is finite with at most cap elements.
    """
    divisors, free_rank, _, from_nf = presentation_normal_form(rel)
    if free_rank:
        return None
    count = 1
    for d in divisors:
        count *= d
    if count > cap:
        return None
    out = []
    idx = [0] * len(divisors)
    while True:
        vec = [0] * rel.cols
        for i, z in enumerate(idx):
            if z:
                row = from_nf.data[i]
                for j in range(rel.cols):
                    vec[j] += z * row[j]
        out.append(tuple(vec))
        for i in range(len(divisors) - 1, -1, -1):
            idx[i] += 1
            if idx[i] < divisors[i]:
                break
            idx[i] = 0
        else:
            return out


def enumerate_elements(hom, cap=4096):
    """Every coefficient row of the Hom carrier `hom` (a ZHomGroup or a
    FieldHomGroup), one per element, or None when it has more than cap
    elements or infinitely many."""
    if isinstance(hom, ZHomGroup):
        return presentation_enumerate(hom.obj.relations, cap)
    # p ** dim elements; over Q (p = 0) only the zero space is finite,
    # and 0 ** 0 == 1
    count = hom.field.p ** hom.dim
    if not 0 < count <= cap:
        return None
    return list(product(range(hom.field.p), repeat=hom.dim))
