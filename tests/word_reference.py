"""The scalar cell-word decoder, kept as the tests' reference.

minimize._level_words decodes the words of many rows of a lifted cloud at
once; this is the row-by-row decoder it replaced, so that tests compare the
package against code it does not share.
"""


def _row_label(row: int, M: int, lifts: int, base_words=None, prefix=()) -> tuple:
    """Cell word of `row` of `lifts` lifts of a base of n rows (_image_cloud).

    Row q*n + b is psi_v(x_b) for the (q+1)-th word v of length lifts, so
    its word is prefix + v + base_words[b].  base_words None is the mesh's
    base, the M fixed points, which add no letter: psi_v(f_b) lies in the cell v.
    """
    if base_words is None:
        q, base = row // M, ()
    else:
        q, b = divmod(row, len(base_words))
        base = base_words[b]
    letters = []
    for _ in range(lifts):
        q, r = divmod(q, M)
        letters.append(r + 1)
    letters.reverse()
    return prefix + tuple(letters) + base
