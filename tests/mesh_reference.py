"""The cell-block recursion and the squared-distance expression, kept as the
tests' references.

minimize._Mesh.block serves a block as a view of a built level cloud, and
fractal._sq_dists forms its distances in place; these are the code they
replaced, so that tests compare the package against code it does not share.
"""


def _recursive_block(mesh, word):
    """apply_word(word, level 1) of the mesh, built as the first map of word
    applied to the (cached) block of the rest of word."""
    if not word:
        return mesh.level(1)
    cache = mesh.__dict__.setdefault("_reference_blocks", {})
    coords = cache.get(word)
    if coords is None:
        coords = cache[word] = mesh.fractal.maps[word[0] - 1].apply(_recursive_block(mesh, word[1:]))
    return coords


def _sq_dists(a, b):
    """(K, N) squared distances, accumulated coordinate by coordinate."""
    d2 = (a[:, 0, None] - b[None, :, 0]) ** 2
    for k in range(1, a.shape[1]):
        d2 += (a[:, k, None] - b[None, :, k]) ** 2
    return d2
