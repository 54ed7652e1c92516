"""Reference labelers for the tests.

``ndimage_label_x_wrapped`` and ``ndimage_components_meeting`` are the
bodies of ``skew._label_x_wrapped`` and ``skew._components_meeting`` as they
were on ``scipy.ndimage.label``; the library labels runs without scipy.
``component_names`` expands the library's run labels into one name per cell.
"""

import numpy as np
from scipy import ndimage

from torusdyn.skew import _label_x_wrapped


def ndimage_label_x_wrapped(occ, links=()):
    """(lab, root): ndimage labels, 0 off occ, and a union-find root table;
    root[lab] names a cell's component by its smallest label, its first
    cell's. The adjacency is ``_label_x_wrapped``'s."""
    structure = np.zeros((3,) * occ.ndim, dtype=bool)
    structure[(1,) * (occ.ndim - 2)] = [[0, 1, 0], [1, 1, 1], [0, 1, 0]]  # in a fiber
    lab, num = ndimage.label(occ, structure=structure)
    pairs = [(lab[..., 0, :], lab[..., -1, :])]
    n_t, n_y = occ.shape[0], occ.shape[-1]
    for sh in links:
        # one fiber pair at a time keeps the pair keys small
        cut = max(n_y - sh, 0)
        pairs += [(lab[t, :, sh:], lab[(t + 1) % n_t, :, :cut]) for t in range(n_t)]
    m = num + 1
    keys = []
    for a, b in pairs:
        both = (a > 0) & (b > 0) & (a != b)
        keys.append(np.unique(a[both].astype(np.int64) * m + b[both]))
    keys = np.unique(np.concatenate(keys))
    root = np.arange(m, dtype=lab.dtype)

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i, j in zip((keys // m).tolist(), (keys % m).tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            root[max(ri, rj)] = min(ri, rj)
    for i in np.unique(np.concatenate([keys // m, keys % m])).tolist():
        root[i] = find(i)
    return lab, root


def ndimage_components_meeting(occ, seed, links=()):
    """Cells of occ whose component meets occ[seed], from the ndimage labels."""
    lab, root = ndimage_label_x_wrapped(occ, links)
    hit = np.zeros(len(root), dtype=bool)
    hit[root[lab[seed]]] = True
    hit[0] = False  # cells off occ
    return hit[root][lab]


def component_names(occ, links=()):
    """Per cell of occ, 1 + the index of its component's first run
    (``_label_x_wrapped``), 0 off occ."""
    runs, root = _label_x_wrapped(occ, links)
    names = np.zeros(occ.size, dtype=np.int64)
    for (first, end), name in zip(runs.tolist(), root.tolist()):
        names[first:end] = name + 1
    return names.reshape(occ.shape)
