"""Independent brute-force oracles shared by the test modules.

Everything here is built straight from the one-dimensional definitions
(boundary of an interval, the three nonzero 1-D products, the recursive
sign rule) or from the per-cell chain layer (boundary_cell and, built on
it here, sparse chains, their boundary and pairing, the diagonal chains),
and never calls the vectorized implementations it checks.  The walks over
the stored and the interior cells are stated here from the topology and
sizes, not read from Domain.
"""

import itertools
import json

import numpy as np

from ymdec.algebra import LAMBDA
from ymdec.calculus import star
from ymdec.cochain import COPY_NAMES, FILE_VERSION, Cochain, conj_transpose_form
from ymdec.complex4 import BASE, MASKS_BY_DEGREE, Cell, OutOfDomain, boundary_cell, degree, star_cell


class Chain(dict):
    """Sparse integer combination of cells, {cell: coefficient}; terms that
    cancel are dropped, so the zero chain is empty."""

    def add(self, cell, coeff):
        new = self.get(cell, 0) + coeff
        if new == 0:
            self.pop(cell, None)
        else:
            self[cell] = new


def boundary(domain, chain):
    """Boundary of a chain, summed cell by cell over boundary_cell."""
    out = Chain()
    for cell, coeff in chain.items():
        for bcell, bcoeff in boundary_cell(domain, cell).items():
            out.add(bcell, coeff * bcoeff)
    return out


def stored_cells(domain):
    """(chart, k) of every stored cell in storage order (chart-major, k
    lexicographic), from the topology and sizes alone: k_i in 1..N_i on
    each of the sphere's two charts, 0..N_i + 1 on the block's one chart."""
    sphere = domain.topology == "sphere"
    ranges = [range(1, n + 1) if sphere else range(0, n + 2) for n in domain.sizes]
    return [(chart, k) for chart in range(2 if sphere else 1) for k in itertools.product(*ranges)]


def interior_cells(domain):
    """(chart, k) with 1 <= k_i <= N_i in storage order, from the topology
    and sizes alone."""
    ranges = [range(1, n + 1) for n in domain.sizes]
    charts = range(2 if domain.topology == "sphere" else 1)
    return [(chart, k) for chart in charts for k in itertools.product(*ranges)]


def gauge_classes_by_union_find(domain):
    """Per stored cell, in storage order, a representative of its class under
    h(tau_a tau_b k) = h(tau_c tau_d k) for the complementary axis pairs
    ((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)) at every interior
    cell k: a scalar union-find over Domain.resolve double shifts."""
    cells = stored_cells(domain)
    position = {ck: n for n, ck in enumerate(cells)}
    parent = list(range(len(cells)))

    def find(n):
        while parent[n] != n:
            parent[n] = n = parent[parent[n]]
        return n

    def step(chart, k, axis):
        k = list(k)
        k[axis - 1] += 1
        return domain.resolve(chart, tuple(k))

    for chart, k in interior_cells(domain):
        for (a, b), (c, d) in (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))):
            left = position[step(*step(chart, k, a), b)]
            right = position[step(*step(chart, k, c), d)]
            parent[find(left)] = find(right)
    return np.array([find(n) for n in range(len(cells))])


def abelian_connection(domain, B, s):
    """The abelian solution A = a lam_3 with a^1 = -B k_2, a^3 = -s B k_4 and
    a^2 = a^4 = 0 at every stored k.  Its curvature is B lam_3 on (12) and
    s B lam_3 on (34), zero elsewhere: self-dual for s = +1, anti-self-dual
    for s = -1, with action B^2 prod N_i on the block."""
    k = np.indices(domain.extents) + 1 - domain.halo
    a = np.zeros((domain.ncharts, *domain.extents, 4))
    a[..., 0] = -B * k[1]
    a[..., 2] = -s * B * k[3]
    return Cochain(domain, 1, a[..., None, None] * LAMBDA[2])


def boundary_arrays_by_cell(domain, p):
    """(row, col, coeff) of complex4.boundary_arrays, built by one
    boundary_cell call per stored cell and degree-p direction set, terms in
    boundary_cell's order; a call that raises OutOfDomain gives no row."""
    masks, sub = MASKS_BY_DEGREE[p], MASKS_BY_DEGREE[p - 1]
    cells = stored_cells(domain)
    position = {ck: n for n, ck in enumerate(cells)}
    rows, cols, coeffs = [], [], []
    for n, (chart, k) in enumerate(cells):
        for d, mask in enumerate(masks):
            try:
                terms = boundary_cell(domain, Cell(chart, k, mask)).items()
            except OutOfDomain:
                continue
            for cell, coeff in terms:
                rows.append(n * len(masks) + d)
                cols.append(position[cell.chart, cell.k] * len(sub) + sub.index(cell.mask))
                coeffs.append(coeff)
    return (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
            np.array(coeffs, dtype=np.int64))


def pair_chain(chain, f):
    """Pairing of a chain {cell: coefficient} against a form: the sum of
    coefficient times component over the cells on f's copy and degree."""
    out = np.zeros((2, 2), dtype=np.complex128)
    for cell, coeff in chain.items():
        if cell.copy != f.copy or degree(cell.mask) != f.degree:
            continue
        out += coeff * f.get(cell.chart, cell.k, cell.mask)
    return out


def build_Vp(domain, p):
    """Diagonal chain of degree p: triples (cell, mirrored complement, sign).

    One entry per interior (chart, k) and per direction set of degree p;
    paired against a form and a starred form they give the discrete Green
    formula cell by cell.
    """
    if not 0 <= p <= 4:
        raise ValueError("degree out of range")
    out = []
    for chart, k in interior_cells(domain):
        for mask in MASKS_BY_DEGREE[p]:
            cell = Cell(chart, k, mask, BASE)
            sign, mirrored = star_cell(cell)
            out.append((cell, mirrored, sign))
    return out


def parity_sign(seq):
    """+1/-1 parity of a permutation given as a sequence, by inversion count."""
    inv = sum(
        1
        for a in range(len(seq))
        for b in range(a + 1, len(seq))
        if seq[a] > seq[b]
    )
    return -1 if inv & 1 else 1


# 1-D basis factors are ('x', kappa) or ('e', kappa)

def cup_1d(a, b):
    """The three nonzero products on the 1-D complex; None otherwise."""
    (ta, ka), (tb, kb) = a, b
    if ta == "x" and tb == "x" and ka == kb:
        return ("x", ka)
    if ta == "e" and tb == "x" and kb == ka + 1:
        return ("e", ka)
    if ta == "x" and tb == "e" and kb == ka:
        return ("e", ka)
    return None


def cup_basis(s, t):
    """Product of two basis elements of the 4-fold tensor complex.

    s, t: tuples of four 1-D factors.  Returns (sign, result factors) or
    None, by unrolling the recursion (last factor split off, sign -1 when
    the split-off left factor and the remaining right part are both odd).
    """
    if len(s) == 1:
        r = cup_1d(s[0], t[0])
        return None if r is None else (1, (r,))
    u, a = s[:-1], s[-1]
    v, b = t[:-1], t[-1]
    inner = cup_basis(u, v)
    last = cup_1d(a, b)
    if inner is None or last is None:
        return None
    sign, res = inner
    dim_a = 1 if a[0] == "e" else 0
    dim_v = sum(1 for f in v if f[0] == "e")
    if dim_a == 1 and dim_v % 2 == 1:
        sign = -sign
    return sign, res + (last,)


def factors(k, axes):
    """Basis element at multi-index k with 1-D components on the given axes."""
    return tuple(("e" if i in axes else "x", k[i - 1]) for i in AXES)


AXES = (1, 2, 3, 4)


def cup_form_oracle(f_terms, g_terms):
    """Cup product of two sparse forms given as {(k, axes frozenset): 2x2 matrix}.

    Sums over all basis pairs via cup_basis; coefficients multiply as
    matrices in operand order.  Returns the same sparse representation.
    """
    out = {}
    for (kf, pf), mf in f_terms.items():
        sf = factors(kf, pf)
        for (kg, pg), mg in g_terms.items():
            sg = factors(kg, pg)
            r = cup_basis(sf, sg)
            if r is None:
                continue
            sign, res = r
            axes = frozenset(i for i in AXES if res[i - 1][0] == "e")
            k = tuple(res[i - 1][1] for i in AXES)
            key = (k, axes)
            out[key] = out.get(key, 0) + sign * (mf @ mg)
    return {k: v for k, v in out.items() if np.abs(v).max() > 0}


def green_boundary_term_oracle(phi, omega):
    """The Green pairing term cell by cell over the diagonal chains: each
    degree-p cell's boundary paired with phi against its starred partner in
    star(omega^H), then each degree-(p-1) cell of phi against the boundary
    of its starred partner."""
    domain, p = phi.domain, omega.degree
    star_omega_conj = star(conj_transpose_form(omega))
    total = 0.0 + 0.0j
    for cell, tcell, sign in build_Vp(domain, p):
        m1 = pair_chain(boundary_cell(domain, cell), phi)
        m2 = sign * star_omega_conj.get(tcell.chart, tcell.k, tcell.mask)
        total += np.trace(m1 @ m2)
    sgn = -1 if (p - 1) % 2 else 1
    for cell, tcell, sign in build_Vp(domain, p - 1):
        m2 = sign * pair_chain(boundary_cell(domain, tcell), star_omega_conj)
        m1 = phi.get(cell.chart, cell.k, cell.mask)
        total += sgn * np.trace(m1 @ m2)
    return complex(total)


def gather_by_resolve(domain, axis, step):
    """Flat index of Domain.resolve(chart, k + step e_axis) per stored cell,
    the sentinel ncells where that address is outside the domain, then the
    sentinel row itself."""
    shape = (domain.ncharts, *domain.extents)
    offset = 1 if domain.is_sphere else 0   # storage index to k
    out = []
    for chart, *idx in np.ndindex(*shape):
        k = [i + offset for i in idx]
        k[axis - 1] += step
        try:
            chart2, k2 = domain.resolve(chart, tuple(k))
        except OutOfDomain:
            out.append(int(np.prod(shape)))
            continue
        out.append(int(np.ravel_multi_index(domain.storage_index(chart2, k2), shape)))
    return np.array(out + [int(np.prod(shape))])


def line_minimum_by_roots(c):
    """The solver's line minimum with the cubic solved by np.roots (the
    eigenvalues of its companion matrix): the t > 0 of least value among the
    stationary points of sum_n c[n] t^n, or None.  Same rescaling and the
    same rule for dropping leading coefficients at rounding level."""
    d = np.array([c[1], 2 * c[2], 3 * c[3], 4 * c[4]])
    if not (np.isfinite(c).all() and d[0] < 0 and d[1:].any()):
        return None
    tau = 1.0 / max((abs(d[n]) / -d[0]) ** (1.0 / n) for n in (1, 2, 3))
    ds = d * tau ** np.arange(4) / -d[0]
    roots = np.roots(np.trim_zeros(np.where(abs(ds) > 1e-13, ds, 0.0), "b")[::-1])
    s = roots.real[(roots.imag == 0) & (roots.real > 0)]
    values = np.polyval((c * tau ** np.arange(5))[::-1], s)
    return float(tau * s[np.argmin(values)]) if s.size else None


def scatter_by_component(domain, table, z):
    """The adjoint of a gather through an interior plane index table
    (4, nrows, 6): z (3, 4, nrows, 6) summed into C-order coefficient
    vectors (charts, k..., 4, 3) by one np.bincount per su(2) component."""
    n = 4 * domain.ncells
    out = np.empty((n, 3))
    for c in range(3):
        out[:, c] = np.bincount(table.ravel(), weights=z[c].ravel(), minlength=n)
    return out.reshape(domain.ncharts, *domain.extents, 4, 3)


def project_su2_by_trace(m):
    """-2 Re tr(X lam_a) for the anti-Hermitian traceless part X of m, by one
    einsum into C-order coefficient vectors (..., 3)."""
    m = np.asarray(m, dtype=np.complex128)
    ah = (m - np.conj(np.swapaxes(m, -1, -2))) / 2.0
    ah = ah - (np.trace(ah, axis1=-2, axis2=-1) / 2.0)[..., None, None] * np.eye(2, dtype=np.complex128)
    return -2.0 * np.real(np.einsum("...ij,aji->...a", ah, LAMBDA))


def serialize_by_json(f):
    """The form file of f as json.dumps writes the six-key document, its
    data the nested (rows, 4, 2) list of a cell-major copy of the values."""
    doc = {
        "version": FILE_VERSION,
        "topology": f.domain.topology,
        "sizes": list(f.domain.sizes),
        "degree": f.degree,
        "copy": COPY_NAMES[f.copy],
        "data": np.ascontiguousarray(f.values).view(np.float64).reshape(-1, 4, 2).tolist(),
    }
    return json.dumps(doc).encode()
