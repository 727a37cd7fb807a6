"""Tests for the combinatorial layer: signs, addressing, boundary, topology, and the
chain oracles (chain boundary, diagonal chains) in tests/oracles.py."""

import collections
import dataclasses
import itertools

import numpy as np
import pytest

from oracles import (
    boundary,
    boundary_arrays_by_cell,
    build_Vp,
    cup_basis,
    factors,
    gather_by_resolve,
    gauge_classes_by_union_find,
    interior_cells,
    parity_sign,
    stored_cells,
)
from ymdec import algebra as alg
from ymdec import cochain as co
from ymdec import complex4 as cx
from ymdec import gauge as ga
from ymdec.complex4 import (
    CHART_V,
    CHART_VHAT,
    FULL_MASK,
    TILDE,
    Cell,
    Domain,
    OutOfDomain,
)


BLOCK = Domain((2, 2, 2, 2), "block")
SPHERE = Domain((2, 2, 2, 2), "sphere")
# 2^4 and a non-cubic box, both topologies
BOXES = pytest.mark.parametrize(
    "domain",
    [BLOCK, SPHERE, Domain((2, 3, 4, 2), "block"), Domain((2, 3, 4, 2), "sphere")],
    ids=["block", "sphere", "block-2342", "sphere-2342"],
)


class TestSigns:
    def test_perm_sign_against_parity_oracle(self):
        for mask in range(16):
            p = cx.mask_axes(mask)
            pc = cx.mask_axes(FULL_MASK ^ mask)
            assert cx.perm_sign(mask) == parity_sign(p + pc), mask

    def test_perm_sign_printed_instances(self):
        # the star tables: e1 -> +, e2 -> -, eps13 -> -, empty -> +
        assert cx.perm_sign(cx.axes_mask([1])) == 1
        assert cx.perm_sign(cx.axes_mask([2])) == -1
        assert cx.perm_sign(cx.axes_mask([1, 3])) == -1
        assert cx.perm_sign(0) == 1

    def test_perm_sign_complement_product(self):
        for mask in range(16):
            p = cx.degree(mask)
            expect = (-1) ** (p * (4 - p))
            assert cx.perm_sign(mask) * cx.perm_sign(FULL_MASK ^ mask) == expect

    def test_cup_sign_instances(self):
        assert cx.cup_sign(cx.axes_mask([1]), cx.axes_mask([2])) == 1
        assert cx.cup_sign(cx.axes_mask([2]), cx.axes_mask([1])) == -1
        for q in range(16):
            assert cx.cup_sign(0, q) == 1
        assert cx.cup_sign(cx.axes_mask([2, 4]), cx.axes_mask([1, 3])) == -1

    def test_cup_sign_against_recursion_oracle(self):
        # nonzero product of basis elements: left at k=0, right shifted on P
        for pmask in range(16):
            for qmask in range(16):
                if pmask & qmask:
                    continue
                paxes = set(cx.mask_axes(pmask))
                qaxes = set(cx.mask_axes(qmask))
                k = (0, 0, 0, 0)
                kq = tuple(1 if i in paxes else 0 for i in cx.AXES)
                r = cup_basis(factors(k, paxes), factors(kq, qaxes))
                assert r is not None
                sign, res = r
                assert sign == cx.cup_sign(pmask, qmask), (pmask, qmask)
                assert {i for i in cx.AXES if res[i - 1][0] == "e"} == paxes | qaxes


class TestShifts:
    def test_tau_sigma(self):
        assert cx.shift((1, 1, 1, 1), 1) == (2, 1, 1, 1)


class TestResolve:
    def test_sphere_low_edge(self):
        assert SPHERE.resolve(CHART_V, (0, 1, 1, 1)) == (CHART_VHAT, (2, 1, 1, 1))

    def test_sphere_high_edge(self):
        assert SPHERE.resolve(CHART_VHAT, (1, 3, 1, 1)) == (CHART_V, (1, 1, 1, 1))

    def test_sphere_corner_double_toggle(self):
        assert SPHERE.resolve(CHART_V, (0, 0, 1, 1)) == (CHART_V, (2, 2, 1, 1))

    def test_block_identity_and_halo(self):
        assert BLOCK.resolve(CHART_V, (1, 1, 1, 1)) == (CHART_V, (1, 1, 1, 1))
        assert BLOCK.resolve(CHART_V, (0, 3, 1, 2)) == (CHART_V, (0, 3, 1, 2))

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            BLOCK.resolve(CHART_V, (4, 1, 1, 1))
        with pytest.raises(OutOfDomain):
            SPHERE.resolve(CHART_V, (4, 1, 1, 1))
        with pytest.raises(OutOfDomain):
            BLOCK.resolve(CHART_VHAT, (1, 1, 1, 1))

    @pytest.mark.parametrize("domain", [BLOCK, SPHERE], ids=["block", "sphere"])
    @pytest.mark.parametrize(
        "chart, k",
        [(-1, (1, 1, 1, 1)), (-1, (0, 1, 1, 1)), (2, (1, 1, 1, 1)),
         (CHART_V, (1, 1, 1)), (CHART_V, (1, 1, 1, 1, 1)), (CHART_V, ())],
        ids=["chart-minus-1", "chart-minus-1-seam", "chart-2", "three-indices", "five-indices", "no-index"],
    )
    def test_whole_address_is_checked(self, domain, chart, k):
        # a chart outside 0 .. ncharts - 1 or a k without four indices names
        # no stored cell: resolve raises, and get and set read and write nothing
        with pytest.raises(OutOfDomain):
            domain.resolve(chart, k)
        f = co.random_form(domain, 0, seed=1)
        before = f.values.copy()
        with pytest.raises(OutOfDomain):
            f.get(chart, k, 0)
        with pytest.raises(OutOfDomain):
            f.set(chart, k, 0, np.eye(2))
        assert np.array_equal(f.values, before)

    def test_idempotent(self):
        for k in itertools.product(range(4), repeat=4):
            try:
                chart, kk = SPHERE.resolve(CHART_V, k)
            except OutOfDomain:
                continue
            assert SPHERE.resolve(chart, kk) == (chart, kk)

    def test_axis_order_independent(self):
        # applying the single-axis identifications in any order gives the
        # same address (chart toggles compose by parity)
        def resolve_one_axis(domain, chart, k, axis):
            kk = list(k)
            n = domain.sizes[axis]
            if kk[axis] == 0:
                kk[axis] = n
                chart ^= 1
            elif kk[axis] == n + 1:
                kk[axis] = 1
                chart ^= 1
            return chart, tuple(kk)

        for k in itertools.product((0, 1, 2, 3), repeat=4):
            want = SPHERE.resolve(CHART_V, k)
            for order in itertools.permutations(range(4)):
                chart, kk = CHART_V, k
                for axis in order:
                    chart, kk = resolve_one_axis(SPHERE, chart, kk, axis)
                assert (chart, kk) == want, (k, order)

    def test_axis_lines_close_on_sphere(self):
        # walking tau_i returns to the start after exactly 2 N_i steps
        d = Domain((2, 3, 2, 2), "sphere")
        for axis in cx.AXES:
            pos = (CHART_V, (1, 2, 1, 1))
            seen = []
            for _ in range(2 * d.sizes[axis - 1]):
                seen.append(pos)
                pos = d.resolve(pos[0], cx.shift(pos[1], axis))
            assert pos == seen[0]
            assert len(set(seen)) == 2 * d.sizes[axis - 1]

    def test_sizes_validation(self):
        with pytest.raises(ValueError):
            Domain((1, 2, 2, 2), "block")
        with pytest.raises(ValueError):
            Domain((2, 2, 2, 2), "torus")

    @pytest.mark.parametrize(
        "sizes", [(2, 2, 2, 2.0), ("2", 2, 2, 2), (2, 2, 2, True), 2222],
        ids=["float", "string", "bool", "not-a-sequence"],
    )
    def test_sizes_are_integers_not_coerced(self, sizes):
        with pytest.raises((TypeError, ValueError), match="four integers"):
            Domain(sizes, "block")

    def test_numpy_integer_sizes_are_accepted(self):
        d = Domain(tuple(np.arange(2, 6)), "sphere")
        assert d.sizes == (2, 3, 4, 5) and all(type(n) is int for n in d.sizes)
        assert d == Domain([2, 3, 4, 5], "sphere")

    @pytest.mark.parametrize("topology", ["block", "sphere"])
    def test_storage_limit(self, topology):
        # a 2-form of 10^6 per axis outgrows any array; the count must not wrap
        with pytest.raises(ValueError, match="too large"):
            Domain((10**6,) * 4, topology)

    @pytest.mark.parametrize("topology", ["block", "sphere"])
    @pytest.mark.parametrize("sizes", [(2, 2, 2, 2), (3, 3, 3, 3), (2, 3, 4, 2)],
                             ids=["2", "3", "2342"])
    def test_storage_facts_are_set_once(self, sizes, topology):
        d = Domain(sizes, topology)
        sphere = topology == "sphere"
        halo = 0 if sphere else 1
        assert d.is_sphere is sphere
        assert d.ncharts == (2 if sphere else 1)
        assert d.halo == halo
        assert d.extents == tuple(n + 2 * halo for n in sizes)
        assert d.ncells == len(stored_cells(d))
        # the storage rule: stored k runs from 1 - halo to N_i + halo, at array
        # index k - 1 + halo, chart-major and k lexicographic
        index = list(np.ndindex(d.ncharts, *d.extents))
        assert stored_cells(d) == [(c, tuple(i + 1 - halo for i in idx)) for c, *idx in index]
        assert [d.storage_index(c, k) for c, k in stored_cells(d)] == index
        got = np.zeros((d.ncharts, *d.extents), dtype=bool)
        got[d.interior] = True
        want = np.zeros_like(got)
        for chart, k in interior_cells(d):
            want[d.storage_index(chart, k)] = True
        assert np.array_equal(got, want)
        # zero_pad keeps 1 <= k_i <= N_i - 1 on the block, every cell on the sphere
        kept = co.zero_pad(co.Cochain(d, 0, np.ones(co.Cochain.shape(d, 0)))).values[..., 0, 0, 0] != 0
        want = np.zeros_like(got)
        for chart, k in stored_cells(d):
            want[d.storage_index(chart, k)] = sphere or all(1 <= ki <= n - 1 for ki, n in zip(k, sizes))
        assert np.array_equal(kept, want)
        # random_form draws the stored range and edge-pads the halo: on the
        # sphere its values are the draws themselves, bit for bit
        rng = np.random.default_rng(3)
        shape = co.Cochain.shape(d, 2)
        draws = rng.uniform(-1.0, 1.0, size=shape) + 1j * rng.uniform(-1.0, 1.0, size=shape)
        values = co.random_form(d, 2, seed=3).values
        if sphere:
            assert values.tobytes() == draws.tobytes()
            # no halo, no padding pass: the draws are handed on as they are
            assert co._fill_halo_clamped(d, draws) is draws
        else:
            assert np.array_equal(values[d.interior], draws[d.interior])
            assert not np.array_equal(values, draws)
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.ncells = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.halo = 1 - halo
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.step_copies = ()
        # the derived values are attributes, not fields: equality, hashing and
        # repr read sizes and topology alone
        assert [f.name for f in dataclasses.fields(Domain)] == ["sizes", "topology"]
        same = Domain(list(sizes), topology)
        assert same == d and hash(same) == hash(d)
        other = dataclasses.replace(d, topology="block" if sphere else "sphere")
        assert other.is_sphere is not sphere and other.ncharts == 3 - d.ncharts
        assert other.ncells == len(stored_cells(other))
        assert other.interior != d.interior


class TestBoundary:
    def test_boundary_of_point_is_empty(self):
        cell = Cell(CHART_V, (1, 1, 1, 1), 0)
        assert len(cx.boundary_cell(BLOCK, cell)) == 0

    def test_worked_example_2cell_24(self):
        # d(eps^{24}) = s(tau2 k, {4}) - s(k, {4}) - s(tau4 k, {2}) + s(k, {2})
        k = (1, 1, 1, 1)
        cell = Cell(CHART_V, k, cx.axes_mask([2, 4]))
        got = cx.boundary_cell(BLOCK, cell)
        want = {
            Cell(CHART_V, (1, 2, 1, 1), cx.axes_mask([4])): 1,
            Cell(CHART_V, k, cx.axes_mask([4])): -1,
            Cell(CHART_V, (1, 1, 1, 2), cx.axes_mask([2])): -1,
            Cell(CHART_V, k, cx.axes_mask([2])): 1,
        }
        assert type(got) is dict and got == want

    @pytest.mark.parametrize("domain", [BLOCK, SPHERE], ids=["block", "sphere"])
    def test_boundary_squared_is_zero(self, domain):
        # every stored cell whose boundary is defined (top halo shifts leave
        # the block and raise)
        for chart, k in stored_cells(domain):
            for mask in range(16):
                try:
                    chain = cx.boundary_cell(domain, Cell(chart, k, mask))
                except OutOfDomain:
                    assert not domain.is_sphere
                    continue
                assert len(boundary(domain, chain)) == 0, (chart, k, mask)

    def test_boundary_keeps_copy_flag(self):
        cell = Cell(CHART_V, (1, 1, 1, 1), cx.axes_mask([1]), TILDE)
        for bcell in cx.boundary_cell(SPHERE, cell):
            assert bcell.copy == TILDE

    @pytest.mark.parametrize("domain", [BLOCK, SPHERE], ids=["block", "sphere"])
    def test_resolves_each_address_once(self, domain, monkeypatch):
        # a degree-p cell resolves k once and each tau_i k once: p + 1 calls
        calls = []
        real = Domain.resolve
        monkeypatch.setattr(Domain, "resolve", lambda d, chart, k: calls.append(k) or real(d, chart, k))
        for p in range(5):
            for mask in cx.MASKS_BY_DEGREE[p]:
                calls.clear()
                cx.boundary_cell(domain, Cell(CHART_V, (1, 2, 1, 2), mask))
                assert len(calls) == p + 1
                assert len(set(calls)) == p + 1


def _boundary_by_cell(domain, p):
    """(row, col, coeff) multiset and the raising rows, one boundary_cell
    call per stored cell and direction set, flat indices by ravel_multi_index."""
    shape = (domain.ncharts, *domain.extents)
    masks, sub = cx.MASKS_BY_DEGREE[p], cx.MASKS_BY_DEGREE[p - 1]
    terms, raising = collections.Counter(), set()
    for chart, k in stored_cells(domain):
        n = np.ravel_multi_index(domain.storage_index(chart, k), shape)
        for d, mask in enumerate(masks):
            row = n * len(masks) + d
            try:
                chain = cx.boundary_cell(domain, Cell(chart, k, mask))
            except OutOfDomain:
                raising.add(row)
                continue
            for cell, coeff in chain.items():
                m = np.ravel_multi_index(domain.storage_index(cell.chart, cell.k), shape)
                terms[(row, m * len(sub) + sub.index(cell.mask), coeff)] += 1
    return terms, raising


class TestNeighbours:
    @pytest.mark.parametrize(
        "domain",
        [Domain(sizes, topology) for sizes in [(2,) * 4, (3,) * 4, (2, 3, 4, 2)]
         for topology in ["block", "sphere"]] + [Domain((3, 2, 4, 2), "sphere")],
        ids=["block-2", "sphere-2", "block-3", "sphere-3", "block-2342", "sphere-2342", "sphere-3242"],
    )
    def test_matches_gather_by_resolve(self, domain):
        # column i - 1 is the flat position of resolve(chart, tau_i k) per
        # stored cell, the oracle's sentinel ncells read as -1
        table = cx._neighbours(domain)
        assert table.shape == (domain.ncells, 4) and table.dtype == np.intp
        for i in cx.AXES:
            want = gather_by_resolve(domain, i, +1)[:-1]
            assert np.array_equal(table[:, i - 1], np.where(want == domain.ncells, -1, want))
        assert (table == -1).any() == (not domain.is_sphere)

    def test_read_only_and_cached(self):
        table = cx._neighbours(BLOCK)
        assert cx._neighbours(BLOCK) is table
        with pytest.raises(ValueError):
            table[0, 0] = 0


# class counts of complex4.gauge_classes; on the block every stored cell that
# no equality reaches is a class of its own
GAUGE_CLASS_COUNTS = {
    ("sphere", (2, 2, 2, 2)): 16, ("sphere", (3, 3, 3, 3)): 6, ("sphere", (4, 4, 4, 4)): 32,
    ("sphere", (8, 8, 8, 8)): 64, ("sphere", (4, 4, 4, 2)): 8, ("sphere", (2, 4, 6, 2)): 8,
    ("sphere", (3, 5, 7, 3)): 2, ("sphere", (6, 4, 4, 4)): 8, ("sphere", (2, 3, 4, 2)): 4,
    ("sphere", (2, 3, 2, 2)): 4, ("block", (2, 2, 2, 2)): 211, ("block", (2, 3, 4, 2)): 354,
    ("block", (4, 4, 4, 4)): 755, ("block", (8, 8, 8, 8)): 3619,
}


def same_partition(x, y):
    """True iff two labellings of the same cells differ only by relabelling."""
    pairs = set(zip(x.tolist(), y.tolist()))
    return len(pairs) == len(set(x.tolist())) == len(set(y.tolist()))


class TestGaugeClasses:
    @pytest.mark.parametrize("topology, sizes", list(GAUGE_CLASS_COUNTS),
                             ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else v)
    def test_partition_matches_union_find(self, topology, sizes):
        domain = Domain(sizes, topology)
        classes, count = cx.gauge_classes(domain)
        assert classes.shape == (domain.ncells,)
        assert count == GAUGE_CLASS_COUNTS[topology, sizes] == len(set(classes.tolist()))
        assert same_partition(classes, gauge_classes_by_union_find(domain))
        _, first = np.unique(classes, return_index=True)  # numbered by their first stored cell
        assert np.all(np.diff(first) > 0)

    def test_block_interior_meets_13_classes(self):
        # block 2^4: 211 stored classes, of which 13 meet the interior
        classes, _ = cx.gauge_classes(BLOCK)
        assert np.unique(classes.reshape(BLOCK.ncharts, *BLOCK.extents)[BLOCK.interior]).size == 13

    @pytest.mark.parametrize("domain", [Domain((4, 4, 4, 4), "sphere"), Domain((2, 3, 4, 2), "block")],
                             ids=["sphere-4444", "block-2342"])
    @pytest.mark.parametrize("dropped", range(3))
    def test_a_dropped_pair_is_caught(self, monkeypatch, domain, dropped):
        # built without one of the three conditions, the classes are finer than
        # the union-find's, and a gauge drawn on them breaks that condition
        pairs = cx.SHIFT_PAIRS
        monkeypatch.setattr(cx, "SHIFT_PAIRS", pairs[:dropped] + pairs[dropped + 1:])
        classes, count = cx.gauge_classes.__wrapped__(domain)  # bypass the cache
        assert not same_partition(classes, gauge_classes_by_union_find(domain))
        table = alg.exp_su2(np.random.default_rng(3).uniform(-1.0, 1.0, size=(count, 3)))
        h = co.Cochain(domain, 0, table[classes].reshape(co.Cochain.shape(domain, 0)))
        defects = ga.dual_compat_defects(h)
        assert defects[dropped] > 0.01
        assert max(d for n, d in enumerate(defects) if n != dropped) == 0

    def test_read_only_and_cached(self):
        classes, count = cx.gauge_classes(SPHERE)
        assert cx.gauge_classes(SPHERE)[0] is classes
        with pytest.raises(ValueError):
            classes[0] = 0


class TestBoundaryArrays:
    @BOXES
    @pytest.mark.parametrize("p", range(1, 5))
    def test_match_boundary_cell(self, domain, p):
        row, col, coeff = cx.boundary_arrays(domain, p)
        terms, raising = _boundary_by_cell(domain, p)
        assert collections.Counter(zip(row.tolist(), col.tolist(), coeff.tolist())) == terms
        assert not raising & set(row.tolist())
        assert bool(raising) == (not domain.is_sphere)
        assert np.all(np.diff(row) >= 0)

    def test_read_only_and_cached(self):
        arrays = cx.boundary_arrays(BLOCK, 2)
        assert cx.boundary_arrays(BLOCK, 2) is arrays
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0

    @pytest.mark.parametrize("p", [0, 5])
    def test_degree_out_of_range(self, p):
        with pytest.raises(ValueError):
            cx.boundary_arrays(BLOCK, p)

    @pytest.mark.parametrize(
        "domain",
        [BLOCK, SPHERE, Domain((2, 3, 4, 2), "block"), Domain((2, 3, 4, 2), "sphere"),
         Domain((3, 2, 4, 2), "sphere")],
        ids=["block", "sphere", "block-2342", "sphere-2342", "sphere-3242"],
    )
    @pytest.mark.parametrize("p", range(1, 5))
    def test_term_order_matches_per_cell_build(self, domain, p):
        # pair_boundaries sums the terms with np.add.at, so their order, not
        # only their multiset, fixes its bits
        got = cx.boundary_arrays(domain, p)
        want = boundary_arrays_by_cell(domain, p)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("domain", [BLOCK, SPHERE], ids=["block", "sphere"])
    def test_built_from_boundary_cell_alone(self, domain, monkeypatch):
        # the gluing comes from at most one Domain.resolve per stored cell and
        # axis, the terms from one boundary_cell call per direction set at a
        # reference cell, and no path leads into the vectorized shifts the
        # arrays are used to check
        from ymdec import calculus as ca
        from ymdec import gauge as ga

        def forbidden(*args):
            raise AssertionError("boundary_arrays reached the vectorized shifts")

        monkeypatch.setattr(ca, "shift_plus", forbidden)
        monkeypatch.setattr(ga, "interior_gather", forbidden)
        resolves, calls = [], []
        real_resolve, real_boundary = Domain.resolve, cx.boundary_cell
        monkeypatch.setattr(Domain, "resolve", lambda d, chart, k: resolves.append(k) or real_resolve(d, chart, k))
        monkeypatch.setattr(cx, "boundary_cell", lambda d, c: calls.append(c) or real_boundary(d, c))
        cx._neighbours.cache_clear()  # build the neighbour table under the count
        try:
            reference = 0
            for p in range(1, 5):
                calls.clear()
                cx.boundary_arrays.__wrapped__(domain, p)  # bypass the cache
                assert len(calls) == len(cx.MASKS_BY_DEGREE[p])
                assert sorted(c.mask for c in calls) == sorted(cx.MASKS_BY_DEGREE[p])
                assert len({(c.chart, c.k) for c in calls}) == 1
                # boundary_cell resolves k and each tau_i k; the reference
                # cell's k and its four tau_i k name the terms' columns
                reference += len(calls) * (p + 1) + 5
            assert len(resolves) <= 4 * domain.ncells + reference
        finally:
            cx._neighbours.cache_clear()


class TestTopology:
    """The glued "sphere" has the homology of the 4-torus: every axis line
    closes into a circle of 2 N_i steps.  Ranks over the reals of the
    integer boundary_arrays."""

    @pytest.mark.parametrize(
        "n,ranks", [(2, (31, 93, 93, 31)), (3, (161, 483, 483, 161))], ids=["sphere-2", "sphere-3"]
    )
    def test_betti_numbers_and_euler_characteristic(self, n, ranks):
        domain = Domain((n,) * 4, "sphere")
        dims = [domain.ncells * len(cx.MASKS_BY_DEGREE[p]) for p in range(5)]
        got = []
        for p in range(1, 5):
            row, col, coeff = cx.boundary_arrays(domain, p)
            dense = np.zeros((dims[p], dims[p - 1]))
            dense[row, col] = coeff
            got.append(int(np.linalg.matrix_rank(dense)))
        assert tuple(got) == ranks
        rank = [0, *got, 0]  # rank of the boundary on degree p, p = 0..5
        betti = [dims[p] - rank[p] - rank[p + 1] for p in range(5)]
        assert betti == [1, 4, 6, 4, 1]
        assert sum((-1) ** p * dims[p] for p in range(5)) == 0
        assert sum((-1) ** p * b for p, b in enumerate(betti)) == 0


class TestStarChain:
    def test_star_cell_tables(self):
        # *e^1 = +e~^{234}, *e^2 = -e~^{134}, *e^3 = +e~^{124}, *e^4 = -e~^{123}
        k = (1, 1, 1, 1)
        expected = {1: 1, 2: -1, 3: 1, 4: -1}
        for i, sgn in expected.items():
            sign, dual = cx.star_cell(Cell(CHART_V, k, cx.axes_mask([i])))
            assert sign == sgn
            assert dual.mask == FULL_MASK ^ cx.axes_mask([i])
            assert dual.copy == TILDE

    def test_star_squared_on_chains(self):
        for mask in range(16):
            p = cx.degree(mask)
            cell = Cell(CHART_V, (1, 2, 1, 2), mask)
            s1, c1 = cx.star_cell(cell)
            s2, c2 = cx.star_cell(c1)
            assert c2 == cell
            assert s1 * s2 == (-1) ** (p * (4 - p))


class TestDiagonalChains:
    def test_degree1_signs(self):
        entries = build_Vp(BLOCK, 1)
        by_mask = {c.mask: (c, t, s) for c, t, s in entries if c.k == (1, 1, 1, 1)}
        signs = [by_mask[cx.axes_mask([i])][2] for i in cx.AXES]
        assert signs == [1, -1, 1, -1]
        cell, tcell, _ = by_mask[cx.axes_mask([1])]
        assert tcell.mask == cx.axes_mask([2, 3, 4])
        assert tcell.copy == TILDE

    def test_degree0(self):
        entries = build_Vp(BLOCK, 0)
        assert all(s == 1 for _, _, s in entries)
        assert all(t.mask == FULL_MASK for _, t, _ in entries)

    def test_degree2_count_block(self):
        assert len(build_Vp(BLOCK, 2)) == 6 * 16

    def test_degree2_count_sphere(self):
        assert len(build_Vp(SPHERE, 2)) == 2 * 6 * 16
