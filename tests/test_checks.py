"""Planted faults: each must make its verify check fail, so that a broken
boundary, coboundary or codifferential never passes quietly."""

import functools
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import ymdec
from ymdec import calculus as ca
from ymdec import checks
from ymdec import cochain as co
from ymdec import complex4 as cx
from ymdec.complex4 import MASKS_BY_DEGREE, Domain

DOMAINS = pytest.mark.parametrize(
    "domain",
    [Domain((2, 2, 2, 2), "sphere"), Domain((2, 2, 2, 2), "block")],
    ids=["sphere", "block"],
)
CHECKED = ("boundary_of_boundary", "coboundary_chain_duality", "green_identity")


def run_checks(domain):
    gauge = co.random_gauge(domain, seed=3)
    entries, _ = checks.run_verify_checks(domain, 5, 0.1, gauge)
    return {e["name"]: e for e in entries}


def first_interior_cell(domain):
    """Flat storage index of (chart 0, k = (1, 1, 1, 1))."""
    return int(np.ravel_multi_index(
        domain.storage_index(0, (1, 1, 1, 1)), (domain.ncharts, *domain.extents)
    ))


@DOMAINS
def test_checks_pass_without_a_fault(domain):
    entries = run_checks(domain)
    assert all(entries[name]["pass"] for name in CHECKED)


@DOMAINS
def test_negated_boundary_coefficient_fails_boundary_of_boundary(domain, monkeypatch):
    real = checks.boundary_arrays

    def faulty(d, p):
        row, col, coeff = real(d, p)
        if p == 2:
            coeff = coeff.copy()
            coeff[np.searchsorted(row, first_interior_cell(d) * len(MASKS_BY_DEGREE[p]))] *= -1
        return row, col, coeff

    monkeypatch.setattr(checks, "boundary_arrays", faulty)
    entry = run_checks(domain)["boundary_of_boundary"]
    assert entry["defect"] > 0
    assert not entry["pass"]


def forgetful(d, chart, k):
    """Domain.resolve with a torus seam: each axis wraps back into the same chart."""
    return chart, tuple(n if ki == 0 else 1 if ki == n + 1 else ki for ki, n in zip(k, d.sizes))


# every lru_cache of the package: those keyed by Domain hash by sizes and
# topology alone, so a cache added later cannot keep a stale table
PER_DOMAIN_CACHES = tuple({
    value: None
    for info in pkgutil.iter_modules(ymdec.__path__) if info.name != "__main__"
    for value in vars(importlib.import_module(f"ymdec.{info.name}")).values()
    if isinstance(value, functools._lru_cache_wrapper)
})


def test_cache_list_holds_every_cache_of_the_package():
    source = "".join(path.read_text() for path in Path(ymdec.__file__).parent.glob("*.py"))
    assert len(PER_DOMAIN_CACHES) == source.count("@lru_cache(") > 0


def test_seam_without_chart_toggle_fails_chain_duality(monkeypatch):
    # boundary_arrays reads its gluing from Domain.resolve, not from the
    # shifts of calculus: built with a resolve that wraps each axis back into
    # the same chart, the arrays disagree with the gluing shift_plus applies,
    # the Domain.step_copies read off the sound resolve at construction
    domain = Domain((2, 2, 2, 2), "sphere")
    with monkeypatch.context() as m:
        m.setattr(Domain, "resolve", forgetful)
        cx._neighbours.cache_clear()
        try:
            arrays = {p: cx.boundary_arrays.__wrapped__(domain, p) for p in range(1, 5)}  # bypass the cache
        finally:
            cx._neighbours.cache_clear()
    assert not np.array_equal(arrays[1][1], cx.boundary_arrays(domain, 1)[1])
    for module in (ca, checks):
        monkeypatch.setattr(module, "boundary_arrays", lambda d, p: arrays[p])
    entries = run_checks(domain)
    assert entries["boundary_of_boundary"]["pass"]  # a torus gluing is still a complex
    entry = entries["coboundary_chain_duality"]
    assert entry["defect"] > 1e-12
    assert not entry["pass"]


def test_step_copies_without_chart_toggle_fail_chain_duality(monkeypatch):
    # the converse fault: step_copies read off a resolve that wraps each axis
    # back into the same chart give every shift a torus seam, while the
    # per-cell neighbours of the restored resolve keep the sphere's
    with monkeypatch.context() as m:
        m.setattr(Domain, "resolve", forgetful)
        domain = Domain((2, 2, 2, 2), "sphere")
    assert domain.step_copies != Domain((2, 2, 2, 2), "sphere").step_copies
    # the faulty domain equals the sound one: no table may pass between them
    for cache in PER_DOMAIN_CACHES:
        cache.cache_clear()
    try:
        entries = run_checks(domain)
    finally:
        for cache in PER_DOMAIN_CACHES:
            cache.cache_clear()
    assert entries["boundary_of_boundary"]["pass"]
    entry = entries["coboundary_chain_duality"]
    assert entry["defect"] > 1e-12
    assert not entry["pass"]


def _perturbed(monkeypatch, name, eps):
    """Replace calculus.<name> by itself plus eps on one interior component."""
    real = getattr(ca, name)

    def faulty(f):
        out = real(f)
        out.values[out.domain.interior][0, 0, 0, 0, 0, 0, 0, 0] += eps
        return out

    monkeypatch.setattr(ca, name, faulty)


@DOMAINS
def test_perturbed_coboundary_fails_chain_duality(domain, monkeypatch):
    _perturbed(monkeypatch, "coboundary", 1e-9)
    entry = run_checks(domain)["coboundary_chain_duality"]
    assert entry["defect"] > 1e-12
    assert not entry["pass"]


@DOMAINS
def test_perturbed_codifferential_fails_green_identity(domain, monkeypatch):
    _perturbed(monkeypatch, "codifferential", 1e-6)
    entry = run_checks(domain)["green_identity"]
    assert entry["defect"] > 1e-10
    assert not entry["pass"]
