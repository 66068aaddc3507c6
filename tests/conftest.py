"""Shared small structures used as oracles across the test modules."""

import functools
import os
from pathlib import Path

import pytest

import gqdesigns
from gqdesigns.geometry import payne_derivation, symplectic_gq
from gqdesigns.search import find_ovoids
from gqdesigns.sprott import affine_plane, replicate, sprott_lrs
from gqdesigns.structures import Design, IncidenceStructure, dual


# The directory holding the gqdesigns package this process imported. Child
# processes run with another working directory, so a relative PYTHONPATH entry
# would not find it there; put this absolute path first, so a child runs the
# same code as the in-process tests, and keep any inherited entries after it,
# each made absolute.
PACKAGE_ROOT = Path(gqdesigns.__file__).resolve().parent.parent


def child_env() -> dict:
    env = dict(os.environ)
    inherited = [str(Path(p).resolve())
                 for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([str(PACKAGE_ROOT), *inherited])
    return env


def grid_3x3() -> IncidenceStructure:
    # rows and columns of a 3x3 array of points
    rows = [[3 * r + c for c in range(3)] for r in range(3)]
    cols = [[3 * r + c for r in range(3)] for c in range(3)]
    return IncidenceStructure(9, rows + cols)


FANO_BLOCKS = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
               (2, 3, 6), (2, 4, 5)]


def fano_design() -> Design:
    return Design(7, FANO_BLOCKS)


def fano_incidence() -> IncidenceStructure:
    return IncidenceStructure(7, FANO_BLOCKS)


@functools.lru_cache(maxsize=None)
def _w2():
    return symplectic_gq(2)


@functools.lru_cache(maxsize=None)
def _w2_ovoids():
    return tuple(find_ovoids(_w2()).solutions)


@functools.lru_cache(maxsize=None)
def _gq42():
    # the dual Payne derivation, a GQ(4,2) on 45 points
    return dual(payne_derivation(symplectic_gq(3), 0))


@pytest.fixture
def w2():
    return _w2()


@pytest.fixture
def w2_ovoids():
    return _w2_ovoids()


@pytest.fixture
def gq42():
    return _gq42()


@pytest.fixture
def tripled_plane():
    return replicate(affine_plane(3), 3)


@pytest.fixture
def sprott4():
    return sprott_lrs(4)
