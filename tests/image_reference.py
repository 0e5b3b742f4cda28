"""The images of pi and rho one generator at a time, the reference that
``qaut.pi_map`` and ``qaut.rho_map`` are compared against: a dict of one
``FormalTensor`` per generator, each over the symbols of its own block
pair, read off the phase table (``pi_images``, ``rho_images``), and their
stack over a presentation's generators (``image_stack``).  ``pi_map`` and
``rho_map`` return that stack, written directly.  ``image_entries`` reads
one image as a dict of exact coefficients."""

import itertools
import math
from fractions import Fraction

import numpy as np

from qautcert.arith import root_of_unity
from qautcert.formal import FormalTensor, qsym, usym
from qautcert.qaut import IncompleteAssignment, QautPresentation, SnPresentation, _phase_table

from sparse_reference import accumulate


def _index_range(ns: int, nr: int):
    return itertools.product(range(ns), range(ns), range(nr), range(nr))


def table_images(spec, of_rho: bool) -> dict:
    """The images of pi (q-generators) or rho (u-generators), each read off
    its rows of the phase table."""
    out = {}
    for s, r, L, row, col, exp in _phase_table(spec):
        ns, nr = spec.sizes[s - 1], spec.sizes[r - 1]
        qs = [qsym(s, r, *t) for t in _index_range(ns, nr)]
        us = [usym(s, x, y, r, v, w) for x, y, v, w in _index_range(ns, nr)]
        sources, targets, prefactor = qs, tuple(us), Fraction(1, nr)
        if of_rho:
            row, col, exp = (a.transpose(4, 5, 6, 7, 0, 1, 2, 3, 8) for a in (row, col, -exp))
            sources, targets, prefactor = us, tuple(qs), Fraction(1, ns)
        shape = (len(sources), len(targets), row.shape[-1])
        row, col, exp = (a.reshape(shape) for a in (row, col, exp % L))
        sym = np.repeat(np.arange(len(targets)), shape[2])
        for n, source in enumerate(sources):
            out[source] = FormalTensor(spec.d ** 2, L, (prefactor,), targets, sym,
                                       row[n].ravel(), col[n].ravel(), exp[n].ravel())
    return out


def pi_images(spec) -> dict:
    """pi on q-generators as formal tensors over M_d x M_d in u-symbols."""
    return table_images(spec, of_rho=False)


def rho_images(spec) -> dict:
    """rho on u-generators as formal tensors over M_d x M_d in q-symbols."""
    return table_images(spec, of_rho=True)


def stack_images(images, symbols) -> FormalTensor:
    """The images, of one size, as one tensor over the symbols
    ``symbols``: image b of the list is image b of the stack, and its
    rows follow those of image b - 1."""
    size = images[0].size
    order = math.lcm(*(ft.order for ft in images))
    number = {s: n for n, s in enumerate(symbols)}
    renumbered = {}  # images often share their symbols tuple
    for ft in images:
        if id(ft.symbols) not in renumbered:
            renumbered[id(ft.symbols)] = np.array([number[s] for s in ft.symbols],
                                                  dtype=np.int64)
    return FormalTensor(size, order, sum((ft.prefactors for ft in images), ()), tuple(symbols),
                        np.concatenate([renumbered[id(ft.symbols)][ft.sym] for ft in images]),
                        np.concatenate([ft.row + b * size for b, ft in enumerate(images)]),
                        np.concatenate([ft.col for ft in images]),
                        np.concatenate([ft.exp * (order // ft.order) for ft in images]))


def image_stack(images: dict, presentation, target) -> FormalTensor:
    """The images of ``presentation.generators``, in that order, as one
    stacked formal tensor over ``target.generators``: its ``substitute``
    takes the stack of a ``GeneratorAssignment`` of ``target`` and returns
    the stack of one of ``presentation``."""
    missing = [g for g in presentation.generators if g not in images]
    if missing:
        raise IncompleteAssignment(f"{len(missing)} generators have no image")
    return stack_images([images[g] for g in presentation.generators], target.generators)


def pi_stack(spec, images: dict) -> FormalTensor:
    """The stack of images of pi, as ``pi_map`` returns it."""
    return image_stack(images, QautPresentation(spec), SnPresentation(spec))


def rho_stack(spec, images: dict) -> FormalTensor:
    """The stack of images of rho, as ``rho_map`` returns it."""
    return image_stack(images, SnPresentation(spec), QautPresentation(spec))


def image_entries(ft: FormalTensor) -> dict:
    """The nonzero coefficients of one image as {(symbol, row, col):
    Cyclotomic}."""
    if len(ft.prefactors) != 1:
        raise ValueError(f"image_entries reads one image, not a stack of {len(ft.prefactors)}")
    units = [root_of_unity(ft.order, e) for e in range(ft.order)]
    out: dict = {}
    accumulate(out, ft.prefactors[0],
               (((ft.symbols[j], r, c), units[e % ft.order])
                for j, r, c, e in zip(ft.sym.tolist(), ft.row.tolist(), ft.col.tolist(),
                                      ft.exp.tolist())))
    return out
