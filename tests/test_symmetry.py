"""The WSTNN models' index symmetries. An index map that carries every
mode-pair unfolding onto an unfolding of the mapped tensor with the same
Fourier singular values leaves tnn and wstnn unchanged, so both solvers
must be equivariant under it: the same sweeps, and outputs that differ
only in rounding.

Three-way: any mode permutation (the weights follow their pairs), and a
flip or a cyclic roll of any one mode. N-way: flipping every mode at once,
and a cyclic roll of the last mode. A flip or roll of one other mode alone
reorders the tubes of some unfolding non-circularly, so it is no symmetry
there.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wstnn import solvers
from wstnn.ntubal import wstnn
from wstnn.synth import CpSpec, add_salt_pepper, gen_cp_tensor, sample_mask
from wstnn.tensor_ops import frobenius_norm, mode_pairs
from wstnn.tsvd import tnn

REL = 1e-12
# tau 0.3 runs these unit-scale draws for 30-60 sweeps; tau 10 often stops
# after one or two, where any map would pass
TAU = 0.3


@st.composite
def instances(draw, ndims):
    """(task, shape, seed, weights): a rank-1 or rank-2 CP draw to complete
    at SR 0.6 or to split at 10% salt-and-pepper noise."""
    ndim = draw(ndims)
    top = {3: 7, 4: 4}.get(ndim, 3)
    shape = tuple(draw(st.lists(st.integers(2, top), min_size=ndim, max_size=ndim)))
    seed = draw(st.integers(0, 2**31))
    alpha = np.random.default_rng(seed).dirichlet(np.ones(len(mode_pairs(ndim))))
    return draw(st.sampled_from(["complete", "rpca"])), shape, seed, alpha


def _solve(task, shape, seed, alpha, op):
    """The solve of the instance mapped by ``op``; its outputs and report."""
    truth = gen_cp_tensor(CpSpec(shape, 1 + seed % 2, seed))
    if task == "complete":
        mask = sample_mask(shape, 0.6, seed + 1)
        cfg = solvers.LrtcConfig(alpha=alpha, tau=TAU)
        x, report = solvers.lrtc_solve(op(np.where(mask, truth, 0.0)), op(mask), cfg)
        return [x], report
    noisy = add_salt_pepper(truth, 0.1, seed + 1)
    low, sparse, report = solvers.trpca_solve(op(noisy), solvers.TrpcaConfig(alpha=alpha, tau=TAU))
    return [low, sparse], report


def _assert_equivariant(instance, op, mapped_alpha=None):
    task, shape, seed, alpha = instance
    ref, ref_report = _solve(task, shape, seed, alpha, lambda x: x)
    got, report = _solve(task, shape, seed, alpha if mapped_alpha is None else mapped_alpha,
                         op)
    assert report.iterations == ref_report.iterations
    assert report.converged == ref_report.converged
    for a, b in zip(got, ref):
        assert frobenius_norm(a - op(b)) <= REL * frobenius_norm(b)


def _mapped_weights(alpha, perm):
    """Weights of ``x.transpose(perm)``: each pair's weight moves with it."""
    where = np.argsort(perm) + 1  # the new (1-based) mode of each old mode
    pairs = mode_pairs(len(perm))
    out = np.empty_like(alpha)
    for a, (k1, k2) in zip(alpha, pairs):
        out[pairs.index(tuple(sorted((where[k1 - 1], where[k2 - 1]))))] = a
    return out


def _close(a, b):
    return abs(a - b) <= REL * abs(b)


SOLVES = settings(max_examples=10, deadline=None)


@SOLVES
@given(instance=instances(st.just(3)), perm=st.permutations(range(3)))
def test_three_way_mode_permutation(instance, perm):
    shape, alpha = instance[1], _mapped_weights(instance[3], perm)
    assert _close(solvers.default_lambda(tuple(shape[p] for p in perm), alpha),
                  solvers.default_lambda(shape, instance[3]))
    _assert_equivariant(instance, lambda x: x.transpose(perm), alpha)


@SOLVES
@given(instance=instances(st.just(3)), axis=st.integers(0, 2), roll=st.booleans())
def test_three_way_single_mode_flip_or_roll(instance, axis, roll):
    if roll:
        _assert_equivariant(instance, lambda x: np.roll(x, 1, axis))
    else:
        _assert_equivariant(instance, lambda x: np.flip(x, axis))


@SOLVES
@given(instance=instances(st.integers(4, 5)))
def test_n_way_flip_all(instance):
    _assert_equivariant(instance, np.flip)


@SOLVES
@given(instance=instances(st.integers(4, 5)), data=st.data())
def test_n_way_last_mode_roll(instance, data):
    shift = data.draw(st.integers(1, instance[1][-1] - 1))
    _assert_equivariant(instance, lambda x: np.roll(x, shift, axis=-1))


@settings(max_examples=25, deadline=None)
@given(shape=st.lists(st.integers(1, 6), min_size=3, max_size=3), seed=st.integers(0, 2**31),
       data=st.data())
def test_three_way_norms(shape, seed, data):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    # tnn: the slices may be transposed, or flipped or rolled along any mode
    # (a roll of the tube mode shifts every Fourier slice by a phase)
    axis = data.draw(st.integers(0, 2))
    for y in (x.transpose(1, 0, 2), np.flip(x, axis), np.roll(x, 1, axis=2)):
        assert _close(tnn(y), tnn(x))
    alpha = rng.dirichlet(np.ones(3))
    perm = data.draw(st.permutations(range(3)))
    assert _close(wstnn(x.transpose(perm), _mapped_weights(alpha, perm)), wstnn(x, alpha))
    assert _close(wstnn(np.flip(x, axis), alpha), wstnn(x, alpha))


@settings(max_examples=25, deadline=None)
@given(shape=st.lists(st.integers(1, 4), min_size=4, max_size=5), seed=st.integers(0, 2**31),
       shift=st.integers(1, 3))
def test_n_way_wstnn(shape, seed, shift):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    alpha = rng.dirichlet(np.ones(len(mode_pairs(len(shape)))))
    assert _close(wstnn(np.flip(x), alpha), wstnn(x, alpha))
    assert _close(wstnn(np.roll(x, shift, axis=-1), alpha), wstnn(x, alpha))
